// Command edanalyze recomputes the paper's figures offline: from a
// stored XML dataset directory (as produced by edsim -out), or straight
// from a raw pcap capture (as produced by edsim -tee or any capture
// machine), replayed through the same Session pipeline as a live run.
//
// Usage:
//
//	edanalyze -in /tmp/ds [-csv /tmp/csv] [-windows 4]
//	edanalyze -pcap /tmp/capture.pcap -server 192.168.0.1
//
// -windows N, 2 to 8, re-analyses the dataset under N nested capture
// windows (full span, half, quarter, ...) and reports how every figure
// shifts — the finite-measurement-bias question of Benamara & Magnien.
// analysis.Run reads a dataset once for -verify, the windows and the
// figures together (twice for windows over a manifest without max_t).
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"edtrace"
	"edtrace/internal/analysis"
	"edtrace/internal/stats"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command with its arguments and output streams passed in; it
// returns the exit status: 0, 1 on a failed analysis, 2 on bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edanalyze", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		in       = fs.String("in", "", "dataset directory")
		pcapFile = fs.String("pcap", "", "raw pcap capture to replay instead of a dataset")
		server   = fs.String("server", "", "server IPv4 address (required with -pcap)")
		csv      = fs.String("csv", "", "directory to write per-figure CSV series")
		verify   = fs.Bool("verify", false, "check every spec invariant of the dataset")
		windows  = fs.Int("windows", 0, "nested capture windows for the finite-measurement-bias report: 0 (off) or 2 to 8, needs -in")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "edanalyze:", msg)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "edanalyze:", err)
		return 1
	}
	if (*in == "") == (*pcapFile == "") {
		return usage("exactly one of -in or -pcap is required")
	}
	if *verify && *pcapFile != "" {
		return usage("-verify checks dataset invariants and requires -in")
	}
	if *windows != 0 && *in == "" {
		return usage("-windows re-analyses a dataset and requires -in")
	}
	if *windows != 0 && (*windows < 2 || *windows > 8) {
		return usage("-windows takes 0 or 2 to 8 nested windows")
	}

	var figs *analysis.Figures
	if *pcapFile != "" {
		ip := net.ParseIP(*server)
		if ip == nil || ip.To4() == nil {
			return usage("-pcap needs -server a.b.c.d")
		}
		serverIP := binary.BigEndian.Uint32(ip.To4())
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		res, err := edtrace.NewSession(
			edtrace.NewPcapSource(*pcapFile),
			edtrace.WithServerIP(serverIP),
			edtrace.WithFigures(),
		).Run(ctx)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, res.Report)
		figs = res.Figures
	} else {
		res, err := analysis.Run(*in, analysis.Options{Verify: *verify, Windows: *windows})
		if err != nil {
			return fail(err)
		}
		man := res.Manifest
		fmt.Fprintf(stdout, "dataset: %d records in %d chunks, %d clients, %d fileIDs\n",
			man.Records, len(man.Chunks), man.DistinctClients, man.DistinctFiles)
		if v := res.Verify; v != nil {
			if !v.OK() {
				fmt.Fprintln(stderr, "edanalyze: dataset violates its specification:")
				for _, s := range v.Violations {
					fmt.Fprintln(stderr, "  -", s)
				}
				return 1
			}
			fmt.Fprintf(stdout, "verified: all spec invariants hold over %d records\n", v.Records)
		}
		if res.Bias != nil {
			fmt.Fprint(stdout, res.Bias.Render())
		}
		figs = res.Figures
	}
	fmt.Fprint(stdout, figs.Render())

	if *csv != "" {
		if err := os.MkdirAll(*csv, 0o755); err != nil {
			return fail(err)
		}
		series := map[string]*stats.IntHist{
			"fig4_providers_per_file.csv": figs.Fig4,
			"fig5_askers_per_file.csv":    figs.Fig5,
			"fig6_files_per_provider.csv": figs.Fig6,
			"fig7_files_per_asker.csv":    figs.Fig7,
			"fig8_file_sizes_kb.csv":      figs.Fig8,
		}
		for name, h := range series {
			var b strings.Builder
			analysis.WriteCSV(h, &b)
			if err := os.WriteFile(filepath.Join(*csv, name), []byte(b.String()), 0o644); err != nil {
				return fail(err)
			}
		}
		fmt.Fprintf(stdout, "CSV series written to %s\n", *csv)
	}
	return 0
}
