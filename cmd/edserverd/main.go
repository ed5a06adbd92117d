// Command edserverd runs the real eDonkey directory-server daemon: the
// deployed substrate the paper measured (§2.2) but could not open —
// framed ed2k over TCP, bare datagrams over UDP, a sharded concurrent
// index, periodic source expiry, graceful shutdown on SIGTERM/SIGINT.
//
// With -dataset or -tee the daemon also captures itself: a ServerSource
// session mirrors every accepted query and answer through the standard
// decode → anonymise → store pipeline, producing the same XML dataset
// (or pcap) as a simulated or replayed capture — ready for edanalyze.
//
// Usage:
//
//	edserverd -tcp 127.0.0.1:4661 -udp 127.0.0.1:4665
//	edserverd -dataset /tmp/self -figures     # capture your own traffic
//	edserverd -metrics 127.0.0.1:9100         # Prometheus + healthz endpoint
//	edserverd -policy policy.json             # admission/rate-limit/shed policies
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"edtrace"
	"edtrace/internal/edserverd"
	"edtrace/internal/obs"
	"edtrace/internal/policy"
)

func main() {
	var (
		tcp     = flag.String("tcp", "127.0.0.1:4661", `TCP listen address ("off" disables)`)
		udp     = flag.String("udp", "127.0.0.1:4665", `UDP listen address ("off" disables)`)
		name    = flag.String("name", "edserverd", "server name")
		desc    = flag.String("desc", "edtrace eDonkey directory server", "server description")
		dataset = flag.String("dataset", "", "self-capture: write the anonymised XML dataset here")
		gz      = flag.Bool("gz", false, "gzip self-capture dataset chunks")
		tee     = flag.String("tee", "", "self-capture: mirror traffic into this pcap file")
		figures = flag.Bool("figures", false, "self-capture: print the paper's figures on shutdown")
		metrics = flag.String("metrics", "", "serve /metrics, /metrics.json and /healthz on this address")
		polFile = flag.String("policy", "", "traffic-policy JSON config (docs/policy.md); empty admits everything")
		idle    = flag.Duration("idle-timeout", 3*time.Minute, "reap TCP connections idle this long (<0 disables)")
		quiet   = flag.Bool("quiet", false, "suppress lifecycle logging")
	)
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	var pol *policy.Config
	if *polFile != "" {
		var err error
		if pol, err = policy.LoadConfig(*polFile); err != nil {
			fail(err)
		}
	}
	// One registry holds the daemon's series and the self-capture's.
	reg := obs.NewRegistry()
	d, err := edserverd.Start(edserverd.Config{
		TCPAddr:     *tcp,
		UDPAddr:     *udp,
		Name:        *name,
		Desc:        *desc,
		Policy:      pol,
		IdleTimeout: *idle,
		Metrics:     reg,
		Logf:        logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err) // already names its package
		os.Exit(1)
	}
	var msrv *obs.Server
	if *metrics != "" {
		if msrv, err = obs.Serve(*metrics, reg, d.Health); err != nil {
			d.Shutdown(context.Background())
			fail(fmt.Errorf("metrics: %w", err))
		}
		logf("edserverd: metrics on http://%s/metrics", msrv.Addr())
	}

	// Self-capture: the daemon observed by its own capture pipeline.
	capturing := *dataset != "" || *tee != "" || *figures
	var session <-chan sessionResult
	if capturing {
		src := edtrace.NewServerSource(d, 0)
		opts := []edtrace.Option{edtrace.WithMetrics(reg)}
		if *dataset != "" {
			opts = append(opts, edtrace.WithDataset(*dataset, *gz))
		}
		if *tee != "" {
			opts = append(opts, edtrace.WithPcapTee(*tee))
		}
		if *figures {
			opts = append(opts, edtrace.WithFigures())
		}
		session = runCapture(src, opts)
		logf("edserverd: self-capture running (dataset=%q tee=%q)", *dataset, *tee)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	var early *sessionResult
	select {
	case s := <-sig:
		logf("edserverd: %v: shutting down", s)
	case r := <-session:
		// The self-capture died while the daemon is healthy (e.g. an
		// unwritable dataset directory): the operator asked for a
		// capture, so losing it silently for hours is worse than
		// stopping. Shut down and report.
		early = &r
		logf("edserverd: self-capture ended, shutting down")
	}
	// The endpoint outlives the drain: /healthz answers 503 until it
	// closes.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "edserverd: shutdown:", err)
	}
	if msrv != nil {
		msrv.Close()
	}

	st := d.Stats()
	fmt.Printf("served %d connections (%d messages tcp, %d udp, %d answers, %d bad) over %v\n",
		st.Conns, st.TCPMsgs, st.UDPMsgs, st.Answers, st.BadMsgs, d.Uptime().Round(time.Second))
	fmt.Printf("index: %d files, %d sources, %d users\n",
		st.Server.IndexedFiles, st.Server.IndexedSources, st.Server.Users)
	if p := d.Policy(); p != nil {
		adm, thr, shed := p.Totals()
		fmt.Printf("policy: %d admitted, %d throttled, %d shed\n", adm, thr, shed)
	}

	if capturing {
		var r sessionResult
		if early != nil {
			r = *early
		} else {
			r = <-session
		}
		if r.err != nil {
			fail(fmt.Errorf("capture: %w", r.err))
		}
		fmt.Println(r.res.Report)
		if r.res.Figures != nil {
			fmt.Print(r.res.Figures.Render())
		}
		if *dataset != "" {
			fmt.Printf("self-capture dataset written to %s\n", *dataset)
		}
		if *tee != "" {
			fmt.Printf("self-capture pcap written to %s\n", *tee)
		}
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "edserverd:", err)
	os.Exit(1)
}

type sessionResult struct {
	res *edtrace.Result
	err error
}

// runCapture runs the self-capture session in the background; it ends
// when the daemon shuts down (the ServerSource closes itself).
func runCapture(src *edtrace.ServerSource, opts []edtrace.Option) <-chan sessionResult {
	done := make(chan sessionResult, 1)
	go func() {
		res, err := edtrace.NewSession(src, opts...).Run(context.Background())
		done <- sessionResult{res, err}
	}()
	return done
}
