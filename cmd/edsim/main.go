// Command edsim runs a scaled virtual capture of an eDonkey server —
// the whole measurement of the paper, end to end: synthetic world,
// network, capture machine, real-time decode + anonymise pipeline, XML
// dataset, and the figure analyses.
//
// Ctrl-C cancels the run cleanly: the dataset written so far is closed
// into a valid (partial) capture.
//
// Usage:
//
//	edsim -weeks 1 -clients 15000 -files 80000 -out /tmp/ds -figures
//	edsim -spec examples/specs/tenweeks.json -out /tmp/ds
//
// The clients play a workload spec's sessions: the built-in default
// (Poisson arrivals along a diurnal curve, ~3 sessions a client over
// -weeks), or with -spec a spec file (docs/workload-spec.md) whose world,
// duration, phases, curves, churn and releases replace
// -weeks/-clients/-files/-seed; a world field it leaves out takes
// Spec.WorldConfig's default. Ten spec weeks cost only CPU: no -compress.
//
// -service is polled every 50 ms, so it takes effect in steps of 20
// frames/s; a rate below one frame a poll (< 20) is an error, as is a
// -bufkb below 1.
//
// -metrics addr serves the session's metrics, the simulated index's
// gauges, the virtual time reached and the net/http/pprof handlers while
// the run lasts, so a long simulation can be watched and profiled:
//
//	edsim -spec examples/specs/tenweeks.json -metrics localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"edtrace"
	"edtrace/internal/core"
	"edtrace/internal/obs"
	"edtrace/internal/simtime"
	"edtrace/internal/workload"
)

func main() {
	var (
		weeks    = flag.Float64("weeks", 0.25, "virtual capture duration in weeks")
		clientsN = flag.Int("clients", 8000, "number of clients")
		filesN   = flag.Int("files", 50000, "genuine catalog size")
		seed     = flag.Uint64("seed", 1, "world seed")
		specFile = flag.String("spec", "", "workload spec JSON whose world, duration, phases, curves, churn and releases drive the capture (overrides -weeks/-clients/-files/-seed)")
		out      = flag.String("out", "", "dataset output directory (empty = no dataset)")
		gz       = flag.Bool("gz", false, "gzip dataset chunks")
		figures  = flag.Bool("figures", true, "compute and print the figures")
		bufKB    = flag.Int("bufkb", 256, "capture kernel buffer (KB)")
		service  = flag.Int("service", 6000, "capture service rate (frames/sec)")
		tee      = flag.String("tee", "", "mirror processed frames into a pcap file")
		progress = flag.Bool("progress", false, "print periodic progress")
		metrics  = flag.String("metrics", "", "serve /metrics, /metrics.json, /healthz and /debug/pprof on this address while the run lasts")
	)
	flag.Parse()

	sim := core.DefaultSimConfig()
	sim.Workload.Seed = *seed
	sim.Workload.NumClients = *clientsN
	sim.Workload.NumFiles = *filesN
	sim.Traffic.Duration = simtime.Time(float64(simtime.Week) * *weeks)
	if *specFile != "" {
		s, err := workload.LoadSpec(*specFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "edsim:", err)
			os.Exit(1)
		}
		sim.Workload = s.WorldConfig()
		sim.Traffic.Duration = s.Total()
		sim.Spec = s
		fmt.Printf("spec %q: %v of virtual capture, %d clients, %d files\n",
			s.Name, sim.Traffic.Duration, sim.Workload.NumClients, sim.Workload.NumFiles)
	}
	sim.KernelBufferBytes = *bufKB << 10
	sim.ServicePerPoll = *service / 20 // polled every 50 ms

	var opts []edtrace.Option
	if *figures {
		opts = append(opts, edtrace.WithFigures())
	}
	if *out != "" {
		opts = append(opts, edtrace.WithDataset(*out, *gz))
	}
	if *tee != "" {
		opts = append(opts, edtrace.WithPcapTee(*tee))
	}
	if *progress {
		opts = append(opts, edtrace.WithProgress(func(p edtrace.Progress) {
			fmt.Fprintf(os.Stderr, "\r%12d frames  %12d records  t=%v   ",
				p.Frames, p.Records, p.T)
		}), edtrace.WithProgressEvery(1<<16))
	}

	if *metrics != "" {
		reg := obs.NewRegistry()
		srv, err := obs.Serve(*metrics, reg, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "edsim: metrics:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "edsim: metrics on http://%s/metrics\n", srv.Addr())
		opts = append(opts, edtrace.WithMetrics(reg))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := edtrace.NewSession(edtrace.NewSimSource(sim), opts...).Run(ctx)
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "edsim:", err)
		os.Exit(1)
	}

	fmt.Println(res.Report)
	fmt.Printf("sessions: %d, releases fired: %d\n", res.Report.SwarmStats.Sessions, res.Report.SwarmStats.Releases)
	fmt.Printf("capture losses: %d (rate %.2e, spread over %d bursty seconds)\n",
		res.Fig2.TotalLost, res.Fig2.LossRate(), res.Fig2.BurstSeconds())
	fmt.Printf("fileID buckets: max %d (bucket %d), mean %.1f, %d pathological\n",
		res.Fig3.MaxSize, res.Fig3.MaxIdx, res.Fig3.Mean, len(res.Fig3.Outliers))
	if res.Figures != nil {
		fmt.Println()
		fmt.Print(res.Figures.Render())
	}
	if *out != "" {
		fmt.Printf("dataset written to %s\n", *out)
	}
	if *tee != "" {
		fmt.Printf("pcap tee written to %s\n", *tee)
	}
}
