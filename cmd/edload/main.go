// Command edload drives a TCP client swarm against an eDonkey server
// (edserverd, or any server speaking framed ed2k): it generates a
// synthetic population with internal/workload's behavioural profiles,
// materialises each client's plan as an ordered message list, and
// replays the plans over N concurrent connections in strict
// request→answer lockstep — a run that exits 0 has verified every
// answer arrived.
//
// -addr takes a comma-separated server list (a server.met): each
// session picks a live server and fails over to the next on a connect
// or answer failure, so a run survives individual server deaths.
//
// Usage:
//
//	edload -addr 127.0.0.1:4661 -clients 500
//	edload -addr 127.0.0.1:4661,127.0.0.1:5661 -clients 2000 -seed 9
//	edload -addr 127.0.0.1:4661 -spec examples/specs/tenweeks.json -compress 10080
//	edload -addr 127.0.0.1:4661 -abuse search-storm -abuse-duration 10s
//
// With -abuse, the well-behaved swarm is replaced by an adversarial
// profile (reconnect-storm, search-storm, slowloris, index-spam) — the
// hostile traffic a policied edserverd (-policy) is built to absorb.
// An abuse run never fails on refused or reaped connections: those are
// the measurement.
//
// With -spec, the fixed swarm is replaced by the spec-driven workload
// engine: session arrivals, churn and flash crowds from the JSON spec
// (docs/workload-spec.md), paced onto the wall clock by the compression
// factor (-compress overrides the spec's own). -metrics exposes the
// replay's gauges and per-phase counters while it runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"edtrace/internal/edload"
	"edtrace/internal/obs"
	"edtrace/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:4661", "server TCP addresses, comma-separated (sessions spread over the live ones)")
		nconn    = flag.Int("clients", 500, "concurrent TCP client sessions (cap with -spec)")
		seed     = flag.Uint64("seed", 1, "population seed (ignored with -spec: the spec carries its own)")
		files    = flag.Int("files", 2000, "synthetic catalog size (ignored with -spec)")
		maxMsgs  = flag.Int("max-msgs", 256, "per-client message cap")
		spec     = flag.String("spec", "", "workload spec JSON: drive the swarm from the engine's event stream")
		compress = flag.Float64("compress", 0, "sim/wall compression factor override (with -spec; 0 = the spec's)")
		abuse    = flag.String("abuse", "", "adversarial profile instead of the swarm: "+strings.Join(edload.AbuseProfiles(), ", "))
		abuseDur = flag.Duration("abuse-duration", 5*time.Second, "abuse run duration (with -abuse)")
		abuseN   = flag.Int("abuse-workers", 16, "concurrent attackers (with -abuse)")
		metrics  = flag.String("metrics", "", "serve /metrics, /metrics.json and /healthz on this address")
		quiet    = flag.Bool("quiet", false, "suppress lifecycle logging")
	)
	flag.Parse()

	logf := log.Printf
	if *quiet {
		logf = func(string, ...any) {}
	}
	var reg *obs.Registry
	if *metrics != "" {
		reg = obs.NewRegistry()
		srv, err := obs.Serve(*metrics, reg, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, "edload:", err)
			os.Exit(1)
		}
		defer srv.Close()
		logf("edload: metrics on http://%s/metrics", srv.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *abuse != "" {
		st, err := edload.RunAbuse(ctx, edload.AbuseConfig{
			Addr:     strings.Split(*addr, ",")[0],
			Profile:  *abuse,
			Workers:  *abuseN,
			Duration: *abuseDur,
			Seed:     *seed,
			Logf:     logf,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "edload:", err)
			os.Exit(1)
		}
		fmt.Printf("abuse %s (%d workers): %d attempts (%d accepted, %d refused, %d reaped), %d msgs (%d answered, %d empty, %d errors, %d spam files admitted) in %v\n",
			st.Profile, st.Workers, st.Attempts, st.Accepted, st.Refused, st.Reaped,
			st.Sent, st.Answers, st.Empty, st.Errors, st.AcceptedFiles,
			st.Wall.Round(time.Millisecond))
		return
	}

	target := edload.Target{Addrs: strings.Split(*addr, ","), Metrics: reg, Logf: logf}
	if *spec != "" {
		s, err := workload.LoadSpec(*spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, "edload:", err)
			os.Exit(1)
		}
		st, err := edload.RunSpec(ctx, edload.SpecConfig{
			Target:                target,
			Spec:                  s,
			Compress:              *compress,
			MaxConcurrent:         *nconn,
			MaxMessagesPerSession: *maxMsgs,
		})
		fmt.Printf("spec %q: %v simulated at %gx — %d sessions (%d skipped, %d spec-suppressed), %d releases, %d sent, %d answered (%d failovers) in %v, max lag %v\n",
			s.Name, st.SimSpan, st.Factor, st.Sessions, st.Skipped, st.SuppressedBySpec,
			st.Releases, st.Sent, st.Answers, st.Failovers,
			st.Wall.Round(time.Millisecond), st.MaxBehind.Round(time.Millisecond))
		if err != nil {
			fmt.Fprintln(os.Stderr, "edload:", err)
			os.Exit(1)
		}
		return
	}

	wl := workload.SmallConfig(*seed, *nconn)
	wl.NumFiles = *files
	st, err := edload.Run(ctx, edload.Config{
		Target:               target,
		Clients:              *nconn,
		Workload:             wl,
		MaxMessagesPerClient: *maxMsgs,
	})
	fmt.Printf("%d clients: %d sent, %d answered (%d offers, %d searches, %d asks, %d sources found, %d failovers) in %v — %.0f msgs/s round-trip\n",
		st.Clients, st.Sent, st.Answers, st.Offers, st.Searches, st.Asks, st.Found, st.Failovers,
		st.Wall.Round(time.Millisecond), st.MsgsPerSec())
	if err != nil {
		fmt.Fprintln(os.Stderr, "edload:", err)
		os.Exit(1)
	}
}
