package edload

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"edtrace/internal/edserverd"
	"edtrace/internal/workload"
)

func startDaemon(t *testing.T) *edserverd.Daemon {
	t.Helper()
	d, err := edserverd.Start(edserverd.Config{UDPAddr: "off"})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return d
}

func loadConfig(d *edserverd.Daemon, nClients, maxMsgs int) Config {
	return Config{
		Target:               Target{Addrs: []string{d.TCPAddr().String()}},
		Clients:              nClients,
		Workload:             workload.SmallConfig(7, nClients),
		MaxMessagesPerClient: maxMsgs,
	}
}

// TestLoadSmoke: a small swarm, every answer verified by the lockstep
// protocol, daemon counters consistent with swarm counters.
func TestLoadSmoke(t *testing.T) {
	d := startDaemon(t)
	st, err := Run(context.Background(), loadConfig(d, 20, 60))
	if err != nil {
		t.Fatal(err)
	}
	if st.Offers == 0 || st.Searches == 0 || st.Asks == 0 {
		t.Fatalf("degenerate mix: %+v", st)
	}
	ds := d.Stats()
	if ds.Conns != 20 || ds.Logins != 20 {
		t.Fatalf("daemon saw %d conns %d logins", ds.Conns, ds.Logins)
	}
	// Every message the swarm sent was read by the daemon; every answer
	// the daemon sent was read by the swarm.
	if ds.TCPMsgs != st.Sent {
		t.Fatalf("daemon read %d messages, swarm sent %d", ds.TCPMsgs, st.Sent)
	}
	if st.Answers != ds.Answers {
		t.Fatalf("swarm read %d answers, daemon sent %d", st.Answers, ds.Answers)
	}
}

// TestLoad500ConcurrentClients is the acceptance bar: 500 concurrent
// TCP sessions complete without a single protocol or transport error
// (run under -race in CI).
func TestLoad500ConcurrentClients(t *testing.T) {
	if testing.Short() {
		t.Skip("500-client swarm skipped with -short")
	}
	d := startDaemon(t)
	st, err := Run(context.Background(), loadConfig(d, 500, 24))
	if err != nil {
		t.Fatal(err)
	}
	if st.Clients != 500 {
		t.Fatalf("clients = %d", st.Clients)
	}
	ds := d.Stats()
	if ds.Conns != 500 {
		t.Fatalf("daemon accepted %d conns", ds.Conns)
	}
	// The daemon's per-conn goroutines observe the client-side closes
	// asynchronously; give them a moment to drain.
	for end := time.Now().Add(5 * time.Second); d.Stats().Active != 0; {
		if time.Now().After(end) {
			t.Fatalf("%d connections still active after run", d.Stats().Active)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if ds.BadMsgs != 0 {
		t.Fatalf("daemon saw %d bad messages", ds.BadMsgs)
	}
	if ds.TCPMsgs != st.Sent {
		t.Fatalf("daemon read %d, swarm sent %d", ds.TCPMsgs, st.Sent)
	}
	t.Logf("500 clients: %d msgs sent, %d answers, %.0f msgs/s round-trip",
		st.Sent, st.Answers, st.MsgsPerSec())
}

// noLeak snapshots the goroutine count; the returned func fails the
// test if more goroutines than that are still alive shortly after — a
// driver that returned while a session goroutine is still running.
func noLeak(t *testing.T) func() {
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutine leak: %d before the test, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// feeds runs the same Target through both of the driver's feeds, so a
// property of the driver is checked for Run and RunSpec alike. Run's
// population is all-Heavy (plans of ~100 messages, as in
// TestFailoverMidRun) so that it is reliably still mid-plan when a test
// interferes.
var feeds = []struct {
	name string
	run  func(ctx context.Context, tgt Target) (Stats, error)
}{
	{"Run", func(ctx context.Context, tgt Target) (Stats, error) {
		wl := workload.SmallConfig(13, 6)
		wl.HeavyFraction, wl.ScannerFraction, wl.PolluterFraction = 1, 0, 0
		return Run(ctx, Config{Target: tgt, Clients: 6, Workload: wl, MaxMessagesPerClient: 1200})
	}},
	{"RunSpec", func(ctx context.Context, tgt Target) (Stats, error) {
		st, err := RunSpec(ctx, SpecConfig{Target: tgt, Spec: smokeSpec()})
		return st.Stats, err
	}},
}

// TestLoadCancellation: cancelling mid-run aborts promptly, surfaces the
// caller's cancellation — not the read error of whichever session the
// cancellation happened to interrupt — and leaves no goroutine behind.
func TestLoadCancellation(t *testing.T) {
	for _, f := range feeds {
		t.Run(f.name, func(t *testing.T) {
			d := startDaemon(t)
			check := noLeak(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			// The daemon's tap sees every query and answer as it is served:
			// the 30th lands while sessions are on the wire.
			var seen atomic.Int64
			defer d.SetTap(func(_, _ uint32, _ []byte) {
				if seen.Add(1) == 30 {
					cancel()
				}
			})()
			st, err := f.run(ctx, Target{Addrs: []string{d.TCPAddr().String()}})
			if err != context.Canceled {
				t.Fatalf("cancelled run returned %v, want context.Canceled", err)
			}
			if st.Sent == 0 {
				t.Fatalf("cancelled before anything was sent: %+v", st)
			}
			check()
		})
	}
}
