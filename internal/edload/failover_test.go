package edload

import (
	"context"
	"strings"
	"testing"
	"time"

	"edtrace/internal/edserverd"
	"edtrace/internal/workload"
)

// TestFailoverMidRun kills one of three servers while the swarm is
// mid-plan. Every session must complete anyway: the lockstep protocol
// plus the fence settlement mean a clean Run return proves zero lost
// answers even across the reconnects.
func TestFailoverMidRun(t *testing.T) {
	var daemons []*edserverd.Daemon
	var addrs []string
	for i := 0; i < 3; i++ {
		d := startDaemon(t)
		daemons = append(daemons, d)
		addrs = append(addrs, d.TCPAddr().String())
	}
	victim := daemons[2]

	// An all-Heavy population: every client shares hundreds of files and
	// asks for dozens, so each plan runs to ~100 messages and the swarm
	// is reliably still mid-plan when the victim dies.
	wl := workload.SmallConfig(11, 12)
	wl.HeavyFraction = 1.0
	wl.ScannerFraction = 0
	wl.PolluterFraction = 0
	cfg := Config{
		Target:               Target{Addrs: addrs},
		Clients:              12,
		Workload:             wl,
		MaxMessagesPerClient: 1200,
	}

	// Kill the victim once it has demonstrably joined the run.
	runDone := make(chan struct{})
	killed := make(chan bool, 1)
	go func() {
		deadline := time.Now().Add(30 * time.Second)
		for time.Now().Before(deadline) {
			select {
			case <-runDone:
				killed <- false
				return
			default:
			}
			if victim.Stats().TCPMsgs >= 100 {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				victim.Shutdown(ctx)
				cancel()
				killed <- true
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		killed <- false
	}()

	st, err := Run(context.Background(), cfg)
	close(runDone)
	if err != nil {
		t.Fatalf("run failed despite failover: %v (stats %+v)", err, st)
	}
	if !<-killed {
		t.Fatalf("run finished before the victim saw enough traffic to be killed: %+v", st)
	}
	if st.Failovers == 0 {
		t.Fatalf("victim was killed mid-run but no session failed over: %+v", st)
	}
	t.Logf("completed with %d failovers: %+v", st.Failovers, st)
}

// TestFailoverAllDeadFails proves the other side, for both feeds: when
// every server is gone and attempts run out, the run reports the
// failed session instead of hanging, and its stats still count what
// happened.
func TestFailoverAllDeadFails(t *testing.T) {
	d := startDaemon(t)
	addr := d.TCPAddr().String()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	for _, f := range feeds {
		t.Run(f.name, func(t *testing.T) {
			defer noLeak(t)()
			st, err := f.run(context.Background(), Target{Addrs: []string{addr}})
			if err == nil {
				t.Fatal("run against a dead server list succeeded")
			}
			if !strings.Contains(err.Error(), "failovers exhausted") {
				t.Fatalf("error does not name the exhausted failovers: %v", err)
			}
			if st.Failovers == 0 || st.Answers != 0 || st.Wall <= 0 {
				t.Fatalf("stats on error: %+v", st)
			}
		})
	}
}
