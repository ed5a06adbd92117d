package edtrace

import (
	"context"
	"testing"
	"time"

	"edtrace/internal/edload"
	"edtrace/internal/edserverd"
	"edtrace/internal/workload"
)

// TestSelfCapture closes the loop the tentpole is about: edserverd
// serves a real TCP swarm (edload) while a ServerSource session captures
// the daemon's own traffic through the standard pipeline — the paper's
// deployment, entirely in-process.
func TestSelfCapture(t *testing.T) {
	defer noLeak(t)()
	d, err := edserverd.Start(edserverd.Config{UDPAddr: "off", Shards: 4})
	if err != nil {
		t.Fatal(err)
	}

	src := NewServerSource(d, 0)
	type result struct {
		res *Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := NewSession(src, WithFigures()).Run(context.Background())
		done <- result{res, err}
	}()

	loadStats, err := edload.Run(context.Background(), edload.Config{
		Target:               edload.Target{Addrs: []string{d.TCPAddr().String()}},
		Clients:              40,
		Workload:             workload.SmallConfig(3, 40),
		MaxMessagesPerClient: 50,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Shutting the daemon down closes the source, which ends the session.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}

	// Everything the swarm exchanged is mirrored except the login
	// handshake (LoginRequest out, IDChange back — one pair per client,
	// excluded because the TCP-only opcodes have no UDP encoding).
	wantMirrored := loadStats.Sent + loadStats.Answers - 2*uint64(loadStats.Clients)
	rep := r.res.Report
	if rep.EthernetCaptured != wantMirrored {
		t.Fatalf("captured %d frames, want %d (sent %d answers %d, %d logins)",
			rep.EthernetCaptured, wantMirrored, loadStats.Sent, loadStats.Answers, loadStats.Clients)
	}
	if rep.EthernetDropped != 0 {
		t.Fatalf("self-capture dropped %d frames", rep.EthernetDropped)
	}
	if rep.Pipeline.DecodedOK != wantMirrored {
		t.Fatalf("decoded %d of %d mirrored messages", rep.Pipeline.DecodedOK, wantMirrored)
	}
	if rep.Pipeline.Records == 0 {
		t.Fatal("no records from self-capture")
	}
	// The capture saw both directions: client queries and server answers.
	if rep.Pipeline.Queries == 0 || rep.Pipeline.Answers == 0 {
		t.Fatalf("direction classification broken: %+v", rep.Pipeline)
	}
	// Distinct clients: one per load connection (ephemeral loopback
	// ports), plus nothing for the server itself on the query side.
	if rep.DistinctClients < uint32(loadStats.Clients) {
		t.Fatalf("distinct clients %d < %d swarm connections",
			rep.DistinctClients, loadStats.Clients)
	}
	if r.res.Figures == nil || r.res.Figures.Fig4.N() == 0 {
		t.Fatal("self-capture produced no figure data")
	}
}
