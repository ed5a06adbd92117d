package edtrace

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"edtrace/internal/dataset"
	"edtrace/internal/ed2k"
	"edtrace/internal/edload"
	"edtrace/internal/edserverd"
	"edtrace/internal/workload"
	"edtrace/internal/xmlenc"
)

// TestSelfCapture closes the loop the tentpole is about: edserverd
// serves a real TCP swarm (edload) while a ServerSource session captures
// the daemon's own traffic through the standard pipeline — the paper's
// deployment, entirely in-process.
func TestSelfCapture(t *testing.T) {
	defer noLeak(t)()
	d, err := edserverd.Start(edserverd.Config{UDPAddr: "off"})
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

// TestSelfCaptureUDP is TestSelfCapture on the daemon's datagram path:
// UDP clients each send an offer, a search, a source query and a status
// ping to a UDP-only daemon under a ServerSource. Every datagram in
// either direction is one captured frame, and the one-daemon dataset
// carries no provenance tags.
func TestSelfCaptureUDP(t *testing.T) {
	defer noLeak(t)()
	d, err := edserverd.Start(edserverd.Config{TCPAddr: "off", UDPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	src := NewServerSource(d, 0)
	dir := t.TempDir()
	type result struct {
		res *Result
		err error
	}
	done := make(chan result, 1)
	go func() {
		res, err := NewSession(src, WithDataset(dir, false)).Run(context.Background())
		done <- result{res, err}
	}()

	const clients, queries = 8, 4
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("udp4", d.UDPAddr().String())
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			fid := ed2k.FileID{byte(c), 5: byte(c * 31)}
			msgs := [queries]ed2k.Message{
				&ed2k.OfferFiles{Port: 4662, Files: []ed2k.FileEntry{{
					ID: fid,
					Tags: []ed2k.Tag{
						ed2k.StringTag(ed2k.FTFileName, fmt.Sprintf("udp capture track %d.mp3", c)),
						ed2k.UintTag(ed2k.FTFileSize, uint32(4<<20+c)),
					},
				}}},
				&ed2k.SearchReq{Expr: ed2k.Keyword("capture")},
				&ed2k.GetSources{Hashes: []ed2k.FileID{fid}},
				&ed2k.StatReq{Challenge: uint32(c)},
			}
			// Lockstep: each query is answered with exactly one datagram.
			reply := make([]byte, 64<<10)
			for _, m := range msgs {
				if _, err := conn.Write(ed2k.Encode(m)); err != nil {
					t.Error(err)
					return
				}
				conn.SetReadDeadline(time.Now().Add(10 * time.Second))
				if _, err := conn.Read(reply); err != nil {
					t.Errorf("client %d, %v: %v", c, m.Opcode(), err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// The daemon mirrors an answer before sending it, so every frame is
	// queued by now; shutting the daemon down ends the session.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if t.Failed() {
		return
	}

	const want = clients * queries * 2
	rep := r.res.Report
	if rep.EthernetCaptured != want || rep.EthernetDropped != 0 {
		t.Fatalf("captured %d frames (%d dropped), want %d queries + answers",
			rep.EthernetCaptured, rep.EthernetDropped, want)
	}
	if rep.Pipeline.DecodedOK != want {
		t.Fatalf("decoded %d of %d mirrored datagrams", rep.Pipeline.DecodedOK, want)
	}
	if rep.Pipeline.Queries != clients*queries || rep.Pipeline.Answers != clients*queries {
		t.Fatalf("%d queries and %d answers, want %d of each",
			rep.Pipeline.Queries, rep.Pipeline.Answers, clients*queries)
	}

	vrep, err := dataset.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !vrep.OK() {
		t.Fatalf("UDP self-capture dataset violates the spec:\n%v", vrep.Violations)
	}
	if vrep.Records != want {
		t.Fatalf("dataset holds %d records, want %d", vrep.Records, want)
	}
	man, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if servers, ok := man.Meta["servers"]; ok {
		t.Fatalf("one-daemon dataset declares servers %q", servers)
	}
	if err := dataset.ForEach(dir, func(rec *xmlenc.Record) error {
		if rec.Server != "" {
			return fmt.Errorf("record tagged srv=%q in a one-daemon capture", rec.Server)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
