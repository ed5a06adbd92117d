package main

import (
	"context"
	"net"
	"testing"
	"time"

	"edtrace/internal/ed2k"
	"edtrace/internal/edserverd"
)

// TestProbeRound runs one probe round against an in-process UDP-only
// daemon that one client has offered one file to.
func TestProbeRound(t *testing.T) {
	d, err := edserverd.Start(edserverd.Config{TCPAddr: "off", UDPAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	dial := func() net.Conn {
		t.Helper()
		conn, err := net.Dial("udp4", d.UDPAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}

	// The sharing client, answered before the probe starts.
	sharer := dial()
	if _, err := sharer.Write(ed2k.Encode(&ed2k.OfferFiles{Port: 4662, Files: []ed2k.FileEntry{{
		ID: ed2k.FileID{1, 2, 3},
		Tags: []ed2k.Tag{
			ed2k.StringTag(ed2k.FTFileName, "mozart requiem.mp3"),
			ed2k.UintTag(ed2k.FTFileSize, 7<<20),
		},
	}}})); err != nil {
		t.Fatal(err)
	}
	sharer.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64<<10)
	n, err := sharer.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := ed2k.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := ans.(*ed2k.OfferAck); !ok || ack.Accepted != 1 {
		t.Fatalf("offer answered with %#v", ans)
	}

	p := prober{conn: dial(), keyword: "mozart", timeout: 5 * time.Second, buf: make([]byte, 64<<10)}
	r := p.round(0xC0FFEE)
	if !r.alive {
		t.Fatal("the status answer did not echo the round's challenge")
	}
	// Two users: the sharer, and the prober itself (a status ping
	// registers its sender like any other message).
	if r.users != 2 || r.files != 1 {
		t.Fatalf("users %d, files %d; want 2, 1", r.users, r.files)
	}
	if r.rtt <= 0 {
		t.Fatalf("rtt %v", r.rtt)
	}
	if r.results < 1 {
		t.Fatalf("search for the offered file's word found %d results", r.results)
	}
}

// TestProbeSkipsLateAnswers: a server that answers round 1's search
// only after the prober gave up on it. The late answer, and a stale
// status answer with it, reach the socket before round 2's own answers;
// round 2 must still read its own.
func TestProbeSkipsLateAnswers(t *testing.T) {
	srv, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hit := ed2k.FileEntry{ID: ed2k.FileID{7}, Tags: []ed2k.Tag{ed2k.StringTag(ed2k.FTFileName, "mozart.mp3")}}
	go func() {
		buf := make([]byte, 64<<10)
		searches := 0
		var held [][]byte // round 1's answers, sent with round 2's
		for {
			n, from, err := srv.ReadFromUDP(buf)
			if err != nil {
				return
			}
			req, err := ed2k.Decode(buf[:n])
			if err != nil {
				continue
			}
			var out [][]byte
			switch q := req.(type) {
			case *ed2k.StatReq:
				out = append(held, ed2k.Encode(&ed2k.StatRes{Challenge: q.Challenge, Users: 3, Files: 9}))
				held = nil
			case *ed2k.SearchReq:
				if searches++; searches == 1 {
					held = [][]byte{
						ed2k.Encode(&ed2k.SearchRes{Results: []ed2k.FileEntry{hit, hit, hit}}),
						ed2k.Encode(&ed2k.StatRes{Challenge: 1, Users: 1, Files: 1}),
					}
					continue
				}
				out = [][]byte{ed2k.Encode(&ed2k.SearchRes{Results: []ed2k.FileEntry{hit}})}
			}
			for _, b := range out {
				srv.WriteToUDP(b, from)
			}
		}
	}()

	conn, err := net.Dial("udp4", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	p := prober{conn: conn, keyword: "mozart", timeout: 200 * time.Millisecond, buf: make([]byte, 64<<10)}
	if r := p.round(1); !r.alive || r.results != -1 {
		t.Fatalf("round 1: alive %v, results %d; want true, -1 (no search answer in time)", r.alive, r.results)
	}
	r := p.round(2)
	if !r.alive || r.users != 3 || r.files != 9 {
		t.Fatalf("round 2: alive %v, users %d, files %d; want true, 3, 9", r.alive, r.users, r.files)
	}
	if r.results != 1 {
		t.Fatalf("round 2 found %d results, want round 2's 1", r.results)
	}
}
