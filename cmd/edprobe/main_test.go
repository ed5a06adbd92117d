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
	d, err := edserverd.Start(edserverd.Config{TCPAddr: "off", UDPAddr: "127.0.0.1:0", Shards: 2})
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
	sharer := prober{conn: dial(), timeout: 5 * time.Second, buf: make([]byte, 64<<10)}
	ans, _, err := sharer.exchange(&ed2k.OfferFiles{Port: 4662, Files: []ed2k.FileEntry{{
		ID: ed2k.FileID{1, 2, 3},
		Tags: []ed2k.Tag{
			ed2k.StringTag(ed2k.FTFileName, "mozart requiem.mp3"),
			ed2k.UintTag(ed2k.FTFileSize, 7<<20),
		},
	}}})
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
