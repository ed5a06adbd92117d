package edserverd

import (
	"net"
	"testing"
	"time"

	"edtrace/internal/ed2k"
)

// TestSessionBuffersShrinkAfterLargeAnswer: a search answer far larger
// than shrinkAbove, pipelined ahead of a small request, grows the
// session's answer buffer and its tap scratch buffer only while it is
// written and mirrored. Once the small request is answered the session
// holds no more than shrinkAbove of either.
func TestSessionBuffersShrinkAfterLargeAnswer(t *testing.T) {
	d := startTest(t, Config{})
	d.SetTap(func(src, dst uint32, payload []byte) {})
	ln, err := net.ListenTCP("tcp4", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.DialTCP("tcp4", nil, ln.Addr().(*net.TCPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := ln.AcceptTCP()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()
	c := &connIO{d: d, conn: server}
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.serveConn(c)
	}()

	offer := &ed2k.OfferFiles{Port: 4662}
	for i := range byte(4) {
		offer.Files = append(offer.Files, bigEntry(i+1))
	}
	var burst []byte
	for _, m := range []ed2k.Message{
		&ed2k.LoginRequest{Client: flushTestClient, Port: flushTestPort, Nick: "big"},
		offer,
		&ed2k.SearchReq{Expr: ed2k.Keyword("mozart")},
		&ed2k.StatReq{Challenge: 9},
	} {
		burst = ed2k.AppendFrameTCP(burst, m)
	}
	client.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := client.Write(burst); err != nil {
		t.Fatal(err)
	}
	sr := ed2k.NewStreamReader(client)
	var searchBytes int
	for {
		m, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if res, ok := m.(*ed2k.SearchRes); ok {
			if len(res.Results) != len(offer.Files) {
				t.Fatalf("search answered %d files, want %d", len(res.Results), len(offer.Files))
			}
			searchBytes = len(ed2k.FrameTCP(res))
		}
		if _, ok := m.(*ed2k.StatRes); ok {
			break
		}
	}
	if searchBytes <= shrinkAbove {
		t.Fatalf("the search answer takes %d bytes, within %d: the test no longer tests", searchBytes, shrinkAbove)
	}
	client.Close()
	<-done
	if cap(c.out) > shrinkAbove || cap(c.scratch) > shrinkAbove {
		t.Fatalf("after a %d-byte answer the session holds %d bytes of answer buffer and %d of tap scratch, want at most %d each",
			searchBytes, cap(c.out), cap(c.scratch), shrinkAbove)
	}
}
