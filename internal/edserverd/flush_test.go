package edserverd

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"edtrace/internal/ed2k"
	"edtrace/internal/policy"
	"edtrace/internal/server"
)

// The flush rule under test: answers are written when the session would
// otherwise block (before a read, before a throttle sleep, on return)
// or once flushBound bytes are pending — never later, and never out of
// request order.

const (
	flushTestClient = ed2k.ClientID(0x0A000001)
	flushTestPort   = 4662
)

// loginAs opens a session with a claimed high ID, so a reference
// server.Server can be fed the same client coordinates.
func loginAs(t *testing.T, d *Daemon) *net.TCPConn {
	t.Helper()
	conn, err := net.DialTCP("tcp4", nil, d.TCPAddr().(*net.TCPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	login := &ed2k.LoginRequest{Client: flushTestClient, Port: flushTestPort, Nick: "burst"}
	if _, err := conn.Write(ed2k.FrameTCP(login)); err != nil {
		t.Fatal(err)
	}
	expectBytes(t, conn, ed2k.FrameTCP(&ed2k.IDChange{Client: flushTestClient}))
	return conn
}

// expectBytes reads exactly len(want) bytes and compares them.
func expectBytes(t *testing.T, conn *net.TCPConn, want []byte) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	got := make([]byte, len(want))
	if n, err := io.ReadFull(conn, got); err != nil {
		t.Fatalf("read %d of %d answer bytes: %v", n, len(want), err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("answer bytes differ from the reference\n got % X\nwant % X", got, want)
	}
}

// mixedRequests is a pipelined burst touching every answer shape: one
// answer, several, none, and index mutations whose order matters.
func mixedRequests(n int) []ed2k.Message {
	msgs := make([]ed2k.Message, 0, n)
	for i := 0; len(msgs) < n; i++ {
		switch i % 6 {
		case 0:
			msgs = append(msgs, &ed2k.StatReq{Challenge: uint32(i)})
		case 1: // two known hashes and a miss: two FoundSources
			msgs = append(msgs, &ed2k.GetSources{Hashes: []ed2k.FileID{
				testEntry(1, "").ID, testEntry(200, "").ID, testEntry(2, "").ID,
			}})
		case 2:
			msgs = append(msgs, &ed2k.SearchReq{Expr: ed2k.Keyword("mozart")})
		case 3: // grows the index mid-burst: later StatRes and searches see it
			msgs = append(msgs, &ed2k.OfferFiles{Port: flushTestPort, Files: []ed2k.FileEntry{
				testEntry(byte(10+i%100), fmt.Sprintf("mozart sonata %d.mp3", i)),
			}})
		case 4: // a miss only: no answer frames at all
			msgs = append(msgs, &ed2k.GetSources{Hashes: []ed2k.FileID{testEntry(201, "").ID}})
		case 5:
			msgs = append(msgs, ed2k.ServerDescReq{})
		}
	}
	return msgs
}

// TestPipelinedBurstAnswersInOrder: N requests in one Write come back as
// N answer groups in request order, byte-equal to a reference index's
// answers, in fewer socket writes than requests.
func TestPipelinedBurstAnswersInOrder(t *testing.T) {
	const n = 200
	cfg := Config{Name: "ref", Desc: "flush rule"}
	d := startTest(t, cfg)
	ref := server.New(cfg.Name, cfg.Desc)
	conn := loginAs(t, d)

	preload := &ed2k.OfferFiles{Port: flushTestPort, Files: []ed2k.FileEntry{
		testEntry(1, "mozart requiem.mp3"), testEntry(2, "mozart jupiter.mp3"), testEntry(3, "bach.mp3"),
	}}
	var burst, want []byte
	for _, m := range append([]ed2k.Message{preload}, mixedRequests(n)...) {
		burst = ed2k.AppendFrameTCP(burst, m)
		for _, a := range ref.Handle(0, flushTestClient, flushTestPort, m) {
			want = append(want, ed2k.FrameTCP(a)...)
		}
	}
	flushes, answers := d.nFlush.Value(), d.nAns.Value()
	if _, err := conn.Write(burst); err != nil {
		t.Fatal(err)
	}
	expectBytes(t, conn, want)

	flushes, answers = d.nFlush.Value()-flushes, d.nAns.Value()-answers
	if flushes < 1 || flushes >= n {
		t.Fatalf("%d socket writes for %d pipelined requests (%d answers), want 1 <= writes < %d",
			flushes, n, answers, n)
	}
	t.Logf("%d requests, %d answers, %d bytes, %d writes", n+1, answers, len(want), flushes)
}

// TestFlushBeforeBlockingRead: one whole request followed by the first
// bytes of the next. The session must answer the first before it waits
// for the rest of the second; holding the answer until the buffer has
// "nothing left to parse" would deadlock against a client that waits
// for it.
func TestFlushBeforeBlockingRead(t *testing.T) {
	d := startTest(t, Config{})
	conn, sr := dialAndLogin(t, d)
	second := ed2k.FrameTCP(&ed2k.StatReq{Challenge: 2})
	if _, err := conn.Write(append(ed2k.FrameTCP(&ed2k.StatReq{Challenge: 1}), second[:3]...)); err != nil {
		t.Fatal(err)
	}
	for i, rest := range [][]byte{second[3:], nil} {
		conn.SetReadDeadline(time.Now().Add(time.Second))
		m, err := sr.Next()
		if err != nil {
			t.Fatalf("answer %d did not arrive within 1s: %v", i+1, err)
		}
		if st, ok := m.(*ed2k.StatRes); !ok || st.Challenge != uint32(i+1) {
			t.Fatalf("answer %d = %#v", i+1, m)
		}
		if _, err := conn.Write(rest); err != nil {
			t.Fatal(err)
		}
	}
}

// TestNeverReadingClientIsBounded: a client that pipelines 10 000
// requests and never reads an answer must cost the daemon a bounded
// buffer and a bounded wait — the session blocks in Write with at most
// flushBound plus one answer group pending, and the write deadline ends
// it (logged once, and not mistaken for an idle reap).
func TestNeverReadingClientIsBounded(t *testing.T) {
	var writeLogs atomic.Int32
	d := startTest(t, Config{Logf: func(format string, _ ...any) {
		if strings.Contains(format, "write:") {
			writeLogs.Add(1)
		}
	}})
	d.writeTimeout = 300 * time.Millisecond // no session is running yet

	ln, err := net.ListenTCP("tcp4", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli, err := net.DialTCP("tcp4", nil, ln.Addr().(*net.TCPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv, err := ln.AcceptTCP()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Small kernel buffers, so 10 000 answers (190 kB) cannot simply
	// park in the socket.
	cli.SetReadBuffer(4 << 10)
	srv.SetWriteBuffer(4 << 10)

	c := &connIO{d: d, conn: srv}
	done := make(chan struct{})
	go func() {
		defer close(done)
		d.serveConn(c)
	}()

	var burst []byte
	for i := 0; i < 10000; i++ {
		burst = ed2k.AppendFrameTCP(burst, &ed2k.StatReq{Challenge: uint32(i)})
	}
	// The daemon stops reading once it blocks in Write, so this Write may
	// itself stall on full buffers; its outcome is not the subject.
	cli.SetWriteDeadline(time.Now().Add(5 * time.Second))
	cli.Write(burst)

	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("session still alive 10s after a 300ms write deadline")
	}
	// One StatRes frame is 18 bytes; append's growth factor stays under
	// 2, so this capacity says out never held much more than flushBound.
	if got := cap(c.out); got > 2*flushBound {
		t.Fatalf("pending-answer buffer grew to %d bytes, bound %d", got, flushBound)
	}
	if c.werr == nil {
		t.Fatal("session ended without a write error")
	}
	if n := writeLogs.Load(); n != 1 {
		t.Fatalf("write failure logged %d times, want once", n)
	}
	if st := d.Stats(); st.IdleReaped != 0 || st.BadMsgs != 0 {
		t.Fatalf("write timeout misclassified: %+v", st)
	}
}

// TestThrottleSleepDoesNotHoldEarlierAnswers: two searches pipelined in
// one segment, the second over budget. The first answer must leave
// before the throttle delay starts, the rejection after it ends.
func TestThrottleSleepDoesNotHoldEarlierAnswers(t *testing.T) {
	const delay = time.Second
	one := 1.0 // the loopback session has a low ID: keep its burst at 1
	_, conn, sr := policiedSession(t, &policy.MessageSpec{
		SearchesPerSec: 0.001, SearchBurst: 1, LowIDFactor: &one,
		ThrottleDelay: policy.Duration(delay),
	})
	search := ed2k.FrameTCP(&ed2k.SearchReq{Expr: ed2k.Keyword("mozart")})
	start := time.Now()
	if _, err := conn.Write(append(search, search...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(start.Add(10 * time.Second))
	for i, check := range []func(time.Duration) bool{
		func(at time.Duration) bool { return at < delay },
		func(at time.Duration) bool { return at >= delay },
	} {
		m, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		at := time.Since(start)
		if _, ok := m.(*ed2k.SearchRes); !ok {
			t.Fatalf("search answer %d = %#v", i, m)
		}
		if !check(at) {
			t.Fatalf("search answer %d arrived after %v (throttle delay %v)", i, at, delay)
		}
	}
}

// statBurst frames n StatReqs and the StatRes answers of an empty index
// with one user (the asker).
func statBurst(n int) (reqs, answers []byte) {
	for i := 0; i < n; i++ {
		reqs = ed2k.AppendFrameTCP(reqs, &ed2k.StatReq{Challenge: uint32(i)})
		answers = ed2k.AppendFrameTCP(answers, &ed2k.StatRes{Challenge: uint32(i), Users: 1})
	}
	return reqs, answers
}

// TestAnswersSurviveBadFrame: a valid burst followed by garbage in the
// same segment. The garbage kills the session, but the answers to the
// requests ahead of it were earned and must reach the client first.
func TestAnswersSurviveBadFrame(t *testing.T) {
	d := startTest(t, Config{})
	conn := loginAs(t, d)
	reqs, want := statBurst(50)
	if _, err := conn.Write(append(reqs, 0xAB, 1, 2, 3, 4, 5, 6, 7)); err != nil {
		t.Fatal(err)
	}
	expectBytes(t, conn, want)
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after the answers: read %d bytes, err %v, want EOF", n, err)
	}
	waitFor(t, "bad message count", func() bool { return d.Stats().BadMsgs == 1 })
}

// TestAnswersSurviveHalfClose: a burst, then the client closes its
// sending side. Every answer arrives, then EOF.
func TestAnswersSurviveHalfClose(t *testing.T) {
	d := startTest(t, Config{})
	conn := loginAs(t, d)
	reqs, want := statBurst(50)
	if _, err := conn.Write(reqs); err != nil {
		t.Fatal(err)
	}
	if err := conn.CloseWrite(); err != nil {
		t.Fatal(err)
	}
	expectBytes(t, conn, want)
	if n, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("after the answers: read %d bytes, err %v, want EOF", n, err)
	}
	if st := d.Stats(); st.BadMsgs != 0 || st.ConnErrors != 0 {
		t.Fatalf("half-close misclassified: %+v", st)
	}
}
