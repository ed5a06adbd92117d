package edserverd

import (
	"bytes"
	"context"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edtrace/internal/ed2k"
)

func startTest(t *testing.T, cfg Config) *Daemon {
	t.Helper()
	d, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return d
}

// dialAndLogin opens a TCP session and completes the login handshake.
func dialAndLogin(t *testing.T, d *Daemon) (*net.TCPConn, *ed2k.StreamReader) {
	t.Helper()
	conn, err := net.DialTCP("tcp4", nil, d.TCPAddr().(*net.TCPAddr))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sr := ed2k.NewStreamReader(conn)
	if _, err := conn.Write(ed2k.FrameTCP(&ed2k.LoginRequest{Nick: "tester", Port: 4662})); err != nil {
		t.Fatal(err)
	}
	m, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*ed2k.IDChange); !ok {
		t.Fatalf("login answer = %#v, want IDChange", m)
	}
	return conn, sr
}

func testEntry(i byte, name string) ed2k.FileEntry {
	var fid ed2k.FileID
	fid[0] = i
	fid[7] = i ^ 0x5A
	return ed2k.FileEntry{
		ID: fid,
		Tags: []ed2k.Tag{
			ed2k.StringTag(ed2k.FTFileName, name),
			ed2k.UintTag(ed2k.FTFileSize, 5<<20),
			ed2k.StringTag(ed2k.FTFileType, "Audio"),
		},
	}
}

func TestDaemonTCPSession(t *testing.T) {
	d := startTest(t, Config{})
	conn, sr := dialAndLogin(t, d)

	// Announce two files.
	offer := &ed2k.OfferFiles{Port: 4662, Files: []ed2k.FileEntry{
		testEntry(1, "mozart requiem.mp3"),
		testEntry(2, "beethoven ninth.mp3"),
	}}
	if _, err := conn.Write(ed2k.FrameTCP(offer)); err != nil {
		t.Fatal(err)
	}
	m, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if ack, ok := m.(*ed2k.OfferAck); !ok || ack.Accepted != 2 {
		t.Fatalf("offer answer = %#v", m)
	}

	// Search finds them.
	if _, err := conn.Write(ed2k.FrameTCP(&ed2k.SearchReq{Expr: ed2k.Keyword("mozart")})); err != nil {
		t.Fatal(err)
	}
	m, err = sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if res, ok := m.(*ed2k.SearchRes); !ok || len(res.Results) != 1 {
		t.Fatalf("search answer = %#v", m)
	}

	// GetSources answers per known hash.
	if _, err := conn.Write(ed2k.FrameTCP(&ed2k.GetSources{
		Hashes: []ed2k.FileID{testEntry(1, "").ID, testEntry(9, "").ID},
	})); err != nil {
		t.Fatal(err)
	}
	m, err = sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if fs, ok := m.(*ed2k.FoundSources); !ok || len(fs.Sources) != 1 {
		t.Fatalf("sources answer = %#v", m)
	}

	// Status reflects the index.
	if _, err := conn.Write(ed2k.FrameTCP(&ed2k.StatReq{Challenge: 42})); err != nil {
		t.Fatal(err)
	}
	m, err = sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := m.(*ed2k.StatRes); !ok || st.Challenge != 42 || st.Files != 2 {
		t.Fatalf("stat answer = %#v", m)
	}

	st := d.Stats()
	if st.Conns != 1 || st.Logins != 1 {
		t.Fatalf("daemon stats: %+v", st)
	}
	if st.TCPMsgs != 5 { // login + 4 queries
		t.Fatalf("TCPMsgs = %d", st.TCPMsgs)
	}
	if st.Server.IndexedFiles != 2 {
		t.Fatalf("index: %+v", st.Server)
	}
}

func TestDaemonUDP(t *testing.T) {
	d := startTest(t, Config{TCPAddr: "off"})
	conn, err := net.DialUDP("udp4", nil, d.UDPAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	if _, err := conn.Write(ed2k.Encode(&ed2k.StatReq{Challenge: 7})); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ed2k.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if st, ok := m.(*ed2k.StatRes); !ok || st.Challenge != 7 {
		t.Fatalf("udp answer = %#v", m)
	}

	// Garbage datagrams are counted and dropped, not answered.
	if _, err := conn.Write([]byte{0xAB, 0xCD}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if d.Stats().BadMsgs == 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("bad datagram not counted: %+v", d.Stats())
}

// TestDaemonTapMirrorsDialog: the tap sees every query and answer of a
// TCP session but its login, in order, and each tapped answer is the
// UDP encoding of the answer the client decoded — the bytes the session
// cuts from its frames, not a second encoding.
func TestDaemonTapMirrorsDialog(t *testing.T) {
	type tapped struct {
		src, dst uint32
		payload  []byte
	}
	var mu sync.Mutex
	var seen []tapped
	d := startTest(t, Config{})
	d.SetTap(func(src, dst uint32, payload []byte) {
		mu.Lock()
		seen = append(seen, tapped{src, dst, bytes.Clone(payload)})
		mu.Unlock()
	})
	conn, sr := dialAndLogin(t, d)
	dialog := []struct {
		req     ed2k.Message
		answers int
	}{
		{&ed2k.StatReq{Challenge: 1}, 1},
		{&ed2k.OfferFiles{Port: 4662, Files: []ed2k.FileEntry{
			testEntry(1, "mozart requiem.mp3"), testEntry(2, "mozart symphony.mp3"),
		}}, 1},
		{&ed2k.SearchReq{Expr: ed2k.Keyword("mozart")}, 1},
		{&ed2k.GetSources{Hashes: []ed2k.FileID{testEntry(1, "").ID, testEntry(9, "").ID, testEntry(2, "").ID}}, 2},
		{&ed2k.SearchReq{Expr: ed2k.Keyword("absentword")}, 1},
		{&ed2k.StatReq{Challenge: 2}, 1},
	}
	var want [][]byte // the dialog as the tap must see it
	for _, c := range dialog {
		if _, err := conn.Write(ed2k.FrameTCP(c.req)); err != nil {
			t.Fatal(err)
		}
		want = append(want, ed2k.Encode(c.req))
		for i := 0; i < c.answers; i++ {
			m, err := sr.Next()
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, ed2k.Encode(m))
		}
	}

	mu.Lock()
	defer mu.Unlock()
	// Login/IDChange are session plumbing, not mirrored.
	if len(seen) != len(want) {
		t.Fatalf("tapped %d messages, want %d", len(seen), len(want))
	}
	sk := d.ServerKey()
	ck := seen[0].src
	k := 0
	for _, c := range dialog {
		if q := seen[k]; q.src != ck || q.dst != sk {
			t.Fatalf("query %T tapped %x -> %x, want %x -> %x", c.req, q.src, q.dst, ck, sk)
		}
		k++
		for i := 0; i < c.answers; i++ {
			if a := seen[k]; a.src != sk || a.dst != ck {
				t.Fatalf("answer %d to %T tapped %x -> %x, want %x -> %x", i, c.req, a.src, a.dst, sk, ck)
			}
			k++
		}
	}
	for i := range want {
		if !bytes.Equal(seen[i].payload, want[i]) {
			t.Fatalf("tapped message %d (opcode 0x%02X):\n got % X\nwant % X", i, want[i][1], seen[i].payload, want[i])
		}
	}
}

// bigEntry is a file whose search result takes ~44 KB on the wire: a
// 4,011-byte name and ten 4,000-byte string tags. Two of them answer a
// search with more than one datagram carries.
func bigEntry(i byte) ed2k.FileEntry {
	e := testEntry(i, "mozart "+strings.Repeat("x", 4000)+".mp3")
	for k := 0; k < 10; k++ {
		e.Tags = append(e.Tags, ed2k.StringTag(byte(0x40+k), strings.Repeat(string(rune('a'+k)), 4000)))
	}
	return e
}

// TestUDPSearchAnswerFitsDatagram: a UDP search whose answer would not
// fit one datagram is answered with the longest prefix of its results
// that does, and the tap mirrors what was sent.
func TestUDPSearchAnswerFitsDatagram(t *testing.T) {
	d := startTest(t, Config{})
	var mu sync.Mutex
	var tappedRes []byte
	d.SetTap(func(src, dst uint32, payload []byte) {
		if payload[1] == ed2k.OpGlobSearchRes {
			mu.Lock()
			tappedRes = bytes.Clone(payload)
			mu.Unlock()
		}
	})
	conn, sr := dialAndLogin(t, d)
	offer := &ed2k.OfferFiles{Port: 4662, Files: []ed2k.FileEntry{bigEntry(1), bigEntry(2)}}
	if _, err := conn.Write(ed2k.FrameTCP(offer)); err != nil {
		t.Fatal(err)
	}
	if m, err := sr.Next(); err != nil {
		t.Fatal(err)
	} else if ack, ok := m.(*ed2k.OfferAck); !ok || ack.Accepted != 2 {
		t.Fatalf("offer answer = %#v", m)
	}
	whole := d.srv.Handle(0, 1, 1, &ed2k.SearchReq{Expr: ed2k.Keyword("mozart")})[0]
	if n := len(ed2k.Encode(whole)); n <= ed2k.MaxDatagram {
		t.Fatalf("the whole answer takes %d bytes, which fits a datagram: the test no longer tests", n)
	}

	uc, err := net.DialUDP("udp4", nil, d.UDPAddr().(*net.UDPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer uc.Close()
	if _, err := uc.Write(ed2k.Encode(&ed2k.SearchReq{Expr: ed2k.Keyword("mozart")})); err != nil {
		t.Fatal(err)
	}
	uc.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 64<<10)
	n, err := uc.Read(buf)
	if err != nil {
		t.Fatalf("no answer to a search whose answer exceeds a datagram: %v", err)
	}
	m, err := ed2k.Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	res, ok := m.(*ed2k.SearchRes)
	if !ok || len(res.Results) != 1 || res.Results[0].ID != bigEntry(1).ID {
		t.Fatalf("answer = %T with %d results, want the first file alone", m, len(res.Results))
	}
	mu.Lock()
	defer mu.Unlock()
	if !bytes.Equal(tappedRes, buf[:n]) {
		t.Fatalf("the tap mirrored %d bytes, the client received %d", len(tappedRes), n)
	}
}

func TestDaemonGarbageTCPKillsConnection(t *testing.T) {
	d := startTest(t, Config{})
	conn, sr := dialAndLogin(t, d)
	if _, err := conn.Write([]byte{0xAB, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := sr.Next(); err == nil {
		t.Fatal("garbage stream kept the session alive")
	}
}

func TestDaemonShutdownClosesConnections(t *testing.T) {
	d, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	conn, sr := func() (*net.TCPConn, *ed2k.StreamReader) {
		c, err := net.DialTCP("tcp4", nil, d.TCPAddr().(*net.TCPAddr))
		if err != nil {
			t.Fatal(err)
		}
		c.Write(ed2k.FrameTCP(&ed2k.LoginRequest{Nick: "x"}))
		sr := ed2k.NewStreamReader(c)
		if _, err := sr.Next(); err != nil {
			t.Fatal(err)
		}
		return c, sr
	}()
	defer conn.Close()

	var closed atomic.Bool
	go func() {
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		_, err := sr.Next()
		if err != nil && err != io.EOF {
			// reset or EOF both mean the daemon hung up
			closed.Store(true)
		}
		if err == io.EOF {
			closed.Store(true)
		}
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && !closed.Load() {
		time.Sleep(10 * time.Millisecond)
	}
	if !closed.Load() {
		t.Fatal("client connection survived shutdown")
	}
	// Shutdown is idempotent.
	if err := d.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}
