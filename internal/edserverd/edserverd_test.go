package edserverd

import (
	"context"
	"io"
	"net"
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

func TestDaemonTapMirrorsDialog(t *testing.T) {
	type tapped struct {
		src, dst uint32
		op       byte
	}
	var mu sync.Mutex
	var seen []tapped
	d := startTest(t, Config{})
	d.SetTap(func(src, dst uint32, payload []byte) {
		mu.Lock()
		seen = append(seen, tapped{src, dst, payload[1]})
		mu.Unlock()
	})
	conn, sr := dialAndLogin(t, d)
	if _, err := conn.Write(ed2k.FrameTCP(&ed2k.StatReq{Challenge: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	// Login/IDChange are session plumbing, not mirrored: exactly one
	// query and one answer.
	if len(seen) != 2 {
		t.Fatalf("tapped %d messages, want 2: %+v", len(seen), seen)
	}
	sk := d.ServerKey()
	if seen[0].op != ed2k.OpGlobStatReq || seen[0].dst != sk {
		t.Fatalf("query tap: %+v (server key %x)", seen[0], sk)
	}
	if seen[1].op != ed2k.OpGlobStatRes || seen[1].src != sk || seen[1].dst != seen[0].src {
		t.Fatalf("answer tap: %+v", seen[1])
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
