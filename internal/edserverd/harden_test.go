package edserverd

import (
	"net"
	"testing"
	"time"

	"edtrace/internal/ed2k"
	"edtrace/internal/policy"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestIdleConnectionReaped is the slowloris regression: before the idle
// deadline existed, a client that logged in and went silent pinned its
// goroutine, fd and the active gauge until daemon shutdown.
func TestIdleConnectionReaped(t *testing.T) {
	d := startTest(t, Config{IdleTimeout: 150 * time.Millisecond})
	conn, sr := dialAndLogin(t, d)

	// Go silent. The daemon, not the client, must hang up.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := sr.Next(); err == nil {
		t.Fatal("idle connection stayed alive and answered")
	}
	waitFor(t, "idle reap", func() bool {
		st := d.Stats()
		return st.IdleReaped == 1 && st.Active == 0
	})
	if st := d.Stats(); st.BadMsgs != 0 || st.ConnErrors != 0 {
		t.Fatalf("idle reap misclassified: %+v", st)
	}
}

// TestPreLoginTimeout: a connection that never logs in is reaped on the
// stricter pre-login deadline.
func TestPreLoginTimeout(t *testing.T) {
	d := startTest(t, Config{
		IdleTimeout:     time.Hour, // only the pre-login deadline may fire
		preLoginTimeout: 100 * time.Millisecond,
	})
	conn, err := net.DialTCP("tcp4", nil, d.TCPAddr().(*net.TCPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	waitFor(t, "pre-login reap", func() bool { return d.Stats().IdleReaped == 1 })
}

// TestTransportErrorsNotBad is the metrics regression: a connection
// reset is the network misbehaving and must land in conn_errors, not
// inflate bad_messages ("undecodable inputs").
func TestTransportErrorsNotBad(t *testing.T) {
	d := startTest(t, Config{})
	conn, _ := dialAndLogin(t, d)

	// SetLinger(0) turns Close into an RST: the daemon's next read fails
	// with a reset, not EOF.
	if err := conn.SetLinger(0); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, "conn error count", func() bool { return d.Stats().ConnErrors == 1 })
	if st := d.Stats(); st.BadMsgs != 0 || st.IdleReaped != 0 {
		t.Fatalf("reset misclassified: %+v", st)
	}
}

// TestGarbageStillCountsBad: the flip side — protocol garbage stays in
// bad_messages and does not leak into conn_errors.
func TestGarbageStillCountsBad(t *testing.T) {
	d := startTest(t, Config{})
	conn, _ := dialAndLogin(t, d)
	if _, err := conn.Write([]byte{0xAB, 1, 2, 3, 4, 5, 6, 7}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "bad message count", func() bool { return d.Stats().BadMsgs == 1 })
	if st := d.Stats(); st.ConnErrors != 0 {
		t.Fatalf("garbage misclassified: %+v", st)
	}
}

// TestPolicyConnAdmission: the accept choke point closes over-rate and
// over-cap connections before they get a goroutine.
func TestPolicyConnAdmission(t *testing.T) {
	d := startTest(t, Config{
		Policy: &policy.Config{
			Admission: &policy.AdmissionSpec{PerIPRate: 0.001, PerIPBurst: 2},
		},
	})
	dial := func() *net.TCPConn {
		c, err := net.DialTCP("tcp4", nil, d.TCPAddr().(*net.TCPAddr))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	for i := 0; i < 2; i++ {
		c := dial()
		if _, err := c.Write(ed2k.FrameTCP(&ed2k.LoginRequest{Nick: "ok"})); err != nil {
			t.Fatal(err)
		}
		sr := ed2k.NewStreamReader(c)
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := sr.Next(); err != nil {
			t.Fatalf("admitted conn %d: %v", i, err)
		}
	}
	// The burst is spent: the third connection is closed without answer.
	c := dial()
	c.Write(ed2k.FrameTCP(&ed2k.LoginRequest{Nick: "storm"}))
	sr := ed2k.NewStreamReader(c)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := sr.Next(); err == nil {
		t.Fatal("over-rate connection was served")
	}
	_, throttled, _ := d.Policy().Totals()
	if throttled == 0 {
		t.Fatal("admission throttle not counted")
	}
}

// policiedSession starts a policied daemon and a logged-in session.
func policiedSession(t *testing.T, msgs *policy.MessageSpec) (*Daemon, *net.TCPConn, *ed2k.StreamReader) {
	t.Helper()
	d := startTest(t, Config{
		Policy: &policy.Config{Messages: msgs},
	})
	conn, sr := dialAndLogin(t, d)
	return d, conn, sr
}

// TestPolicySearchThrottle: over-rate searches get an empty SearchRes
// without touching the index.
func TestPolicySearchThrottle(t *testing.T) {
	_, conn, sr := policiedSession(t, &policy.MessageSpec{
		SearchesPerSec: 0.001, SearchBurst: 1,
		ThrottleDelay: policy.Duration(time.Millisecond),
	})
	for i := 0; i < 2; i++ {
		if _, err := conn.Write(ed2k.FrameTCP(&ed2k.SearchReq{Expr: ed2k.Keyword("mozart")})); err != nil {
			t.Fatal(err)
		}
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i := 0; i < 2; i++ {
		m, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.(*ed2k.SearchRes); !ok {
			t.Fatalf("search answer %d = %#v", i, m)
		}
	}
}

// TestPolicyOfferThrottle: over-rate offers are acked with Accepted 0
// and never reach the index — the index-spam defence.
func TestPolicyOfferThrottle(t *testing.T) {
	d, conn, sr := policiedSession(t, &policy.MessageSpec{
		OffersPerSec: 0.001, OfferBurst: 1,
		ThrottleDelay: policy.Duration(time.Millisecond),
	})
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for i, want := range []uint32{1, 0} {
		offer := &ed2k.OfferFiles{Port: 4662, Files: []ed2k.FileEntry{testEntry(byte(i+1), "spam.mp3")}}
		if _, err := conn.Write(ed2k.FrameTCP(offer)); err != nil {
			t.Fatal(err)
		}
		m, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if ack, ok := m.(*ed2k.OfferAck); !ok || ack.Accepted != want {
			t.Fatalf("offer answer %d = %#v, want Accepted %d", i, m, want)
		}
	}
	if n := d.Stats().Server.IndexedFiles; n != 1 {
		t.Fatalf("throttled offer reached the index: %d files", n)
	}
}

// TestPolicyAskBudget: a GetSources beyond the hash budget is truncated,
// not rejected — bounded per-connection in-flight asks.
func TestPolicyAskBudget(t *testing.T) {
	// The loopback session logs in with a server-assigned (low) ID; pin
	// the low-ID factor to 1 so the budget under test stays exactly 2.
	one := 1.0
	d, conn, sr := policiedSession(t, &policy.MessageSpec{
		AskHashesPerSec: 0.001, AskBurst: 2, LowIDFactor: &one,
		ThrottleDelay: policy.Duration(time.Millisecond),
	})
	offer := &ed2k.OfferFiles{Port: 4662, Files: []ed2k.FileEntry{
		testEntry(1, "a.mp3"), testEntry(2, "b.mp3"), testEntry(3, "c.mp3"),
	}}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(ed2k.FrameTCP(offer)); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	// Ask for all three; the budget covers two. Fence with StatReq so the
	// answer count is unambiguous.
	ask := &ed2k.GetSources{Hashes: []ed2k.FileID{
		testEntry(1, "").ID, testEntry(2, "").ID, testEntry(3, "").ID,
	}}
	if _, err := conn.Write(ed2k.FrameTCP(ask)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(ed2k.FrameTCP(&ed2k.StatReq{Challenge: 9})); err != nil {
		t.Fatal(err)
	}
	found := 0
	for {
		m, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := m.(*ed2k.FoundSources); ok {
			found++
			continue
		}
		if st, ok := m.(*ed2k.StatRes); ok && st.Challenge == 9 {
			break
		}
	}
	if found != 2 {
		t.Fatalf("budgeted ask answered %d hashes, want 2", found)
	}
	if d.Stats().Server.IndexedFiles != 3 {
		t.Fatal("offer should have fully registered")
	}
}

// TestPolicyDetectorSheds: end-to-end detector wiring — with an
// absurdly low latency threshold, real traffic flips shedding on and
// new connections are refused.
func TestPolicyDetectorSheds(t *testing.T) {
	d := startTest(t, Config{
		Policy: &policy.Config{
			Shed: &policy.ShedSpec{
				P99High:       policy.Duration(time.Nanosecond),
				MinWindow:     1,
				CheckInterval: policy.Duration(10 * time.Millisecond),
				Hold:          policy.Duration(time.Hour),
			},
		},
	})
	conn, sr := dialAndLogin(t, d)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(ed2k.FrameTCP(&ed2k.StatReq{Challenge: 1})); err != nil {
		t.Fatal(err)
	}
	if _, err := sr.Next(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "detector trip", func() bool { return d.Policy().Shedding() })

	c, err := net.DialTCP("tcp4", nil, d.TCPAddr().(*net.TCPAddr))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write(ed2k.FrameTCP(&ed2k.LoginRequest{Nick: "late"}))
	sr2 := ed2k.NewStreamReader(c)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := sr2.Next(); err == nil {
		t.Fatal("connection served while shedding")
	}
	_, _, shed := d.Policy().Totals()
	if shed == 0 {
		t.Fatal("shed decision not counted")
	}
}
