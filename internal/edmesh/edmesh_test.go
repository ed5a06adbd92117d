package edmesh

import (
	"context"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"edtrace/internal/ed2k"
	"edtrace/internal/edserverd"
)

// fastCfg returns mesh timings small enough for tests without being so
// tight that a loaded CI box trips the TTL sweeps spuriously.
func fastCfg(bootstrap ...string) Config {
	return Config{
		announceInterval: 40 * time.Millisecond,
		peerTTL:          300 * time.Millisecond,
		fanOut:           4,
		forwardTimeout:   500 * time.Millisecond,
		failLimit:        2,
		ejectBackoff:     10 * time.Second,
		Bootstrap:        bootstrap,
	}
}

type node struct {
	d *edserverd.Daemon
	m *Mesh
}

func startNode(t *testing.T, name string, cfg Config) *node {
	t.Helper()
	d, err := edserverd.Start(edserverd.Config{Name: name, ExpiryInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		d.Shutdown(ctx)
	})
	m, err := New(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return &node{d: d, m: m}
}

func (n *node) udpAddr() string { return n.d.UDPAddr().String() }

// knows reports whether the mesh's peer list contains every named peer,
// non-ejected.
func knows(m *Mesh, names ...string) bool {
	have := make(map[string]bool)
	for _, p := range m.Peers() {
		if !p.Ejected {
			have[p.Name] = true
		}
	}
	for _, n := range names {
		if !have[n] {
			return false
		}
	}
	return true
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// udpClient is a throwaway client socket speaking the UDP query dialect.
func udpClient(t *testing.T, to string) *net.UDPConn {
	t.Helper()
	ra, err := net.ResolveUDPAddr("udp4", to)
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.DialUDP("udp4", nil, ra)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func udpAsk(t *testing.T, c *net.UDPConn, q ed2k.Message, timeout time.Duration) ed2k.Message {
	t.Helper()
	if _, err := c.Write(ed2k.Encode(q)); err != nil {
		t.Fatal(err)
	}
	c.SetReadDeadline(time.Now().Add(timeout))
	buf := make([]byte, 64<<10)
	n, err := c.Read(buf)
	if err != nil {
		t.Fatalf("udp answer: %v", err)
	}
	m, err := ed2k.Decode(buf[:n])
	if err != nil {
		t.Fatalf("decode answer: %v", err)
	}
	return m
}

func testEntry(i byte, name string) ed2k.FileEntry {
	var fid ed2k.FileID
	fid[0] = i
	fid[9] = i ^ 0xA5
	return ed2k.FileEntry{
		ID: fid,
		Tags: []ed2k.Tag{
			ed2k.StringTag(ed2k.FTFileName, name),
			ed2k.UintTag(ed2k.FTFileSize, 3<<20),
			ed2k.StringTag(ed2k.FTFileType, "Audio"),
		},
	}
}

// offerVia registers files on a daemon through its public UDP offer path
// so the test exercises the real index, not a backdoor.
func offerVia(t *testing.T, n *node, entries ...ed2k.FileEntry) {
	t.Helper()
	c := udpClient(t, n.udpAddr())
	ack := udpAsk(t, c, &ed2k.OfferFiles{Port: 4662, Files: entries}, 2*time.Second)
	if a, ok := ack.(*ed2k.OfferAck); !ok || int(a.Accepted) != len(entries) {
		t.Fatalf("offer ack = %#v", ack)
	}
}

// TestGossipConvergence proves the discovery loop: three nodes where
// only one address is seeded converge to a full mesh, and a late joiner
// bootstrapping off a non-seed node still learns everyone.
func TestGossipConvergence(t *testing.T) {
	n0 := startNode(t, "mesh-0", fastCfg())
	n1 := startNode(t, "mesh-1", fastCfg(n0.udpAddr()))
	n2 := startNode(t, "mesh-2", fastCfg(n0.udpAddr()))

	waitFor(t, 3*time.Second, "full 3-node convergence", func() bool {
		return knows(n0.m, "mesh-1", "mesh-2") &&
			knows(n1.m, "mesh-0", "mesh-2") &&
			knows(n2.m, "mesh-0", "mesh-1")
	})

	// The late joiner only knows n1; it must learn n0 and n2 through
	// gossip, and they must learn it back.
	n3 := startNode(t, "mesh-3", fastCfg(n1.udpAddr()))
	waitFor(t, 3*time.Second, "late joiner convergence", func() bool {
		return knows(n3.m, "mesh-0", "mesh-1", "mesh-2") &&
			knows(n0.m, "mesh-3") && knows(n2.m, "mesh-3")
	})

	st := n3.m.Stats()
	if st.PeersKnown != 3 || st.PeersHealthy != 3 {
		t.Fatalf("late joiner stats = %+v, want 3 known/3 healthy", st)
	}
	if st.AnnouncesSent == 0 || st.AnnouncesRecv == 0 {
		t.Fatalf("late joiner exchanged no announces: %+v", st)
	}

	// Announced index counts propagate: give n1 a file and wait for n3's
	// server list to show it.
	offerVia(t, n1, testEntry(1, "mozart requiem.mp3"))
	waitFor(t, 3*time.Second, "gossiped file count", func() bool {
		for _, p := range n3.m.Peers() {
			if p.Name == "mesh-1" && p.Files >= 1 {
				return true
			}
		}
		return false
	})
}

// TestForwardMissAnswered proves the forwarding loop end to end: a
// GetSources and a keyword search the asked server cannot answer come
// back filled from a peer's index, through the real client UDP path.
func TestForwardMissAnswered(t *testing.T) {
	n0 := startNode(t, "mesh-0", fastCfg())
	n1 := startNode(t, "mesh-1", fastCfg(n0.udpAddr()))
	waitFor(t, 3*time.Second, "2-node convergence", func() bool {
		return knows(n0.m, "mesh-1") && knows(n1.m, "mesh-0")
	})

	// The file lives only on n1.
	entry := testEntry(7, "beethoven ninth symphony.mp3")
	offerVia(t, n1, entry)

	c := udpClient(t, n0.udpAddr())

	// GetSources miss: n0 has no sources for the hash; the answer must
	// arrive anyway, merged from n1.
	ans := udpAsk(t, c, &ed2k.GetSources{Hashes: []ed2k.FileID{entry.ID}}, 3*time.Second)
	fs, ok := ans.(*ed2k.FoundSources)
	if !ok {
		t.Fatalf("GetSources answer = %#v, want FoundSources", ans)
	}
	if fs.Hash != entry.ID || len(fs.Sources) == 0 {
		t.Fatalf("forwarded FoundSources = %+v", fs)
	}

	// Search miss: zero local hits for the keyword, one on the peer.
	ans = udpAsk(t, c, &ed2k.SearchReq{Expr: ed2k.Keyword("beethoven")}, 3*time.Second)
	sr, ok := ans.(*ed2k.SearchRes)
	if !ok {
		t.Fatalf("SearchReq answer = %#v, want SearchRes", ans)
	}
	if len(sr.Results) != 1 || sr.Results[0].ID != entry.ID {
		t.Fatalf("forwarded SearchRes = %+v", sr)
	}

	// The ledger must agree on both sides.
	st0, st1 := n0.m.Stats(), n1.m.Stats()
	if st0.ForwardsSent < 2 || st0.ForwardAnswers < 2 {
		t.Fatalf("asker stats = %+v, want >=2 forwards with answers", st0)
	}
	if st1.ForwardsServed < 2 {
		t.Fatalf("server stats = %+v, want >=2 forwards served", st1)
	}

	// A hit that exists locally is NOT forwarded: ask n1 directly and
	// check its forward counter does not move.
	before := n1.m.Stats().ForwardsSent
	c1 := udpClient(t, n1.udpAddr())
	ans = udpAsk(t, c1, &ed2k.SearchReq{Expr: ed2k.Keyword("beethoven")}, 3*time.Second)
	if sr, ok := ans.(*ed2k.SearchRes); !ok || len(sr.Results) != 1 {
		t.Fatalf("local answer = %#v", ans)
	}
	if after := n1.m.Stats().ForwardsSent; after != before {
		t.Fatalf("local hit triggered a forward: %d -> %d", before, after)
	}
}

// TestForwardedSearchFitsDatagram: a peer whose search answer would not
// fit the one datagram a MeshForwardRes travels in forwards the results
// that fit, instead of an answer batch its socket cannot send; the asker
// relays them to the client.
func TestForwardedSearchFitsDatagram(t *testing.T) {
	n0 := startNode(t, "mesh-0", fastCfg())
	n1 := startNode(t, "mesh-1", fastCfg(n0.udpAddr()))
	waitFor(t, 3*time.Second, "2-node convergence", func() bool {
		return knows(n0.m, "mesh-1") && knows(n1.m, "mesh-0")
	})
	// Two files of ~44 KB a result each, offered one datagram apiece,
	// live only on n1.
	big := func(i byte) ed2k.FileEntry {
		e := testEntry(i, "mozart "+strings.Repeat("x", 4000)+".mp3")
		for k := 0; k < 10; k++ {
			e.Tags = append(e.Tags, ed2k.StringTag(byte(0x40+k), strings.Repeat(string(rune('a'+k)), 4000)))
		}
		return e
	}
	offerVia(t, n1, big(1))
	offerVia(t, n1, big(2))

	ans := udpAsk(t, udpClient(t, n0.udpAddr()), &ed2k.SearchReq{Expr: ed2k.Keyword("mozart")}, 3*time.Second)
	if sr, ok := ans.(*ed2k.SearchRes); !ok || len(sr.Results) != 1 || sr.Results[0].ID != big(1).ID {
		t.Fatalf("forwarded search answer = %T, want the first file alone", ans)
	}
	if st := n0.m.Stats(); st.ForwardTimeouts != 0 {
		t.Fatalf("asker stats = %+v: the peer's answer never came", st)
	}
}

// TestDeadPeerEjected proves backoff-and-eject: once a killed daemon is
// ejected, new misses are not forwarded to it any more.
func TestDeadPeerEjected(t *testing.T) {
	// failLimit 1 so the very first missed forward ejects.
	cfg0 := fastCfg()
	cfg0.failLimit = 1
	cfg0.forwardTimeout = 150 * time.Millisecond
	n0 := startNode(t, "mesh-0", cfg0)
	startNode(t, "mesh-1", fastCfg(n0.udpAddr()))
	n2 := startNode(t, "mesh-2", fastCfg(n0.udpAddr()))
	waitFor(t, 3*time.Second, "3-node convergence", func() bool {
		return knows(n0.m, "mesh-1", "mesh-2")
	})

	// Kill n2's daemon outright (mesh first so Close is clean).
	n2.m.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := n2.d.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// A miss forwarded while n2 is dead times out on that leg and must
	// eject it at failLimit=1. Searches are used as the probe because a
	// miss still yields an (empty) SearchRes datagram; a total GetSources
	// miss is answered with silence.
	c := udpClient(t, n0.udpAddr())
	udpAsk(t, c, &ed2k.SearchReq{Expr: ed2k.Keyword("nothing-anywhere")}, 3*time.Second)

	waitFor(t, 3*time.Second, "dead peer ejected", func() bool {
		for _, p := range n0.m.Peers() {
			if p.Name == "mesh-2" && p.Ejected {
				return true
			}
		}
		return false
	})

	// Further misses must skip the ejected peer entirely.
	var deadForwards uint64
	for _, p := range n0.m.Peers() {
		if p.Name == "mesh-2" {
			deadForwards = p.ForwardsSent
		}
	}
	for i := 0; i < 3; i++ {
		udpAsk(t, c, &ed2k.SearchReq{Expr: ed2k.Keyword(fmt.Sprintf("still-nothing-%d", i))}, 3*time.Second)
	}
	for _, p := range n0.m.Peers() {
		switch p.Name {
		case "mesh-2":
			if p.ForwardsSent != deadForwards {
				t.Fatalf("ejected peer still receiving forwards: %d -> %d",
					deadForwards, p.ForwardsSent)
			}
		case "mesh-1":
			if p.ForwardsSent == 0 {
				t.Fatal("healthy peer received no forwards")
			}
		}
	}
	if st := n0.m.Stats(); st.Ejects == 0 {
		t.Fatalf("stats = %+v, want >=1 eject", st)
	}
}

// TestSilentPeerTTLSweep proves the TTL path too: a mesh that detaches
// (stops announcing) without its daemon dying is swept out.
func TestSilentPeerTTLSweep(t *testing.T) {
	n0 := startNode(t, "mesh-0", fastCfg())
	n1 := startNode(t, "mesh-1", fastCfg(n0.udpAddr()))
	waitFor(t, 3*time.Second, "2-node convergence", func() bool {
		return knows(n0.m, "mesh-1")
	})

	n1.m.Close() // daemon stays up, gossip stops
	waitFor(t, 3*time.Second, "TTL eject of silent peer", func() bool {
		for _, p := range n0.m.Peers() {
			if p.Name == "mesh-1" && p.Ejected {
				return true
			}
		}
		return false
	})
}

// TestDeadPeerForgotten proves the churn bound: a peer silent past
// peerTTL+ejectBackoff is dropped from the server list entirely and its
// two labelled gauge series leave the metrics exposition, so a
// long-lived mesh with peer churn does not grow without bound.
func TestDeadPeerForgotten(t *testing.T) {
	cfg := fastCfg()
	cfg.ejectBackoff = 200 * time.Millisecond
	n0 := startNode(t, "mesh-0", cfg)
	n1 := startNode(t, "mesh-1", fastCfg(n0.udpAddr()))
	waitFor(t, 3*time.Second, "2-node convergence", func() bool {
		return knows(n0.m, "mesh-1")
	})
	key := n1.udpAddr()
	if !promHasPeer(t, n0, key) {
		t.Fatalf("exposition missing per-peer series for %s", key)
	}

	n1.m.Close() // daemon stays up, gossip stops
	waitFor(t, 5*time.Second, "silent peer forgotten", func() bool {
		return len(n0.m.Peers()) == 0
	})
	if promHasPeer(t, n0, key) {
		t.Fatalf("per-peer series for forgotten peer %s still in exposition", key)
	}
}

// promHasPeer reports whether the node's exposition carries any series
// labelled with the given peer key.
func promHasPeer(t *testing.T, n *node, key string) bool {
	t.Helper()
	var buf strings.Builder
	if err := n.d.Metrics().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return strings.Contains(buf.String(), `peer="`+key+`"`)
}

// TestForwardBoundedByFanOut checks the fan-out cap: with five peers and
// fanOut=2, one miss produces exactly two forwards.
func TestForwardBoundedByFanOut(t *testing.T) {
	cfg0 := fastCfg()
	cfg0.fanOut = 2
	n0 := startNode(t, "mesh-0", cfg0)
	var names []string
	for i := 1; i <= 5; i++ {
		startNode(t, fmt.Sprintf("mesh-%d", i), fastCfg(n0.udpAddr()))
		names = append(names, fmt.Sprintf("mesh-%d", i))
	}
	waitFor(t, 5*time.Second, "6-node convergence", func() bool {
		return knows(n0.m, names...)
	})

	before := n0.m.Stats().ForwardsSent
	c := udpClient(t, n0.udpAddr())
	udpAsk(t, c, &ed2k.SearchReq{Expr: ed2k.Keyword("fanout-probe")}, 3*time.Second)
	if got := n0.m.Stats().ForwardsSent - before; got != 2 {
		t.Fatalf("one miss produced %d forwards, want fanOut=2", got)
	}
}
