// Package edmesh federates N edserverd daemons into one measurement
// fabric — the "distributed honeypots" deployment of the follow-up
// study (Allali, Latapy & Magnien) the paper's conclusion points
// towards. Three mechanisms, all riding the daemon's existing UDP path:
//
//   - discovery: every 2 s a mesh gossips a MeshAnnounce
//     (itself plus every peer it knows, with name and user/file counts)
//     to all known peers and its bootstrap seeds, so a late joiner
//     learns the full server list transitively within a few rounds;
//   - health: per-peer liveness (last announce seen), a latency EWMA
//     over forward round-trips, and backoff-and-eject — a peer that
//     misses 3 consecutive forwards, or falls silent for 3 announce
//     periods, stops receiving forwards until it re-announces after
//     an eject backoff of 4 periods;
//   - miss forwarding: GetSources hashes the local index does not know
//     and keyword searches with zero local hits are forwarded to up to
//     3 healthy peers, answered from their local indexes only
//     (single hop, loop-free by construction), deduplicated, merged
//     into the client's answer, and bounded by a per-request timeout so
//     a slow peer can never stall the daemon's answer path.
//
// A Mesh attaches to a running daemon via its peer-handler and resolver
// hooks; it owns no sockets of its own.
package edmesh

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"edtrace/internal/ed2k"
	"edtrace/internal/edserverd"
	"edtrace/internal/obs"
	"edtrace/internal/server"
)

// Config parameterises one mesh node. Its timings are fixed; the zero
// value gives the conservative production ones.
type Config struct {
	// Bootstrap seeds discovery: UDP addresses announced to even before
	// they ever announced to us.
	Bootstrap []string
	// Logf, when set, receives lifecycle lines (join, eject, readmit).
	Logf func(format string, args ...any)

	// Not knobs — fields only so the package's tests can gossip and fail
	// in test time: announceInterval is the gossip period (default 2s);
	// peerTTL ejects peers silent for this long (default 3×interval);
	// fanOut bounds how many peers one miss is forwarded to (default 3);
	// forwardTimeout bounds one forwarded request end to end (default
	// 250ms) — the ceiling a slow peer can add to a client answer;
	// failLimit ejects a peer after this many consecutive forward
	// failures (default 3); ejectBackoff is how long an ejected peer must
	// keep announcing before it is readmitted (default 4×interval).
	announceInterval time.Duration
	peerTTL          time.Duration
	fanOut           int
	forwardTimeout   time.Duration
	failLimit        int
	ejectBackoff     time.Duration
}

func (c *Config) fillDefaults() {
	if c.announceInterval <= 0 {
		c.announceInterval = 2 * time.Second
	}
	if c.peerTTL <= 0 {
		c.peerTTL = 3 * c.announceInterval
	}
	if c.fanOut <= 0 {
		c.fanOut = 3
	}
	if c.forwardTimeout <= 0 {
		c.forwardTimeout = 250 * time.Millisecond
	}
	if c.failLimit <= 0 {
		c.failLimit = 3
	}
	if c.ejectBackoff <= 0 {
		c.ejectBackoff = 4 * c.announceInterval
	}
}

// Stats snapshots one mesh node's counters.
type Stats struct {
	PeersKnown   int
	PeersHealthy int
	// AnnouncesSent / AnnouncesRecv count gossip datagrams.
	AnnouncesSent uint64
	AnnouncesRecv uint64
	// ForwardsSent counts MeshForward datagrams sent to peers;
	// ForwardsServed the ones answered for peers.
	ForwardsSent   uint64
	ForwardsServed uint64
	// ForwardAnswers counts answer messages gained from peers and merged
	// into client answers (the mesh's whole point).
	ForwardAnswers uint64
	// ForwardTimeouts counts forwarded requests that hit the timeout
	// before every queried peer responded.
	ForwardTimeouts uint64
	// Ejects counts peer ejections (failure or TTL).
	Ejects uint64
}

// PeerSnapshot is one row of the mesh's server list.
type PeerSnapshot struct {
	Name    string
	UDPAddr string
	TCPAddr string
	Users   uint32
	Files   uint32
	// LastSeen is how long ago the peer last announced.
	LastSeen time.Duration
	// Latency is the forward round-trip EWMA (0 until measured).
	Latency time.Duration
	Fails   int
	Ejected bool
	// ForwardsSent / AnswersRecv count this node's forwards to the peer
	// and the answer datagrams that came back.
	ForwardsSent uint64
	AnswersRecv  uint64
}

// peer is the mutable per-peer state, guarded by Mesh.mu.
type peer struct {
	addr    *net.UDPAddr
	name    string
	tcpPort uint16
	users   uint32
	files   uint32

	lastSeen     time.Time
	latency      time.Duration // EWMA, 0 until first measurement
	fails        int           // consecutive forward failures
	ejected      bool
	ejectedUntil time.Time // earliest readmission

	forwardsSent uint64
	answersRecv  uint64
}

// pendingReq collects the answers of one forwarded request.
type pendingReq struct {
	ch     chan peerAnswer
	expect map[string]bool // peer addr keys queried
	sent   time.Time
}

type peerAnswer struct {
	from    string
	answers []ed2k.Message
}

// Mesh is one node of the federation, attached to one daemon.
type Mesh struct {
	d   *edserverd.Daemon
	cfg Config

	self      ed2k.MeshPeer // advertised identity (counts filled per tick)
	selfKey   string
	bootstrap []*net.UDPAddr

	mu      sync.Mutex
	peers   map[string]*peer
	pending map[uint32]*pendingReq

	// Gossip and forwarding counters — obs series, so Stats() and the
	// metrics exposition read the same numbers. The per-peer latency
	// EWMA and health state are registered as read callbacks when a
	// peer is discovered and unregistered when it is forgotten (the
	// render path never runs under m.mu, so a callback re-taking m.mu
	// is deadlock-free).
	reg                       *obs.Registry
	cAnnSent, cAnnRecv        *obs.Counter
	cFwdSent, cFwdServed      *obs.Counter
	cFwdAnswers, cFwdTimeouts *obs.Counter
	cEjects                   *obs.Counter
	hForward                  *obs.Histogram

	reqSeq atomic.Uint32

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	detachPeer     func()
	detachResolver func()
	closeOnce      sync.Once
}

// New attaches a mesh node to a running daemon (which must have UDP
// enabled) and starts announcing. Close detaches it; the mesh also
// winds down by itself when the daemon shuts down.
func New(d *edserverd.Daemon, cfg Config) (*Mesh, error) {
	cfg.fillDefaults()
	ua, ok := d.UDPAddr().(*net.UDPAddr)
	if !ok || ua == nil {
		return nil, fmt.Errorf("edmesh: daemon has no UDP listener")
	}
	reg := d.Metrics()
	m := &Mesh{
		d:       d,
		cfg:     cfg,
		selfKey: ua.String(),
		peers:   make(map[string]*peer),
		pending: make(map[uint32]*pendingReq),
		reg:     reg,
	}
	m.cAnnSent = reg.Counter("edmesh_announces_sent_total", "gossip datagrams sent")
	m.cAnnRecv = reg.Counter("edmesh_announces_recv_total", "gossip datagrams received")
	m.cFwdSent = reg.Counter("edmesh_forwards_sent_total", "MeshForward datagrams sent to peers")
	m.cFwdServed = reg.Counter("edmesh_forwards_served_total", "peer forwards answered from the local index")
	m.cFwdAnswers = reg.Counter("edmesh_forward_answers_total", "answer messages merged in from peers")
	m.cFwdTimeouts = reg.Counter("edmesh_forward_timeouts_total", "forwards that hit the timeout")
	m.cEjects = reg.Counter("edmesh_ejects_total", "peer ejections (failures or TTL)")
	m.hForward = reg.Histogram("edmesh_forward_seconds", "forwarded-request wait, send to merge", nil)
	reg.GaugeFunc("edmesh_peers_known", "peers in the server list", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.peers))
	})
	reg.GaugeFunc("edmesh_peers_healthy", "peers eligible for forwards", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		n := 0
		for _, p := range m.peers {
			if !p.ejected {
				n++
			}
		}
		return float64(n)
	})
	m.self = ed2k.MeshPeer{
		IP:      ipKey(ua.IP),
		UDPPort: uint16(ua.Port),
		Name:    d.Name(),
	}
	if ta, ok := d.TCPAddr().(*net.TCPAddr); ok && ta != nil {
		m.self.TCPPort = uint16(ta.Port)
	}
	for _, b := range cfg.Bootstrap {
		ba, err := net.ResolveUDPAddr("udp4", b)
		if err != nil {
			return nil, fmt.Errorf("edmesh: bootstrap %q: %w", b, err)
		}
		if ba.String() == m.selfKey {
			continue
		}
		m.bootstrap = append(m.bootstrap, ba)
	}
	m.ctx, m.cancel = context.WithCancel(context.Background())
	m.detachPeer = d.SetPeerHandler(m.handlePeerMsg)
	m.detachResolver = d.SetResolver(m.resolve)
	m.wg.Add(1)
	go m.announceLoop()
	return m, nil
}

// Close detaches the mesh from its daemon and stops the gossip loop.
// In-flight forwarded requests are released immediately. Idempotent.
func (m *Mesh) Close() {
	m.closeOnce.Do(func() {
		m.detachPeer()
		m.detachResolver()
		m.cancel()
	})
	m.wg.Wait()
}

// ipKey packs an IPv4 address for the announce wire format.
func ipKey(ip net.IP) uint32 {
	ip4 := ip.To4()
	if ip4 == nil {
		return 0
	}
	return binary.BigEndian.Uint32(ip4)
}

func unpackIP(v uint32) net.IP {
	ip := make(net.IP, 4)
	binary.BigEndian.PutUint32(ip, v)
	return ip
}

func (m *Mesh) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// announceLoop gossips the server list every announce interval and runs
// the TTL sweep. The first announce goes out immediately: a fresh node
// should not wait a full period to join.
func (m *Mesh) announceLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.announceInterval)
	defer t.Stop()
	for {
		m.announce()
		select {
		case <-t.C:
		case <-m.ctx.Done():
			return
		case <-m.d.Done():
			return
		}
	}
}

// announce sends one gossip round, ejects silent peers, and forgets
// peers silent past peerTTL+ejectBackoff: the entry and its two
// labelled gauge series are dropped, so a long-lived mesh with peer
// churn does not grow its server list and exposition without bound
// (and a dead peer stops reporting a misleading zero latency). A
// forgotten peer that comes back is simply rediscovered.
func (m *Mesh) announce() {
	users, files := m.d.IndexCounts()
	now := time.Now()
	forgetAfter := m.cfg.peerTTL + m.cfg.ejectBackoff

	m.mu.Lock()
	self := m.self
	self.Users = uint32(users)
	self.Files = uint32(files)
	ann := &ed2k.MeshAnnounce{Peers: []ed2k.MeshPeer{self}}
	targets := make([]*net.UDPAddr, 0, len(m.peers)+len(m.bootstrap))
	seen := map[string]bool{m.selfKey: true}
	for key, p := range m.peers {
		if silent := now.Sub(p.lastSeen); silent > forgetAfter {
			delete(m.peers, key)
			m.unregisterPeerGauges(key)
			m.logf("edmesh: %s: forgot peer %s at %s (silent %v)", m.self.Name, p.name, key, silent.Round(time.Millisecond))
			continue
		}
		if !p.ejected && now.Sub(p.lastSeen) > m.cfg.peerTTL {
			m.ejectLocked(p, now, "silent past TTL")
		}
		targets = append(targets, p.addr)
		seen[key] = true
		if len(ann.Peers) < ed2k.MaxMeshPeers {
			ann.Peers = append(ann.Peers, ed2k.MeshPeer{
				IP:      ipKey(p.addr.IP),
				UDPPort: uint16(p.addr.Port),
				TCPPort: p.tcpPort,
				Users:   p.users,
				Files:   p.files,
				Name:    p.name,
			})
		}
	}
	for _, b := range m.bootstrap {
		if !seen[b.String()] {
			targets = append(targets, b)
		}
	}
	m.mu.Unlock()
	m.cAnnSent.Add(uint64(len(targets)))

	raw := ed2k.Encode(ann)
	for _, to := range targets {
		if err := m.d.WriteUDP(raw, to); err != nil && m.ctx.Err() == nil {
			m.logf("edmesh: announce to %v: %v", to, err)
		}
	}
}

// ejectLocked marks a peer ejected; the caller holds m.mu.
func (m *Mesh) ejectLocked(p *peer, now time.Time, reason string) {
	p.ejected = true
	p.ejectedUntil = now.Add(m.cfg.ejectBackoff)
	p.fails = 0
	m.cEjects.Inc()
	m.logf("edmesh: %s: ejected peer %s (%s)", m.self.Name, p.name, reason)
}

// handlePeerMsg is the daemon's peer handler: it consumes the three mesh
// opcodes and leaves everything else to normal client handling.
func (m *Mesh) handlePeerMsg(from *net.UDPAddr, msg ed2k.Message) bool {
	switch v := msg.(type) {
	case *ed2k.MeshAnnounce:
		m.handleAnnounce(from, v)
		return true
	case *ed2k.MeshForward:
		// Answering hits the index and writes a datagram; do it off the
		// read loop so forward bursts cannot starve client traffic. Not
		// wg-tracked: the goroutine is short-lived and a send racing
		// Close just errors against the closed socket.
		go m.serveForward(from, v)
		return true
	case *ed2k.MeshForwardRes:
		m.handleForwardRes(from, v)
		return true
	}
	return false
}

// handleAnnounce refreshes the sender's liveness and learns new peers
// from the gossiped list. Only a direct announce proves liveness:
// gossiped entries are added when unknown but never refreshed, so a
// dead peer cannot be kept alive by third-hand rumours.
func (m *Mesh) handleAnnounce(from *net.UDPAddr, ann *ed2k.MeshAnnounce) {
	now := time.Now()
	m.cAnnRecv.Inc()
	m.mu.Lock()
	defer m.mu.Unlock()

	// The sender: trust the datagram source address over the advertised
	// one, but take identity and counts from its self entry.
	key := from.String()
	if key != m.selfKey {
		p := m.peers[key]
		if p == nil {
			p = &peer{addr: cloneUDPAddr(from)}
			m.peers[key] = p
			m.registerPeerGauges(key)
			m.logf("edmesh: %s: discovered peer %s at %s", m.self.Name, ann.Peers[0].Name, key)
		}
		self := ann.Peers[0]
		p.name = self.Name
		p.tcpPort = self.TCPPort
		p.users = self.Users
		p.files = self.Files
		p.lastSeen = now
		if p.ejected && !now.Before(p.ejectedUntil) {
			p.ejected = false
			p.fails = 0
			m.logf("edmesh: %s: readmitted peer %s", m.self.Name, p.name)
		}
	}

	for _, g := range ann.Peers[1:] {
		gaddr := &net.UDPAddr{IP: unpackIP(g.IP), Port: int(g.UDPPort)}
		gkey := gaddr.String()
		if gkey == m.selfKey || m.peers[gkey] != nil {
			continue
		}
		m.peers[gkey] = &peer{
			addr:     gaddr,
			name:     g.Name,
			tcpPort:  g.TCPPort,
			users:    g.Users,
			files:    g.Files,
			lastSeen: now, // one TTL's grace to announce directly
		}
		m.registerPeerGauges(gkey)
		m.logf("edmesh: %s: learned peer %s at %s (via %s)", m.self.Name, g.Name, gkey, key)
	}
}

// registerPeerGauges publishes one peer's health row as read callbacks:
// the latency EWMA and whether it is eligible for forwards. Called with
// m.mu held when the peer is first created; the callbacks re-take m.mu,
// which is safe because the registry never renders under m.mu. The TTL
// sweep unregisters the pair when the peer is forgotten.
func (m *Mesh) registerPeerGauges(key string) {
	lbl := obs.L("peer", key)
	m.reg.GaugeFunc("edmesh_peer_latency_seconds", "per-peer forward round-trip EWMA", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		if p := m.peers[key]; p != nil {
			return p.latency.Seconds()
		}
		return 0
	}, lbl)
	m.reg.GaugeFunc("edmesh_peer_healthy", "1 while the peer is eligible for forwards", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		if p := m.peers[key]; p != nil && !p.ejected {
			return 1
		}
		return 0
	}, lbl)
}

// unregisterPeerGauges drops a forgotten peer's gauge series. Called
// with m.mu held; the m.mu→registry lock order matches registration,
// and rendering never holds the registry lock while running callbacks.
func (m *Mesh) unregisterPeerGauges(key string) {
	lbl := obs.L("peer", key)
	m.reg.Unregister("edmesh_peer_latency_seconds", lbl)
	m.reg.Unregister("edmesh_peer_healthy", lbl)
}

func cloneUDPAddr(a *net.UDPAddr) *net.UDPAddr {
	c := *a
	c.IP = append(net.IP(nil), a.IP...)
	return &c
}

// forwardResHead is what a MeshForwardRes of one answer adds to that
// answer's encoding: protocol byte, opcode, request ID, answer count and
// the answer's u16 length.
const forwardResHead = 2 + 4 + 1 + 2

// serveForward answers one peer-forwarded query from the local index.
// An empty answer list is still sent: it releases the asking node's
// wait early instead of costing it the full forward timeout. The batch
// travels in one datagram, so a forwarded search, answered by one
// SearchRes, keeps the results that fit beside the batch's own bytes
// (which also keeps it within its u16 length); the FoundSources of a
// forwarded GetSources are at most MaxForwardAnswers of ~320 bytes.
func (m *Mesh) serveForward(from *net.UDPAddr, fw *ed2k.MeshForward) {
	answers := m.d.AnswerRemote(fw.Query)
	if len(answers) > ed2k.MaxForwardAnswers {
		answers = answers[:ed2k.MaxForwardAnswers]
	}
	for i, a := range answers {
		answers[i] = ed2k.FitDatagram(a, ed2k.MaxDatagram-forwardResHead)
	}
	m.cFwdServed.Inc()
	res := &ed2k.MeshForwardRes{ReqID: fw.ReqID, Answers: answers}
	if err := m.d.WriteUDP(ed2k.Encode(res), from); err != nil && m.ctx.Err() == nil {
		m.logf("edmesh: forward answer to %v: %v", from, err)
	}
}

// handleForwardRes routes one peer's answer batch to the waiting
// forward, crediting the peer's health and latency.
func (m *Mesh) handleForwardRes(from *net.UDPAddr, res *ed2k.MeshForwardRes) {
	key := from.String()
	m.mu.Lock()
	pr := m.pending[res.ReqID]
	if pr == nil || !pr.expect[key] {
		m.mu.Unlock()
		return // late or stray answer: its peer already took the failure
	}
	pr.expect[key] = false
	if p := m.peers[key]; p != nil {
		p.answersRecv++
		p.fails = 0
		rtt := time.Since(pr.sent)
		if p.latency == 0 {
			p.latency = rtt
		} else {
			p.latency = (3*p.latency + rtt) / 4
		}
	}
	m.mu.Unlock()
	pr.ch <- peerAnswer{from: key, answers: res.Answers}
}

// pickPeers selects up to fanOut healthy peers, fastest first.
func (m *Mesh) pickPeers() []*net.UDPAddr {
	m.mu.Lock()
	defer m.mu.Unlock()
	type cand struct {
		addr    *net.UDPAddr
		latency time.Duration
		name    string
	}
	cands := make([]cand, 0, len(m.peers))
	for _, p := range m.peers {
		if p.ejected {
			continue
		}
		cands = append(cands, cand{p.addr, p.latency, p.name})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].latency != cands[j].latency {
			return cands[i].latency < cands[j].latency
		}
		return cands[i].name < cands[j].name
	})
	if len(cands) > m.cfg.fanOut {
		cands = cands[:m.cfg.fanOut]
	}
	out := make([]*net.UDPAddr, len(cands))
	for i, c := range cands {
		out[i] = c.addr
	}
	return out
}

// forward sends q to up to fanOut healthy peers and collects their
// answers until all have responded, the forward timeout fires, or ctx
// ends. Peers that did not respond take a consecutive-failure mark and
// are ejected at failLimit.
func (m *Mesh) forward(ctx context.Context, q ed2k.Message) []ed2k.Message {
	targets := m.pickPeers()
	if len(targets) == 0 {
		return nil
	}
	id := m.reqSeq.Add(1)
	pr := &pendingReq{
		// Buffered to the fan-out so a response arriving after this
		// forward gave up never blocks the daemon's UDP read loop.
		ch:     make(chan peerAnswer, len(targets)),
		expect: make(map[string]bool, len(targets)),
		sent:   time.Now(),
	}
	m.mu.Lock()
	for _, t := range targets {
		pr.expect[t.String()] = true
	}
	m.pending[id] = pr
	m.cFwdSent.Add(uint64(len(targets)))
	for _, t := range targets {
		if p := m.peers[t.String()]; p != nil {
			p.forwardsSent++
		}
	}
	m.mu.Unlock()

	raw := ed2k.Encode(&ed2k.MeshForward{ReqID: id, Query: q})
	for _, t := range targets {
		if err := m.d.WriteUDP(raw, t); err != nil && m.ctx.Err() == nil {
			m.logf("edmesh: forward to %v: %v", t, err)
		}
	}

	timer := time.NewTimer(m.cfg.forwardTimeout)
	defer timer.Stop()
	var out []ed2k.Message
	replied := 0
collect:
	for replied < len(targets) {
		select {
		case a := <-pr.ch:
			replied++
			out = append(out, a.answers...)
		case <-timer.C:
			m.cFwdTimeouts.Inc()
			break collect
		case <-ctx.Done():
			break collect
		case <-m.ctx.Done():
			break collect
		}
	}

	now := time.Now()
	m.mu.Lock()
	delete(m.pending, id)
	for key, missing := range pr.expect {
		if !missing {
			continue
		}
		if p := m.peers[key]; p != nil && !p.ejected {
			p.fails++
			if p.fails >= m.cfg.failLimit {
				m.ejectLocked(p, now, "forward failures")
			}
		}
	}
	m.mu.Unlock()
	m.cFwdAnswers.Add(uint64(len(out)))
	m.hForward.Observe(time.Since(pr.sent))
	return out
}

// resolve is the daemon's resolver hook: it completes GetSources and
// search misses with peer answers, returning the full replacement
// answer list in the shapes the client protocol expects.
func (m *Mesh) resolve(ctx context.Context, msg ed2k.Message, local []ed2k.Message) []ed2k.Message {
	switch q := msg.(type) {
	case *ed2k.GetSources:
		missing := missingHashes(q, local)
		if len(missing) == 0 {
			return local
		}
		if len(missing) > ed2k.MaxForwardAnswers {
			missing = missing[:ed2k.MaxForwardAnswers] // best effort, bounded
		}
		peerAns := m.forward(ctx, &ed2k.GetSources{Hashes: missing})
		return append(local, mergeFoundSources(missing, peerAns)...)
	case *ed2k.SearchReq:
		if searchHits(local) > 0 {
			return local
		}
		peerAns := m.forward(ctx, q)
		if merged := mergeSearchRes(peerAns); merged != nil {
			return []ed2k.Message{merged}
		}
		return local
	}
	return local
}

// missingHashes returns the queried hashes without a local FoundSources
// answer, deduplicated, in query order.
func missingHashes(q *ed2k.GetSources, local []ed2k.Message) []ed2k.FileID {
	answered := make(map[ed2k.FileID]bool, len(local))
	for _, a := range local {
		if fs, ok := a.(*ed2k.FoundSources); ok {
			answered[fs.Hash] = true
		}
	}
	var out []ed2k.FileID
	for _, h := range q.Hashes {
		if !answered[h] {
			answered[h] = true
			out = append(out, h)
		}
	}
	return out
}

// searchHits counts results across local SearchRes answers.
func searchHits(local []ed2k.Message) int {
	n := 0
	for _, a := range local {
		if sr, ok := a.(*ed2k.SearchRes); ok {
			n += len(sr.Results)
		}
	}
	return n
}

// mergeFoundSources merges per-peer FoundSources into one answer per
// missing hash, deduplicating endpoints and keeping the server's
// per-answer bound.
func mergeFoundSources(missing []ed2k.FileID, peerAns []ed2k.Message) []ed2k.Message {
	byHash := make(map[ed2k.FileID]*ed2k.FoundSources, len(missing))
	seen := make(map[ed2k.FileID]map[ed2k.Endpoint]bool)
	for _, a := range peerAns {
		fs, ok := a.(*ed2k.FoundSources)
		if !ok {
			continue
		}
		merged := byHash[fs.Hash]
		if merged == nil {
			merged = &ed2k.FoundSources{Hash: fs.Hash}
			byHash[fs.Hash] = merged
			seen[fs.Hash] = make(map[ed2k.Endpoint]bool)
		}
		for _, ep := range fs.Sources {
			if seen[fs.Hash][ep] || len(merged.Sources) >= server.MaxSourcesPerAnswer {
				continue
			}
			seen[fs.Hash][ep] = true
			merged.Sources = append(merged.Sources, ep)
		}
	}
	var out []ed2k.Message
	for _, h := range missing {
		if merged := byHash[h]; merged != nil && len(merged.Sources) > 0 {
			out = append(out, merged)
		}
	}
	return out
}

// mergeSearchRes merges per-peer SearchRes into one deduplicated,
// bounded answer; nil when the peers had nothing either.
func mergeSearchRes(peerAns []ed2k.Message) *ed2k.SearchRes {
	var merged *ed2k.SearchRes
	seen := make(map[ed2k.FileID]bool)
	for _, a := range peerAns {
		sr, ok := a.(*ed2k.SearchRes)
		if !ok {
			continue
		}
		for i := range sr.Results {
			e := &sr.Results[i]
			if seen[e.ID] {
				continue
			}
			if merged == nil {
				merged = &ed2k.SearchRes{}
			}
			if len(merged.Results) >= server.MaxSearchResults {
				return merged
			}
			seen[e.ID] = true
			merged.Results = append(merged.Results, *e)
		}
	}
	return merged
}

// Stats snapshots the counters — read from the same obs series the
// metrics exposition serves.
func (m *Mesh) Stats() Stats {
	st := Stats{
		AnnouncesSent:   m.cAnnSent.Value(),
		AnnouncesRecv:   m.cAnnRecv.Value(),
		ForwardsSent:    m.cFwdSent.Value(),
		ForwardsServed:  m.cFwdServed.Value(),
		ForwardAnswers:  m.cFwdAnswers.Value(),
		ForwardTimeouts: m.cFwdTimeouts.Value(),
		Ejects:          m.cEjects.Value(),
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	st.PeersKnown = len(m.peers)
	for _, p := range m.peers {
		if !p.ejected {
			st.PeersHealthy++
		}
	}
	return st
}

// Peers snapshots the server list, sorted by name.
func (m *Mesh) Peers() []PeerSnapshot {
	now := time.Now()
	m.mu.Lock()
	out := make([]PeerSnapshot, 0, len(m.peers))
	for _, p := range m.peers {
		out = append(out, PeerSnapshot{
			Name:         p.name,
			UDPAddr:      p.addr.String(),
			TCPAddr:      net.JoinHostPort(p.addr.IP.String(), fmt.Sprint(p.tcpPort)),
			Users:        p.users,
			Files:        p.files,
			LastSeen:     now.Sub(p.lastSeen),
			Latency:      p.latency,
			Fails:        p.fails,
			Ejected:      p.ejected,
			ForwardsSent: p.forwardsSent,
			AnswersRecv:  p.answersRecv,
		})
	}
	m.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
