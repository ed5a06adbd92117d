// Package edserverd is the real eDonkey directory-server daemon: the
// deployed substrate the paper measured but could not open-source
// (§2.2). It serves the ed2k protocol over real sockets — framed TCP
// sessions (internal/ed2k's stream framing) and bare UDP datagrams —
// dispatching every decoded query into the sharded concurrent index of
// internal/server, one goroutine per TCP connection plus one UDP read
// loop, with a periodic source-expiry sweep.
//
// A tap (SetTap) mirrors every decoded query and answer as (srcKey, dstKey,
// payload) triples — the software equivalent of the port mirror feeding
// the paper's capture machine — which edtrace.ServerSource turns into
// the standard Session pipeline input, so a live run of this daemon can
// be captured, anonymised and analysed by the exact code path used for
// the simulator and for pcap replay.
package edserverd

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"edtrace/internal/ed2k"
	"edtrace/internal/obs"
	"edtrace/internal/policy"
	"edtrace/internal/server"
	"edtrace/internal/simtime"
)

// TapFunc receives one mirrored message: srcKey/dstKey identify the
// dialog endpoints (see AddrKey) and payload is the UDP-style encoding
// of the message ([0xE3][opcode][body]). payload is valid only during
// the call — the daemon reuses its backing array for the next message —
// so a tap that keeps the bytes must copy them. Called concurrently from
// every connection goroutine; must be fast.
type TapFunc func(srcKey, dstKey uint32, payload []byte)

// Config parameterises a daemon. The zero value listens on ephemeral
// loopback ports with default sizing.
type Config struct {
	// TCPAddr and UDPAddr are listen addresses ("127.0.0.1:4661"). An
	// empty address means an ephemeral loopback port; "off" disables the
	// protocol entirely.
	TCPAddr string
	UDPAddr string

	// Name and Desc are the server identity (ServerDescRes).
	Name string
	Desc string

	// ExpiryInterval is the wall-clock period of the source-expiry
	// sweep (0 means server.SweepEvery; <0 disables the sweeper).
	ExpiryInterval time.Duration

	// Policy, when set, is the traffic-policy configuration the daemon
	// enforces at its choke points (see internal/policy and
	// docs/policy.md). Nil means every connection and message is
	// admitted, as before.
	Policy *policy.Config

	// IdleTimeout reaps a logged-in TCP connection that sends nothing
	// for this long — the slowloris defence (default 3 minutes; <0
	// disables, restoring the historical block-forever behaviour).
	IdleTimeout time.Duration

	// Metrics is the registry the daemon (and its index) registers
	// into. Nil means a private registry, still readable via
	// Daemon.Metrics — supply one to serve the daemon's series beside
	// other components' on a single endpoint. The daemon serves no
	// endpoint itself: a command serves the registry with obs.Serve and
	// Daemon.Health.
	Metrics *obs.Registry

	// Logf, when set, receives one line per lifecycle event and per
	// connection error (not per message).
	Logf func(format string, args ...any)

	// preLoginTimeout is the stricter read deadline before the login
	// handshake completes: a connection that never logs in is cheap to
	// open and worth reaping fast (30s when zero). Not a knob — a field
	// only so a test can shrink it.
	preLoginTimeout time.Duration
}

// Stats is a snapshot of daemon activity counters.
type Stats struct {
	// Conns counts TCP connections accepted; Active the ones open now.
	Conns   uint64
	Active  int64
	Logins  uint64
	TCPMsgs uint64
	UDPMsgs uint64
	Answers uint64
	// BadMsgs counts undecodable inputs (TCP framing kills the
	// connection; UDP datagrams are dropped individually).
	BadMsgs uint64
	// ConnErrors counts TCP transport failures (resets, write errors) —
	// the network misbehaving, distinct from BadMsgs' protocol garbage.
	ConnErrors uint64
	// IdleReaped counts TCP connections closed by the idle deadline.
	IdleReaped uint64
	// Server is the aggregated index/opcode view.
	Server server.Stats
}

// Daemon is one running eDonkey server instance.
type Daemon struct {
	cfg   Config
	srv   *server.Server
	start time.Time
	tap   atomic.Pointer[TapFunc]

	tcpLn   *net.TCPListener
	udpConn *net.UDPConn

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	connMu sync.Mutex
	conns  map[net.Conn]struct{}

	reg *obs.Registry

	// pol is the traffic-policy engine (nil when no policy configured).
	pol *policy.Engine

	// writeTimeout bounds one flush of a TCP session's pending answers:
	// a client that stops reading is dropped, not waited on. Not a knob —
	// a field only so a test can shrink it.
	writeTimeout time.Duration

	// Connection-lifecycle and traffic counters. These ARE the metrics
	// — Stats() reads the same obs series /metrics exposes, so the two
	// views can never disagree.
	nConns, nLogins, nTCP, nUDP, nAns, nBad *obs.Counter
	nConnErr, nIdle, nFlush                 *obs.Counter
	active, inflight                        *obs.Gauge
	hHandle                                 *obs.Histogram

	closeOnce sync.Once
}

// registerMetrics wires the daemon's own series into reg (the index
// registered its own in NewShardedWith).
func (d *Daemon) registerMetrics(reg *obs.Registry) {
	d.nConns = reg.Counter("edserverd_connections_total", "TCP connections accepted")
	d.nLogins = reg.Counter("edserverd_logins_total", "login handshakes served")
	d.nTCP = reg.Counter("edserverd_tcp_messages_total", "framed TCP messages decoded")
	d.nUDP = reg.Counter("edserverd_udp_messages_total", "client UDP datagrams decoded")
	d.nAns = reg.Counter("edserverd_answers_total", "answers sent (TCP and UDP)")
	d.nBad = reg.Counter("edserverd_bad_messages_total", "undecodable inputs")
	d.nConnErr = reg.Counter("edserverd_conn_errors_total", "TCP transport failures (resets, timeouts on write, broken pipes)")
	d.nIdle = reg.Counter("edserverd_idle_reaped_total", "TCP connections closed by the idle deadline")
	d.nFlush = reg.Counter("edserverd_tcp_flushes_total", "socket writes on TCP sessions; answers per write is the batching factor")
	d.active = reg.Gauge("edserverd_connections_active", "TCP connections open now")
	d.inflight = reg.Gauge("edserverd_inflight_requests", "client queries being handled right now")
	d.hHandle = reg.Histogram("edserverd_handle_seconds",
		"full server-side handling span per client query", nil)
	reg.GaugeFunc("edserverd_uptime_seconds", "time since the daemon started serving",
		func() float64 { return time.Since(d.start).Seconds() })
}

// Start binds the configured listeners and launches the serving loops.
// The returned daemon runs until Shutdown.
func Start(cfg Config) (*Daemon, error) {
	if cfg.Name == "" {
		cfg.Name = "edserverd"
	}
	if cfg.Desc == "" {
		cfg.Desc = "edtrace eDonkey directory server"
	}
	if cfg.ExpiryInterval == 0 {
		cfg.ExpiryInterval = time.Duration(server.SweepEvery)
	}
	if cfg.IdleTimeout == 0 {
		cfg.IdleTimeout = 3 * time.Minute
	}
	if cfg.preLoginTimeout == 0 {
		cfg.preLoginTimeout = 30 * time.Second
	}
	if cfg.TCPAddr == "off" && cfg.UDPAddr == "off" {
		return nil, errors.New("edserverd: both TCP and UDP disabled")
	}

	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	// The index's shard count is a locking strategy, not a setting: it
	// cannot move answers (TestShardedMatchesSingleShard).
	shards := max(4*runtime.GOMAXPROCS(0), 16)
	d := &Daemon{
		cfg:   cfg,
		srv:   server.NewShardedWith(cfg.Name, cfg.Desc, shards, reg),
		start: time.Now(),
		conns: make(map[net.Conn]struct{}),
		reg:   reg,

		writeTimeout: 30 * time.Second,
	}
	d.registerMetrics(reg)
	if cfg.Policy != nil {
		eng, err := policy.New(*cfg.Policy, reg)
		if err != nil {
			return nil, err
		}
		d.pol = eng
	}
	d.ctx, d.cancel = context.WithCancel(context.Background())

	if cfg.TCPAddr != "off" {
		addr := cfg.TCPAddr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ta, err := net.ResolveTCPAddr("tcp4", addr)
		if err != nil {
			return nil, fmt.Errorf("edserverd: tcp addr: %w", err)
		}
		d.tcpLn, err = net.ListenTCP("tcp4", ta)
		if err != nil {
			return nil, fmt.Errorf("edserverd: %w", err)
		}
	}
	if cfg.UDPAddr != "off" {
		addr := cfg.UDPAddr
		if addr == "" {
			addr = "127.0.0.1:0"
		}
		ua, err := net.ResolveUDPAddr("udp4", addr)
		if err != nil {
			d.closeListeners()
			return nil, fmt.Errorf("edserverd: udp addr: %w", err)
		}
		d.udpConn, err = net.ListenUDP("udp4", ua)
		if err != nil {
			d.closeListeners()
			return nil, fmt.Errorf("edserverd: %w", err)
		}
	}

	if d.tcpLn != nil {
		d.wg.Add(1)
		go d.acceptLoop()
	}
	if d.udpConn != nil {
		d.wg.Add(1)
		go d.udpLoop()
	}
	if cfg.ExpiryInterval > 0 {
		d.wg.Add(1)
		go d.expiryLoop()
	}
	if d.pol != nil {
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.pol.RunDetector(d.ctx, d.inflight.Value, d.hHandle.Snapshot)
		}()
	}
	d.logf("edserverd: %s serving tcp=%v udp=%v shards=%d",
		cfg.Name, d.TCPAddr(), d.UDPAddr(), d.srv.NumShards())
	return d, nil
}

// Health is the daemon's /healthz check: nil while serving, an error
// once graceful shutdown has begun (so a load balancer drains the node
// while the listener is still winding down).
func (d *Daemon) Health() error {
	if d.ctx.Err() != nil {
		return errors.New("edserverd: shutting down")
	}
	return nil
}

// Metrics returns the registry the daemon's metrics live in.
func (d *Daemon) Metrics() *obs.Registry { return d.reg }

func (d *Daemon) logf(format string, args ...any) {
	if d.cfg.Logf != nil {
		d.cfg.Logf(format, args...)
	}
}

// TCPAddr returns the bound TCP listen address (nil when disabled).
func (d *Daemon) TCPAddr() net.Addr {
	if d.tcpLn == nil {
		return nil
	}
	return d.tcpLn.Addr()
}

// UDPAddr returns the bound UDP listen address (nil when disabled).
func (d *Daemon) UDPAddr() net.Addr {
	if d.udpConn == nil {
		return nil
	}
	return d.udpConn.LocalAddr()
}

// ServerKey is the daemon's dialog-endpoint key: the value a capture
// pipeline observing the tap should treat as the server's address.
func (d *Daemon) ServerKey() uint32 {
	if d.tcpLn != nil {
		a := d.tcpLn.Addr().(*net.TCPAddr)
		return AddrKey(a.IP, a.Port)
	}
	a := d.udpConn.LocalAddr().(*net.UDPAddr)
	return AddrKey(a.IP, a.Port)
}

// IPKey folds an endpoint IP to the policy layer's per-host key: the
// big-endian IPv4 value. Unlike AddrKey, the port does not participate
// — every connection from one host (or one loopback swarm) shares one
// admission bucket, which is what makes per-IP limiting meaningful
// (and testable on loopback, where all clients are 127.0.0.1).
func IPKey(ip net.IP) uint32 {
	ip4 := ip.To4()
	if ip4 == nil || ip4.IsUnspecified() {
		return 0x7F000001
	}
	return binary.BigEndian.Uint32(ip4)
}

// AddrKey derives the uint32 dialog key for an endpoint. Real IPv4
// addresses map to their numeric value; loopback and wildcard addresses
// (every peer shares 127.0.0.1 in a local swarm, which would collapse
// the capture's query/answer direction inference) are disambiguated by
// port: 0x7F00_0000 | port.
func AddrKey(ip net.IP, port int) uint32 {
	ip4 := ip.To4()
	if ip4 == nil || ip4.IsLoopback() || ip4.IsUnspecified() {
		return 0x7F000000 | uint32(port)
	}
	return binary.BigEndian.Uint32(ip4)
}

// now is the daemon's virtual clock: uptime as simtime.
func (d *Daemon) now() simtime.Time {
	return simtime.Time(time.Since(d.start))
}

// Uptime reports how long the daemon has been serving.
func (d *Daemon) Uptime() time.Duration { return time.Since(d.start) }

// Stats snapshots the daemon and index counters.
func (d *Daemon) Stats() Stats {
	return Stats{
		Conns:      d.nConns.Value(),
		Active:     d.active.Value(),
		Logins:     d.nLogins.Value(),
		TCPMsgs:    d.nTCP.Value(),
		UDPMsgs:    d.nUDP.Value(),
		Answers:    d.nAns.Value(),
		BadMsgs:    d.nBad.Value(),
		ConnErrors: d.nConnErr.Value(),
		IdleReaped: d.nIdle.Value(),
		Server:     d.srv.Stats(),
	}
}

// Policy returns the active traffic-policy engine (nil when the daemon
// runs without one) — how tests and operators read decision totals.
func (d *Daemon) Policy() *policy.Engine { return d.pol }

// Shutdown stops accepting, closes every live connection, and waits for
// the serving loops to drain (bounded by ctx). Idempotent.
func (d *Daemon) Shutdown(ctx context.Context) error {
	d.closeOnce.Do(func() {
		d.logf("edserverd: %s shutting down", d.cfg.Name)
		d.cancel()
		d.closeListeners()
		d.connMu.Lock()
		for c := range d.conns {
			c.Close()
		}
		d.connMu.Unlock()
	})
	done := make(chan struct{})
	go func() {
		d.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (d *Daemon) closeListeners() {
	if d.tcpLn != nil {
		d.tcpLn.Close()
	}
	if d.udpConn != nil {
		d.udpConn.Close()
	}
}

func (d *Daemon) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.tcpLn.AcceptTCP()
		if err != nil {
			if d.ctx.Err() != nil {
				return
			}
			d.logf("edserverd: accept: %v", err)
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Persistent errors (EMFILE under fd exhaustion) would
			// otherwise busy-spin; the standard short breather bounds
			// the log flood and CPU burn until resources free up.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		d.nConns.Add(1)
		if d.pol != nil {
			remote := conn.RemoteAddr().(*net.TCPAddr)
			if d.pol.AdmitConn(IPKey(remote.IP), d.active.Value()) != policy.Admit {
				// Rejected at the cheapest possible point: before the
				// goroutine, the tracking entry and the framing buffers
				// exist. The socket is tarpitted rather than closed
				// outright — held silent for the throttle delay on a timer
				// (no goroutine) — so a lockstep reconnect storm degrades
				// to workers/delay attempts per second instead of retrying
				// at wire speed against a cheap refusal.
				hold := d.pol.ThrottleDelay()
				if hold > time.Second {
					// Cap the hold so a generous message throttle_delay
					// cannot turn the tarpit into an fd-exhaustion vector:
					// pending refused sockets ≈ refusal rate × hold.
					hold = time.Second
				}
				time.AfterFunc(hold, func() { conn.Close() })
				continue
			}
		}
		d.active.Add(1)
		d.track(conn, true)
		// A connection accepted concurrently with Shutdown can miss its
		// close sweep (tracked after the sweep ran); re-checking after
		// tracking closes that window.
		if d.ctx.Err() != nil {
			conn.Close()
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			defer d.active.Add(-1)
			defer d.track(conn, false)
			defer conn.Close()
			d.serveConn(&connIO{d: d, conn: conn})
		}()
	}
}

func (d *Daemon) track(c net.Conn, add bool) {
	d.connMu.Lock()
	if add {
		d.conns[c] = struct{}{}
	} else {
		delete(d.conns, c)
	}
	d.connMu.Unlock()
}

// flushBound caps the answer bytes a session holds back: at or above
// it the pending answers are written even when more requests are already
// buffered, which bounds memory per connection (with the 4 KiB read
// buffer: 8 KiB plus one request's answers; a request frame over 64 KiB
// grows the read buffer only until it has been read, see
// ed2k.StreamReader) and keeps a closed-loop
// client from waiting for a whole window of answers at once. Chosen by
// measurement, bench/run.sh workload serve (2 vCPUs, 2 connections x 64
// outstanding, 15 s, seeds 6 and 7 twice each, medians; a write per
// answer at the parent commit: 64.5k round trips/s, 28.6 us CPU each):
//
//	 1 KiB  85.0k/s  21.5 us
//	 4 KiB  86.1k/s  20.6 us
//	16 KiB  89.1k/s  19.6 us
//	64 KiB  84.6k/s  20.6 us
//
// with runs at one bound spread over 82-90k/s: the batching is the
// gain, and where in 1-64 KiB the bound sits is not resolvable on this
// box. 4 KiB matches the read buffer and is the smallest value on the
// plateau.
const flushBound = 4 << 10

// A session buffer grown past shrinkAbove goes back to a flush's worth
// once written or mirrored, as the StreamReader's read buffers do: a
// SearchRes fitted to MaxTCPFrame can take ~1 MiB, and the session must
// not hold that for the rest of its life. Ordinary answers stay below
// the threshold and never re-allocate.
const shrinkAbove = 64 << 10

// reuse returns b emptied, or a small buffer in its place if b grew past
// shrinkAbove.
func reuse(b []byte) []byte {
	if cap(b) > shrinkAbove {
		return make([]byte, 0, flushBound)
	}
	return b[:0]
}

// connIO is one TCP session's socket plus the answers not yet written
// to it. It is the io.Reader serveConn's StreamReader pulls from, and
// its Read is the only place the session can block on the client: it
// writes pending answers, arms the read deadline, then reads. The
// StreamReader calls Read only when it holds no complete frame, so
// "answers go out before the session waits for more requests" and "a
// deadline covers every read that can stall" hold by construction, not
// by discipline at call sites.
type connIO struct {
	d        *Daemon
	conn     *net.TCPConn
	out      []byte // framed answers awaiting one Write
	scratch  []byte // tap payload, valid only during the tap call
	answers  server.Answers
	loggedIn bool
	werr     error // first write failure; the session is over
}

// Read implements io.Reader for the session's StreamReader.
func (c *connIO) Read(p []byte) (int, error) {
	if err := c.flush(); err != nil {
		return 0, err
	}
	// The read deadline is the slowloris defence: a client that goes
	// quiet (between frames or halfway through one) is reaped instead of
	// pinning a goroutine, an fd and the active gauge until shutdown.
	// Pre-login connections get the stricter deadline — they have
	// invested nothing yet.
	var deadline time.Time
	if !c.loggedIn {
		deadline = time.Now().Add(c.d.cfg.preLoginTimeout)
	} else if c.d.cfg.IdleTimeout > 0 {
		deadline = time.Now().Add(c.d.cfg.IdleTimeout)
	}
	c.conn.SetReadDeadline(deadline)
	return c.conn.Read(p)
}

// flush writes the pending answers with one Write under one write
// deadline. A failure is logged here, once, and ends the session.
func (c *connIO) flush() error {
	if len(c.out) == 0 || c.werr != nil {
		return c.werr
	}
	c.conn.SetWriteDeadline(time.Now().Add(c.d.writeTimeout))
	c.d.nFlush.Add(1) // before the write: a client holding an answer can rely on the count
	_, err := c.conn.Write(c.out)
	c.out = reuse(c.out)
	if err != nil {
		c.werr = err
		if c.d.ctx.Err() == nil {
			c.d.logf("edserverd: %v: write: %v", c.conn.RemoteAddr(), err)
		}
	}
	return err
}

// mirror feeds the tap from the session's scratch buffer (see
// Daemon.mirror for what is mirrored).
func (c *connIO) mirror(srcKey, dstKey uint32, m ed2k.Message) {
	if tap := c.d.tapFor(m); tap != nil {
		c.scratch = ed2k.AppendEncode(c.scratch[:0], m)
		(*tap)(srcKey, dstKey, c.scratch)
		c.scratch = reuse(c.scratch)
	}
}

// mirrorFrame is mirror for an answer already framed: the UDP-style
// encoding is the frame with its length field dropped — the protocol
// byte, then the frame from the opcode on — so the answer is not
// encoded twice.
func (c *connIO) mirrorFrame(srcKey, dstKey uint32, m ed2k.Message, frame []byte) {
	if tap := c.d.tapFor(m); tap != nil {
		c.scratch = append(append(c.scratch[:0], ed2k.ProtoEDonkey), frame[5:]...)
		(*tap)(srcKey, dstKey, c.scratch)
		c.scratch = reuse(c.scratch)
	}
}

// serveConn runs one TCP session: framed requests in, framed answers
// out, strictly request→answers ordered per connection.
//
// Requests are handled one at a time, in arrival order, each to
// completion (policy, index, tap) before the next is parsed; only the
// socket work is batched. Answers are appended to one buffer
// and written when the session would otherwise wait — before any read
// (connIO.Read), before a throttle sleep, on every return — or as soon
// as flushBound bytes are pending. A client that pipelines k requests
// into one segment therefore costs one read, one write and two deadline
// updates instead of k of each, and a lockstep client, which never has
// a second request buffered, sees exactly one write per answer group as
// before. Order holds because there is one buffer, appended to in
// handling order and written front to back by this goroutine alone.
//
// The request is borrowed from the StreamReader, which takes it back
// at the next Next, and the index builds its answers in the session's
// own server.Answers, so neither is fresh garbage per request. Both are
// valid until the next request is parsed, and everything that reads
// them — the policy, the index, the tap, the framing into out — is done
// with them by then; the index copies what it keeps of an offer.
func (d *Daemon) serveConn(c *connIO) {
	remote := c.conn.RemoteAddr().(*net.TCPAddr)
	clientKey := AddrKey(remote.IP, remote.Port)
	clientID := ed2k.ClientID(clientKey)
	clientPort := uint16(remote.Port)
	serverKey := d.ServerKey()

	var pc *policy.Client
	if d.pol != nil {
		pc = d.pol.NewConnClient()
	}
	// Best effort on every exit: answers to the valid requests ahead of
	// a bad frame, or handled just before shutdown, still reach the
	// client before the close.
	defer c.flush()
	sr := ed2k.NewStreamReader(c)
	for {
		msg, err := sr.Next()
		if err != nil {
			// Classify before counting: protocol garbage (structural or
			// semantic decode failures) is the client's fault and lands
			// in bad_messages; idle deadlines are the reaper at work;
			// everything else (resets, broken pipes) is transport noise
			// in conn_errors — it must not inflate the bad-input signal.
			switch {
			case c.werr != nil: // a flush failed inside Read; logged there
			case err == io.EOF || d.ctx.Err() != nil:
			case errors.Is(err, os.ErrDeadlineExceeded):
				d.nIdle.Add(1)
				d.logf("edserverd: %v: idle, reaped", remote)
			case errors.Is(err, ed2k.ErrStructural) || errors.Is(err, ed2k.ErrSemantic):
				d.nBad.Add(1)
				d.logf("edserverd: %v: %v", remote, err)
			default:
				d.nConnErr.Add(1)
				d.logf("edserverd: %v: %v", remote, err)
			}
			return
		}
		d.nTCP.Add(1)
		now := d.now()

		var answers []ed2k.Message
		switch m := msg.(type) {
		case *ed2k.LoginRequest:
			// The session handshake is the daemon's business, not the
			// index's. Per the ed2k convention, Client == 0 asks the
			// server to assign an ID: those clients get the low-ID
			// regime (address key folded under LowIDThreshold — port
			// collisions across distinct NAT gateways may merge, like
			// deployed servers recycling low IDs). Nonzero claims are
			// taken at face value, as historical servers did.
			d.nLogins.Add(1)
			c.loggedIn = true
			if m.Port != 0 {
				clientPort = m.Port
			}
			if m.Client != 0 {
				clientID = m.Client
			} else {
				clientID = ed2k.ClientID(clientKey % ed2k.LowIDThreshold)
			}
			answers = []ed2k.Message{&ed2k.IDChange{Client: clientID}}
		default:
			c.mirror(clientKey, serverKey, msg)
			var rejected bool
			if pc != nil {
				answers, rejected = d.applyMsgPolicy(pc, clientID, msg)
			}
			if rejected {
				// Backpressure: the cheap rejection answer is delayed so
				// a flooding lockstep client degrades to 1/delay round
				// trips per second instead of spinning at wire speed.
				// Answers to the requests before it are not held hostage.
				if delay := d.pol.ThrottleDelay(); delay > 0 {
					if c.flush() != nil {
						return
					}
					select {
					case <-time.After(delay):
					case <-d.ctx.Done():
						return
					}
				}
			} else {
				t0 := time.Now()
				d.inflight.Inc()
				answers = d.srv.HandleInto(&c.answers, now, clientID, clientPort, msg)
				d.inflight.Dec()
				d.hHandle.Observe(time.Since(t0))
			}
		}

		for _, a := range answers {
			head := len(c.out)
			c.out = ed2k.AppendFrameTCP(c.out, a)
			c.mirrorFrame(serverKey, clientKey, a, c.out[head:])
		}
		d.nAns.Add(uint64(len(answers)))
		if len(c.out) >= flushBound && c.flush() != nil {
			return
		}
	}
}

func (d *Daemon) udpLoop() {
	defer d.wg.Done()
	serverKey := d.ServerKey()
	buf := make([]byte, 64<<10)
	for {
		n, from, err := d.udpConn.ReadFromUDP(buf)
		if err != nil {
			if d.ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return
			}
			d.logf("edserverd: udp read: %v", err)
			continue
		}
		msg, derr := ed2k.Decode(buf[:n])
		if derr != nil {
			d.nBad.Add(1)
			continue
		}
		d.nUDP.Add(1)
		clientKey := AddrKey(from.IP, from.Port)
		d.mirror(clientKey, serverKey, msg)
		if d.pol != nil {
			// UDP message policy is budgeted per source host. There is no
			// session to backpressure, so a throttled or shed query is
			// simply dropped — for a connectionless flood, silence is the
			// cheapest possible answer.
			c := d.pol.UDPClient(IPKey(from.IP))
			if _, rejected := d.applyMsgPolicy(c, ed2k.ClientID(clientKey), msg); rejected {
				continue
			}
		}
		d.answerUDP(msg, from, clientKey, serverKey)
	}
}

// answerUDP runs one decoded client datagram through the index and
// writes the answers back, each fitted to one datagram
// (ed2k.FitDatagram): a search answer too long for one carries the
// results that fit instead of failing the write.
func (d *Daemon) answerUDP(msg ed2k.Message, from *net.UDPAddr, clientKey, serverKey uint32) {
	t0 := time.Now()
	d.inflight.Inc()
	answers := d.srv.Handle(d.now(), ed2k.ClientID(clientKey), uint16(from.Port), msg)
	d.inflight.Dec()
	d.hHandle.Observe(time.Since(t0))
	d.nAns.Add(uint64(len(answers)))
	for _, a := range answers {
		a = ed2k.FitDatagram(a, ed2k.MaxDatagram)
		d.mirror(serverKey, clientKey, a)
		if _, err := d.udpConn.WriteToUDP(ed2k.Encode(a), from); err != nil && d.ctx.Err() == nil {
			d.logf("edserverd: udp write: %v", err)
		}
	}
}

// applyMsgPolicy runs one decoded client message through the message
// choke point. It returns the cheap rejection answers and true when the
// message was throttled or shed; (nil, false) admits it to the index. A
// GetSources over its hash budget is truncated in place rather than
// rejected — the client gets sources for as many hashes as its budget
// covers, bounding per-client answer amplification.
func (d *Daemon) applyMsgPolicy(c *policy.Client, id ed2k.ClientID, msg ed2k.Message) ([]ed2k.Message, bool) {
	lowID := id.IsLowID()
	switch m := msg.(type) {
	case *ed2k.SearchReq:
		if d.pol.AdmitSearch(c, lowID) != policy.Admit {
			return []ed2k.Message{&ed2k.SearchRes{}}, true
		}
	case *ed2k.OfferFiles:
		if d.pol.AdmitOffer(c, lowID) != policy.Admit {
			return []ed2k.Message{&ed2k.OfferAck{Accepted: 0}}, true
		}
	case *ed2k.GetSources:
		granted := d.pol.AskBudget(c, len(m.Hashes), lowID)
		if granted == 0 {
			return nil, true
		}
		m.Hashes = m.Hashes[:granted]
	}
	return nil, false
}

// SetTap installs the traffic mirror at runtime — how
// edtrace.ServerSource attaches a capture session to already-running
// daemons (replacing any previous tap; a daemon carries at most one).
// The returned detach function removes fn only while it is still the
// installed tap, so a stale capture tearing down cannot silently
// detach its successor. Safe to call concurrently with serving.
func (d *Daemon) SetTap(fn TapFunc) (detach func()) {
	if fn == nil {
		d.tap.Store(nil)
		return func() {}
	}
	p := &fn
	d.tap.Store(p)
	return func() { d.tap.CompareAndSwap(p, nil) }
}

// IndexCounts reports the index's user and file gauges.
func (d *Daemon) IndexCounts() (users, files int) { return d.srv.Counts() }

// Done is closed when the daemon starts shutting down.
func (d *Daemon) Done() <-chan struct{} { return d.ctx.Done() }

// tapFor returns the installed tap when m belongs to the mirrored
// dialect, nil otherwise. The TCP-only session opcodes (login handshake)
// have no UDP encoding and are not mirrored — the paper's capture
// analysed the UDP dialect.
func (d *Daemon) tapFor(m ed2k.Message) *TapFunc {
	tap := d.tap.Load()
	if tap == nil {
		return nil
	}
	switch m.Opcode() {
	case ed2k.OpLoginRequest, ed2k.OpIDChange:
		return nil
	}
	return tap
}

// mirror feeds the tap with the UDP-style encoding of one message, in a
// fresh slice. This is the UDP path's variant; TCP sessions go through
// connIO.mirror and connIO.mirrorFrame and a per-connection scratch
// buffer.
func (d *Daemon) mirror(srcKey, dstKey uint32, m ed2k.Message) {
	if tap := d.tapFor(m); tap != nil {
		(*tap)(srcKey, dstKey, ed2k.Encode(m))
	}
}

func (d *Daemon) expiryLoop() {
	defer d.wg.Done()
	t := time.NewTicker(d.cfg.ExpiryInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			d.srv.ExpireSources(d.now())
		case <-d.ctx.Done():
			return
		}
	}
}
