// Package edload is a TCP client-swarm load generator for an eDonkey
// directory server: it materialises a workload.Population's behavioural
// plans as real framed TCP sessions (login → offers → interleaved
// searches and source asks) against edserverd (or any ed2k server).
// Every session is strict request→answer lockstep except GetSources,
// whose variable answer count is settled by a StatReq fence at session
// end — so a run that returns without error has verified every single
// answer arrived.
//
// There is one way a session is launched, bounded, counted and failed:
// the unexported driver, configured by a Target. It has two feeds. Run
// starts one plan per client of a generated population, all at once;
// RunSpec starts one plan per arrival of a workload spec's event
// stream, paced onto the wall clock, and counts the arrivals the
// concurrency cap turns away. RunAbuse stands apart on purpose: one
// target, no failover, and failures are what it measures.
package edload

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"edtrace/internal/clients"
	"edtrace/internal/ed2k"
	"edtrace/internal/obs"
	"edtrace/internal/randx"
	"edtrace/internal/workload"
)

// Target is where sessions connect and how they treat a failing server.
type Target struct {
	// Addrs is the server list, as a client's server.met. Sessions
	// spread over its live servers, and each fails over to another on a
	// connect or answer failure.
	Addrs []string
	// Metrics, when set, serves the client-observed answer latency
	// histograms (edload_answer_seconds{op=...}) — what the swarm's
	// clients actually waited, as opposed to the server-side Handle
	// timings — and, for RunSpec, the replay's gauges and per-phase
	// counters (edload_spec_*). Nil keeps them in a registry nobody reads.
	Metrics *obs.Registry
	// Logf, when set, receives lifecycle lines.
	Logf func(format string, args ...any)
}

// A session reconnects at most 2×servers+1 times. answerTimeout bounds
// each answer read; hitting it is a server failure that triggers
// failover. dialTimeout bounds each connection attempt.
const (
	answerTimeout = 15 * time.Second
	dialTimeout   = 10 * time.Second
)

func (t *Target) defaults() {
	if t.Metrics == nil {
		t.Metrics = obs.NewRegistry()
	}
	if t.Logf == nil {
		t.Logf = func(string, ...any) {}
	}
}

// Config parameterises one load run.
type Config struct {
	Target
	// Clients is the number of concurrent TCP client sessions. Sessions
	// replay the first Clients plans of the generated population (the
	// population config's NumClients should be >= Clients; it is raised
	// automatically when smaller).
	Clients int
	// Workload scales the synthetic catalog and population.
	Workload workload.Config
	// MaxMessagesPerClient bounds one session's plan (<= 0: 256). Heavy
	// profiles would otherwise send six-figure message counts.
	MaxMessagesPerClient int
}

// Stats aggregates a completed run. Sent and Answers count wire truth:
// a failover replays the unsettled tail of a session on the next
// server, and those replays are counted like any other message.
type Stats struct {
	Clients   int    // Run: configured clients; RunSpec: sessions completed
	Sent      uint64 // messages written, logins and fences included
	Answers   uint64 // messages read back
	Offers    uint64
	Searches  uint64
	Asks      uint64 // GetSources messages (each carries >= 1 hash)
	Found     uint64 // FoundSources answers received
	Failovers uint64 // session reconnects to a different server
	Wall      time.Duration
}

// MsgsPerSec is the end-to-end round-trip rate of the run.
func (s Stats) MsgsPerSec() float64 {
	if s.Wall <= 0 {
		return 0
	}
	return float64(s.Sent+s.Answers) / 2 / s.Wall.Seconds()
}

// Run executes the swarm against the configured server list until every
// session finishes its plan, any session exhausts its failovers, or ctx
// is cancelled. The returned stats are valid even on error (they count
// what happened up to the failure).
func Run(ctx context.Context, cfg Config) (Stats, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Workload.NumClients < cfg.Clients {
		cfg.Workload.NumClients = cfg.Clients
	}
	if cfg.MaxMessagesPerClient <= 0 {
		cfg.MaxMessagesPerClient = 256
	}
	cat, err := workload.Generate(cfg.Workload)
	if err != nil {
		return Stats{}, err
	}
	pop, err := workload.GeneratePopulation(cfg.Workload, cat)
	if err != nil {
		return Stats{}, err
	}
	planner := clients.NewPlanner(cat, clients.DefaultTraffic())
	d, err := newDriver(ctx, cfg.Target, cfg.Clients)
	if err != nil {
		return Stats{}, err
	}
	d.tgt.Logf("edload: %d clients against %d server(s) %v (catalog %d files)",
		cfg.Clients, d.mgr.Len(), cfg.Addrs, len(cat.Files))

	root := randx.New(cfg.Workload.Seed, 0xED10AD)
	for i := 0; i < cfg.Clients; i++ {
		d.start(fmt.Sprintf("client %d", i), func() []ed2k.Message {
			return planner.Messages(&pop.Clients[i], root.Split(uint64(i)+1), cfg.MaxMessagesPerClient)
		}, nil) // the cap is Clients: never refused
	}
	st, err := d.wait()
	st.Clients = cfg.Clients
	if err != nil {
		return st, err
	}
	d.tgt.Logf("edload: done: %d sent, %d answered in %v (%.0f msgs/s)",
		st.Sent, st.Answers, st.Wall.Round(time.Millisecond), st.MsgsPerSec())
	return st, nil
}

// driver is the one way a verified lockstep session is launched,
// bounded, counted and failed. Its feeds (Run, RunSpec) hand it plans
// from a single goroutine; everything concurrent lives here.
type driver struct {
	tgt Target // defaults applied
	mgr *clients.ServerManager
	lat latHists
	n   counters

	began  time.Time
	ctx    context.Context // the caller's, also cancelled by the first failed session
	cancel context.CancelFunc
	wg     sync.WaitGroup
	sem    chan struct{} // one token per live session
	errc   chan error    // the first session failure
}

// counters is the run's one counter set; sessions add to it directly.
type counters struct {
	sent, answers, offers, searches, asks, found, failovers, completed atomic.Uint64
}

// latHists is the per-opcode answer-latency instrumentation.
type latHists struct {
	login, offer, search, fence *obs.Histogram
}

func newDriver(ctx context.Context, tgt Target, maxConcurrent int) (*driver, error) {
	tgt.defaults()
	mgr, err := clients.NewServerManager(tgt.Addrs...)
	if err != nil {
		return nil, err
	}
	const name = "edload_answer_seconds"
	const help = "client-observed answer latency by query opcode"
	d := &driver{
		tgt: tgt,
		mgr: mgr,
		lat: latHists{
			login:  tgt.Metrics.Histogram(name, help, nil, obs.L("op", "LoginRequest")),
			offer:  tgt.Metrics.Histogram(name, help, nil, obs.L("op", "OfferFiles")),
			search: tgt.Metrics.Histogram(name, help, nil, obs.L("op", "SearchReq")),
			fence:  tgt.Metrics.Histogram(name, help, nil, obs.L("op", "StatReq")),
		},
		began: time.Now(),
		sem:   make(chan struct{}, maxConcurrent),
		errc:  make(chan error, 1),
	}
	d.ctx, d.cancel = context.WithCancel(ctx)
	return d, nil
}

// start launches one session and returns at once: false means the
// concurrency cap is reached and nothing was started. plan builds the
// session's messages; it runs on the caller's goroutine and only once a
// slot is taken, so an arrival turned away costs its feed nothing.
// completed, when set, runs on the session's goroutine once the whole
// plan is verified. The first session to fail aborts the run; wait
// reports its error as "edload: <label>: ...".
func (d *driver) start(label string, plan func() []ed2k.Message, completed func()) bool {
	select {
	case d.sem <- struct{}{}:
	default:
		return false
	}
	msgs := plan()
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer func() { <-d.sem }()
		err := (&session{d: d}).run(d.ctx, msgs)
		switch {
		case err == nil:
			d.n.completed.Add(1)
			if completed != nil {
				completed()
			}
		case d.ctx.Err() == nil: // a cause, not a consequence of the run ending
			select {
			case d.errc <- fmt.Errorf("edload: %s: %w", label, err):
			default:
			}
			d.cancel()
		}
	}()
	return true
}

// wait blocks until every started session has ended and returns what
// the run did — valid on error too — with the first session failure or,
// failing that, the caller's cancellation.
func (d *driver) wait() (Stats, error) {
	d.wg.Wait()
	defer d.cancel()
	st := Stats{
		Clients:   int(d.n.completed.Load()),
		Sent:      d.n.sent.Load(),
		Answers:   d.n.answers.Load(),
		Offers:    d.n.offers.Load(),
		Searches:  d.n.searches.Load(),
		Asks:      d.n.asks.Load(),
		Found:     d.n.found.Load(),
		Failovers: d.n.failovers.Load(),
		Wall:      time.Since(d.began),
	}
	select {
	case err := <-d.errc:
		return st, err
	default:
	}
	return st, d.ctx.Err() // no session failed, so only the caller cancels it
}

// session is one TCP client replaying one plan, reconnecting across
// servers on failure. Progress is tracked as (next plan index, the
// unsettled GetSources tail): settle points — an OfferAck, a SearchRes
// or a fence StatRes, all in-order answers — prove every prior answer
// on that connection arrived, so after a failover only the unsettled
// tail needs replaying on the next server.
type session struct {
	d *driver

	conn     net.Conn
	bw       *bufio.Writer
	sr       *ed2k.StreamReader
	fenceSeq uint32

	idx       int                // next plan message to send
	unsettled []*ed2k.GetSources // sent but not yet settled by a fence
}

func (s *session) run(ctx context.Context, plan []ed2k.Message) error {
	avoid := ""
	var lastErr error
	for try := 0; try <= 2*len(s.d.tgt.Addrs)+1; try++ {
		if ctx.Err() != nil {
			if lastErr != nil {
				return lastErr
			}
			return ctx.Err()
		}
		addr := s.d.mgr.Pick(avoid)
		if try > 0 {
			s.d.n.failovers.Add(1)
			s.d.tgt.Logf("edload: failing over to %s at plan %d/%d (%v)",
				addr, s.idx, len(plan), lastErr)
		}
		err := s.runOn(ctx, addr, plan)
		if err == nil {
			return nil
		}
		lastErr = err
		s.d.mgr.ReportFailure(addr)
		if ctx.Err() != nil {
			return lastErr
		}
		avoid = addr
	}
	return fmt.Errorf("failovers exhausted: %w", lastErr)
}

// runOn drives the plan on one server connection: handshake, replay of
// the unsettled tail, then the remaining plan from s.idx.
func (s *session) runOn(ctx context.Context, addr string, plan []ed2k.Message) error {
	d := net.Dialer{Timeout: dialTimeout}
	conn, err := d.DialContext(ctx, "tcp4", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	// Cancellation unblocks any pending read/write by killing the conn.
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	s.conn = conn
	s.bw = bufio.NewWriterSize(conn, 16<<10)
	s.sr = ed2k.NewStreamReader(conn)

	// Handshake; its round-trip doubles as the server's health probe.
	login := time.Now()
	if err := s.send(&ed2k.LoginRequest{Nick: "edload", Port: 4662}); err != nil {
		return err
	}
	if _, err := s.expect(isType[*ed2k.IDChange]); err != nil {
		return fmt.Errorf("login: %w", err)
	}
	s.d.mgr.ReportSuccess(addr)
	s.d.lat.login.Observe(time.Since(login))

	// maxOutstandingHashes bounds the asked-for hashes in flight before
	// a fence forces a drain: a long all-ask run otherwise writes
	// without ever reading while the server writes FoundSources back,
	// and once both socket buffers fill the server's write deadline
	// kills the session. Hashes, not messages, are the unit a socket
	// buffer fills by. 96 hashes × ≤~330 B per answer stays far below any
	// default buffer size.
	const maxOutstandingHashes = 96
	outstanding := 0

	// Replay the unsettled tail from the failed connection: queries are
	// idempotent, and the tail is bounded by the fence cadence.
	for _, q := range s.unsettled {
		if err := s.send(q); err != nil {
			return err
		}
		outstanding += len(q.Hashes)
	}

	for s.idx < len(plan) {
		msg := plan[s.idx]
		sentAt := time.Now()
		if err := s.send(msg); err != nil {
			return err
		}
		switch m := msg.(type) {
		case *ed2k.OfferFiles:
			s.d.n.offers.Add(1)
			if _, err := s.expect(isType[*ed2k.OfferAck]); err != nil {
				return fmt.Errorf("offer: %w", err)
			}
			s.d.lat.offer.Observe(time.Since(sentAt))
			// The in-order OfferAck drained and settled everything prior.
			outstanding = 0
			s.unsettled = s.unsettled[:0]
		case *ed2k.SearchReq:
			s.d.n.searches.Add(1)
			if _, err := s.expect(isType[*ed2k.SearchRes]); err != nil {
				return fmt.Errorf("search: %w", err)
			}
			s.d.lat.search.Observe(time.Since(sentAt))
			outstanding = 0
			s.unsettled = s.unsettled[:0]
		case *ed2k.GetSources:
			// Variable answer count (one FoundSources per known hash);
			// drained by expect's FoundSources accounting and settled by
			// the next fence. Unsettled until then: a connection failure
			// replays it.
			s.d.n.asks.Add(1)
			s.unsettled = append(s.unsettled, m)
			outstanding += len(m.Hashes)
			if outstanding >= maxOutstandingHashes {
				if err := s.fence(addr); err != nil {
					return err
				}
				outstanding = 0
				s.unsettled = s.unsettled[:0]
			}
		default:
			return fmt.Errorf("plan contains unexpected %T", msg)
		}
		s.idx++
	}

	// Final fence: its answer is the last in-order message, proving
	// every prior answer has been received and counted.
	if err := s.fence(addr); err != nil {
		return err
	}
	s.unsettled = s.unsettled[:0]
	return nil
}

// fence sends a StatReq and reads until its StatRes arrives — an
// in-order sync point that drains every pending FoundSources. Its
// round-trip and counts feed the server manager.
func (s *session) fence(addr string) error {
	s.fenceSeq++
	challenge := uint32(0xFE000000) | s.fenceSeq
	sent := time.Now()
	if err := s.send(&ed2k.StatReq{Challenge: challenge}); err != nil {
		return err
	}
	m, err := s.expect(isType[*ed2k.StatRes])
	if err != nil {
		return fmt.Errorf("fence: %w", err)
	}
	res := m.(*ed2k.StatRes)
	if res.Challenge != challenge {
		return fmt.Errorf("fence challenge %#x, want %#x", res.Challenge, challenge)
	}
	s.d.mgr.ReportSuccess(addr)
	s.d.lat.fence.Observe(time.Since(sent))
	return nil
}

func (s *session) send(m ed2k.Message) error {
	if _, err := s.bw.Write(ed2k.FrameTCP(m)); err != nil {
		return err
	}
	s.d.n.sent.Add(1)
	return nil
}

// expect flushes pending writes and reads until a message satisfying
// want arrives, counting the FoundSources answers that interleave from
// earlier GetSources queries. Every read carries the answer timeout: a
// server that stops answering is a failed server, not a hung client.
func (s *session) expect(want func(ed2k.Message) bool) (ed2k.Message, error) {
	if err := s.bw.Flush(); err != nil {
		return nil, err
	}
	for {
		if err := s.conn.SetReadDeadline(time.Now().Add(answerTimeout)); err != nil {
			return nil, err
		}
		m, err := s.sr.Next()
		if err != nil {
			return nil, err
		}
		s.d.n.answers.Add(1)
		if _, ok := m.(*ed2k.FoundSources); ok {
			s.d.n.found.Add(1)
			continue
		}
		if want(m) {
			return m, nil
		}
		return nil, fmt.Errorf("out-of-order answer %T", m)
	}
}

func isType[T ed2k.Message](m ed2k.Message) bool {
	_, ok := m.(T)
	return ok
}
