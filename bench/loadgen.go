package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"edtrace/internal/ed2k"
	"edtrace/internal/randx"
)

// genConn is one generator connection: a writer goroutine sends pool
// requests, a reader goroutine matches answers to them in order (the
// protocol answers strictly in request order on one connection).
type genConn struct {
	c   net.Conn
	sr  *ed2k.StreamReader
	off int // where in the pool this connection starts
}

// dialConns opens n connections to addr. With login set each one logs
// in under its own high clientID, which is also the source identity its
// re-announcements carry.
func dialConns(addr string, n int, login bool, poolLen int) ([]*genConn, error) {
	conns := make([]*genConn, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.DialTimeout("tcp4", addr, 5*time.Second)
		if err != nil {
			closeConns(conns)
			return nil, err
		}
		g := &genConn{c: c, sr: ed2k.NewStreamReader(c), off: i * poolLen / n}
		conns = append(conns, g)
		if !login {
			continue
		}
		id := ed2k.ClientID(0x0B000001 + i)
		if _, err := c.Write(ed2k.FrameTCP(&ed2k.LoginRequest{Client: id, Port: preloadPort, Nick: "bench"})); err != nil {
			closeConns(conns)
			return nil, err
		}
		if m, err := g.sr.Next(); err != nil {
			closeConns(conns)
			return nil, fmt.Errorf("login: %w", err)
		} else if ch, ok := m.(*ed2k.IDChange); !ok || ch.Client != id {
			closeConns(conns)
			return nil, fmt.Errorf("login answered %T", m)
		}
	}
	return conns, nil
}

func closeConns(conns []*genConn) {
	for _, g := range conns {
		g.c.Close()
	}
}

// preloadIndex announces every preload client's shared folder over one
// connection, re-logging in as each client in turn, and verifies every
// acknowledgement. One connection keeps the daemon's insertion order
// equal to the reference index's, which search answers depend on.
func preloadIndex(addr string, in *serveInputs) error {
	c, err := net.DialTimeout("tcp4", addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer c.Close()
	errc := make(chan error, 1)
	go func() {
		var buf []byte
		for i := range in.preload {
			pc := &in.preload[i]
			buf = append(buf[:0], ed2k.FrameTCP(&ed2k.LoginRequest{Client: pc.id, Port: preloadPort, Nick: "bench"})...)
			for _, o := range pc.offers {
				buf = append(buf, ed2k.FrameTCP(o)...)
			}
			if _, err := c.Write(buf); err != nil {
				errc <- err
				return
			}
		}
		errc <- nil
	}()
	sr := ed2k.NewStreamReader(c)
	c.SetReadDeadline(time.Now().Add(60 * time.Second))
	for i := range in.preload {
		pc := &in.preload[i]
		m, err := sr.Next()
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if ch, ok := m.(*ed2k.IDChange); !ok || ch.Client != pc.id {
			return fmt.Errorf("preload: login of %#x answered %T", pc.id, m)
		}
		for _, o := range pc.offers {
			m, err := sr.Next()
			if err != nil {
				return fmt.Errorf("preload: %w", err)
			}
			if ack, ok := m.(*ed2k.OfferAck); !ok || int(ack.Accepted) != len(o.Files) {
				return fmt.Errorf("preload: offer of %d files answered %T", len(o.Files), m)
			}
		}
	}
	return <-errc
}

// phaseResult is what one generator phase observed.
type phaseResult struct {
	sent      uint64 // requests written
	done      uint64 // requests whose every answer arrived and verified
	failed    uint64 // wrong, missing or later than sizes.LateAnswer
	answers   uint64 // answer messages read
	lateSends uint64 // requests written more than sizes.LateSend after they were due
	rttUS     []float64
	lateUS    []float64
	win       []int // peak phase: round trips completed per peakWindow
	elapsed   time.Duration
	cpu       time.Duration
}

func (p *phaseResult) add(o *phaseResult) {
	p.sent += o.sent
	p.done += o.done
	p.failed += o.failed
	p.answers += o.answers
	p.lateSends += o.lateSends
	p.rttUS = append(p.rttUS, o.rttUS...)
	p.lateUS = append(p.lateUS, o.lateUS...)
	for i, n := range o.win {
		for len(p.win) <= i {
			p.win = append(p.win, 0)
		}
		p.win[i] += n
	}
}

// readAnswers reads and verifies the answers to q, returning whether all
// were correct. A transport error is returned as is: the stream is dead
// and everything still outstanding on it has failed.
func (g *genConn) readAnswers(q *request, res *phaseResult) (bool, error) {
	ok := true
	for j := 0; j < q.answers; j++ {
		m, err := g.sr.Next()
		if err != nil {
			return false, err
		}
		res.answers++
		if !q.check(j, m) {
			ok = false
		}
	}
	return ok, nil
}

// runPaced is the open-loop phase: perConn requests per connection with
// exponential inter-arrival gaps of mean 1/ratePerConn, every request
// timed from the instant it was due, whether or not the generator or
// the server was ready for it. A stall therefore costs every request
// queued behind it, as it would cost independent users.
func runPaced(conns []*genConn, pool []request, perConn int, ratePerConn float64, seed uint64, sz sizes, tr *tracer, parent int64) phaseResult {
	results := make([]phaseResult, len(conns))
	start := time.Now().Add(20 * time.Millisecond) // every goroutine is parked on its first sleep by then
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for ci, g := range conns {
		// The schedule is fixed before the phase: due[i] is request i's
		// offset from the common start.
		r := randx.New(seed, 0x9ACED+uint64(ci))
		due := make([]time.Duration, perConn)
		var t float64
		for i := range due {
			t += r.ExpFloat64() / ratePerConn
			due[i] = time.Duration(t * float64(time.Second))
		}
		res := &results[ci]
		res.rttUS = make([]float64, 0, perConn)
		res.lateUS = make([]float64, 0, perConn)
		g.c.SetDeadline(start.Add(due[perConn-1] + 10*time.Second))

		wg.Add(2)
		go func(g *genConn) { // writer
			defer wg.Done()
			defer pacerInit()()
			var buf []byte
			for i := 0; i < perConn; {
				now := time.Now()
				if d := start.Add(due[i]).Sub(now); d > 0 {
					pacerSleep(d)
					continue
				}
				// Everything due by now goes out in one write.
				buf = buf[:0]
				for ; i < perConn && !start.Add(due[i]).After(now); i++ {
					late := now.Sub(start.Add(due[i]))
					res.lateUS = append(res.lateUS, float64(late.Nanoseconds())/1e3)
					if late > sz.LateSend {
						res.lateSends++
					}
					buf = append(buf, pool[(g.off+i)%len(pool)].frame...)
					res.sent++
				}
				if _, err := g.c.Write(buf); err != nil {
					return // the reader sees the dead stream and fails the rest
				}
			}
		}(g)
		go func(g *genConn, ci int) { // reader
			defer wg.Done()
			var local []span
			for i := 0; i < perConn; i++ {
				q := &pool[(g.off+i)%len(pool)]
				ok, err := g.readAnswers(q, res)
				if err != nil {
					res.failed += uint64(perConn - i)
					break
				}
				now := time.Now()
				dueAt := start.Add(due[i])
				rtt := now.Sub(dueAt)
				res.rttUS = append(res.rttUS, float64(rtt.Nanoseconds())/1e3)
				if ok && rtt <= sz.LateAnswer {
					res.done++
				} else {
					res.failed++
				}
				if tr != nil {
					local = append(local, span{
						Name: "request." + kindNames[q.kind], Start: tr.since(dueAt), End: tr.since(now),
						Req: int64(ci)<<32 | int64(i),
					})
				}
			}
			tr.merge(local, parent)
		}(g, ci)
	}
	wg.Wait()
	var total phaseResult
	for i := range results {
		total.add(&results[i])
		conns[i].advance(int(results[i].sent), len(pool))
	}
	total.elapsed = time.Since(start)
	total.cpu = cpuTime() - cpu0
	return total
}

// advance moves the connection's position in the pool past the requests
// a phase sent, so the next phase continues where this one stopped — the
// echo server, which counts frames, stays in step across phases.
func (g *genConn) advance(sent, poolLen int) { g.off = (g.off + sent) % poolLen }

// peakWindow is the slice of the peak phase throughput is counted in.
const peakWindow = 250 * time.Millisecond

// peakRate is the phase's plain mean throughput.
func peakRate(p *phaseResult) float64 { return float64(p.done) / p.elapsed.Seconds() }

// windowRate is the peak phase's throughput as the median over its whole
// windows: a stall of the machine shorter than half the phase moves
// nothing, where it would drag a plain mean down.
func (p *phaseResult) windowRate() float64 {
	rates := p.windowRates()
	if len(rates) < 3 {
		return peakRate(p)
	}
	return median(rates)
}

// windowRates lists the throughput of each whole window of the phase.
func (p *phaseResult) windowRates() []float64 {
	full := min(int(p.elapsed/peakWindow), len(p.win))
	rates := make([]float64, full)
	for i := range rates {
		rates[i] = float64(p.win[i]) / peakWindow.Seconds()
	}
	return rates
}

// merge adds another slice of the same phase (counts and times; not the
// window series, which is per slice).
func (p *phaseResult) merge(o *phaseResult) {
	p.add(o)
	p.win = nil
	p.elapsed += o.elapsed
	p.cpu += o.cpu
}

// runPeak is the closed-loop phase: each connection keeps up to
// outstanding requests in flight for dur, sending the next only as
// answers complete. Throughput is verified round trips per second from
// the first write to the last answer.
func runPeak(conns []*genConn, pool []request, dur time.Duration, outstanding int, sz sizes, tr *tracer, parent int64) phaseResult {
	results := make([]phaseResult, len(conns))
	start := time.Now()
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for ci, g := range conns {
		res := &results[ci]
		g.c.SetDeadline(start.Add(dur + 10*time.Second))
		// The channel is the window: a slot frees when the reader takes a
		// request off it to await its answers, so at most `outstanding`
		// are in flight (queued plus the one being read).
		type sentReq struct {
			idx int
			at  time.Time
		}
		window := make(chan sentReq, outstanding-1)
		wg.Add(2)
		go func(g *genConn) { // writer
			defer wg.Done()
			defer close(window)
			var buf []byte
			for i := 0; time.Since(start) < dur; {
				now := time.Now()
				window <- sentReq{i, now}
				buf = append(buf[:0], pool[(g.off+i)%len(pool)].frame...)
				i++
			more:
				for {
					select {
					case window <- sentReq{i, now}:
						buf = append(buf, pool[(g.off+i)%len(pool)].frame...)
						i++
					default:
						break more
					}
				}
				if _, err := g.c.Write(buf); err != nil {
					return
				}
			}
		}(g)
		go func(g *genConn, ci int) { // reader
			defer wg.Done()
			var local []span
			dead := false
			for s := range window {
				res.sent++
				if dead {
					res.failed++
					continue
				}
				q := &pool[(g.off+s.idx)%len(pool)]
				ok, err := g.readAnswers(q, res)
				if err != nil {
					dead = true
					res.failed++
					continue
				}
				now := time.Now()
				w := int(now.Sub(start) / peakWindow)
				for len(res.win) <= w {
					res.win = append(res.win, 0)
				}
				res.win[w]++
				if ok && now.Sub(s.at) <= sz.LateAnswer {
					res.done++
				} else {
					res.failed++
				}
				// One span in 16: the peak phase is throughput, the spans
				// only show its latency shape.
				if tr != nil && s.idx%16 == 0 {
					local = append(local, span{
						Name: "peak." + kindNames[q.kind], Start: tr.since(s.at), End: tr.since(now),
						Req: int64(ci)<<32 | int64(s.idx),
					})
				}
			}
			tr.merge(local, parent)
		}(g, ci)
	}
	wg.Wait()
	var total phaseResult
	for i := range results {
		total.add(&results[i])
		conns[i].advance(int(results[i].sent), len(pool))
	}
	total.elapsed = time.Since(start)
	total.cpu = cpuTime() - cpu0
	return total
}

// echoServer is the floor under the daemon's round trip: it reads one
// length-prefixed frame and writes back the reference answer's bytes
// without decoding, indexing or encoding anything. Connection k starts
// at the same pool offset as generator connection k, so both sides step
// through the pool together.
type echoServer struct {
	ln net.Listener
	wg sync.WaitGroup
}

func startEcho(pool []request, nconns int) (*echoServer, error) {
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for k := 0; ; k++ {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			e.wg.Add(1)
			go func(c net.Conn, off int) {
				defer e.wg.Done()
				defer c.Close()
				hdr := make([]byte, 5)
				body := make([]byte, 4096)
				for i := 0; ; i++ {
					if _, err := io.ReadFull(c, hdr); err != nil {
						return
					}
					n := int(binary.LittleEndian.Uint32(hdr[1:]))
					if n > len(body) {
						body = make([]byte, n)
					}
					if _, err := io.ReadFull(c, body[:n]); err != nil {
						return
					}
					if _, err := c.Write(pool[(off+i)%len(pool)].reply); err != nil {
						return
					}
				}
			}(c, k*len(pool)/nconns)
		}
	}()
	return e, nil
}

func (e *echoServer) addr() string { return e.ln.Addr().String() }

func (e *echoServer) stop() {
	e.ln.Close()
	e.wg.Wait()
}
