// Package clients simulates the eDonkey client population: it plays the
// sessions of a workload.Engine on the virtual clock, turning each into
// its client's UDP messages.
//
// The traffic model carries everything §2 and §3 of the paper need:
//
//   - sessions that arrive and leave along the spec's rate curve —
//     phases, diurnal and weekly cycles, release-driven flash crowds —
//     producing the traffic peaks that overflow the capture buffer
//     (Fig 2);
//   - announcements (offers) re-sent at each session start, source and
//     keyword searches spread over sessions (Figs 4–8);
//   - scanners probing many fileIDs including unknown ones — the paper
//     observes far more distinct fileIDs (275 M) than any server indexes,
//     and flags "clients scanning the network" explicitly (§3.2);
//   - a calibrated rate of malformed messages split into structurally
//     invalid and semantically undecodable, reproducing §2.3's "0.68 %
//     not decoded, 78 % of these structurally incorrect".
package clients

import (
	"encoding/binary"
	"fmt"
	"math"

	"edtrace/internal/ed2k"
	"edtrace/internal/randx"
	"edtrace/internal/simtime"
	"edtrace/internal/workload"
)

// SendFunc delivers one client datagram to the server's network path.
// The payload is valid only for the call: the swarm encodes every
// message into one reused buffer.
type SendFunc func(srcIP uint32, srcPort uint16, payload []byte)

// TrafficConfig is what a caller sets of the traffic process: its span,
// and the offer batch the Planner shares. When clients connect is the
// workload spec's; what a session sends is fixed by the constants below.
type TrafficConfig struct {
	// Duration is the virtual capture length.
	Duration simtime.Time
	// OfferBatch is the usual number of files per OfferFiles message;
	// a few batches are much larger and fragment at the MTU, giving the
	// rare IP fragments §2.3 reports.
	OfferBatch int
}

// asksPerMessage bounds the fileIDs per GetSources query (clients batch).
const asksPerMessage = 3

// badMessageRate is the probability a sent message is corrupted. It
// applies to client messages only; with server answers making up roughly
// a third of captured traffic this lands near the paper's 0.68 % overall
// undecoded rate.
const badMessageRate = 0.0103

// badStructuralShare of corrupted messages are structurally broken, the
// rest semantically undecodable: §2.3's "78 % of these structurally
// incorrect".
const badStructuralShare = 0.78

// statPingEvery is the period of a session's server status pings.
const statPingEvery = 45 * simtime.Minute

// scannerUnknownShare is the fraction of a scanner's source asks that
// probe fileIDs nobody indexed: the paper sees far more distinct fileIDs
// than any server indexes (§3.2).
const scannerUnknownShare = 0.70

// DefaultTraffic returns the calibrated traffic configuration for a
// one-week capture; scale Duration for longer runs.
func DefaultTraffic() TrafficConfig {
	return TrafficConfig{Duration: simtime.Week, OfferBatch: 16}
}

// Validate reports configuration errors.
func (tc *TrafficConfig) Validate() error {
	switch {
	case tc.Duration <= 0:
		return fmt.Errorf("clients: Duration = %v", tc.Duration)
	case tc.OfferBatch <= 0 || tc.OfferBatch > int(ed2k.MaxFilesPerMsg):
		return fmt.Errorf("clients: OfferBatch = %d", tc.OfferBatch)
	}
	return nil
}

// Stats counts swarm activity.
type Stats struct {
	MessagesSent     uint64
	CorruptStructure uint64
	CorruptSemantic  uint64
	Offers           uint64
	SourceAsks       uint64
	Searches         uint64
	Pings            uint64
	Sessions         uint64
	Releases         uint64
}

// Swarm plays an engine's event stream: each open session keeps its
// next messages on the clock, so what is pending follows the sessions
// that are open, not the length of the capture.
type Swarm struct {
	eng  *workload.Engine
	tc   TrafficConfig
	cat  *workload.Catalog
	pop  *workload.Population
	sch  *simtime.Scheduler
	send SendFunc
	rng  *randx.Rand
	zipf *randx.Zipf

	// rounds is how many sessions a client spreads its asks and searches
	// over: as many as the spec expects of each client, at least one.
	rounds  int
	budgets []budget
	stats   Stats
	// crowds[i] is what release i's flash crowd asks for, listed once:
	// with its forged variants a release holds thousands of fileIDs.
	crowds [][]ed2k.FileID

	// pending is the engine's event on the clock; fire, bound once,
	// plays it.
	pending workload.Event
	fire    func()
	enc     []byte // the message being sent
	// offer and ask are refilled for each announcement and source ask:
	// emit encodes a message at once, so the swarm needs one of each.
	offer ed2k.OfferFiles
	ask   ed2k.GetSources
	// perm is the index buffer a crowd session's ask is sampled from.
	perm []int
}

// budget is what one client has left to ask and search, drawn once at
// its first session, and how many sessions it has opened.
type budget struct {
	asks     []int32
	searches int
	sessions int
}

// NewSwarm wires a swarm to the engine's world; call Start once, then
// run the scheduler.
func NewSwarm(eng *workload.Engine, tc TrafficConfig, sch *simtime.Scheduler, send SendFunc) (*Swarm, error) {
	if err := tc.Validate(); err != nil {
		return nil, err
	}
	spec, pop := eng.Spec(), eng.Population()
	s := &Swarm{
		eng: eng, tc: tc, cat: eng.Catalog(), pop: pop, sch: sch, send: send,
		rng:     randx.New(spec.Seed, 0xA24BAED4963EE407),
		rounds:  max(1, int(spec.ExpectedSessions()/float64(len(pop.Clients)))),
		budgets: make([]budget, len(pop.Clients)),
	}
	s.zipf = randx.NewZipf(s.rng.Split(99), 1.4, 2, uint64(len(s.cat.Vocab())-1))
	for i := range eng.Releases() {
		s.crowds = append(s.crowds, eng.Releases()[i].IDs(s.cat))
	}
	s.fire = s.play
	return s, nil
}

// Stats returns activity counters (valid after the scheduler ran).
func (s *Swarm) Stats() Stats { return s.stats }

// Start puts the engine's first event on the clock. Each event, when it
// fires, puts the next one there, so the engine is one pending event. A
// session's messages all lie inside its lifetime, so its end needs
// nothing.
func (s *Swarm) Start() {
	ev, ok := s.eng.Next()
	if !ok {
		return
	}
	s.pending = ev
	s.sch.At(ev.At, s.fire)
}

// play fires the pending engine event and puts the next one on the
// clock.
func (s *Swarm) play() {
	switch ev := s.pending; ev.Kind {
	case workload.EvRelease:
		s.stats.Releases++
	case workload.EvSessionStart:
		s.startSession(ev)
	}
	s.Start()
}

// startSession opens one session. Its client sends three chains of
// messages, each one pending event at a time: the shared folder in
// batches and then, in a flash crowd, an ask for the release; status
// pings; and, at instants spread uniformly over its lifetime, its
// management queries and a share of what the client has left to ask
// and search.
func (s *Swarm) startSession(ev workload.Event) {
	s.stats.Sessions++
	ss := &session{s: s, c: s.pop.Clients[ev.Client], r: s.rng.Split(ev.Session), end: ev.At + ev.Dur}
	ss.announceFn, ss.pingFn, ss.sendFn = ss.announce, ss.ping, ss.send
	ss.c.LowID = ev.LowID // the engine draws the session's reachability
	b := &s.budgets[ev.Client]
	if b.sessions == 0 {
		b.asks, b.searches = askList(s.cat, &ss.c, ss.r), ss.c.SearchCount
	}
	// Each of the client's rounds takes an even share; the last takes
	// what is left, so one ask list spans all its sessions.
	left := max(1, s.rounds-b.sessions)
	b.sessions++
	n := len(b.asks) / left
	ss.asks, b.asks = b.asks[:n:n], b.asks[n:]
	ss.searches = b.searches / left
	b.searches -= ss.searches
	if ev.Release >= 0 {
		ss.crowd = s.crowds[ev.Release]
	}
	if ss.r.Bool(0.2) {
		ss.queries = append(ss.queries, ed2k.GetServerList{})
	}
	if ss.r.Bool(0.05) {
		ss.queries = append(ss.queries, ed2k.ServerDescReq{})
	}
	ss.announce()
	ss.ping()
	ss.next()
}

// session is one open session: its client (a copy, with the session's
// reachability) and what it has still to send.
type session struct {
	s   *Swarm
	c   workload.Client
	r   *randx.Rand
	end simtime.Time

	offered  int            // shares announced so far
	crowd    []ed2k.FileID  // the release a flash-crowd session asks for
	queries  []ed2k.Message // management queries
	asks     []int32
	searches int

	// The chains' next steps, bound once so that putting one on the
	// clock allocates nothing.
	announceFn, pingFn, sendFn func()
}

// announce sends the next batch of the shared folder, the next one a
// fraction of a second later; once the folder is out, a crowd session
// asks for its release.
func (ss *session) announce() {
	s, r, c := ss.s, ss.r, &ss.c
	if ss.offered == len(c.Shares) {
		if ss.crowd != nil {
			var msg *ed2k.GetSources
			msg, s.perm = crowdAsk(r, ss.crowd, s.perm)
			s.stats.SourceAsks += uint64(len(msg.Hashes))
			s.emit(c, r, msg)
		}
		return
	}
	batch := s.tc.OfferBatch
	if r.Bool(0.01) {
		// Rare jumbo announcements exceed the MTU and fragment —
		// deliberately more often than the paper's 2·10⁻⁷ so the
		// reassembly path is exercised at laptop scale.
		batch = s.tc.OfferBatch * 6
	}
	batch = min(batch, len(c.Shares)-ss.offered)
	s.stats.Offers++
	fillOffer(&s.offer, s.cat, c, c.Shares[ss.offered:ss.offered+batch])
	s.emit(c, r, &s.offer)
	ss.offered += batch
	if ss.offered < len(c.Shares) || ss.crowd != nil {
		s.sch.After(simtime.Time(200+r.IntN(800))*simtime.Millisecond, ss.announceFn)
	}
}

// ping sends a status ping, the first as the session connects (so a
// flash crowd is a burst of pings, as a reconnect storm is) and then
// every statPingEvery while it lasts.
func (ss *session) ping() {
	ss.s.stats.Pings++
	ss.s.emit(&ss.c, ss.r, &ed2k.StatReq{Challenge: ss.r.Uint32()})
	if t := ss.s.sch.Now() + statPingEvery; t < ss.end {
		ss.s.sch.At(t, ss.pingFn)
	}
}

// left is how many messages the session still sends at random instants,
// an ask batch counted at its mean of two asks.
func (ss *session) left() int { return len(ss.queries) + ss.searches + (len(ss.asks)+1)/2 }

// next schedules the session's next randomly placed message at the
// earliest of left() uniform instants in the rest of its lifetime, so
// the messages fall where independent uniform draws would put them.
func (ss *session) next() {
	k := ss.left()
	if k == 0 {
		return
	}
	now := ss.s.sch.Now()
	gap := float64(ss.end-now) * (1 - math.Pow(ss.r.Float64(), 1/float64(k)))
	ss.s.sch.At(now+simtime.Time(gap), ss.sendFn)
}

// send sends one of the session's remaining randomly placed messages,
// each kind in proportion to what is left of it, then schedules the next.
func (ss *session) send() {
	s, r, c := ss.s, ss.r, &ss.c
	switch u := r.IntN(ss.left()); {
	case u < len(ss.queries):
		s.emit(c, r, ss.queries[0])
		ss.queries = ss.queries[1:]
	case u < len(ss.queries)+ss.searches:
		ss.searches--
		s.stats.Searches++
		s.emit(c, r, &ed2k.SearchReq{Expr: randomSearchExpr(s.cat, s.zipf, r)})
	default:
		batch := min(1+r.IntN(asksPerMessage), len(ss.asks))
		fillAsk(&s.ask, s.cat, r, ss.asks[:batch])
		ss.asks = ss.asks[batch:]
		s.stats.SourceAsks += uint64(len(s.ask.Hashes))
		s.emit(c, r, &s.ask)
	}
	ss.next()
}

func randomFileID(r *randx.Rand) ed2k.FileID {
	var id ed2k.FileID
	binary.LittleEndian.PutUint64(id[0:], r.Uint64())
	binary.LittleEndian.PutUint64(id[8:], r.Uint64())
	return id
}

// emit encodes and sends one message, possibly corrupting it per the
// calibrated client-bug rates.
func (s *Swarm) emit(c *workload.Client, r *randx.Rand, msg ed2k.Message) {
	s.enc = ed2k.AppendEncode(s.enc[:0], msg)
	raw := s.enc
	if r.Bool(badMessageRate) {
		if r.Bool(badStructuralShare) {
			raw = corruptStructural(r, raw)
			s.stats.CorruptStructure++
		} else {
			raw = corruptSemantic(r, raw)
			s.stats.CorruptSemantic++
		}
	}
	s.stats.MessagesSent++
	s.send(c.IP, 4672, raw)
}

// corruptStructural produces messages the validator rejects: truncations,
// wrong protocol markers, unknown opcodes.
func corruptStructural(r *randx.Rand, raw []byte) []byte {
	out := append([]byte(nil), raw...)
	switch r.IntN(3) {
	case 0: // truncate to a stub that cannot carry an opcode
		out = out[:1]
	case 1: // bad protocol marker
		out[0] = byte(1 + r.IntN(0xE0))
	default: // unknown opcode
		out[1] = 0x70 // not assigned in our subset
	}
	return out
}

// corruptSemantic keeps the envelope structurally plausible but breaks
// the interior, so the message passes validation and fails the effective
// decode. Fixed-length opcodes cannot fail semantically, so those turn
// into an offer whose count field lies — a bug really seen in the wild.
func corruptSemantic(r *randx.Rand, raw []byte) []byte {
	out := append([]byte(nil), raw...)
	switch out[1] {
	case ed2k.OpGlobSearchReq:
		return append(out, 0xFE) // trailing junk after the expression
	case ed2k.OpOfferFiles:
		// Overwrite the file-count field (after marker, opcode, clientID
		// and port) with an absurd value.
		out[8], out[9], out[10], out[11] = 0xFF, 0xFF, 0xFF, 0xFF
		return out
	default:
		// Fabricate a count-lying offer envelope.
		bad := []byte{ed2k.ProtoEDonkey, ed2k.OpOfferFiles,
			byte(r.IntN(256)), byte(r.IntN(256)), 0, 0, // clientID
			0x36, 0x12, // port
			0xFF, 0xFF, 0xFF, 0xFF, // count: lie
		}
		return bad
	}
}
