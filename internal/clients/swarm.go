// Package clients simulates the eDonkey client population: it turns the
// behavioural plans of workload.Population into scheduled UDP messages on
// the virtual clock.
//
// The traffic model carries everything §2 and §3 of the paper need:
//
//   - sessions with diurnal modulation and flash crowds, producing the
//     traffic peaks that overflow the capture buffer (Fig 2);
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
type SendFunc func(srcIP uint32, srcPort uint16, payload []byte)

// TrafficConfig is what a caller sets of the traffic process: its span,
// and the offer batch the Planner shares. The calibrated traffic shape is
// fixed by the constants below.
type TrafficConfig struct {
	// Duration is the virtual capture length.
	Duration simtime.Time
	// OfferBatch is the usual number of files per OfferFiles message;
	// a few batches are much larger and fragment at the MTU, giving the
	// rare IP fragments §2.3 reports.
	OfferBatch int
}

// sessionsPerClient is the base number of sessions a client spreads its
// activity over; the count also grows with its ask budget.
const sessionsPerClient = 3

// asksPerMessage bounds the fileIDs per GetSources query (clients batch).
const asksPerMessage = 3

// diurnalAmplitude in [0,1) is the day/night swing of activity.
const diurnalAmplitude = 0.45

// Each of flashCrowds sudden load spikes (reconnect storms after
// outages, releases) brings flashParticipants of the clients into one
// flashDuration window, far above the diurnal peak.
const (
	flashCrowds       = 4
	flashDuration     = 90 * simtime.Second
	flashParticipants = 0.05
)

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
}

// Swarm schedules the whole population's traffic.
type Swarm struct {
	cfg  workload.Config
	tc   TrafficConfig
	cat  *workload.Catalog
	pop  *workload.Population
	sch  *simtime.Scheduler
	send SendFunc
	rng  *randx.Rand
	zipf *randx.Zipf

	flashStarts []simtime.Time
	stats       Stats
}

// NewSwarm wires a swarm; call Schedule once, then run the scheduler.
func NewSwarm(cfg workload.Config, tc TrafficConfig, cat *workload.Catalog,
	pop *workload.Population, sch *simtime.Scheduler, send SendFunc) (*Swarm, error) {
	if err := tc.Validate(); err != nil {
		return nil, err
	}
	s := &Swarm{
		cfg: cfg, tc: tc, cat: cat, pop: pop, sch: sch, send: send,
		rng: randx.New(cfg.Seed, 0xA24BAED4963EE407),
	}
	s.zipf = randx.NewZipf(s.rng.Split(99), 1.4, 2, uint64(len(cat.Vocab())-1))
	return s, nil
}

// Stats returns activity counters (valid after the scheduler ran).
func (s *Swarm) Stats() Stats { return s.stats }

// FlashWindows exposes the scheduled flash-crowd start times.
func (s *Swarm) FlashWindows() []simtime.Time { return s.flashStarts }

// intensity is the diurnal activity profile in [1-A, 1+A].
func (s *Swarm) intensity(t simtime.Time) float64 {
	day := float64(t%simtime.Day) / float64(simtime.Day)
	return 1 + diurnalAmplitude*math.Sin(2*math.Pi*day)
}

// sampleTime draws an activity instant in [lo, hi) following the diurnal
// profile, by rejection against the peak intensity.
func (s *Swarm) sampleTime(r *randx.Rand, lo, hi simtime.Time) simtime.Time {
	if hi <= lo {
		return lo
	}
	span := int64(hi - lo)
	peak := 1 + diurnalAmplitude
	for tries := 0; tries < 16; tries++ {
		t := lo + simtime.Time(r.Int64N(span))
		if r.Float64()*peak <= s.intensity(t) {
			return t
		}
	}
	return lo + simtime.Time(r.Int64N(span))
}

// Schedule enqueues every client's sessions plus the flash crowds.
func (s *Swarm) Schedule() {
	for i := range s.pop.Clients {
		s.scheduleClient(i)
	}
	s.scheduleFlashCrowds()
}

func (s *Swarm) scheduleClient(idx int) {
	c := &s.pop.Clients[idx]
	r := s.rng.Split(uint64(idx) + 1)

	// Session count grows with activity so heavy clients spread out.
	sessions := sessionsPerClient
	if extra := c.AskCount / 50; extra > 0 {
		sessions += extra
	}
	if sessions > 24 {
		sessions = 24
	}
	s.stats.Sessions += uint64(sessions)

	pending := askList(s.cat, c, r)

	searchesLeft := c.SearchCount
	for sess := 0; sess < sessions; sess++ {
		asks := len(pending) / (sessions - sess)
		var sessionAsks []int32
		sessionAsks, pending = pending[:asks], pending[asks:]
		searches := searchesLeft / (sessions - sess)
		searchesLeft -= searches

		// Session placement follows the diurnal profile; duration is
		// log-normal around two hours.
		dur := simtime.Time(float64(2*simtime.Hour) * r.LogNormal(0, 0.6))
		if dur > s.tc.Duration/2 {
			dur = s.tc.Duration / 2
		}
		maxStart := s.tc.Duration - dur
		if maxStart <= 0 {
			maxStart = 1
		}
		start := s.sampleTime(r, 0, maxStart)
		s.scheduleSession(c, r, start, dur, sessionAsks, searches)
	}
}

func (s *Swarm) scheduleSession(c *workload.Client, r *randx.Rand,
	start, dur simtime.Time, asks []int32, searches int) {
	end := start + dur

	// Announce the shared folder at session start, in batches.
	if len(c.Shares) > 0 {
		s.scheduleOffers(c, r, start)
	}

	// Periodic status pings while the session lasts.
	for t := start + statPingEvery/2; t < end; t += statPingEvery {
		s.sch.At(t, func() {
			s.stats.Pings++
			s.emit(c, r, &ed2k.StatReq{Challenge: r.Uint32()})
		})
	}

	// Occasional management queries.
	if r.Bool(0.2) {
		t := s.sampleTime(r, start, end)
		s.sch.At(t, func() { s.emit(c, r, ed2k.GetServerList{}) })
	}
	if r.Bool(0.05) {
		t := s.sampleTime(r, start, end)
		s.sch.At(t, func() { s.emit(c, r, ed2k.ServerDescReq{}) })
	}

	// Source asks, batched into GetSources messages.
	for len(asks) > 0 {
		batch := 1 + r.IntN(asksPerMessage)
		if batch > len(asks) {
			batch = len(asks)
		}
		var group []int32
		group, asks = asks[:batch], asks[batch:]
		t := s.sampleTime(r, start, end)
		s.sch.At(t, func() {
			msg := askMessage(s.cat, r, group) // at fire time: its draws interleave with the session's
			s.stats.SourceAsks += uint64(len(msg.Hashes))
			s.emit(c, r, msg)
		})
	}

	// Keyword searches.
	for k := 0; k < searches; k++ {
		t := s.sampleTime(r, start, end)
		s.sch.At(t, func() {
			s.stats.Searches++
			s.emit(c, r, &ed2k.SearchReq{Expr: randomSearchExpr(s.cat, s.zipf, r)})
		})
	}
}

func (s *Swarm) scheduleOffers(c *workload.Client, r *randx.Rand, start simtime.Time) {
	shares := c.Shares
	t := start
	for off := 0; off < len(shares); {
		batch := s.tc.OfferBatch
		if r.Bool(0.01) {
			// Rare jumbo announcements exceed the MTU and fragment —
			// deliberately more often than the paper's 2·10⁻⁷ so the
			// reassembly path is exercised at laptop scale.
			batch = s.tc.OfferBatch * 6
		}
		if off+batch > len(shares) {
			batch = len(shares) - off
		}
		msg := offerMessage(s.cat, c, shares[off:off+batch])
		off += batch
		tt := t
		s.sch.At(tt, func() {
			s.stats.Offers++
			s.emit(c, r, msg)
		})
		t += simtime.Time(200+r.IntN(800)) * simtime.Millisecond
	}
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
	raw := ed2k.Encode(msg)
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

func (s *Swarm) scheduleFlashCrowds() {
	r := s.rng.Split(0xF1A5)
	n := len(s.pop.Clients)
	participants := int(float64(n) * flashParticipants)
	for k := 0; k < flashCrowds; k++ {
		at := simtime.Time(r.Int64N(int64(s.tc.Duration * 9 / 10)))
		s.flashStarts = append(s.flashStarts, at)
		// A reconnect storm: participants ping and re-search in a narrow
		// window, hammering the server far above the diurnal peak.
		for p := 0; p < participants; p++ {
			c := &s.pop.Clients[r.IntN(n)]
			burst := 2 + r.IntN(6)
			for b := 0; b < burst; b++ {
				t := at + simtime.Time(r.Int64N(int64(flashDuration)))
				cc, rr := c, r
				s.sch.At(t, func() {
					if rr.Bool(0.5) {
						s.stats.Pings++
						s.emit(cc, rr, &ed2k.StatReq{Challenge: rr.Uint32()})
					} else {
						s.emit(cc, rr, ed2k.GetServerList{})
					}
				})
			}
		}
	}
}
