// The workload engine: expands a Spec into a deterministic stream of
// session-churn and content-release events on the simulated clock.
//
// The engine is the paper's missing time axis. Every run the repo could
// produce before it was seconds of steady state; the paper's capture is
// ten *weeks*, and the phenomena it measures — diurnal and weekly query
// cycles, client churn, flash crowds after content releases — only
// exist on long, non-stationary timelines. The engine generates those
// timelines: a non-homogeneous renewal process (Poisson, Gamma or
// Weibull interarrivals, thinned against the spec's rate curve) emits
// session arrivals; each session draws a lifetime from the churn model
// and ends accordingly; release events inject new catalog files and
// multiply the arrival rate for their flash-crowd window.
//
// Determinism is the contract: the same spec and seed produce a
// byte-identical event stream, and the stream never depends on the
// replay-time compression factor — compression maps simulated instants
// onto the wall clock (simtime.Compressor), it does not alter what
// happens at those instants.

package workload

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"math"

	"edtrace/internal/ed2k"
	"edtrace/internal/md4"
	"edtrace/internal/randx"
	"edtrace/internal/simtime"
)

// EventKind classifies engine events.
type EventKind uint8

// Event kinds. The numeric order is the tie-break at equal instants:
// a release becomes visible before sessions end, and ends free capacity
// before new arrivals claim it.
const (
	EvRelease EventKind = iota + 1
	EvSessionEnd
	EvSessionStart
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EvRelease:
		return "release"
	case EvSessionEnd:
		return "end"
	case EvSessionStart:
		return "start"
	}
	return "unknown"
}

// Event is one engine occurrence on the simulated clock.
type Event struct {
	// At is the simulated instant.
	At simtime.Time
	// Kind is the event type.
	Kind EventKind
	// Session identifies a session across its start and end (1-based;
	// 0 for releases).
	Session uint64
	// Client is the population index behind the session (-1 for
	// releases).
	Client int32
	// LowID marks the session as NAT'd (server-assigned low ID).
	LowID bool
	// Phase names the schedule phase the event falls in.
	Phase string
	// Release is the index into the spec's releases: the release that
	// fired (EvRelease), or the flash crowd an arriving session belongs
	// to (-1 when none).
	Release int32
	// Dur is the session's lifetime (EvSessionStart only).
	Dur simtime.Time
}

// String renders the canonical one-line encoding; determinism tests
// compare streams through it.
func (ev Event) String() string {
	return fmt.Sprintf("%d %s s=%d c=%d low=%t ph=%s rel=%d dur=%d",
		int64(ev.At), ev.Kind, ev.Session, ev.Client, ev.LowID, ev.Phase, ev.Release, int64(ev.Dur))
}

// sessionEnd is a pending end in the engine's heap.
type sessionEnd struct {
	at      simtime.Time
	session uint64
	client  int32
}

type endHeap []sessionEnd

func (h endHeap) Len() int { return len(h) }
func (h endHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].session < h[j].session
}
func (h endHeap) Swap(i, j int)     { h[i], h[j] = h[j], h[i] }
func (h *endHeap) Push(x any)       { *h = append(*h, x.(sessionEnd)) }
func (h *endHeap) Pop() any         { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }
func (h endHeap) top() simtime.Time { return h[0].at }

// Release is one materialised content release: the catalog indices of
// the files it injected.
type Release struct {
	// Spec is the release's declaration.
	Spec ReleaseSpec
	// Genuine are catalog indices of the released genuine files.
	Genuine []int32
	// Forged are catalog indices of the forged variants.
	Forged []int32
}

// IDs returns the genuine released fileIDs — what a flash crowd asks
// for. Forged variants ride along in search answers, not here.
func (r *Release) IDs(cat *Catalog) []ed2k.FileID {
	out := make([]ed2k.FileID, len(r.Genuine))
	for i, fi := range r.Genuine {
		out[i] = cat.Files[fi].ID
	}
	return out
}

// Engine turns a Spec into its event stream. It is single-goroutine by
// design (determinism); create one engine per consumer.
type Engine struct {
	spec  *Spec
	cat   *Catalog
	pop   *Population
	total simtime.Time

	phaseEnds []simtime.Time
	releases  []Release

	rArr, rSel *randx.Rand
	maxRate    float64 // thinning bound, arrivals per simulated minute

	relNext       int
	ends          endHeap
	nextArr       simtime.Time
	arrDone       bool
	sessions      uint64
	active        int
	maxActiveSeen int
	suppressed    uint64
}

// NewEngine validates the spec, generates the synthetic world (catalog
// + population from the spec's seed and world overrides), materialises
// every release's files into the catalog, and positions the arrival
// process at t=0.
//
// Released files are appended after the generated catalog, so
// Catalog.GenuineCount still delimits the *generated* genuine prefix;
// the appended range mixes genuine releases and their forged variants,
// distinguished by File.Forged.
func NewEngine(spec *Spec) (*Engine, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	wl := spec.WorldConfig()
	cat, err := Generate(wl)
	if err != nil {
		return nil, err
	}
	pop, err := GeneratePopulation(wl, cat)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		spec:  spec,
		cat:   cat,
		pop:   pop,
		total: spec.Total(),
	}
	acc := simtime.Time(0)
	for _, p := range spec.Phases {
		acc += p.Duration.Sim()
		e.phaseEnds = append(e.phaseEnds, acc)
	}

	root := randx.New(spec.Seed, 0x10E14EE1E5C0FFEE)
	e.rArr = root.Split(1)
	e.rSel = root.Split(2)
	rRel := root.Split(3)
	e.materialiseReleases(wl, rRel)
	e.maxRate = e.computeMaxRate()

	e.nextArr = 0
	e.advanceArrival()
	return e, nil
}

// materialiseReleases appends each release's files to the catalog:
// Files fresh genuine entries (hot-release weights), then
// ForgedVariants polluted copies with the fixed-prefix fileIDs of
// catalog forgery. Eager materialisation keeps the catalog immutable
// during replay; the files only become *visible* to sessions once the
// EvRelease event has fired.
func (e *Engine) materialiseReleases(wl Config, r *randx.Rand) {
	var seed [32]byte
	for ri := range e.spec.Releases {
		rs := e.spec.Releases[ri]
		rel := Release{Spec: rs}
		base := len(e.cat.Files)
		for j := 0; j < rs.Files; j++ {
			kind, size := sizeMixture(r)
			binary.LittleEndian.PutUint64(seed[0:], wl.Seed)
			binary.LittleEndian.PutUint64(seed[8:], uint64(ri))
			binary.LittleEndian.PutUint64(seed[16:], uint64(j))
			// Non-zero marker keeps release IDs disjoint from Generate's,
			// which leaves bytes 16.. of its seed zero.
			seed[24] = 0xE1
			id := md4.Sum(seed[:])
			name := e.cat.wordAt(r.Uint64())
			for k, kmax := 0, 1+r.IntN(3); k < kmax; k++ {
				name += " " + e.cat.wordAt(r.Uint64())
			}
			name += extByKind[kind]
			rel.Genuine = append(rel.Genuine, int32(len(e.cat.Files)))
			e.cat.Files = append(e.cat.Files, File{
				ID:     ed2k.FileID(id),
				Name:   name,
				Size:   size,
				Type:   typeByKind[kind],
				Weight: hitWeightCap, // a fresh release is by definition hot
			})
		}
		for j := 0; j < rs.ForgedVariants; j++ {
			target := &e.cat.Files[base+r.IntN(rs.Files)]
			rel.Forged = append(rel.Forged, int32(len(e.cat.Files)))
			e.cat.Files = append(e.cat.Files, File{
				ID:     forgeFileID(r),
				Name:   target.Name,
				Size:   target.Size,
				Type:   target.Type,
				Weight: target.Weight * 0.5,
				Forged: true,
			})
		}
		e.releases = append(e.releases, rel)
	}
}

// computeMaxRate returns an upper bound on RateAt over the whole
// schedule: the thinning envelope. Crowd windows can overlap, so their
// contribution is the maximum product of boosts simultaneously active.
func (e *Engine) computeMaxRate() float64 {
	phaseMax := 0.0
	for _, p := range e.spec.Phases {
		m := p.Rate
		if p.RateEnd > m {
			m = p.RateEnd
		}
		if m > phaseMax {
			phaseMax = m
		}
	}
	diurnalMax := 1.0
	if d := e.spec.Diurnal; d != nil {
		diurnalMax = 1 + d.Amplitude
	}
	weeklyMax := 1.0
	if w := e.spec.Weekly; w != nil {
		for _, f := range w.DayFactors {
			if f > weeklyMax {
				weeklyMax = f
			}
		}
	}
	crowdMax := 1.0
	for i := range e.spec.Releases {
		// Product of boosts active at this window's start: windows that
		// contain it are exactly the overlaps to account for.
		at := e.spec.Releases[i].At.Sim()
		prod := 1.0
		for j := range e.spec.Releases {
			r := &e.spec.Releases[j]
			if at >= r.At.Sim() && at < r.At.Sim()+r.CrowdDuration.Sim() {
				prod *= r.CrowdBoost
			}
		}
		if prod > crowdMax {
			crowdMax = prod
		}
	}
	return phaseMax * diurnalMax * weeklyMax * crowdMax
}

// Catalog returns the generated catalog, released files included.
func (e *Engine) Catalog() *Catalog { return e.cat }

// Population returns the generated client population.
func (e *Engine) Population() *Population { return e.pop }

// Total returns the schedule's simulated span.
func (e *Engine) Total() simtime.Time { return e.total }

// Releases returns the materialised releases, in spec order.
func (e *Engine) Releases() []Release { return e.releases }

// Sessions reports how many sessions have started so far.
func (e *Engine) Sessions() uint64 { return e.sessions }

// Suppressed reports arrivals dropped by the churn.max_active cap.
func (e *Engine) Suppressed() uint64 { return e.suppressed }

// MaxActiveSeen reports the high-water mark of concurrent sessions.
func (e *Engine) MaxActiveSeen() int { return e.maxActiveSeen }

// PhaseAt names the schedule phase containing t (the last phase for
// t at or past the horizon).
func (e *Engine) PhaseAt(t simtime.Time) string {
	for i, end := range e.phaseEnds {
		if t < end {
			return e.spec.Phases[i].Name
		}
	}
	return e.spec.Phases[len(e.spec.Phases)-1].Name
}

// RateAt evaluates the composed rate curve at t, in session arrivals
// per simulated minute: phase schedule × diurnal curve × weekly curve
// × the product of active flash-crowd boosts.
func (e *Engine) RateAt(t simtime.Time) float64 {
	rate := e.phaseRate(t)
	if d := e.spec.Diurnal; d != nil {
		hour := float64(t%simtime.Day) / float64(simtime.Hour)
		rate *= 1 + d.Amplitude*math.Cos(2*math.Pi*(hour-d.PeakHour)/24)
	}
	if w := e.spec.Weekly; w != nil {
		if f := w.DayFactors[int(t/simtime.Day)%7]; f > 0 {
			rate *= f
		}
	}
	for i := range e.spec.Releases {
		r := &e.spec.Releases[i]
		if t >= r.At.Sim() && t < r.At.Sim()+r.CrowdDuration.Sim() {
			rate *= r.CrowdBoost
		}
	}
	return rate
}

// phaseRate is the piecewise-linear schedule value at t.
func (e *Engine) phaseRate(t simtime.Time) float64 {
	start := simtime.Time(0)
	for i, end := range e.phaseEnds {
		if t < end || i == len(e.phaseEnds)-1 {
			p := &e.spec.Phases[i]
			if p.RateEnd <= 0 {
				return p.Rate
			}
			frac := float64(t-start) / float64(end-start)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return p.Rate + (p.RateEnd-p.Rate)*frac
		}
		start = end
	}
	return 0
}

// drawGap draws one candidate interarrival at the envelope rate, in
// simulated time. Thinning against RateAt makes the accepted stream
// follow the rate curve; for Poisson that construction is exact
// (Lewis-Shedler), for Gamma/Weibull renewals it is the standard
// rate-rescaling approximation.
func (e *Engine) drawGap() simtime.Time {
	meanMin := 1 / e.maxRate
	var g float64
	shape := e.spec.Arrivals.Shape
	if shape <= 0 {
		shape = 1
	}
	switch e.spec.Arrivals.Process {
	case "gamma":
		g = e.rArr.Gamma(shape, meanMin/shape)
	case "weibull":
		g = e.rArr.Weibull(shape, meanMin/math.Gamma(1+1/shape))
	default: // poisson
		g = e.rArr.ExpFloat64() * meanMin
	}
	gap := simtime.Time(g * float64(simtime.Minute))
	if gap < 1 {
		gap = 1
	}
	return gap
}

// advanceArrival moves the arrival process to the next accepted
// instant, or marks it done past the horizon.
func (e *Engine) advanceArrival() {
	t := e.nextArr
	for {
		t += e.drawGap()
		if t >= e.total {
			e.arrDone = true
			return
		}
		if e.rArr.Float64()*e.maxRate <= e.RateAt(t) {
			e.nextArr = t
			return
		}
	}
}

// drawSessionDur draws one session lifetime from the churn model.
func (e *Engine) drawSessionDur() simtime.Time {
	ds := e.spec.Churn.SessionDuration
	mean := float64(ds.Mean)
	var v float64
	switch ds.Dist {
	case "fixed":
		v = mean
	case "exponential":
		v = e.rSel.ExpFloat64() * mean
	default: // lognormal: Mean is the median
		sigma := ds.Sigma
		if sigma <= 0 {
			sigma = 0.6
		}
		v = mean * e.rSel.LogNormal(0, sigma)
	}
	if v < float64(simtime.Second) {
		v = float64(simtime.Second)
	}
	return simtime.Time(v)
}

// crowdAt returns the index of the flash crowd containing t (the
// latest-starting window when several overlap), or -1.
func (e *Engine) crowdAt(t simtime.Time) int32 {
	best, bestAt := int32(-1), simtime.Time(-1)
	for i := range e.spec.Releases {
		r := &e.spec.Releases[i]
		at := r.At.Sim()
		if t >= at && t < at+r.CrowdDuration.Sim() && at > bestAt {
			best, bestAt = int32(i), at
		}
	}
	return best
}

// Next returns the next event of the stream, or ok=false when the
// schedule is exhausted (all arrivals past the horizon and every open
// session ended). Session ends past the horizon are clamped to it, so
// the final event lands exactly at Total.
func (e *Engine) Next() (Event, bool) {
	const inf = simtime.Time(1<<63 - 1)
	for {
		relAt, endAt, arrAt := inf, inf, inf
		if e.relNext < len(e.spec.Releases) {
			relAt = e.spec.Releases[e.relNext].At.Sim()
		}
		if len(e.ends) > 0 {
			endAt = e.ends.top()
		}
		if !e.arrDone {
			arrAt = e.nextArr
		}
		switch {
		case relAt == inf && endAt == inf && arrAt == inf:
			return Event{}, false

		case relAt <= endAt && relAt <= arrAt:
			i := e.relNext
			e.relNext++
			return Event{
				At:      relAt,
				Kind:    EvRelease,
				Client:  -1,
				Phase:   e.PhaseAt(relAt),
				Release: int32(i),
			}, true

		case endAt <= arrAt:
			end := heap.Pop(&e.ends).(sessionEnd)
			e.active--
			return Event{
				At:      end.at,
				Kind:    EvSessionEnd,
				Session: end.session,
				Client:  end.client,
				Phase:   e.PhaseAt(end.at),
				Release: -1,
			}, true

		default:
			at := e.nextArr
			e.advanceArrival()
			if max := e.spec.Churn.MaxActive; max > 0 && e.active >= max {
				e.suppressed++
				continue
			}
			client := int32(e.rSel.IntN(len(e.pop.Clients)))
			lowID := e.pop.Clients[client].LowID
			if f := e.spec.Churn.LowIDFraction; f != nil {
				lowID = e.rSel.Bool(*f)
			}
			end := at + e.drawSessionDur()
			if end > e.total {
				end = e.total
			}
			e.sessions++
			e.active++
			if e.active > e.maxActiveSeen {
				e.maxActiveSeen = e.active
			}
			heap.Push(&e.ends, sessionEnd{at: end, session: e.sessions, client: client})
			return Event{
				At:      at,
				Kind:    EvSessionStart,
				Session: e.sessions,
				Client:  client,
				LowID:   lowID,
				Phase:   e.PhaseAt(at),
				Release: e.crowdAt(at),
				Dur:     end - at,
			}, true
		}
	}
}
