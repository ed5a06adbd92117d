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
// session arrivals, taking the population's clients in shuffled rounds;
// each session draws a lifetime from the churn model and ends
// accordingly; release events inject new catalog files and multiply the
// arrival rate for their flash-crowd window.
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

// IDs returns the released fileIDs, genuine then forged — what a flash
// crowd asks for. A crowd session samples its asks from all of them, so
// the forged variants reach the capture, and its fileID buckets, the way
// the paper's pollution did: through the clients that fetch them.
func (r *Release) IDs(cat *Catalog) []ed2k.FileID {
	out := make([]ed2k.FileID, 0, len(r.Genuine)+len(r.Forged))
	for _, fi := range r.Genuine {
		out = append(out, cat.Files[fi].ID)
	}
	for _, fi := range r.Forged {
		out = append(out, cat.Files[fi].ID)
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

	releases []Release

	rArr, rSel *randx.Rand
	maxRate    float64 // thinning bound, arrivals per simulated minute

	// round is the population in a random order: arriving sessions take
	// its clients from next on, and a new round draws a new order, so
	// every client connects once before any connects twice.
	round []int
	next  int

	relNext       int
	ends          endHeap
	nextArr       simtime.Time
	arrDone       bool
	sessions      uint64
	active        int
	maxActiveSeen int
	suppressed    uint64
}

// NewEngine validates the spec, generates the synthetic world the caller
// describes (normally spec.WorldConfig()), materialises every release's
// files into the catalog, and positions the arrival process at t=0.
//
// Released files are appended after the generated catalog, so
// Catalog.GenuineCount still delimits the *generated* genuine prefix;
// the appended range mixes genuine releases and their forged variants,
// distinguished by File.Forged.
func NewEngine(spec *Spec, wl Config) (*Engine, error) {
	cat, err := Generate(wl) // validates the world first: a spec may derive from it
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
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

	root := randx.New(spec.Seed, 0x10E14EE1E5C0FFEE)
	e.rArr = root.Split(1)
	e.rSel = root.Split(2)
	rRel := root.Split(3)
	e.materialiseReleases(wl, rRel)
	e.maxRate = spec.maxRate()

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
			name += kinds[kind].ext
			rel.Genuine = append(rel.Genuine, int32(len(e.cat.Files)))
			e.cat.Files = append(e.cat.Files, File{
				ID:     ed2k.FileID(id),
				Name:   name,
				Size:   size,
				Type:   kinds[kind].typ,
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

// Catalog returns the generated catalog, released files included.
func (e *Engine) Catalog() *Catalog { return e.cat }

// Population returns the generated client population.
func (e *Engine) Population() *Population { return e.pop }

// Spec returns the spec the engine expands.
func (e *Engine) Spec() *Spec { return e.spec }

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
		if e.rArr.Float64()*e.maxRate <= e.spec.RateAt(t) {
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
	return simtime.Time(min(max(v, float64(simtime.Second)), float64(e.total)))
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
				Phase:   e.spec.PhaseAt(relAt),
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
				Phase:   e.spec.PhaseAt(end.at),
				Release: -1,
			}, true

		default:
			at := e.nextArr
			e.advanceArrival()
			if max := e.spec.Churn.MaxActive; max > 0 && e.active >= max {
				e.suppressed++
				continue
			}
			if e.next == len(e.round) {
				e.round, e.next = e.rSel.Perm(len(e.pop.Clients)), 0
			}
			client := int32(e.round[e.next])
			e.next++
			lowID := e.pop.Clients[client].LowID
			if f := e.spec.Churn.LowIDFraction; f != nil {
				lowID = e.rSel.Bool(*f)
			}
			end := at + min(e.drawSessionDur(), e.total-at)
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
				Phase:   e.spec.PhaseAt(at),
				Release: e.crowdAt(at),
				Dur:     end - at,
			}, true
		}
	}
}
