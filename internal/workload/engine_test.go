package workload

import (
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"

	"edtrace/internal/simtime"
)

// fullSpec exercises every engine feature: gamma arrivals, a ramped
// phase, diurnal + weekly curves, lognormal churn with a concurrency
// cap, and two releases (one with forged variants).
func fullSpec(seed uint64, compress float64) *Spec {
	low := 0.3
	return &Spec{
		Name:     "engine-test",
		Seed:     seed,
		Compress: compress,
		World:    &WorldSpec{Files: 500, Clients: 120, VocabWords: 150},
		Arrivals: ArrivalSpec{Process: "gamma", Shape: 0.7},
		Phases: []PhaseSpec{
			{Name: "warmup", Duration: Duration(6 * simtime.Hour), Rate: 2, RateEnd: 6},
			{Name: "steady", Duration: Duration(2 * simtime.Day), Rate: 6},
		},
		Diurnal: &DiurnalSpec{Amplitude: 0.5, PeakHour: 20},
		Weekly:  &WeeklySpec{DayFactors: [7]float64{1, 1, 1, 1, 1, 1.4, 1.6}},
		Churn: ChurnSpec{
			SessionDuration: DistSpec{Dist: "lognormal", Mean: Duration(40 * simtime.Minute), Sigma: 0.8},
			LowIDFraction:   &low,
			MaxActive:       64,
		},
		Releases: []ReleaseSpec{
			{At: Duration(12 * simtime.Hour), Name: "hit-album", Files: 5, ForgedVariants: 8,
				CrowdBoost: 4, CrowdDuration: Duration(3 * simtime.Hour)},
			{At: Duration(36 * simtime.Hour), Name: "hit-movie", Files: 2,
				CrowdBoost: 2.5, CrowdDuration: Duration(6 * simtime.Hour)},
		},
	}
}

// drain renders a spec's whole event stream as one string — the byte-
// level identity the determinism contract is stated in.
func drain(t *testing.T, s *Spec) (string, *Engine) {
	t.Helper()
	eng, err := NewEngine(s, s.WorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for {
		ev, ok := eng.Next()
		if !ok {
			break
		}
		b.WriteString(ev.String())
		b.WriteByte('\n')
	}
	return b.String(), eng
}

func TestEngineDeterminism(t *testing.T) {
	a, engA := drain(t, fullSpec(42, 1))
	b, _ := drain(t, fullSpec(42, 1))
	if a != b {
		t.Fatal("same spec + seed must give byte-identical event streams")
	}
	if engA.Sessions() == 0 {
		t.Fatal("no sessions generated")
	}
	c, _ := drain(t, fullSpec(43, 1))
	if a == c {
		t.Fatal("different seeds must give different streams")
	}
}

func TestEngineCompressInvariance(t *testing.T) {
	// Compression is a replay-time pacing knob: the stream must be
	// byte-identical across factors.
	a, _ := drain(t, fullSpec(7, 1))
	b, _ := drain(t, fullSpec(7, 10080))
	if a != b {
		t.Fatal("event stream must not depend on the compression factor")
	}
}

func TestEngineChurnBounds(t *testing.T) {
	s := fullSpec(11, 1)
	s.Churn.MaxActive = 16
	eng, err := NewEngine(s, s.WorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	active := 0
	open := make(map[uint64]simtime.Time)
	lowID := 0
	starts := 0
	perClient := make([]int, len(eng.Population().Clients))
	var prev simtime.Time
	for {
		ev, ok := eng.Next()
		if !ok {
			break
		}
		if ev.At < prev {
			t.Fatalf("time went backwards: %v after %v", ev.At, prev)
		}
		prev = ev.At
		switch ev.Kind {
		case EvSessionStart:
			active++
			starts++
			if active > s.Churn.MaxActive {
				t.Fatalf("active = %d exceeds max_active = %d", active, s.Churn.MaxActive)
			}
			if ev.Dur <= 0 {
				t.Fatalf("session %d duration %v", ev.Session, ev.Dur)
			}
			if ev.At+ev.Dur > eng.Total() {
				t.Fatalf("session %d runs past the horizon", ev.Session)
			}
			open[ev.Session] = ev.At
			perClient[ev.Client]++
			if ev.LowID {
				lowID++
			}
		case EvSessionEnd:
			at, ok := open[ev.Session]
			if !ok {
				t.Fatalf("end for unknown session %d", ev.Session)
			}
			if ev.At < at {
				t.Fatalf("session %d ends before it starts", ev.Session)
			}
			delete(open, ev.Session)
			active--
		}
	}
	if len(open) != 0 {
		t.Fatalf("%d sessions never ended", len(open))
	}
	if eng.Suppressed() == 0 {
		t.Fatal("a tight max_active under this load must suppress arrivals")
	}
	if eng.MaxActiveSeen() > s.Churn.MaxActive {
		t.Fatalf("MaxActiveSeen = %d", eng.MaxActiveSeen())
	}
	// Clients connect in rounds: none twice before every one once.
	if lo, hi := slices.Min(perClient), slices.Max(perClient); hi-lo > 1 {
		t.Fatalf("sessions a client range over [%d, %d] across %d starts", lo, hi, starts)
	}
	// low_id_fraction 0.3 ± sampling noise.
	frac := float64(lowID) / float64(starts)
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("lowID fraction = %.3f, want ~0.3 over %d sessions", frac, starts)
	}
}

func TestEngineReleases(t *testing.T) {
	s := fullSpec(3, 1)
	eng, err := NewEngine(s, s.WorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	rels := eng.Releases()
	if len(rels) != 2 {
		t.Fatalf("releases = %d", len(rels))
	}
	if len(rels[0].Genuine) != 5 || len(rels[0].Forged) != 8 {
		t.Fatalf("release 0 materialised %d genuine, %d forged", len(rels[0].Genuine), len(rels[0].Forged))
	}
	for _, fi := range rels[0].Forged {
		f := &eng.Catalog().Files[fi]
		if !f.Forged {
			t.Fatalf("file %d not marked forged", fi)
		}
		if !(f.ID[0] == 0 && f.ID[1] == 0) && !(f.ID[0] == 1 && f.ID[1] == 0) {
			t.Fatalf("forged variant lacks the pollution prefix: % x", f.ID[:2])
		}
	}
	if len(rels[0].IDs(eng.Catalog())) != 5+8 {
		t.Fatal("IDs must cover the genuine released files and their forged variants")
	}

	var relEvents []Event
	crowdTagged := 0
	for {
		ev, ok := eng.Next()
		if !ok {
			break
		}
		switch {
		case ev.Kind == EvRelease:
			relEvents = append(relEvents, ev)
		case ev.Kind == EvSessionStart && ev.Release >= 0:
			crowdTagged++
			r := &s.Releases[ev.Release]
			if ev.At < r.At.Sim() || ev.At >= r.At.Sim()+r.CrowdDuration.Sim() {
				t.Fatalf("session tagged with release %d outside its crowd window", ev.Release)
			}
		}
	}
	if len(relEvents) != 2 {
		t.Fatalf("release events = %d", len(relEvents))
	}
	if relEvents[0].At != 12*simtime.Hour || relEvents[1].At != 36*simtime.Hour {
		t.Fatalf("release instants %v, %v", relEvents[0].At, relEvents[1].At)
	}
	if crowdTagged == 0 {
		t.Fatal("no sessions joined a flash crowd")
	}
}

func TestEngineRateCurve(t *testing.T) {
	s := fullSpec(1, 1)
	// Diurnal: rate at the peak hour beats the trough 12h away (same
	// phase, same day).
	day := 24 * simtime.Hour
	peak := day + simtime.Time(float64(simtime.Hour)*20)
	trough := day + simtime.Time(float64(simtime.Hour)*8)
	if s.RateAt(peak) <= s.RateAt(trough) {
		t.Fatalf("diurnal peak %v <= trough %v", s.RateAt(peak), s.RateAt(trough))
	}
	// Flash crowd: rate inside the first crowd window beats the same
	// hour a day later (identical diurnal position, no crowd).
	in := 13 * simtime.Hour
	out := in + day
	if s.RateAt(in) <= s.RateAt(out) {
		t.Fatalf("crowd window rate %v <= baseline %v", s.RateAt(in), s.RateAt(out))
	}
	// Phase ramp: warmup starts at 2/min and ends near 6/min.
	if r0 := s.RateAt(0); r0 > 4 {
		t.Fatalf("ramp start rate = %v", r0)
	}
	if s.PhaseAt(0) != "warmup" || s.PhaseAt(7*simtime.Hour) != "steady" {
		t.Fatal("phase lookup broken")
	}
	// The integral of the curve is the mean number of Poisson arrivals
	// (no max_active cap): the engine's count lies within 4 sigma of it.
	s.Arrivals, s.Churn.MaxActive = ArrivalSpec{Process: "poisson"}, 0
	_, eng := drain(t, s)
	want := s.ExpectedSessions()
	if got := float64(eng.Sessions()); math.Abs(got-want) > 4*math.Sqrt(want) {
		t.Fatalf("%v sessions, the rate curve expects %.1f", got, want)
	}
}

func TestEngineArrivalProcesses(t *testing.T) {
	for _, proc := range []string{"poisson", "gamma", "weibull"} {
		s := fullSpec(5, 1)
		s.Arrivals = ArrivalSpec{Process: proc, Shape: 0.6}
		_, eng := drain(t, s)
		if eng.Sessions() == 0 {
			t.Fatalf("%s: no sessions", proc)
		}
	}
}

func BenchmarkEngineEvents(b *testing.B) {
	// Event-generation throughput over a ten-week diurnal schedule —
	// the workload scripts/bench_workload.sh records.
	s := &Spec{
		Name:     "bench",
		Seed:     9,
		World:    &WorldSpec{Files: 500, Clients: 200, VocabWords: 150},
		Arrivals: ArrivalSpec{Process: "poisson"},
		Phases: []PhaseSpec{
			{Name: "tenweeks", Duration: Duration(10 * simtime.Week), Rate: 1},
		},
		Diurnal: &DiurnalSpec{Amplitude: 0.5, PeakHour: 21},
		Weekly:  &WeeklySpec{DayFactors: [7]float64{1, 1, 1, 1, 1, 1.3, 1.5}},
		Churn: ChurnSpec{
			SessionDuration: DistSpec{Dist: "lognormal", Mean: Duration(45 * simtime.Minute)},
		},
		Releases: []ReleaseSpec{
			{At: Duration(3 * simtime.Week), Files: 4, ForgedVariants: 4,
				CrowdBoost: 3, CrowdDuration: Duration(12 * simtime.Hour)},
		},
	}
	b.ReportAllocs()
	events := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := NewEngine(s, s.WorldConfig())
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, ok := eng.Next()
			if !ok {
				break
			}
			events++
		}
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(events)/float64(b.N), "events/op")
	}
}

// TestSpecWorldDefaults: a spec's world is SmallConfig with 500 clients
// under whatever the world block sets — the numbers docs/workload-spec.md
// states — and the Engine and `edsim -spec` (which both take
// Spec.WorldConfig) build the same catalog and population from it.
func TestSpecWorldDefaults(t *testing.T) {
	base := func(world *WorldSpec) *Spec {
		return &Spec{
			Name:     "world-defaults",
			Seed:     4,
			World:    world,
			Arrivals: ArrivalSpec{Process: "poisson"},
			Phases:   []PhaseSpec{{Name: "day", Duration: Duration(2 * simtime.Hour), Rate: 0.2}},
			Churn:    ChurnSpec{SessionDuration: DistSpec{Dist: "fixed", Mean: Duration(30 * simtime.Minute)}},
		}
	}

	cfg := base(nil).WorldConfig()
	if cfg.NumFiles != 2000 || cfg.NumClients != 500 || cfg.VocabWords != 400 || cfg.Seed != 4 {
		t.Fatalf("no world block: %d files, %d clients, %d words, seed %d; want 2000, 500, 400, 4",
			cfg.NumFiles, cfg.NumClients, cfg.VocabWords, cfg.Seed)
	}
	md, err := os.ReadFile("../../docs/workload-spec.md")
	if err != nil {
		t.Fatal(err)
	}
	promise := fmt.Sprintf("(%d files, %d clients, %d vocabulary words)", cfg.NumFiles, cfg.NumClients, cfg.VocabWords)
	if !strings.Contains(strings.Join(strings.Fields(string(md)), " "), promise) {
		t.Fatalf("docs/workload-spec.md does not state the defaults %s", promise)
	}

	none := 0.0
	partial := base(&WorldSpec{Clients: 80, PolluterFraction: &none}).WorldConfig()
	want := DefaultConfig()
	if partial.NumClients != 80 || partial.PolluterFraction != 0 ||
		partial.NumFiles != 2000 || partial.VocabWords != 400 ||
		partial.ForgedPerPolluter != want.ForgedPerPolluter {
		t.Fatalf("partial world block lost a default: %+v", partial)
	}

	for _, s := range []*Spec{base(nil), base(&WorldSpec{Files: 300, VocabWords: 120})} {
		eng, err := NewEngine(s, s.WorldConfig())
		if err != nil {
			t.Fatal(err)
		}
		wl := s.WorldConfig()
		cat, err := Generate(wl)
		if err != nil {
			t.Fatal(err)
		}
		pop, err := GeneratePopulation(wl, cat)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(eng.Catalog().Files, cat.Files) {
			t.Fatalf("world %+v: the Engine's catalog differs from WorldConfig's", s.World)
		}
		if !reflect.DeepEqual(eng.Population().Clients, pop.Clients) {
			t.Fatalf("world %+v: the Engine's population differs from WorldConfig's", s.World)
		}
	}
}
