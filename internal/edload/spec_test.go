package edload

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"edtrace/internal/clients"
	"edtrace/internal/ed2k"
	"edtrace/internal/obs"
	"edtrace/internal/randx"
	"edtrace/internal/simtime"
	"edtrace/internal/workload"
)

// smokeSpec is ~one simulated day (two phases, a diurnal curve, churn
// and one flash crowd) sized to replay in a few wall-clock seconds —
// the compressed-replay smoke CI runs on every push.
func smokeSpec() *workload.Spec {
	return &workload.Spec{
		Name:     "ci-smoke",
		Seed:     21,
		Compress: 28800, // one simulated day in three wall seconds
		World:    &workload.WorldSpec{Files: 400, Clients: 80, VocabWords: 150},
		Arrivals: workload.ArrivalSpec{Process: "poisson"},
		Phases: []workload.PhaseSpec{
			{Name: "night", Duration: workload.Duration(8 * simtime.Hour), Rate: 0.12},
			{Name: "day", Duration: workload.Duration(16 * simtime.Hour), Rate: 0.25},
		},
		Diurnal: &workload.DiurnalSpec{Amplitude: 0.4, PeakHour: 20},
		Churn: workload.ChurnSpec{
			SessionDuration: workload.DistSpec{
				Dist: "lognormal", Mean: workload.Duration(40 * simtime.Minute), Sigma: 0.7,
			},
			MaxActive: 48,
		},
		Releases: []workload.ReleaseSpec{
			{At: workload.Duration(12 * simtime.Hour), Name: "smoke-release", Files: 3,
				ForgedVariants: 3, CrowdBoost: 5, CrowdDuration: workload.Duration(2 * simtime.Hour)},
		},
	}
}

// TestSpecReplaySmoke replays a compressed simulated day against a live
// daemon and asserts the per-phase counters are visible through the
// metrics endpoint — the CI smoke for the whole spec → engine →
// compressor → swarm → obs chain.
func TestSpecReplaySmoke(t *testing.T) {
	d := startDaemon(t)
	reg := obs.NewRegistry()
	srv := httptest.NewServer(obs.Handler(reg, nil))
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	st, err := RunSpec(ctx, SpecConfig{
		Target: Target{Addrs: []string{d.TCPAddr().String()}, Metrics: reg, Logf: t.Logf},
		Spec:   smokeSpec(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Sessions == 0 {
		t.Fatal("no sessions ran")
	}
	if st.Releases != 1 {
		t.Fatalf("releases fired = %d, want 1", st.Releases)
	}
	if st.SimSpan != simtime.Day {
		t.Fatalf("simulated span = %v, want 1 day", st.SimSpan)
	}
	if st.Sent == 0 || st.Answers == 0 {
		t.Fatalf("degenerate replay: %+v", st.Stats)
	}

	// Per-phase counters through the metrics endpoint, as a scraper
	// would read them.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, phase := range []string{"night", "day"} {
		re := regexp.MustCompile(`edload_spec_sessions_total\{phase="` + phase + `"\} (\d+)`)
		m := re.FindStringSubmatch(text)
		if m == nil {
			t.Fatalf("metrics endpoint lacks sessions counter for phase %q:\n%s", phase, text)
		}
		if n, _ := strconv.Atoi(m[1]); n == 0 {
			t.Fatalf("phase %q counter is zero", phase)
		}
	}
	if !strings.Contains(text, "edload_spec_releases_total 1") {
		t.Fatal("metrics endpoint lacks the release counter")
	}
	// All sessions done: the active gauge must be back to zero.
	if !strings.Contains(text, "edload_spec_active_sessions 0") {
		t.Fatal("active-session gauge did not drain to zero")
	}
}

// TestSpecReplayPacing: at two different compression factors the same
// spec drives the same number of sessions (the stream is invariant),
// but the slower replay takes proportionally longer.
func TestSpecReplayPacing(t *testing.T) {
	d := startDaemon(t)
	spec := smokeSpec()
	spec.Phases = []workload.PhaseSpec{
		{Name: "only", Duration: workload.Duration(2 * simtime.Hour), Rate: 0.3},
	}
	spec.Releases = nil
	spec.Churn.MaxActive = 0

	run := func(factor float64) SpecStats {
		t.Helper()
		st, err := RunSpec(context.Background(), SpecConfig{
			Target:   Target{Addrs: []string{d.TCPAddr().String()}},
			Spec:     spec,
			Compress: factor,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	fast := run(14400) // 2h in 0.5s
	slow := run(3600)  // 2h in 2s
	if fast.Sessions != slow.Sessions {
		t.Fatalf("session count depends on compression: %d vs %d", fast.Sessions, slow.Sessions)
	}
	if fast.Skipped != slow.Skipped {
		t.Fatalf("skip count depends on compression: %d vs %d", fast.Skipped, slow.Skipped)
	}
	if slow.Wall < fast.Wall {
		t.Fatalf("slower factor finished faster: %v vs %v", slow.Wall, fast.Wall)
	}
}

// engineStarts drains a fresh engine over spec and returns its session
// arrivals in order.
func engineStarts(t *testing.T, spec *workload.Spec) (*workload.Engine, []workload.Event) {
	t.Helper()
	eng, err := workload.NewEngine(spec, spec.WorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	var starts []workload.Event
	for ev, ok := eng.Next(); ok; ev, ok = eng.Next() {
		if ev.Kind == workload.EvSessionStart {
			starts = append(starts, ev)
		}
	}
	return eng, starts
}

// TestSpecConcurrencyCap is the driver's cap seen through RunSpec: with
// room for one session and arrivals that overlap, the dispatcher turns
// arrivals away instead of waiting for the slot, and every arrival the
// engine produced is either run or counted as skipped.
func TestSpecConcurrencyCap(t *testing.T) {
	d := startDaemon(t)
	spec := smokeSpec()
	spec.Phases = []workload.PhaseSpec{
		{Name: "burst", Duration: workload.Duration(2 * simtime.Hour), Rate: 2},
	}
	spec.Releases = nil
	spec.Churn.MaxActive = 0
	_, starts := engineStarts(t, spec)

	st, err := RunSpec(context.Background(), SpecConfig{
		Target:        Target{Addrs: []string{d.TCPAddr().String()}},
		Spec:          spec,
		Compress:      1e9, // every arrival is due at once: the dispatcher never sleeps
		MaxConcurrent: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Skipped == 0 {
		t.Fatalf("%d overlapping arrivals at a cap of one and none skipped: %+v", len(starts), st)
	}
	if st.Sessions == 0 || st.Sessions+st.Skipped != uint64(len(starts)) {
		t.Fatalf("%d sessions + %d skipped, engine started %d", st.Sessions, st.Skipped, len(starts))
	}
	if ds := d.Stats(); ds.Conns != st.Sessions {
		t.Fatalf("daemon accepted %d connections for %d sessions", ds.Conns, st.Sessions)
	}
}

// TestSpecLowIDFractionReachesTheWire: churn.low_id_fraction decides
// each arriving session's reachability, and the plan must announce
// under the clientID that follows from it. At the parent of PR 17 the
// engine drew the flag and the planner never saw it.
func TestSpecLowIDFractionReachesTheWire(t *testing.T) {
	type planFunc func(p *clients.Planner, c *workload.Client, r *randx.Rand, ev workload.Event) []ed2k.Message
	viaSessionPlan := func(p *clients.Planner, c *workload.Client, r *randx.Rand, ev workload.Event) []ed2k.Message {
		return sessionPlan(p, c, r, ev, nil, 256)
	}
	// plans builds every arrival's plan for smokeSpec with the given
	// churn.low_id_fraction, seeded as RunSpec seeds it.
	plans := func(fraction *float64, build planFunc) (frames [][]byte, offers []*ed2k.OfferFiles) {
		spec := smokeSpec()
		spec.Churn.LowIDFraction = fraction
		eng, starts := engineStarts(t, spec)
		planner := clients.NewPlanner(eng.Catalog(), clients.DefaultTraffic())
		root := randx.New(spec.Seed, 0xED10AD5BEC)
		for _, ev := range starts {
			for _, m := range build(planner, &eng.Population().Clients[ev.Client], root.Split(ev.Session), ev) {
				frames = append(frames, ed2k.FrameTCP(m))
				if o, ok := m.(*ed2k.OfferFiles); ok {
					offers = append(offers, o)
				}
			}
		}
		if len(offers) == 0 {
			t.Fatal("no session announced anything")
		}
		return frames, offers
	}
	for _, tc := range []struct {
		fraction float64
		low      bool
	}{{1, true}, {0, false}} {
		_, offers := plans(&tc.fraction, viaSessionPlan)
		for _, o := range offers {
			ids := []ed2k.ClientID{o.Client}
			for _, f := range o.Files {
				ids = append(ids, f.Client)
			}
			for _, id := range ids {
				if id.IsLowID() != tc.low {
					t.Fatalf("low_id_fraction %v: offer under clientID %#x", tc.fraction, id)
				}
			}
		}
	}

	// Without the field each client's own profile decides, as before the
	// fix: the plans are those of the unmodified population.
	got, _ := plans(nil, viaSessionPlan)
	want, _ := plans(nil, func(p *clients.Planner, c *workload.Client, r *randx.Rand, ev workload.Event) []ed2k.Message {
		n := min(max(int(48*float64(ev.Dur)/float64(simtime.Hour)), 4), 256)
		return p.SessionMessages(c, r, n, nil)
	})
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a spec without low_id_fraction no longer plans from the population's own low-ID flags")
	}
}
