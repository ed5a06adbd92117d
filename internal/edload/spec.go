package edload

import (
	"context"
	"fmt"
	"time"

	"edtrace/internal/clients"
	"edtrace/internal/ed2k"
	"edtrace/internal/obs"
	"edtrace/internal/randx"
	"edtrace/internal/simtime"
	"edtrace/internal/workload"
)

// SpecConfig parameterises a spec-driven replay: the workload engine's
// event stream, compressed onto the wall clock, drives real TCP client
// sessions against live servers.
type SpecConfig struct {
	Target
	// Spec is the workload description the engine expands.
	Spec *workload.Spec
	// Compress overrides the spec's compression factor when > 0.
	Compress float64
	// MaxConcurrent caps live TCP sessions (default 64). Arrivals past
	// the cap are skipped and counted, never queued: a replay that can't
	// keep up must say so instead of silently stretching the timeline.
	MaxConcurrent int
	// MaxMessagesPerSession bounds any one session's plan (<= 0: 256).
	MaxMessagesPerSession int
}

// messagesPerSessionHour scales plan length with the session's simulated
// lifetime: a session open for one simulated hour sends about this many
// messages (at least 4 a session, at most MaxMessagesPerSession).
const messagesPerSessionHour = 48

// SpecStats aggregates a completed spec replay.
type SpecStats struct {
	Stats
	// Sessions is the number of TCP sessions run to completion.
	Sessions uint64
	// Skipped counts arrivals dropped at the MaxConcurrent cap.
	Skipped uint64
	// SuppressedBySpec counts arrivals the engine suppressed at the
	// spec's churn.max_active bound.
	SuppressedBySpec uint64
	// Releases is the number of content-release events fired.
	Releases int
	// SimSpan is the simulated time replayed.
	SimSpan simtime.Time
	// Factor is the effective compression factor.
	Factor float64
	// MaxBehind is the worst observed scheduling lag: how far dispatch
	// ran behind the compressed clock.
	MaxBehind time.Duration
}

// specMetrics is the engine-side instrumentation.
type specMetrics struct {
	reg       *obs.Registry
	rateMilli *obs.Gauge
	behindMS  *obs.Gauge
	releases  *obs.Counter
	skipped   *obs.Counter
}

// newSpecMetrics registers the replay's series; live is the driver's
// semaphore, whose length is the active-session gauge.
func newSpecMetrics(reg *obs.Registry, live <-chan struct{}) *specMetrics {
	reg.GaugeFunc("edload_spec_active_sessions", "live TCP sessions driven by the workload engine",
		func() float64 { return float64(len(live)) })
	return &specMetrics{
		reg:       reg,
		rateMilli: reg.Gauge("edload_spec_arrival_rate_milli", "engine arrival rate at the last dispatch, in sessions per simulated minute x1000"),
		behindMS:  reg.Gauge("edload_spec_behind_ms", "wall-clock lag behind the compressed schedule at the last dispatch"),
		releases:  reg.Counter("edload_spec_releases_total", "content-release events fired"),
		skipped:   reg.Counter("edload_spec_skipped_total", "arrivals dropped at the max-concurrent cap"),
	}
}

// sessionDone counts one completed session of the phase (the registry
// hands back the same counter for the same label).
func (m *specMetrics) sessionDone(phase string) {
	m.reg.Counter("edload_spec_sessions_total",
		"sessions completed per schedule phase", obs.L("phase", phase)).Inc()
}

// sessionPlan builds one arrival's plan: the client's own behaviour,
// with the reachability the engine drew for this session (the spec's
// churn.low_id_fraction, or the client's own when the spec has none) and
// a length that follows the session's simulated lifetime.
func sessionPlan(p *clients.Planner, c *workload.Client, r *randx.Rand, ev workload.Event,
	crowd []ed2k.FileID, maxMsgs int) []ed2k.Message {
	arriving := *c // the population is shared between sessions
	arriving.LowID = ev.LowID
	n := int(messagesPerSessionHour * float64(ev.Dur) / float64(simtime.Hour))
	return p.SessionMessages(&arriving, r, min(max(n, 4), maxMsgs), crowd)
}

// RunSpec replays the spec's event stream against the configured
// servers: every EvSessionStart is paced by the compressed clock and
// becomes one real TCP session (login → offers → crowd-steered asks →
// searches → fence), every EvRelease makes its files visible to flash
// crowds. The stream itself is independent of the compression factor —
// only the pacing changes — so runs at different factors drive the same
// sessions in the same order.
//
// Like Run, the first failed session aborts the swarm; the returned
// stats count what happened up to that point.
func RunSpec(ctx context.Context, cfg SpecConfig) (SpecStats, error) {
	var st SpecStats
	if cfg.Spec == nil {
		return st, fmt.Errorf("edload: RunSpec requires a spec")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 64
	}
	if cfg.MaxMessagesPerSession <= 0 {
		cfg.MaxMessagesPerSession = 256
	}
	eng, err := workload.NewEngine(cfg.Spec, cfg.Spec.WorldConfig())
	if err != nil {
		return st, err
	}
	factor := cfg.Compress
	if factor <= 0 {
		factor = cfg.Spec.Compress
	}
	comp := simtime.NewCompressor(factor)
	planner := clients.NewPlanner(eng.Catalog(), clients.DefaultTraffic())
	d, err := newDriver(ctx, cfg.Target, cfg.MaxConcurrent)
	if err != nil {
		return st, err
	}
	met := newSpecMetrics(d.tgt.Metrics, d.sem)
	d.tgt.Logf("edload: spec %q: %v simulated at %v against %v",
		cfg.Spec.Name, eng.Total(), comp, cfg.Addrs)

	pop := eng.Population()
	root := randx.New(cfg.Spec.Seed, 0xED10AD5BEC)
	// crowdIDs[i] is release i's fileID list, set when the release fires.
	crowdIDs := make([][]ed2k.FileID, len(eng.Releases()))

	for {
		ev, ok := eng.Next()
		if !ok || comp.Wait(d.ctx, ev.At) != nil {
			break
		}
		behind := comp.Behind(ev.At)
		if behind > st.MaxBehind {
			st.MaxBehind = behind
		}
		met.rateMilli.Set(int64(cfg.Spec.RateAt(ev.At) * 1000))
		met.behindMS.Set(behind.Milliseconds())
		switch ev.Kind {
		case workload.EvRelease:
			rel := &eng.Releases()[ev.Release]
			crowdIDs[ev.Release] = rel.IDs(eng.Catalog())
			st.Releases++
			met.releases.Inc()
			d.tgt.Logf("edload: release %q at %v: %d files (+%d forged), crowd x%v for %v",
				rel.Spec.Name, ev.At, len(rel.Genuine), len(rel.Forged),
				rel.Spec.CrowdBoost, rel.Spec.CrowdDuration)
		case workload.EvSessionEnd:
			// Session length was already encoded in the plan size at
			// start; nothing to tear down here.
		case workload.EvSessionStart:
			var crowd []ed2k.FileID
			if ev.Release >= 0 {
				crowd = crowdIDs[ev.Release]
			}
			plan := func() []ed2k.Message {
				return sessionPlan(planner, &pop.Clients[ev.Client], root.Split(ev.Session), ev, crowd, cfg.MaxMessagesPerSession)
			}
			if !d.start(fmt.Sprintf("session %d", ev.Session), plan, func() { met.sessionDone(ev.Phase) }) {
				st.Skipped++
				met.skipped.Inc()
			}
		}
	}

	st.Stats, err = d.wait()
	st.Sessions = uint64(st.Clients)
	st.SuppressedBySpec = eng.Suppressed()
	st.SimSpan = eng.Total()
	st.Factor = comp.Factor()
	if err != nil {
		return st, err
	}
	d.tgt.Logf("edload: spec done: %d sessions (%d skipped, %d spec-suppressed), %d sent, %d answered in %v",
		st.Sessions, st.Skipped, st.SuppressedBySpec, st.Sent, st.Answers, st.Wall.Round(time.Millisecond))
	return st, nil
}
