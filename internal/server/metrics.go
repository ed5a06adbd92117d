package server

import (
	"strconv"
	"sync/atomic"
	"time"

	"edtrace/internal/ed2k"
	"edtrace/internal/obs"
)

// opCounters is a family of per-opcode counters with a lock-free hot
// path: one atomic pointer load per Inc once an opcode's series exists.
// Series are registered lazily so the exposition only carries opcodes
// actually seen (the registry's get-or-create makes the racy first
// registration idempotent).
type opCounters struct {
	reg   *obs.Registry
	name  string
	help  string
	slots [256]atomic.Pointer[obs.Counter]
}

func newOpCounters(reg *obs.Registry, name, help string) *opCounters {
	return &opCounters{reg: reg, name: name, help: help}
}

func (o *opCounters) counter(op byte) *obs.Counter {
	if c := o.slots[op].Load(); c != nil {
		return c
	}
	c := o.reg.Counter(o.name, o.help, obs.L("op", ed2k.OpcodeName(op)))
	o.slots[op].Store(c)
	return c
}

// Inc counts one message of the given opcode.
func (o *opCounters) Inc(op byte) { o.counter(op).Inc() }

// values snapshots opcode-name → count for every opcode seen so far.
func (o *opCounters) values() map[string]uint64 {
	out := make(map[string]uint64)
	for op := 0; op < 256; op++ {
		if c := o.slots[op].Load(); c != nil {
			if v := c.Value(); v > 0 {
				out[ed2k.OpcodeName(byte(op))] = v
			}
		}
	}
	return out
}

// opHists mirrors opCounters for per-opcode latency histograms.
type opHists struct {
	reg    *obs.Registry
	name   string
	help   string
	bounds []time.Duration
	slots  [256]atomic.Pointer[obs.Histogram]
}

func newOpHists(reg *obs.Registry, name, help string, bounds []time.Duration) *opHists {
	return &opHists{reg: reg, name: name, help: help, bounds: bounds}
}

// Observe records one handling duration for the given opcode.
func (o *opHists) Observe(op byte, d time.Duration) {
	h := o.slots[op].Load()
	if h == nil {
		h = o.reg.Histogram(o.name, o.help, o.bounds, obs.L("op", ed2k.OpcodeName(op)))
		o.slots[op].Store(h)
	}
	h.Observe(d)
}

// handleBuckets covers in-memory index operations: 250ns to ~131ms in
// ×2 steps (Handle is a few map operations, far below obs.DefBuckets'
// 1µs floor).
func handleBuckets() []time.Duration {
	out := make([]time.Duration, 0, 20)
	for d := 250 * time.Nanosecond; len(out) < 20; d *= 2 {
		out = append(out, d)
	}
	return out
}

// metrics is the server's instrumentation surface, registered by
// NewShardedWith. The per-shard index gauges live on the shards
// themselves (they are updated at the mutation points, under the locks
// already held there) — these are the cross-shard families.
type metrics struct {
	received *opCounters    // edserver_received_total{op=}
	answered *opCounters    // edserver_answered_total{op=}
	handle   *opHists       // edserver_handle_seconds{op=}
	sweep    *obs.Histogram // edserver_sweep_shard_seconds

	reclaimedSources *obs.Counter
	reclaimedFiles   *obs.Counter
	reclaimedUsers   *obs.Counter
}

func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		received: newOpCounters(reg, "edserver_received_total", "queries handled by opcode"),
		answered: newOpCounters(reg, "edserver_answered_total", "answers emitted by opcode"),
		handle: newOpHists(reg, "edserver_handle_seconds",
			"index Handle latency by query opcode", handleBuckets()),
		sweep: reg.Histogram("edserver_sweep_shard_seconds",
			"how long the expiry sweep held each shard's lock, one observation per shard per sweep", nil),
		reclaimedSources: reg.Counter("edserver_reclaimed_sources_total",
			"sources dropped by the expiry sweep"),
		reclaimedFiles: reg.Counter("edserver_reclaimed_files_total",
			"files deleted by the expiry sweep (no live sources left)"),
		reclaimedUsers: reg.Counter("edserver_reclaimed_users_total",
			"idle users forgotten by the expiry sweep"),
	}
}

// ExposeIndex registers the index gauges in reg, per shard and in
// aggregate, as read callbacks over the shards' own atomics, so the
// exposition, Stats() and StatReq all report the same numbers from the
// same source. NewShardedWith calls it with the server's registry; a
// server built without one (the simulator's) shows its index on another
// registry through it, with Handle timing left off.
func (s *Server) ExposeIndex(reg *obs.Registry) {
	read := func(g *obs.Gauge) func() float64 { return func() float64 { return float64(g.Value()) } }
	for i, sh := range s.shards {
		lbl := obs.L("shard", strconv.Itoa(i))
		reg.GaugeFunc("edserver_shard_files", "indexed files per shard", read(sh.gFiles), lbl)
		reg.GaugeFunc("edserver_shard_keywords", "keyword posting lists per shard", read(sh.gKeywords), lbl)
		reg.GaugeFunc("edserver_shard_users", "registered users per shard", read(sh.gUsers), lbl)
		reg.GaugeFunc("edserver_shard_sources", "indexed sources per shard", read(sh.gSources), lbl)
	}
	sum := func(pick func(*shard) *obs.Gauge) func() float64 {
		return func() float64 {
			t := int64(0)
			for _, sh := range s.shards {
				t += pick(sh).Value()
			}
			return float64(t)
		}
	}
	reg.GaugeFunc("edserver_index_files", "indexed files", sum(func(sh *shard) *obs.Gauge { return sh.gFiles }))
	reg.GaugeFunc("edserver_index_sources", "indexed sources", sum(func(sh *shard) *obs.Gauge { return sh.gSources }))
	reg.GaugeFunc("edserver_index_users", "registered users", sum(func(sh *shard) *obs.Gauge { return sh.gUsers }))
	reg.GaugeFunc("edserver_index_keywords", "keyword posting lists", sum(func(sh *shard) *obs.Gauge { return sh.gKeywords }))
}
