// Package obs is the repo's dependency-free metrics core: atomic
// counters and gauges, fixed-bucket latency histograms with quantile
// snapshots, and a registry that renders both the Prometheus text
// exposition format and JSON.
//
// The paper's operators ran their ten-week capture blind — the dataset
// could only be analysed after the fact (§2.2). A production daemon
// serving the same traffic needs the quantities the paper measures
// (per-opcode rates, answer latencies, index growth) live. Every layer
// of this repo — the sharded index, the daemon, the Session pipeline,
// the load generator — registers its metrics here, and the
// daemon's -metrics endpoint serves them.
//
// Design constraints, in order: hot-path writes are single atomic
// operations (no locks, no maps, no allocation — Handle runs at
// hundreds of thousands of messages per second); everything is safe
// under the race detector; only the standard library is used.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (may go up and down).
type Gauge struct{ v atomic.Int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket duration histogram. Observe is a bucket
// search plus three atomic adds — no locks, safe for concurrent use
// (a concurrency test hammers it under -race). Snapshots are computed
// on read; under concurrent observes a snapshot is consistent enough
// (each bucket is read atomically, the set of buckets is not frozen as
// one transaction), the same fuzziness every sampled metrics system
// accepts.
type Histogram struct {
	bounds []time.Duration // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1, last is the overflow bucket
	sum    atomic.Int64    // total observed nanoseconds
	count  atomic.Uint64
}

// NewHistogram returns a histogram over the given ascending bucket
// upper bounds (nil means DefBuckets).
func NewHistogram(bounds []time.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets()
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
}

// DefBuckets returns the default latency bucket bounds: powers of two
// from 1µs to ~8.6s — wide enough to hold both a loopback answer
// (tens of µs) and a simulated WAN round trip (tens of ms).
func DefBuckets() []time.Duration {
	out := make([]time.Duration, 0, 24)
	for d := time.Microsecond; d < 10*time.Second; d *= 2 {
		out = append(out, d)
	}
	return out
}

// Observe records one duration (negative durations clamp to zero).
func (h *Histogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	// Linear scan beats binary search here: latencies cluster in the
	// low buckets, and the slice is a couple of cache lines.
	i := 0
	for i < len(h.bounds) && d > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
}

// Bucket is one (upper bound, cumulative count) row of a snapshot.
type Bucket struct {
	// Le is the bucket's inclusive upper bound; the last bucket's is
	// math.MaxInt64 (rendered +Inf).
	Le time.Duration
	// CumulativeCount counts observations <= Le.
	CumulativeCount uint64
}

// HistSnapshot is a point-in-time view of a histogram.
type HistSnapshot struct {
	Count   uint64
	Sum     time.Duration
	Buckets []Bucket
	P50     time.Duration
	P95     time.Duration
	P99     time.Duration
}

// Snapshot captures the histogram with interpolated p50/p95/p99.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count:   h.count.Load(),
		Sum:     time.Duration(h.sum.Load()),
		Buckets: make([]Bucket, len(h.counts)),
	}
	cum := uint64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := time.Duration(math.MaxInt64)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets[i] = Bucket{Le: le, CumulativeCount: cum}
	}
	// The per-bucket cumulative total is the quantile base: the three
	// atomics cannot be read as one transaction, so h.count may differ
	// by in-flight observations.
	total := cum
	s.P50 = h.quantile(s.Buckets, total, 0.50)
	s.P95 = h.quantile(s.Buckets, total, 0.95)
	s.P99 = h.quantile(s.Buckets, total, 0.99)
	return s
}

// quantile linearly interpolates q within its bucket, the standard
// fixed-bucket estimate; the overflow bucket reports its lower bound.
func (h *Histogram) quantile(buckets []Bucket, total uint64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	for i, b := range buckets {
		if float64(b.CumulativeCount) < rank {
			continue
		}
		lo, hi := time.Duration(0), b.Le
		prev := uint64(0)
		if i > 0 {
			lo = buckets[i-1].Le
			prev = buckets[i-1].CumulativeCount
		}
		if i == len(buckets)-1 {
			return lo // open-ended overflow bucket: its lower bound
		}
		inBucket := b.CumulativeCount - prev
		if inBucket == 0 {
			return hi
		}
		frac := (rank - float64(prev)) / float64(inBucket)
		return lo + time.Duration(frac*float64(hi-lo))
	}
	return buckets[len(buckets)-1].Le
}

// Label is one name=value metric dimension.
type Label struct{ Key, Value string }

// L builds a label.
func L(key, value string) Label { return Label{key, value} }

// kind is the metric family type.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labelled series of a family: either a direct metric or
// a read callback.
type child struct {
	labels    []Label
	counter   *Counter
	gauge     *Gauge
	hist      *Histogram
	counterFn func() uint64
	gaugeFn   func() float64
}

// counterValue reads a counter child, direct or callback.
func (c *child) counterValue() uint64 {
	if c.counterFn != nil {
		return c.counterFn()
	}
	return c.counter.Value()
}

type family struct {
	name     string
	help     string
	kind     kind
	children []*child
	byKey    map[string]*child
}

// Registry is a set of named metric families. The zero value is not
// usable; use NewRegistry. Registration is get-or-create: the same name
// and labels return the same metric, so components can re-register
// idempotently.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' ||
			i > 0 && c >= '0' && c <= '9'
		if !ok {
			return false
		}
	}
	return true
}

// labelKey is the canonical child key: labels sorted by name.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte(1)
		b.WriteString(l.Value)
		b.WriteByte(2)
	}
	return b.String()
}

// sortLabels returns labels sorted by key, stable for equal keys.
func sortLabels(labels []Label) []Label {
	out := append([]Label(nil), labels...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// getChild finds or creates the (family, child) pair; init runs under
// r.mu on every call — it is the only place callers may create the
// metric payload or swap a callback, which keeps those writes ordered
// with the render path's locked reads.
func (r *Registry) getChild(name, help string, k kind, labels []Label, init func(*child)) *child {
	if !validName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	all := sortLabels(labels)
	for _, l := range all {
		if !validName(l.Key) {
			panic("obs: invalid label name " + strconv.Quote(l.Key))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, byKey: map[string]*child{}}
		r.families = append(r.families, f)
		r.byName[name] = f
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.kind, k))
	}
	key := labelKey(all)
	c := f.byKey[key]
	if c == nil {
		c = &child{labels: all}
		f.byKey[key] = c
		f.children = append(f.children, c)
	}
	init(c)
	return c
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	var out *Counter
	r.getChild(name, help, kindCounter, labels, func(c *child) {
		if c.counterFn != nil {
			panic("obs: " + name + " is a counter func, not a counter")
		}
		if c.counter == nil {
			c.counter = &Counter{}
		}
		out = c.counter
	})
	return out
}

// CounterFunc registers a read callback rendered as a counter: for a
// count its owner keeps anyway, read at scrape time rather than copied
// into a Counter. A re-registration replaces the callback, so the series
// describes the latest owner (a second Session on a registry).
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.getChild(name, help, kindCounter, labels, func(c *child) {
		c.counter, c.counterFn = nil, fn
	})
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	var out *Gauge
	r.getChild(name, help, kindGauge, labels, func(c *child) {
		if c.gaugeFn != nil {
			panic("obs: " + name + " is a gauge func, not a gauge")
		}
		if c.gauge == nil {
			c.gauge = &Gauge{}
		}
		out = c.gauge
	})
	return out
}

// GaugeFunc registers a read callback rendered as a gauge. A
// re-registration replaces the callback (a second Session reusing a
// registry re-points the queue-depth gauge at its own channel).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.getChild(name, help, kindGauge, labels, func(c *child) {
		c.gauge, c.gaugeFn = nil, fn
	})
}

// Histogram returns the histogram for name+labels, creating it with
// the given bounds (nil = DefBuckets) on first use.
func (r *Registry) Histogram(name, help string, bounds []time.Duration, labels ...Label) *Histogram {
	var out *Histogram
	r.getChild(name, help, kindHistogram, labels, func(c *child) {
		if c.hist == nil {
			c.hist = NewHistogram(bounds)
		}
		out = c.hist
	})
	return out
}

// snapshot returns a stable copy of the family list for rendering.
func (r *Registry) snapshot() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, len(r.families))
	copy(out, r.families)
	return out
}

// childSnapshots copies a family's children by value under r.mu.
// Child payloads (metric pointers and callbacks) are only ever written
// under that lock, so the copies are race-free to read; the callbacks
// they carry are invoked only after the lock is released, because a
// callback may take its component's lock, which that component holds
// while registering — rendering under r.mu would deadlock.
func (r *Registry) childSnapshots(f *family) []child {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]child, len(f.children))
	for i, c := range f.children {
		out[i] = *c
	}
	return out
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// formatLabels renders {k="v",...}, with extra appended last; empty
// when there are no labels at all.
func formatLabels(labels []Label, extra ...Label) string {
	if len(labels)+len(extra) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range append(append([]Label(nil), labels...), extra...) {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func seconds(d time.Duration) float64 { return d.Seconds() }

// WritePrometheus renders every family in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	for _, f := range r.snapshot() {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, c := range r.childSnapshots(f) {
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, formatLabels(c.labels), c.counterValue())
			case kindGauge:
				var v float64
				if c.gaugeFn != nil {
					v = c.gaugeFn()
				} else if c.gauge != nil {
					v = float64(c.gauge.Value())
				}
				fmt.Fprintf(&b, "%s%s %s\n", f.name, formatLabels(c.labels), formatFloat(v))
			case kindHistogram:
				s := c.hist.Snapshot()
				for _, bk := range s.Buckets {
					le := "+Inf"
					if bk.Le != time.Duration(math.MaxInt64) {
						le = formatFloat(seconds(bk.Le))
					}
					fmt.Fprintf(&b, "%s_bucket%s %d\n",
						f.name, formatLabels(c.labels, L("le", le)), bk.CumulativeCount)
				}
				fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, formatLabels(c.labels), formatFloat(seconds(s.Sum)))
				fmt.Fprintf(&b, "%s_count%s %d\n", f.name, formatLabels(c.labels), s.Count)
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSON renders every family as one JSON object: metric name →
// {type, help, samples}. Histogram samples carry count, sum and the
// interpolated quantiles in seconds.
func (r *Registry) WriteJSON(w io.Writer) error {
	var b strings.Builder
	b.WriteString("{")
	first := true
	for _, f := range r.snapshot() {
		if !first {
			b.WriteString(",")
		}
		first = false
		fmt.Fprintf(&b, "\n  %s: {\"type\": %s, \"help\": %s, \"samples\": [",
			jsonString(f.name), jsonString(f.kind.String()), jsonString(f.help))
		for i, c := range r.childSnapshots(f) {
			if i > 0 {
				b.WriteString(",")
			}
			b.WriteString("\n    {\"labels\": {")
			for j, l := range c.labels {
				if j > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%s: %s", jsonString(l.Key), jsonString(l.Value))
			}
			b.WriteString("}, ")
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, "\"value\": %d}", c.counterValue())
			case kindGauge:
				var v float64
				if c.gaugeFn != nil {
					v = c.gaugeFn()
				} else if c.gauge != nil {
					v = float64(c.gauge.Value())
				}
				fmt.Fprintf(&b, "\"value\": %s}", jsonFloat(v))
			case kindHistogram:
				s := c.hist.Snapshot()
				fmt.Fprintf(&b,
					"\"count\": %d, \"sum_seconds\": %s, \"p50_seconds\": %s, \"p95_seconds\": %s, \"p99_seconds\": %s}",
					s.Count, jsonFloat(seconds(s.Sum)),
					jsonFloat(seconds(s.P50)), jsonFloat(seconds(s.P95)), jsonFloat(seconds(s.P99)))
			}
		}
		b.WriteString("\n  ]}")
	}
	b.WriteString("\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// jsonFloat formats a float as valid JSON (Inf/NaN become null).
func jsonFloat(v float64) string {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return "null"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// jsonString renders s as a JSON string. Go-style quoting
// (strconv.Quote, %q) is not usable here: it escapes non-printable and
// non-ASCII bytes as \x../\U.. sequences that are invalid JSON, and
// label values and help texts are arbitrary strings.
func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // unreachable for a string, but never emit bad JSON
		return `""`
	}
	return string(b)
}
