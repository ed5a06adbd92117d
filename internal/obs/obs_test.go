package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := reg.Counter("test_total", "a counter"); again != c {
		t.Fatal("re-registration did not return the same counter")
	}
	g := reg.Gauge("test_gauge", "a gauge")
	g.Set(10)
	g.Add(-3)
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram(nil)
	for i := 0; i < 100; i++ {
		h.Observe(time.Duration(i+1) * time.Millisecond) // 1..100ms
	}
	s := h.Snapshot()
	if s.Count != 100 {
		t.Fatalf("count = %d, want 100", s.Count)
	}
	if s.Sum != 5050*time.Millisecond {
		t.Fatalf("sum = %v, want 5.05s", s.Sum)
	}
	// Bucketed estimates: p50 of uniform 1..100ms is ~50ms; the bucket
	// resolution is ×2, so accept a factor-2 band.
	if s.P50 < 25*time.Millisecond || s.P50 > 100*time.Millisecond {
		t.Errorf("p50 = %v, want ~50ms", s.P50)
	}
	if s.P99 < s.P95 || s.P95 < s.P50 {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v", s.P50, s.P95, s.P99)
	}
}

// TestHistogramConcurrentObserve hammers one histogram from many
// goroutines; under -race this proves Observe and Snapshot are safe
// concurrently, and the final counts must be exact (no lost updates).
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(nil)
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader: snapshots must never tear or panic
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := h.Snapshot()
				last := uint64(0)
				for _, b := range s.Buckets {
					if b.CumulativeCount < last {
						t.Error("cumulative bucket counts decreased")
						return
					}
					last = b.CumulativeCount
				}
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(time.Duration(w*i%1000) * time.Microsecond)
			}
		}(w)
	}
	// Wait for writers by re-checking the count; then stop the reader.
	for h.count.Load() < workers*perWorker {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	if got := s.Buckets[len(s.Buckets)-1].CumulativeCount; got != workers*perWorker {
		t.Fatalf("final cumulative = %d, want %d", got, workers*perWorker)
	}
}

// promLine matches one sample line of the text exposition format.
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[0-9eE.+-]+)$`)

// TestPrometheusTextFormat registers one of everything and lint-checks
// the rendered exposition: HELP/TYPE pairs precede samples, every
// sample line parses, histogram buckets are cumulative, ordered by le,
// end at +Inf, and agree with _count.
func TestPrometheusTextFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("fmt_requests_total", "requests", L("op", "Search")).Add(3)
	reg.Gauge("fmt_depth", "queue depth").Set(7)
	reg.GaugeFunc("fmt_uptime_seconds", "uptime", func() float64 { return 1.5 })
	h := reg.Histogram("fmt_latency_seconds", `latency with "quotes" in help`, nil, L("op", `with"quote`))
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i) * 37 * time.Microsecond)
	}

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	seenType := map[string]bool{}
	var histCum []uint64
	var histLe []float64
	histCount := uint64(0)
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			switch parts[3] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("bad type %q in %q", parts[3], line)
			}
			seenType[parts[2]] = true
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("sample line does not match the text format: %q", line)
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !seenType[name] && !seenType[base] {
			t.Fatalf("sample %q precedes its TYPE line", line)
		}
		if strings.HasPrefix(line, "fmt_latency_seconds_bucket") {
			v, err := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
			if err != nil {
				t.Fatal(err)
			}
			histCum = append(histCum, v)
			leStr := line[strings.Index(line, `le="`)+4:]
			leStr = leStr[:strings.Index(leStr, `"`)]
			le := math.Inf(1)
			if leStr != "+Inf" {
				if le, err = strconv.ParseFloat(leStr, 64); err != nil {
					t.Fatal(err)
				}
			}
			histLe = append(histLe, le)
		}
		if strings.HasPrefix(line, "fmt_latency_seconds_count") {
			v, _ := strconv.ParseUint(line[strings.LastIndex(line, " ")+1:], 10, 64)
			histCount = v
		}
	}
	if len(histCum) == 0 {
		t.Fatal("no histogram buckets rendered")
	}
	for i := 1; i < len(histCum); i++ {
		if histCum[i] < histCum[i-1] {
			t.Fatalf("bucket counts not cumulative: %v", histCum)
		}
		if histLe[i] <= histLe[i-1] {
			t.Fatalf("bucket bounds not ascending: %v", histLe)
		}
	}
	if !math.IsInf(histLe[len(histLe)-1], 1) {
		t.Fatalf("last bucket bound %v, want +Inf", histLe[len(histLe)-1])
	}
	if histCum[len(histCum)-1] != histCount {
		t.Fatalf("+Inf bucket %d != _count %d", histCum[len(histCum)-1], histCount)
	}
}

// TestFuncReRegistrationRace is the race-detector repro for callback
// registration vs rendering: a second Session on a registry re-points
// its callbacks while the /metrics endpoint may be being scraped, so
// the payload swap must be ordered with the render path's reads. Run
// under -race this catches any unlocked assignment in
// GaugeFunc/CounterFunc.
func TestFuncReRegistrationRace(t *testing.T) {
	reg := NewRegistry()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			v := float64(i)
			reg.GaugeFunc("race_gauge", "g", func() float64 { return v })
			reg.CounterFunc("race_total", "c", func() uint64 { return uint64(v) })
			reg.GaugeFunc("race_peer", "per peer", func() float64 { return v }, L("peer", strconv.Itoa(i%4)))
		}
	}()
	for i := 0; i < 200; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteJSON(io.Discard); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestWriteJSONNonPrintableLabel: label values are arbitrary strings,
// non-printable bytes included. Go-style %q quoting
// escapes non-printables as \x.., which is invalid JSON — the output
// must stay parseable, and valid-UTF-8 values must round-trip.
func TestWriteJSONNonPrintableLabel(t *testing.T) {
	reg := NewRegistry()
	tricky := "peer\x01\x02é\n\tend"
	reg.Counter("np_total", "help with \x03 byte", L("peer", tricky)).Add(1)
	reg.Gauge("np_gauge", "g", L("peer", "raw\xff")).Set(2) // invalid UTF-8: must still parse
	var buf strings.Builder
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]struct {
		Help    string           `json:"help"`
		Samples []map[string]any `json:"samples"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &parsed); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v\n%s", err, buf.String())
	}
	labels := parsed["np_total"].Samples[0]["labels"].(map[string]any)
	if got := labels["peer"].(string); got != tricky {
		t.Fatalf("label value round-trip = %q, want %q", got, tricky)
	}
	if got := parsed["np_total"].Help; got != "help with \x03 byte" {
		t.Fatalf("help round-trip = %q", got)
	}
}

func TestWriteJSONParses(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("j_total", "c", L("op", `quo"te`)).Add(5)
	reg.Histogram("j_latency_seconds", "h", nil).Observe(time.Millisecond)
	var buf strings.Builder
	if err := reg.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var parsed map[string]struct {
		Type    string           `json:"type"`
		Samples []map[string]any `json:"samples"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &parsed); err != nil {
		t.Fatalf("WriteJSON output is not valid JSON: %v\n%s", err, buf.String())
	}
	if parsed["j_total"].Type != "counter" || parsed["j_total"].Samples[0]["value"].(float64) != 5 {
		t.Fatalf("unexpected j_total: %+v", parsed["j_total"])
	}
	hs := parsed["j_latency_seconds"].Samples[0]
	if hs["count"].(float64) != 1 {
		t.Fatalf("histogram count = %v, want 1", hs["count"])
	}
}

func TestHTTPEndpoint(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("e_total", "c").Add(1)
	healthy := true
	srv, err := Serve("127.0.0.1:0", reg, func() error {
		if !healthy {
			return io.ErrClosedPipe
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "e_total 1") {
		t.Fatalf("/metrics = %d %q", code, body)
	}
	if code, body := get("/metrics.json"); code != 200 || !strings.Contains(body, `"e_total"`) {
		t.Fatalf("/metrics.json = %d %q", code, body)
	}
	if code, body := get("/healthz"); code != 200 || body != "ok\n" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	// The profiler rides on the same endpoint: no flag turns it on.
	if code, body := get("/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Fatalf("/debug/pprof/cmdline = %d %q", code, body)
	}
	healthy = false
	if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz after unhealthy = %d, want 503", code)
	}
}

// TestCounterFunc: a counter callback renders as a counter in both
// formats, a re-registration points the series at the new owner, and
// the name cannot also be had as a direct Counter.
func TestCounterFunc(t *testing.T) {
	reg := NewRegistry()
	first, second := uint64(5), uint64(2)
	reg.CounterFunc("cf_frames_total", "frames", func() uint64 { return first }, L("reason", "x"))
	render := func() (string, string) {
		var p, j strings.Builder
		if err := reg.WritePrometheus(&p); err != nil {
			t.Fatal(err)
		}
		if err := reg.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		return p.String(), j.String()
	}
	p, j := render()
	if !strings.Contains(p, "# TYPE cf_frames_total counter\n") || !strings.Contains(p, `cf_frames_total{reason="x"} 5`+"\n") {
		t.Fatalf("exposition:\n%s", p)
	}
	if !strings.Contains(j, `"value": 5}`) {
		t.Fatalf("JSON:\n%s", j)
	}
	reg.CounterFunc("cf_frames_total", "frames", func() uint64 { return second }, L("reason", "x"))
	if p, _ = render(); !strings.Contains(p, `cf_frames_total{reason="x"} 2`+"\n") {
		t.Fatalf("re-registered callback not rendered:\n%s", p)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Counter on a counter func did not panic")
		}
	}()
	reg.Counter("cf_frames_total", "frames", L("reason", "x"))
}
