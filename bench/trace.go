package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, as seen from outside
// the program: the harness stamps the clock around a call into a
// package's public function. Times are nanoseconds since the tracer was
// created. Parent is the id of the span that caused this one (0: none);
// spans of one request share Req.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
}

// tracer keeps spans in memory and writes them out once, at the end of
// the run. A nil *tracer records nothing, so the untraced run pays one
// nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one finished span and returns its id.
func (t *tracer) add(name string, start, end time.Time, parent, req int64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.spans = append(t.spans, span{
		ID: id, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Parent: parent, Req: req,
	})
	t.mu.Unlock()
	return id
}

// begin opens a span whose children are recorded before it ends: it
// reserves the id now and records the span when end is called.
func (t *tracer) begin(name string, parent, req int64) (id int64, end func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	t.next++
	id = t.next
	t.mu.Unlock()
	start := time.Now()
	return id, func() {
		t.mu.Lock()
		t.spans = append(t.spans, span{
			ID: id, Name: name,
			Start: start.Sub(t.epoch).Nanoseconds(), End: time.Since(t.epoch).Nanoseconds(),
			Parent: parent, Req: req,
		})
		t.mu.Unlock()
	}
}

// merge appends spans a goroutine collected privately (so the hot loop
// takes no lock), assigning ids and the given parent.
func (t *tracer) merge(local []span, parent int64) {
	if t == nil || len(local) == 0 {
		return
	}
	t.mu.Lock()
	for i := range local {
		t.next++
		local[i].ID = t.next
		local[i].Parent = parent
	}
	t.spans = append(t.spans, local...)
	t.mu.Unlock()
}

// since converts an instant to the tracer's clock, for locally
// collected spans.
func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
