// Package simtime provides a deterministic discrete-event scheduler with a
// virtual clock.
//
// The paper's measurement runs for ten wall-clock weeks; reproducing it
// requires compressing that span into seconds of CPU time while keeping
// event ordering and relative timestamps exact. All simulated components
// (links, clients, the server, the capture buffer) schedule callbacks on a
// Scheduler instead of using real time. Two events at the same virtual
// instant fire in scheduling order, so runs are fully deterministic.
//
// When simulated timelines must drive *real* components — a live server
// under a spec-driven load replay — Compressor maps virtual instants
// onto the wall clock at a fixed compression factor, so ten simulated
// weeks pace out over ten real minutes without changing what happens at
// any instant.
package simtime

import (
	"container/heap"
	"fmt"
	"time"
)

// Time is a virtual instant, counted in nanoseconds from the start of the
// simulation. It is deliberately not time.Time: virtual time has no epoch.
type Time int64

// Common virtual durations.
const (
	Nanosecond  = Time(1)
	Microsecond = 1000 * Nanosecond
	Millisecond = 1000 * Microsecond
	Second      = 1000 * Millisecond
	Minute      = 60 * Second
	Hour        = 60 * Minute
	Day         = 24 * Hour
	Week        = 7 * Day
)

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Event is a scheduled callback.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among events at the same instant
	fn  func()
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Scheduler owns a virtual clock and a pending-event queue.
// It is not safe for concurrent use; the simulation is single-threaded by
// design (determinism), with parallelism available across independent
// simulations instead.
type Scheduler struct {
	now     Time
	seq     uint64
	queue   eventHeap
	stopped bool
	fired   uint64
}

// NewScheduler returns a scheduler with the clock at 0.
func NewScheduler() *Scheduler {
	return &Scheduler{}
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Fired reports how many events have executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending reports how many events are queued.
func (s *Scheduler) Pending() int { return len(s.queue) }

// At schedules fn to run at the absolute virtual instant t.
// Scheduling in the past panics: it indicates a logic error in the caller,
// and silently reordering events would destroy determinism.
func (s *Scheduler) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("simtime: scheduling at %v before now %v", t, s.now))
	}
	heap.Push(&s.queue, &event{at: t, seq: s.seq, fn: fn})
	s.seq++
}

// After schedules fn to run d after the current instant.
func (s *Scheduler) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// Stop makes RunUntil return after the currently executing event.
func (s *Scheduler) Stop() { s.stopped = true }

// step executes the earliest pending event, advancing the clock.
// It reports whether an event was executed.
func (s *Scheduler) step(limit Time) bool {
	if len(s.queue) == 0 || s.queue[0].at > limit {
		return false
	}
	ev := heap.Pop(&s.queue).(*event)
	s.now = ev.at
	s.fired++
	ev.fn()
	return true
}

// RunUntil executes events in order until the queue drains, Stop is
// called, or the next event lies beyond t. The clock finishes at t (or at
// the stop point) so that subsequent scheduling is relative to the horizon.
func (s *Scheduler) RunUntil(t Time) {
	s.stopped = false
	for !s.stopped && s.step(t) {
	}
	if !s.stopped && s.now < t {
		s.now = t
	}
}

// Every schedules fn to run now+d, then every d thereafter, for as long
// as the scheduler runs. fn receives the firing time.
func (s *Scheduler) Every(d Time, fn func(Time)) {
	if d <= 0 {
		panic("simtime: Every requires a positive period")
	}
	var tick func()
	tick = func() {
		fn(s.now)
		s.After(d, tick)
	}
	s.After(d, tick)
}
