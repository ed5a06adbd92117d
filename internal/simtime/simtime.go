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
	"context"
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

// event is a scheduled callback, held by value in the queue.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among events at the same instant
	fn  func()
}

// before reports whether e fires before o.
func (e *event) before(o *event) bool {
	return e.at < o.at || e.at == o.at && e.seq < o.seq
}

// Scheduler owns a virtual clock and a pending-event queue.
// It is not safe for concurrent use; the simulation is single-threaded by
// design (determinism), with parallelism available across independent
// simulations instead.
//
// The queue is a 4-ary min-heap of event values ordered by (at, seq):
// scheduling and firing an event allocate nothing once the heap's array
// has grown to the run's largest backlog, and a node's four children
// share a cache line or two, so a pop compares more and misses less
// than a binary heap of pointers.
type Scheduler struct {
	now     Time
	seq     uint64
	queue   []event
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
	s.push(event{at: t, seq: s.seq, fn: fn})
	s.seq++
}

// push adds ev to the heap, sifting it up from the end.
func (s *Scheduler) push(ev event) {
	q := append(s.queue, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(&q[p]) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	s.queue = q
}

// pop removes and returns the earliest event, sifting the last one down
// from the root. The vacated slot is cleared so the heap's spare
// capacity keeps no callback alive.
func (s *Scheduler) pop() event {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{}
	q = q[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for j := c + 1; j < c+4 && j < n; j++ {
				if q[j].before(&q[m]) {
					m = j
				}
			}
			if !q[m].before(&last) {
				break
			}
			q[i] = q[m]
			i = m
		}
		q[i] = last
	}
	s.queue = q
	return top
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
	ev := s.pop()
	s.now = ev.at
	s.fired++
	ev.fn()
	return true
}

// RunUntil executes events in order until the queue drains, Stop is
// called, the next event lies beyond t, or ctx is done. The clock
// finishes at t (or where the run stopped) so that subsequent
// scheduling is relative to the horizon. It returns ctx's error if ctx
// ended the run. It looks at ctx every doneEvery events, so a
// simulation needs no periodic event of its own to be cancellable.
func (s *Scheduler) RunUntil(ctx context.Context, t Time) error {
	done := ctx.Done()
	s.stopped = false
	for n := 1; !s.stopped && s.step(t); n++ {
		if n%doneEvery == 0 && done != nil {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
		}
	}
	if !s.stopped && s.now < t {
		s.now = t
	}
	return nil
}

// doneEvery is how many events RunUntil fires between two looks at its
// context: a few microseconds of a dense run, and nothing of an idle
// stretch, which fires no event.
const doneEvery = 1024

// Every schedules fn to run now+d, then every d thereafter, for as long
// as the scheduler runs. fn receives the firing time. Its one tick
// closure re-arms itself, so a period costs no allocation.
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
