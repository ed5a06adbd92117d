package simtime

import (
	"context"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := NewScheduler()
	var got []Time
	for _, at := range []Time{5 * Second, 1 * Second, 3 * Second, 2 * Second} {
		at := at
		s.At(at, func() { got = append(got, s.Now()) })
	}
	s.RunUntil(context.Background(), Minute)
	if len(got) != 4 {
		t.Fatalf("fired %d events, want 4", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) || got[3] != 5*Second {
		t.Fatalf("events out of order: %v", got)
	}
}

func TestSameInstantFIFO(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Second, func() { order = append(order, i) })
	}
	s.RunUntil(context.Background(), Minute)
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestAfterIsRelative(t *testing.T) {
	s := NewScheduler()
	var at2 Time
	s.At(10*Second, func() {
		s.After(5*Second, func() { at2 = s.Now() })
	})
	s.RunUntil(context.Background(), Minute)
	if at2 != 15*Second {
		t.Fatalf("nested After fired at %v, want 15s", at2)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	s.At(1*Second, func() { fired = append(fired, s.Now()) })
	s.At(10*Second, func() { fired = append(fired, s.Now()) })
	s.RunUntil(context.Background(), 5*Second)
	if len(fired) != 1 || fired[0] != Second {
		t.Fatalf("fired = %v, want [1s]", fired)
	}
	if s.Now() != 5*Second {
		t.Fatalf("clock = %v, want horizon 5s", s.Now())
	}
	// The event beyond the horizon is still pending and fires later.
	s.RunUntil(context.Background(), 20*Second)
	if len(fired) != 2 || fired[1] != 10*Second {
		t.Fatalf("fired = %v, want second event at 10s", fired)
	}
}

func TestStopInsideEvent(t *testing.T) {
	s := NewScheduler()
	count := 0
	s.At(1*Second, func() { count++; s.Stop() })
	s.At(2*Second, func() { count++ })
	s.RunUntil(context.Background(), Minute)
	if count != 1 {
		t.Fatalf("count = %d, want 1 (Stop must halt the loop)", count)
	}
	// Running again resumes with the remaining event.
	s.RunUntil(context.Background(), Minute)
	if count != 2 {
		t.Fatalf("count = %d after resume, want 2", count)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10*Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(Second, func() {})
	})
	s.RunUntil(context.Background(), Minute)
}

func TestEveryPeriodic(t *testing.T) {
	s := NewScheduler()
	var ticks []Time
	s.Every(Second, func(now Time) { ticks = append(ticks, now) })
	s.RunUntil(context.Background(), 3*Second+Second/2)
	if len(ticks) != 3 {
		t.Fatalf("ticks = %v, want exactly 3", ticks)
	}
	for i, tk := range ticks {
		if want := Time(i+1) * Second; tk != want {
			t.Fatalf("tick %d at %v, want %v", i, tk, want)
		}
	}
}

// TestRunUntilCancels: RunUntil runs to the horizon while its context
// lives, and returns the context's error within doneEvery events of its
// cancellation, the clock left where it stopped.
func TestRunUntilCancels(t *testing.T) {
	s := NewScheduler()
	ticks := 0
	s.Every(Second, func(Time) { ticks++ })
	if err := s.RunUntil(context.Background(), 10*Second+Second/2); err != nil || ticks != 10 || s.Now() != 10*Second+Second/2 {
		t.Fatalf("err %v, %d ticks, clock %v; want nil, 10, 10.5s", err, ticks, s.Now())
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.At(s.Now()+Second, cancel)
	err := s.RunUntil(ctx, Week)
	if err != context.Canceled {
		t.Fatalf("err %v, want context.Canceled", err)
	}
	if ticks > 11+doneEvery || s.Now() >= Week {
		t.Fatalf("%d ticks, clock %v after cancelling at tick 11", ticks, s.Now())
	}
}

func TestQuickOrderingProperty(t *testing.T) {
	// Property: for any set of delays, execution order is the sorted order
	// (stable on ties by submission).
	f := func(delays []uint16) bool {
		s := NewScheduler()
		type rec struct {
			at  Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			i, at := i, Time(d)*Millisecond
			s.At(at, func() { got = append(got, rec{at, i}) })
		}
		s.RunUntil(context.Background(), Hour)
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i-1].at > got[i].at {
				return false
			}
			if got[i-1].at == got[i].at && got[i-1].seq > got[i].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFiredAndPendingCounters(t *testing.T) {
	s := NewScheduler()
	s.At(Second, func() {})
	s.At(2*Second, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	s.RunUntil(context.Background(), Minute)
	if s.Fired() != 2 || s.Pending() != 0 {
		t.Fatalf("Fired = %d Pending = %d, want 2/0", s.Fired(), s.Pending())
	}
}

func TestTimeHelpers(t *testing.T) {
	if (90 * Second).Seconds() != 90 {
		t.Fatalf("Seconds() = %v", (90 * Second).Seconds())
	}
	if Week != 7*24*3600*Second {
		t.Fatal("Week constant inconsistent")
	}
	if (2 * Second).String() != "2s" {
		t.Fatalf("String() = %q", (2 * Second).String())
	}
}

// BenchmarkScheduler measures the event core: "at-step" schedules one
// event and fires it, an op each, over a standing backlog of 1024
// events (a heap four levels deep); "every" runs 10⁴ periods of one
// Every, an op each. CI holds both at 0 allocs/op: a value heap whose
// array has grown allocates nothing, and a periodic event re-arms its
// one closure.
func BenchmarkScheduler(b *testing.B) {
	b.Run("at-step", func(b *testing.B) {
		s := NewScheduler()
		nop := func() {}
		for i := range 1024 {
			s.At(Week+Time(i), nop)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			t := s.Now() + Microsecond
			s.At(t, nop)
			s.RunUntil(context.Background(), t)
		}
		if s.Pending() != 1024 {
			b.Fatalf("%d events pending, want the 1024 of the backlog", s.Pending())
		}
	})
	b.Run("every", func(b *testing.B) {
		const periods = 10_000
		s := NewScheduler()
		ticks := 0
		s.Every(Millisecond, func(Time) { ticks++ })
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			s.RunUntil(context.Background(), s.Now()+periods*Millisecond)
		}
		if ticks != b.N*periods {
			b.Fatalf("%d ticks, want %d", ticks, b.N*periods)
		}
	})
}
