package simtime

import (
	"context"
	"testing"
	"time"
)

func TestCompressorMapping(t *testing.T) {
	start := time.Unix(1000, 0)
	now := start
	c := newCompressorAt(10080, func() time.Time { return now }, start)

	if got := c.WallDelay(Week); got != time.Minute {
		t.Fatalf("week at 10080x = %v wall, want 1m", got)
	}
	if got := c.WallAt(Day); !got.Equal(start.Add(time.Minute / 7)) {
		t.Fatalf("WallAt(day) = %v", got)
	}

	now = start.Add(30 * time.Second)
	if got := c.Behind(Day); got <= 0 {
		t.Fatalf("day 1 should be overdue at wall +30s, Behind = %v", got)
	}
	if got := c.Behind(6 * Day); got >= 0 {
		t.Fatalf("day 6 should still be ahead, Behind = %v", got)
	}
}

func TestCompressorFactorFloor(t *testing.T) {
	for _, f := range []float64{0, -3} {
		c := NewCompressor(f)
		if c.Factor() != 1 {
			t.Fatalf("factor %v should clamp to 1, got %v", f, c.Factor())
		}
	}
}

func TestCompressorWaitOverdueReturnsImmediately(t *testing.T) {
	start := time.Unix(0, 0)
	c := newCompressorAt(1, func() time.Time { return start.Add(time.Hour) }, start)
	done := make(chan error, 1)
	go func() { done <- c.Wait(context.Background(), Minute) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Wait on overdue instant: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait blocked on an overdue instant")
	}
}

func TestCompressorWaitHonoursContext(t *testing.T) {
	c := NewCompressor(1) // real time: an hour-out instant would block
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Wait(ctx, Hour) }()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled Wait should return the context error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Wait ignored context cancellation")
	}
}

func TestCompressorWaitPaces(t *testing.T) {
	// 1 simulated second at 10x must take ~100ms of wall clock.
	c := NewCompressor(10)
	t0 := time.Now()
	if err := c.Wait(context.Background(), Second); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(t0); el < 50*time.Millisecond {
		t.Fatalf("Wait returned after %v, want ~100ms", el)
	}
}
