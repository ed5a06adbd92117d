package simtime

import (
	"context"
	"fmt"
	"time"
)

// Compressor maps the simulated clock onto the wall clock at a fixed
// compression factor, so long simulated schedules replay against live
// daemons in bounded wall time: factor 1 is real time, factor 10080
// replays a simulated week per wall-clock minute.
//
// The mapping is anchored at a start instant taken when the Compressor
// is created. Compression affects *pacing only* — which wall instant a
// simulated instant is due at — never the simulated timeline itself, so
// an event stream replayed at different factors stays byte-identical.
type Compressor struct {
	factor float64
	start  time.Time
	nowFn  func() time.Time
}

// NewCompressor anchors a sim→wall mapping at the current wall instant.
// Factors <= 0 are treated as 1 (real time).
func NewCompressor(factor float64) *Compressor {
	return newCompressorAt(factor, time.Now, time.Now())
}

// newCompressorAt is the injectable constructor used by tests.
func newCompressorAt(factor float64, nowFn func() time.Time, start time.Time) *Compressor {
	if factor <= 0 {
		factor = 1
	}
	return &Compressor{factor: factor, start: start, nowFn: nowFn}
}

// Factor returns the effective compression factor.
func (c *Compressor) Factor() float64 { return c.factor }

// WallDelay converts a simulated span to its wall-clock duration.
func (c *Compressor) WallDelay(d Time) time.Duration {
	return time.Duration(float64(d) / c.factor)
}

// WallAt returns the wall instant a simulated instant is due at.
func (c *Compressor) WallAt(t Time) time.Time {
	return c.start.Add(c.WallDelay(t))
}

// Behind reports how far the replay lags the schedule: the wall time
// elapsed past t's due instant (<= 0 when t is still in the future).
// A persistently growing Behind means the chosen factor outruns what
// the system under test can absorb.
func (c *Compressor) Behind(t Time) time.Duration {
	return c.nowFn().Sub(c.WallAt(t))
}

// Wait sleeps until the simulated instant t is due, or until the
// context is cancelled. It returns immediately (nil) when t is already
// due — a replay that has fallen behind never sleeps, it catches up.
func (c *Compressor) Wait(ctx context.Context, t Time) error {
	d := c.WallAt(t).Sub(c.nowFn())
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// String describes the mapping ("10080x: 1w sim ≙ 1m0s wall").
func (c *Compressor) String() string {
	return fmt.Sprintf("%gx: %v sim ≙ %v wall", c.factor, Week, c.WallDelay(Week))
}
