package pcap

import (
	"sync"

	"edtrace/internal/simtime"
)

// KernelBuffer models the bounded buffer between the capturing kernel and
// the user-space decoder. The tap produces frames into it; the pipeline
// consumes them at its service rate. When a burst fills the byte budget,
// further frames are dropped and counted, exactly like libpcap's
// ps_drop statistic that the paper reads its Figure 2 from.
//
// Only the simulator uses it: every call comes from its single event
// loop (a live capture queues frames in the Session's own batch queue).
type KernelBuffer struct {
	mu       sync.Mutex
	capBytes int
	used     int
	queue    []Record

	captured uint64
	dropped  uint64

	// Per-second series, indexed by virtual second since start.
	perSecond []SecondStats
}

// SecondStats aggregates one virtual second of capture activity.
type SecondStats struct {
	Captured uint64
	Dropped  uint64
}

// NewKernelBuffer returns a buffer with the given byte budget, the knob
// the paper could not enlarge on the shared capture machine.
func NewKernelBuffer(capBytes int) *KernelBuffer {
	if capBytes <= 0 {
		panic("pcap: kernel buffer needs a positive byte budget")
	}
	return &KernelBuffer{capBytes: capBytes}
}

// AtSecond returns second sec of the per-second series *per, extending
// the series with empty seconds up to it.
func AtSecond(per *[]SecondStats, sec int) *SecondStats {
	if n := sec + 1 - len(*per); n > 0 {
		*per = append(*per, make([]SecondStats, n)...)
	}
	return &(*per)[sec]
}

func (k *KernelBuffer) second(now simtime.Time) *SecondStats {
	return AtSecond(&k.perSecond, int(now/simtime.Second))
}

// Produce offers one frame at virtual time now. It reports whether the
// frame was stored; false means the buffer was full and the frame lost.
func (k *KernelBuffer) Produce(now simtime.Time, frame []byte) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	sec := k.second(now)
	if k.used+len(frame) > k.capBytes {
		k.dropped++
		sec.Dropped++
		return false
	}
	k.queue = append(k.queue, RecordAt(now, frame))
	k.used += len(frame)
	k.captured++
	sec.Captured++
	return true
}

// Consume removes and returns up to max frames. It returns nil when the
// buffer is empty.
func (k *KernelBuffer) Consume(max int) []Record {
	k.mu.Lock()
	defer k.mu.Unlock()
	if len(k.queue) == 0 {
		return nil
	}
	n := len(k.queue)
	if max > 0 && n > max {
		n = max
	}
	out := make([]Record, n)
	copy(out, k.queue[:n])
	for _, r := range out {
		k.used -= len(r.Data)
	}
	k.queue = k.queue[n:]
	if len(k.queue) == 0 {
		k.queue = nil // let the backing array go
	}
	return out
}

// Len reports queued frames; Used reports queued bytes.
func (k *KernelBuffer) Len() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return len(k.queue)
}

// Used reports the occupied byte budget.
func (k *KernelBuffer) Used() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.used
}

// Captured returns total frames stored since start.
func (k *KernelBuffer) Captured() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.captured
}

// Dropped returns total frames lost to overflow since start.
func (k *KernelBuffer) Dropped() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.dropped
}

// PerSecond returns a copy of the per-second capture/loss series —
// the data behind Figure 2.
func (k *KernelBuffer) PerSecond() []SecondStats {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]SecondStats, len(k.perSecond))
	copy(out, k.perSecond)
	return out
}

// Tap adapts a KernelBuffer to the netsim.Tap interface: every mirrored
// frame is offered to the buffer.
type Tap struct {
	Buf *KernelBuffer
}

// Frame implements netsim.Tap.
func (t Tap) Frame(now simtime.Time, frame []byte) {
	t.Buf.Produce(now, frame)
}
