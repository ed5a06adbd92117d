package pcap

import (
	"sync"
	"sync/atomic"

	"edtrace/internal/simtime"
)

// KernelBuffer models the bounded buffer between the capturing kernel and
// the user-space decoder. The tap produces frames into it; the pipeline
// consumes them at its service rate. When a burst fills the byte budget,
// further frames are dropped and counted in the capture's Ledger as
// QueueFull, exactly like libpcap's ps_drop statistic that the paper
// reads its Figure 2 from. The frames it stores are counted by whoever
// consumes them.
//
// Only the simulator uses it, from its single event loop (a live capture
// queues frames in the Session's own batch queue).
type KernelBuffer struct {
	capBytes int
	used     int
	queue    []Record // queue[head:] waits, oldest first
	head     int
	out      []Record // what Consume returns, reused
	drops    *Ledger
}

// NewKernelBuffer returns a buffer with the given byte budget, the knob
// the paper could not enlarge on the shared capture machine. Overflow is
// counted in drops, by virtual second (nil: not counted).
func NewKernelBuffer(capBytes int, drops *Ledger) *KernelBuffer {
	if capBytes <= 0 {
		panic("pcap: kernel buffer needs a positive byte budget")
	}
	return &KernelBuffer{capBytes: capBytes, drops: drops}
}

// Produce offers one frame at virtual time now. It reports whether the
// frame was stored; false means the buffer was full and the frame lost.
func (k *KernelBuffer) Produce(now simtime.Time, frame []byte) bool {
	if k.used+len(frame) > k.capBytes {
		if k.drops != nil {
			k.drops.Drop(int(now/simtime.Second), QueueFull)
		}
		return false
	}
	k.queue = append(k.queue, RecordAt(now, frame))
	k.used += len(frame)
	return true
}

// Len reports how many frames wait in the buffer.
func (k *KernelBuffer) Len() int { return len(k.queue) - k.head }

// Consume removes up to max frames (every frame when max <= 0) and
// returns them oldest first, in a slice the buffer reuses: it is valid
// until the next Consume. It returns nil when the buffer is empty.
//
// The queue keeps its array across polls: taken slots are cleared, the
// rest moves to the front once the taken part is half of it, and an
// emptied queue starts again at its first slot.
func (k *KernelBuffer) Consume(max int) []Record {
	n := k.Len()
	if n == 0 {
		return nil
	}
	if max > 0 && n > max {
		n = max
	}
	taken := k.queue[k.head : k.head+n]
	k.out = append(k.out[:0], taken...)
	for _, r := range taken {
		k.used -= len(r.Data)
	}
	clear(taken)
	k.head += n
	if 2*k.head >= len(k.queue) {
		m := copy(k.queue, k.queue[k.head:])
		clear(k.queue[k.head:]) // the moved records' old slots; m <= head
		k.queue, k.head = k.queue[:m], 0
	}
	return k.out
}

// SecondStats aggregates one second of capture activity.
type SecondStats struct {
	Captured uint64
	Dropped  uint64
}

// Reason is why a frame offered to a capture was not processed.
type Reason uint8

const (
	// QueueFull: the buffer between the tap and the decoder had no room
	// (libpcap's ps_drop).
	QueueFull Reason = iota
	// Closed: the frame was offered after the capture was closed.
	Closed
	// Aborted: the frame was in flight when the run failed or was
	// cancelled.
	Aborted
	// Oversize: the message offered is larger than any UDP datagram can
	// carry (netsim.MaxUDPPayload), so no frame holds it.
	Oversize
	// NumReasons counts the reasons above.
	NumReasons
)

var reasonNames = [NumReasons]string{"queue_full", "closed", "aborted", "oversize"}

// String returns the reason's metric label value.
func (r Reason) String() string { return reasonNames[r] }

// Ledger is a capture's one account of the frames offered to it: each is
// counted once, as captured (processed by the decoder) or as dropped for
// one Reason, in totals and in a per-second series, Figure 2's data. Each
// event is counted by the component that owns it, in the second its own
// clock places it in.
//
// Captured frames have a single writer, the goroutine that processes
// them, so counting one takes no lock. Drops come from the tap side and
// from the error paths, so they take one. The totals are safe to read at
// any time; Seconds and Account belong to the capturing goroutine (or to
// whoever runs after it).
type Ledger struct {
	captured    atomic.Uint64
	dropped     [NumReasons]atomic.Uint64
	capturedPer []uint64

	mu         sync.Mutex
	droppedPer []uint64
}

// at returns second sec of *per, extending it with empty seconds.
func at(per *[]uint64, sec int) *uint64 {
	if n := sec + 1 - len(*per); n > 0 {
		*per = append(*per, make([]uint64, n)...)
	}
	return &(*per)[sec]
}

// Capture counts one processed frame in second sec.
func (l *Ledger) Capture(sec int) {
	*at(&l.capturedPer, sec)++
	l.captured.Add(1)
}

// Drop counts one frame dropped for reason r in second sec. Safe for
// concurrent use.
func (l *Ledger) Drop(sec int, r Reason) {
	l.mu.Lock()
	defer l.mu.Unlock()
	*at(&l.droppedPer, sec)++
	l.dropped[r].Add(1)
}

// Captured returns the frames processed so far.
func (l *Ledger) Captured() uint64 { return l.captured.Load() }

// Dropped returns the frames dropped so far for reason r.
func (l *Ledger) Dropped(r Reason) uint64 { return l.dropped[r].Load() }

// Seconds returns the length of the series of captured frames.
func (l *Ledger) Seconds() int { return len(l.capturedPer) }

// Account returns the per-second series with its totals, which agree
// with it however many frames are dropped meanwhile.
func (l *Ledger) Account() (per []SecondStats, captured, dropped uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	per = make([]SecondStats, max(len(l.capturedPer), len(l.droppedPer)))
	for sec, n := range l.capturedPer {
		per[sec].Captured = n
	}
	for sec, n := range l.droppedPer {
		per[sec].Dropped = n
	}
	for r := range l.dropped {
		dropped += l.dropped[r].Load()
	}
	return per, l.captured.Load(), dropped
}
