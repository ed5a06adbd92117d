package edtrace

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"edtrace/internal/netsim"
	"edtrace/internal/pcap"
	"edtrace/internal/simtime"
)

// LiveSource captures real UDP traffic — the "active measurements from
// clients" the paper's conclusion proposes. The application mirrors
// every datagram its server socket receives or sends into Mirror (the
// software equivalent of the port mirror feeding the paper's capture
// machine); the source wraps each datagram in a synthetic ethernet/IP/UDP
// frame so the decoding pipeline runs the identical code path as the
// simulator and pcap replay.
//
// Mirror writes each frame straight into the Session's queue, which the
// source owns from NewLiveSource on (so frames mirrored before Run wait
// there) and which plays the capture machine's kernel buffer: a frame
// that does not fit is dropped and counted, like libpcap's ps_drop behind
// the paper's Figure 2. The Session finds the queue on the source itself:
// give it the LiveSource unwrapped.
type LiveSource struct {
	q   *frameQueue
	ran atomic.Bool
}

// NewLiveSource returns a live source whose queue holds capacity
// datagrams (<= 0: the Session's own capacity, 4096).
func NewLiveSource(capacity int) *LiveSource {
	if capacity <= 0 {
		capacity = queueFrames
	}
	return &LiveSource{q: newFrameQueue(capacity, true)}
}

// synthetic UDP ports used when wrapping mirrored datagrams in frames;
// the pipeline classifies direction by IP address, not port.
const (
	liveClientPort = 4672
	liveServerPort = 4665
)

// Mirror offers one captured datagram to the source: srcIP and dstIP
// identify the dialog (edserverd.AddrKey derives them from real
// addresses), payload is the raw eDonkey message. Mirror never blocks:
// when the queue is full, or the source is closed, the datagram is
// dropped and counted as a capture loss. Safe for concurrent use; one
// lock stamps and queues a frame, so frames queue in timestamp order.
func (l *LiveSource) Mirror(srcIP, dstIP uint32, payload []byte) {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.start.IsZero() {
		q.start = time.Now()
	}
	t := simtime.Time(time.Since(q.start))
	if q.closed {
		q.ledger.Drop(int(t/simtime.Second), pcap.Closed)
		return
	}
	if len(q.open) == q.size {
		select {
		case q.batches <- q.open:
			q.open = q.getBatch()
		default:
			q.ledger.Drop(int(t/simtime.Second), pcap.QueueFull)
			return
		}
	}
	n := len(q.open)
	q.open = q.open[:n+1]
	f := &q.open[n]
	f.t = t
	f.data = netsim.AppendUDPFrame(f.data[:0], srcIP, dstIP, liveClientPort, liveServerPort, payload)
}

// Close ends the capture: the Session processes what is queued and
// returns. A datagram mirrored after Close is dropped and counted.
func (l *LiveSource) Close() { l.q.shut() }

// Frames implements Source. The frames reach the Session through the
// queue, not emit: Frames only waits for Close (nil) or ctx (its error).
func (l *LiveSource) Frames(ctx context.Context, _ EmitFunc) error {
	select {
	case <-l.q.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// liveQueue hands the queue to the one Session that drains it.
func (l *LiveSource) liveQueue() (*frameQueue, error) {
	if l.ran.Swap(true) {
		return nil, errors.New("edtrace: LiveSource already ran")
	}
	return l.q, nil
}
