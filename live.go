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
// simulator and pcap replay. The frame's UDP checksum is 0, "no
// checksum" (RFC 768): the datagram is the process's own, so a sum
// would check nothing, and a pcap tee of the capture carries it so.
//
// Mirror writes each frame once, straight into the Session's queue,
// which the source owns from NewLiveSource on (so frames mirrored before
// Run wait there) and which plays the capture machine's kernel buffer: a
// frame that does not fit is dropped and counted, like libpcap's ps_drop
// behind the paper's Figure 2. The frame's bytes belong to its batch
// (see frameBatch), so the queue holds about the bytes queued. The
// Session finds the queue on the source itself: give it the LiveSource
// unwrapped.
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
// dropped and counted as a capture loss; so is a message larger than
// any UDP datagram can carry (pcap.Oversize), for which no frame is
// built. Safe for concurrent use; one lock stamps and queues a frame,
// so frames queue in timestamp order.
func (l *LiveSource) Mirror(srcIP, dstIP uint32, payload []byte) {
	q := l.q
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.start.IsZero() {
		q.start = time.Now()
	}
	// Whole microseconds, as the pcap tee keeps them: a finer stamp could
	// print a record's millisecond t one higher live than replayed.
	t := simtime.Time(time.Since(q.start).Truncate(time.Microsecond))
	sec := int(t / simtime.Second)
	switch {
	case q.closed:
		q.ledger.Drop(sec, pcap.Closed)
		return
	case len(payload) > netsim.MaxUDPPayload:
		q.ledger.Drop(sec, pcap.Oversize)
		return
	}
	if len(q.open.items) == q.size {
		select {
		case q.batches <- q.open:
			q.open = q.getBatch()
		default:
			q.ledger.Drop(sec, pcap.QueueFull)
			return
		}
	}
	b := q.open
	frame := b.frame(netsim.UDPFrameHeaderLen + len(payload))
	b.items = append(b.items, frameItem{t,
		netsim.AppendUDPFrameNoChecksum(frame[:0], srcIP, dstIP, liveClientPort, liveServerPort, payload)})
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
