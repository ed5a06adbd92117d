package edtrace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"edtrace/internal/core"
	"edtrace/internal/netsim"
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
// Internally a bounded queue plays the role of the kernel capture
// buffer: when the pipeline falls behind and the queue fills, further
// datagrams are dropped and counted, exactly like libpcap's ps_drop
// statistic behind the paper's Figure 2.
type LiveSource struct {
	queue chan frameItem
	free  chan []byte
	done  chan struct{}

	startOnce sync.Once
	closeOnce sync.Once
	start     time.Time

	captured atomic.Uint64
	dropped  atomic.Uint64
}

// NewLiveSource returns a live source with a queue of queueFrames
// datagrams (<= 0 means the 4096 default).
func NewLiveSource(queueFrames int) *LiveSource {
	if queueFrames <= 0 {
		queueFrames = 4096
	}
	return &LiveSource{
		queue: make(chan frameItem, queueFrames),
		// The freelist covers the queue plus the frames in flight inside
		// the session (queued and in-process batches); overflow or
		// underflow just means one allocation, never a stall or a leak.
		free: make(chan []byte, 2*queueFrames),
		done: make(chan struct{}),
	}
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
// when the queue is full the datagram is dropped and counted as a
// capture loss. Safe for concurrent use.
func (l *LiveSource) Mirror(srcIP, dstIP uint32, payload []byte) {
	l.startOnce.Do(func() { l.start = time.Now() })
	now := simtime.Time(time.Since(l.start))
	// Encode the whole ethernet/IP/UDP frame into a recycled buffer in
	// one pass; the session hands the buffer back via releaseFrame after
	// the pipeline's last use of it.
	var buf []byte
	select {
	case buf = <-l.free:
	default:
	}
	frame := netsim.AppendUDPFrame(buf[:0], srcIP, dstIP, liveClientPort, liveServerPort, payload)
	select {
	case l.queue <- frameItem{t: now, data: frame}:
		l.captured.Add(1)
	default:
		l.dropped.Add(1)
		l.releaseFrame(frame)
	}
}

// releaseFrame returns a frame buffer to the Mirror freelist; the
// session calls it (via the frameReleaser interface) once the pipeline
// is done with the frame.
func (l *LiveSource) releaseFrame(b []byte) {
	if cap(b) == 0 {
		return
	}
	select {
	case l.free <- b:
	default:
	}
}

// sharesProcess marks the source as in-process (see processSharer).
func (l *LiveSource) sharesProcess() {}

// Close ends the capture: Frames drains whatever is queued and returns.
// Mirror calls after Close are still counted but may be lost.
func (l *LiveSource) Close() {
	l.closeOnce.Do(func() { close(l.done) })
}

// Frames implements Source: it forwards mirrored datagrams until Close
// is called (then drains the queue) or ctx is cancelled.
//
// Concurrent Mirror calls read the clock before they queue, so frames can
// arrive slightly out of timestamp order; this single consumer clamps
// them monotone so the dataset's ordering invariant holds.
func (l *LiveSource) Frames(ctx context.Context, emit EmitFunc) error {
	var last simtime.Time
	forward := func(f frameItem) error {
		if f.t < last {
			f.t = last
		}
		last = f.t
		return emit(f.t, f.data)
	}
	for {
		select {
		case f := <-l.queue:
			if err := forward(f); err != nil {
				return err
			}
		case <-l.done:
			for {
				select {
				case f := <-l.queue:
					if err := forward(f); err != nil {
						return err
					}
				default:
					return nil
				}
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func (l *LiveSource) reportCapture(rep *core.Report) {
	rep.EthernetCaptured = l.captured.Load()
	rep.EthernetDropped = l.dropped.Load()
	if !l.start.IsZero() {
		rep.VirtualDuration = simtime.Time(time.Since(l.start))
	}
}
