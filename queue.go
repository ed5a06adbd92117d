package edtrace

import (
	"context"
	"sync"
	"time"

	"edtrace/internal/pcap"
	"edtrace/internal/simtime"
)

// The queue between a source and the pipeline holds queueFrames frames,
// the batch being filled included, handed over batchSize at a time: one
// channel operation a batch keeps the hand-over out of the per-frame cost
// (BenchmarkSessionPipeline against BenchmarkPipeline). With the
// consumer's batch, at most queueFrames + batchSize frames are in flight.
const (
	queueFrames = 4096
	batchSize   = 128
)

// frameItem is one frame in flight between the source and the pipeline.
type frameItem struct {
	t    simtime.Time
	data []byte
}

// frameQueue is that queue, with its source's overflow policy, and the
// capture's ledger. Offline frames wait for room (Session.produce): a
// replay must lose nothing, and the simulator models its own kernel
// buffer. Live ones (LiveSource.Mirror) never wait: with no room they are
// dropped and counted, as the capture machine's kernel buffer drops the
// frames of the paper's Figure 2.
type frameQueue struct {
	batches chan []frameItem // full batches, in capture order
	free    chan []frameItem // consumed batches, back to the filling side
	size    int              // frames per batch
	live    bool
	done    chan struct{} // closed by shut
	ledger  pcap.Ledger   // every frame offered to the capture, counted once

	// open is the batch being filled: a live queue's is under mu until
	// shut, an offline one's belongs to the producer goroutine.
	mu     sync.Mutex
	open   []frameItem
	closed bool
	start  time.Time // a live queue's clock starts at the first Mirror
}

// newFrameQueue returns a queue of frames capacity (at least 1).
func newFrameQueue(frames int, live bool) *frameQueue {
	size := min(batchSize, frames)
	depth := (frames + size - 1) / size
	return &frameQueue{
		batches: make(chan []frameItem, depth-1),
		free:    make(chan []frameItem, depth+1), // every batch: depth-1 queued, the open one, the consumer's
		size:    size,
		live:    live,
		done:    make(chan struct{}),
		open:    make([]frameItem, 0, size),
	}
}

// flush hands the open batch over, waiting for room.
func (q *frameQueue) flush(ctx context.Context) error {
	if len(q.open) == 0 {
		return nil
	}
	select {
	case q.batches <- q.open:
		q.open = q.getBatch()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// shut ends the filling side: later frames are dropped as late, and the
// open batch is the producer's to flush or drop.
func (q *frameQueue) shut() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.done)
	}
}

func (q *frameQueue) getBatch() []frameItem {
	select {
	case b := <-q.free:
		return b
	default:
		return make([]frameItem, 0, q.size)
	}
}

// recycle returns a consumed batch to the filling side. A live batch
// keeps its slots' buffers for Mirror to encode into; an offline one is
// cleared, so stale frame pointers don't pin the source's buffers.
func (q *frameQueue) recycle(b []frameItem) {
	if !q.live {
		clear(b)
	}
	select {
	case q.free <- b[:0]:
	default:
	}
}
