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

// liveBlockSize is the size of the blocks a live batch writes its frames
// into: batchSize frames of 512 bytes. The frames of a simulated capture
// average ~260 bytes and 87 % are at most 512, so a batch of ordinary
// traffic fills one block, and a queue at rest holds a block a batch. A
// frame larger than a block gets a buffer of its own.
const liveBlockSize = batchSize * 512

// frameItem is one frame in flight between the source and the pipeline.
type frameItem struct {
	t    simtime.Time
	data []byte
}

// frameBatch is what the queue hands over: up to the queue's batch size
// of frames, in capture order. A live batch also owns its frames' bytes:
// Mirror writes them back to back into blocks that travel with the
// batch, so what the queue holds follows what is queued, not the largest
// frame it ever saw. An offline batch carries its source's frames and
// owns no blocks.
type frameBatch struct {
	items []frameItem
	// This fill has written blocks[:used], the last of them up to off.
	blocks    [][]byte
	used, off int
}

// frame returns n bytes of b's memory for one frame, valid until b is
// recycled: the rest of the current block, the next block, or for a
// frame larger than a block a buffer of its own.
func (b *frameBatch) frame(n int) []byte {
	if n > liveBlockSize {
		return make([]byte, n)
	}
	if b.used == 0 || b.off+n > liveBlockSize {
		if b.used == len(b.blocks) {
			b.blocks = append(b.blocks, make([]byte, liveBlockSize))
		}
		b.used++
		b.off = 0
	}
	f := b.blocks[b.used-1][b.off : b.off+n : b.off+n]
	b.off += n
	return f
}

// frameQueue is that queue, with its source's overflow policy, and the
// capture's ledger. Offline frames wait for room (Session.produce): a
// replay must lose nothing, and the simulator models its own kernel
// buffer. Live ones (LiveSource.Mirror) never wait: with no room they are
// dropped and counted, as the capture machine's kernel buffer drops the
// frames of the paper's Figure 2.
type frameQueue struct {
	batches chan *frameBatch // full batches, in capture order
	free    chan *frameBatch // consumed batches, back to the filling side
	size    int              // frames per batch
	live    bool
	done    chan struct{} // closed by shut
	ledger  pcap.Ledger   // every frame offered to the capture, counted once

	// open is the batch being filled: a live queue's is under mu until
	// shut, an offline one's belongs to the producer goroutine.
	mu     sync.Mutex
	open   *frameBatch
	closed bool
	start  time.Time // a live queue's clock starts at the first Mirror
}

// newFrameQueue returns a queue of frames capacity (at least 1).
func newFrameQueue(frames int, live bool) *frameQueue {
	size := min(batchSize, frames)
	depth := (frames + size - 1) / size
	q := &frameQueue{
		batches: make(chan *frameBatch, depth-1),
		free:    make(chan *frameBatch, depth+1), // every batch: depth-1 queued, the open one, the consumer's
		size:    size,
		live:    live,
		done:    make(chan struct{}),
	}
	q.open = q.getBatch()
	return q
}

// flush hands the open batch over, waiting for room.
func (q *frameQueue) flush(ctx context.Context) error {
	if len(q.open.items) == 0 {
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

func (q *frameQueue) getBatch() *frameBatch {
	select {
	case b := <-q.free:
		return b
	default:
		return &frameBatch{items: make([]frameItem, 0, q.size)}
	}
}

// recycle returns a consumed batch to the filling side. Its frames are
// cleared, so stale pointers pin neither an offline source's buffers nor
// a large live frame's own; of its blocks it keeps those its last fill
// used, so a burst of large frames is let go by the next ordinary fill.
func (q *frameQueue) recycle(b *frameBatch) {
	clear(b.items)
	b.items = b.items[:0]
	clear(b.blocks[b.used:])
	b.blocks = b.blocks[:b.used]
	b.used, b.off = 0, 0
	select {
	case q.free <- b:
	default:
	}
}
