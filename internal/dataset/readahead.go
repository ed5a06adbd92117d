package dataset

import "io"

// The read-ahead ring: readAheadDepth blocks of readAheadBlock bytes, so a
// reader holds 512 KiB of chunk text whatever ChunkBytes the dataset was
// written with.
//
// Chosen on a 2-vCPU box, go1.24, one ForEach pass with an empty
// callback over 164k records in 14 gzip chunks (56 MB of XML), median of
// three, ms per pass as block × depth: 16K×4 285, 32K×4 221, 64K×4 222,
// 128K×2 228, 128K×4 214, 128K×8 230, 512K×4 225, and 4M×2 — whole
// chunks — 336. Anything from 32 KiB up hides the hand-over; two blocks
// leave the producer waiting at every swap; chunk-sized blocks fall out
// of the cache. The pass is bound by inflate (≈ 330 MB/s on that box),
// which runs on the one producer: more depth buys nothing, and the
// width is not GOMAXPROCS because there is nothing to widen.
const (
	readAheadBlock = 128 << 10
	readAheadDepth = 4
)

// readAhead reads a sequence of streams on a goroutine of its own, a
// bounded distance ahead of the goroutine that consumes them through
// Read: ForEach's inflate overlaps its decoding and its callback.
//
// The producer opens stream 0, 1, ... in turn and copies each into blocks
// of the ring; the last block of a stream carries what ended it. The
// consumer's Read returns that — io.EOF after a whole stream — until
// nextStream moves it on. After any other error, or stop, the producer
// returns.
type readAhead struct {
	full chan block    // filled blocks, in stream order; closed when the producer returns
	free chan []byte   // blocks for the producer to fill
	quit chan struct{} // closed by stop

	// The consumer's side.
	buf []byte // the block being read, handed back once used up
	cur []byte // its unread part
	err error  // what ended the stream being read, once cur is used up
}

type block struct {
	buf []byte // nil when the stream could not be opened
	n   int
	err error // non-nil on the last block of a stream
}

// startReadAhead starts the producer over the streams open(0) ...
// open(streams-1). open runs on the producer's goroutine. The caller must
// call stop.
func startReadAhead(streams int, open func(i int) (io.ReadCloser, error)) *readAhead {
	ra := &readAhead{
		full: make(chan block, readAheadDepth), // the whole ring may wait for the consumer
		free: make(chan []byte, readAheadDepth),
		quit: make(chan struct{}),
	}
	ring := make([]byte, readAheadDepth*readAheadBlock)
	for ; len(ring) > 0; ring = ring[readAheadBlock:] {
		ra.free <- ring[:readAheadBlock:readAheadBlock]
	}
	go func() {
		defer close(ra.full)
		for i := 0; i < streams; i++ {
			if !ra.produce(i, open) {
				return
			}
		}
	}()
	return ra
}

// produce copies stream i into the ring. It reports whether the stream
// ended at its io.EOF and the consumer still listens.
func (ra *readAhead) produce(i int, open func(i int) (io.ReadCloser, error)) bool {
	src, err := open(i)
	if err != nil {
		ra.send(block{err: err})
		return false
	}
	defer src.Close()
	for {
		var buf []byte
		select {
		case buf = <-ra.free:
		case <-ra.quit:
			return false
		}
		n := 0
		for n < len(buf) && err == nil {
			var m int
			m, err = src.Read(buf[n:])
			n += m
		}
		if !ra.send(block{buf, n, err}) {
			return false
		}
		if err != nil {
			return err == io.EOF
		}
	}
}

func (ra *readAhead) send(b block) bool {
	select {
	case ra.full <- b:
		return true
	case <-ra.quit:
		return false
	}
}

// Read reads from the current stream.
func (ra *readAhead) Read(p []byte) (int, error) {
	for len(ra.cur) == 0 {
		if ra.err != nil {
			return 0, ra.err
		}
		if ra.buf != nil {
			ra.free <- ra.buf // never blocks: the ring has room for every block
			ra.buf = nil
		}
		b, ok := <-ra.full
		if !ok {
			b.err = io.ErrUnexpectedEOF // read past the last stream, or past a failed one
		}
		ra.buf, ra.cur, ra.err = b.buf, b.buf[:b.n], b.err
	}
	n := copy(p, ra.cur)
	ra.cur = ra.cur[n:]
	return n, nil
}

// nextStream moves Read on from the end of one stream to the next.
func (ra *readAhead) nextStream() { ra.err = nil }

// stop ends the read-ahead: when it returns, the producer has returned
// and closed the stream it was reading.
func (ra *readAhead) stop() {
	close(ra.quit)
	for range ra.full {
	}
}
