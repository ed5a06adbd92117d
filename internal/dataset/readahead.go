package dataset

import "io"

// The read-ahead ring: readAheadDepth blocks of readAheadBlock bytes, so a
// reader holds 512 KiB of chunk text whatever size the dataset's chunks
// are.
//
// Measured on a 2-vCPU box, go1.24, one ForEach pass with an empty
// callback over 491k records in 33 gzip chunks (138 MB of XML, from
// `edsim -clients 3000 -files 12000 -weeks 0.006 -seed 3 -gz`), median
// of seven, ms per pass as block × depth: 16K×4 734, 32K×4 712, 64K×4
// 494, 128K×2 618, 128K×4 422, 128K×8 461, 512K×4 445, and 4M×2 — whole
// chunks — 733. Small blocks pay a hand-over per 16 or 32 KiB; two blocks
// leave the producer waiting at every swap; chunk-sized blocks fall out
// of the cache. Decode and inflate are near balance: on what the same
// command writes today (454k records in 27 chunks, 110 MB of XML) the
// XML decoder alone takes ~245 ms on the consumer's goroutine and gunzip
// alone ~275 ms (≈ 400 MB/s) on the producer's, and a pass ~330 ms
// (medians of six runs, each the median of seven; single runs moved
// ±15 %). More depth buys nothing, and a wider producer little. (With
// compress/gzip, which inflated at ≈ 210 MB/s, the pass took 625 ms at
// 128K×4 and was bound by inflate.)
// gunzip.Read copies out of its window into the ring instead of decoding
// into the ring's blocks: both copies of a pass, that one and the
// decoder's out of the ring, are 3 % of its CPU, and the first lands on
// the producer, which has time to spare.
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
