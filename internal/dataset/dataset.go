// Package dataset stores anonymised capture records on disk the way the
// paper releases its data: a directory of XML chunk files (optionally
// gzip-compressed — §2.5 notes the format "once compressed, does not have
// a prohibitive space cost") plus a JSON manifest with global counters.
//
// Chunks rotate on a 4 MiB byte budget so ten-week captures never
// produce a single unwieldy file. A compressed chunk is one gzip member,
// written by the package's own deflater (deflate.go): matches looked for
// only after the quotes the grammar puts around every value, and each
// block coded the smallest of three ways. It deflates chunk text at about
// twice the speed of compress/flate's level 4, the writer's effort
// before, into fewer bytes (TestCompressionLevelRule holds the sizes);
// the effort is the writer's business alone, and readers take a member of
// any. The Writer streams a chunk through the deflater in 64 KiB
// segments as it fills, never holding one whole: it holds about 1 MiB
// whatever the budget, inline or with its one background compressor,
// and a member's bytes are the same however its text was segmented.
// Readers (ForEach, Verify) stream chunk by chunk with one record in
// memory at a time — the same xmlenc.Record, refilled for every callback,
// which runs on the caller's goroutine — while a goroutine owned by the
// call reads and inflates at most 512 KiB of chunk text ahead of it
// (readahead.go), whatever size the chunks are. They inflate with the
// package's own gunzip (gunzip.go), which reads one member, and nothing
// after it, at about twice compress/gzip's speed on chunk text.
// The format, the directory layout and the invariants Verify checks are
// specified in internal/xmlenc/spec.md.
package dataset

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"edtrace/internal/xmlenc"
)

// Manifest describes a stored dataset.
type Manifest struct {
	// Version of the chunk grammar (xmlenc spec).
	Version string `json:"version"`
	// Chunks lists chunk file names in record order.
	Chunks []string `json:"chunks"`
	// Records is the total record count across chunks.
	Records uint64 `json:"records"`
	// MaxT is the largest t of any record, as its chunk text carries it:
	// the capture's span, known before a record is read. Nil in a
	// manifest from a writer that did not record it.
	MaxT *float64 `json:"max_t,omitempty"`
	// DistinctClients and DistinctFiles are the anonymisation counters:
	// clientIDs and fileIDs are dense in [0, N).
	DistinctClients uint32 `json:"distinct_clients"`
	DistinctFiles   uint32 `json:"distinct_files"`
	// Meta carries free-form capture metadata (seed, scale, duration).
	Meta map[string]string `json:"meta,omitempty"`
}

const manifestName = "manifest.json"

// Writer writes a dataset directory.
//
// Write — called serially, from the session's record-sink goroutine —
// appends record lines to a segment of about segmentSize bytes. A full
// segment goes to the compressor, which creates a chunk's file at its
// first segment, deflates every segment into it as it comes, and ends
// the gzip member at the chunk's last, when the chunk reaches its byte
// budget. No chunk is ever held whole: the writer holds a segment or
// three, and the compressor one deflater — a window of the input, one
// block of tokens, a 64 KiB output buffer — about 1 MiB in all, whatever
// the budget.
//
// The compressor runs inside Write and Close, where a stall lasts one
// segment's deflate, or, with Background, on one goroutine of the
// writer's own fed through a bounded channel, where Write waits only
// while segmentsInFlight segments are queued. SealStats counts those
// stalls. Either way one compressor writes the chunks in record order,
// and a member's bytes depend on its chunk's text alone, not on where
// segments split it, so the directory's bytes are the same.
type Writer struct {
	dir        string
	chunkBytes int
	compress   bool
	meta       map[string]string

	seg     []byte // chunk text not yet handed to the compressor
	inChunk int    // bytes of the open chunk so far; 0 between chunks
	c       compressor
	segs    chan segment  // to the background compressor; nil inline
	free    chan []byte   // segments back from it, for reuse
	done    chan struct{} // closed when it has returned

	maxT   float64 // the largest finite t written, 0 before any
	seal   SealStats
	closed bool
	err    error // first error seen by Write or Close; sticky
	man    Manifest
}

// SealStats is what writing chunks has cost the goroutine that calls
// Write and Close: the time spent compressing inline, or waiting for the
// background compressor. A capture fed by a bounded queue loses frames
// while such a stall outlasts the queue.
type SealStats struct {
	Chunks uint64        // chunks sealed so far
	Total  time.Duration // spent compressing or waiting for the compressor, summed
	Max    time.Duration // the longest single stall
}

// WriterOptions configures a dataset writer.
type WriterOptions struct {
	// Compress gzips chunk files (.xml.gz).
	Compress bool
	// Background compresses and writes chunk files on one goroutine of
	// the writer's own; false does that work inside Write and Close. The
	// files written are the same either way. Write and Close must be
	// called from a single goroutine either way.
	Background bool
	// Meta is copied into the manifest and each chunk header.
	Meta map[string]string

	// chunkBytes, when positive, replaces defaultChunkBytes. Not a knob —
	// a field only so a test can cut a few records into several chunks.
	chunkBytes int
}

const (
	// defaultChunkBytes caps the encoded XML of one chunk, so a ten-week
	// capture is a directory of files of a readable size.
	defaultChunkBytes = 4 << 20
	// segmentSize is how much chunk text Write gathers before handing it
	// to the compressor; a segment is that plus one record, its buffer
	// room for a large one more.
	segmentSize = 64 << 10
	segmentCap  = segmentSize + 16<<10
	// segmentsInFlight is how many segments the writer and its
	// background compressor share.
	segmentsInFlight = 3
)

// segment is chunk text handed to the compressor, its chunk's last when
// last is set.
type segment struct {
	text []byte
	last bool
}

// compressor writes chunk files from their segments, in order, on one
// goroutine, and names them as the manifest does. After an error it
// takes nothing more.
type compressor struct {
	dir    string
	dfl    *deflater // nil when chunks are not compressed
	f      *os.File  // the open chunk's file
	chunks int       // chunk files created

	mu  sync.Mutex
	err error // the first error; read by the writer, written by the compressor
}

// NewWriter creates dir (if needed) and returns a writer. A manifest
// left there by an earlier dataset is removed first — until Close
// succeeds the directory must not read as a complete dataset — and so
// are that dataset's chunk files: one the new dataset does not overwrite
// (it is shorter, or has the other Compress setting) would stay behind,
// listed by no manifest and counted by every sum over the directory.
// Nothing else in dir is touched.
func NewWriter(dir string, opts WriterOptions) (*Writer, error) {
	if opts.chunkBytes <= 0 {
		opts.chunkBytes = defaultChunkBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !isChunkName(e.Name()) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
			return nil, fmt.Errorf("dataset: %w", err)
		}
	}
	w := &Writer{
		dir:        dir,
		chunkBytes: opts.chunkBytes,
		compress:   opts.Compress,
		meta:       opts.Meta,
		seg:        make([]byte, 0, segmentCap),
		c:          compressor{dir: dir},
	}
	w.man.Version = "1.0"
	w.man.Meta = opts.Meta
	if opts.Compress {
		w.c.dfl = new(deflater)
	}
	if opts.Background {
		// Either channel can hold every segment there is, so no send
		// blocks: the writer waits only to receive a free one.
		w.segs = make(chan segment, segmentsInFlight)
		w.free = make(chan []byte, segmentsInFlight)
		for range segmentsInFlight - 1 {
			w.free <- make([]byte, 0, segmentCap)
		}
		w.done = make(chan struct{})
		go w.background()
	}
	return w, nil
}

// chunkName is the file name of the i-th chunk of a dataset.
func chunkName(i int, compressed bool) string {
	name := fmt.Sprintf("chunk-%05d.xml", i)
	if compressed {
		name += ".gz"
	}
	return name
}

// isChunkName reports whether name is one chunkName gives.
func isChunkName(name string) bool {
	digits, ok := strings.CutPrefix(name, "chunk-")
	if !ok {
		return false
	}
	digits, _, _ = strings.Cut(digits, ".")
	n, err := strconv.Atoi(digits)
	return err == nil && n >= 0 && (name == chunkName(n, false) || name == chunkName(n, true))
}

// Write appends one record, rotating chunks on the byte budget. After a
// failure every Write returns that first error.
func (w *Writer) Write(rec *xmlenc.Record) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("dataset: write after Close")
	}
	if w.inChunk == 0 {
		w.beginChunk()
	}
	n := len(w.seg)
	w.seg = xmlenc.AppendRecord(w.seg, rec)
	w.inChunk += len(w.seg) - n
	w.man.Records++
	if rec.T > w.maxT && rec.T <= math.MaxFloat64 {
		w.maxT = rec.T
	}
	if w.inChunk >= w.chunkBytes {
		w.err = w.handOff(true)
	} else if len(w.seg) >= segmentSize {
		w.err = w.handOff(false)
	}
	return w.err
}

// beginChunk starts the next chunk: it assigns the file name (recorded
// in manifest order) and appends the header to the segment, which the
// last chunk's seal left empty.
func (w *Writer) beginChunk() {
	n := len(w.man.Chunks)
	w.man.Chunks = append(w.man.Chunks, chunkName(n, w.compress))
	meta := map[string]string{"chunk": strconv.Itoa(n)}
	for k, v := range w.meta {
		meta[k] = v
	}
	w.seg = xmlenc.AppendHeader(w.seg, meta)
	w.inChunk = len(w.seg)
}

// handOff gives the segment to the compressor — with the footer, sealing
// the chunk, when last — and returns the compressor's first error so far.
// Inline it compresses the segment; in background it queues it and
// takes a free one, waiting while segmentsInFlight are queued.
func (w *Writer) handOff(last bool) error {
	start := time.Now()
	if last {
		w.seg = xmlenc.AppendFooter(w.seg)
		w.inChunk = 0
		w.seal.Chunks++
	}
	s := segment{text: w.seg, last: last}
	if w.segs == nil {
		w.c.take(s)
		w.seg = w.seg[:0]
	} else {
		w.segs <- s
		w.seg = <-w.free
	}
	w.stalled(start)
	return w.c.failed()
}

// stalled counts the caller's stall since start.
func (w *Writer) stalled(start time.Time) {
	d := time.Since(start)
	w.seal.Total += d
	w.seal.Max = max(w.seal.Max, d)
}

// SealStats reports the chunks sealed so far and what writing them has
// cost the caller of Write and Close — whose goroutine this must be
// called from, like them.
func (w *Writer) SealStats() SealStats { return w.seal }

// background runs the compressor over the segments handed off, and
// hands each buffer back.
func (w *Writer) background() {
	defer close(w.done)
	for s := range w.segs {
		w.c.take(s)
		w.free <- s.text[:0]
	}
}

// take writes one segment to its chunk's file: it creates the file at the
// chunk's first segment and ends the member and closes the file at its
// last. The deflater is reused from chunk to chunk.
func (c *compressor) take(s segment) {
	if c.failed() != nil {
		return
	}
	err := c.write(s)
	if c.f != nil && (s.last || err != nil) {
		if cerr := c.f.Close(); err == nil {
			err = cerr
		}
		c.f = nil
	}
	if err != nil {
		c.mu.Lock()
		c.err = fmt.Errorf("dataset: %w", err)
		c.mu.Unlock()
	}
}

func (c *compressor) write(s segment) (err error) {
	if c.f == nil {
		if c.f, err = os.Create(filepath.Join(c.dir, chunkName(c.chunks, c.dfl != nil))); err != nil {
			return err
		}
		c.chunks++
		if c.dfl != nil {
			c.dfl.reset(c.f)
		}
	}
	if c.dfl == nil {
		_, err = c.f.Write(s.text)
		return err
	}
	if _, err = c.dfl.Write(s.text); err == nil && s.last {
		err = c.dfl.Close()
	}
	return err
}

func (c *compressor) failed() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// SetCounters records the anonymisation totals in the manifest.
func (w *Writer) SetCounters(distinctClients, distinctFiles uint32) {
	w.man.DistinctClients = distinctClients
	w.man.DistinctFiles = distinctFiles
}

// Close seals the last chunk, waits for the background compressor and
// writes the manifest. A second Close returns what the first did. After
// a chunk-write failure it returns that error and leaves no manifest, so
// a broken dataset is unreadable rather than silently truncated.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err == nil && w.inChunk > 0 {
		w.err = w.handOff(true)
	}
	if w.segs != nil {
		start := time.Now()
		close(w.segs)
		<-w.done
		w.stalled(start)
		if w.err == nil {
			w.err = w.c.failed()
		}
	}
	if w.err == nil {
		w.err = w.writeManifest()
	}
	return w.err
}

func (w *Writer) writeManifest() error {
	// A record's t is written with three fraction digits (spec §2), and
	// that rounding, like reading the digits back, keeps the order of
	// values: the largest t read is the largest written, read back.
	maxT, err := strconv.ParseFloat(strconv.FormatFloat(w.maxT, 'f', 3, 64), 64)
	if err != nil {
		return err
	}
	w.man.MaxT = &maxT
	data, err := json.MarshalIndent(&w.man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(w.dir, manifestName), append(data, '\n'), 0o644)
}

// Open reads a dataset's manifest.
func Open(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("dataset: bad manifest: %w", err)
	}
	if m.Version != "1.0" {
		return nil, fmt.Errorf("dataset: unsupported version %q", m.Version)
	}
	// Entry i must name chunk i: compared as numbers, since the names
	// stop sorting lexicographically at chunk 100000.
	for i, name := range m.Chunks {
		if name != chunkName(i, false) && name != chunkName(i, true) {
			return nil, fmt.Errorf("dataset: chunk list not in order: entry %d is %q", i, name)
		}
	}
	return &m, nil
}

// ForEach streams every record of the dataset at dir, in order, invoking
// fn on the caller's goroutine, one record at a time. fn returning a
// non-nil error aborts the scan and is returned.
//
// The record is valid only during the callback: the next one is decoded
// into the same xmlenc.Record (see xmlenc.Decoder.Next). A callback that
// keeps a record keeps rec.Clone().
//
// A goroutine owned by the call reads and inflates the chunks ahead of
// fn, by at most readAheadDepth blocks of readAheadBlock bytes; it has
// returned, and every chunk file is closed, when ForEach returns. The
// pass holds that ring, the inflater's 64 KiB of input and 256 KiB
// window, and the decoder's 64 KiB line buffer — about 1 MiB, whatever
// size the chunks were written at.
func ForEach(dir string, fn func(*xmlenc.Record) error) error {
	man, err := Open(dir)
	if err != nil {
		return err
	}
	ra := startReadAhead(len(man.Chunks), chunkOpener(dir, man.Chunks))
	defer ra.stop()
	// One line buffer for every chunk's decoder: NewDecoder reads straight
	// from a bufio.Reader of its own buffer size.
	lines := bufio.NewReaderSize(ra, 64<<10)
	var n uint64
	for _, chunk := range man.Chunks {
		ra.nextStream()
		lines.Reset(ra)
		if err := forEachRecord(filepath.Join(dir, chunk), lines, fn, &n); err != nil {
			return err
		}
	}
	if n != man.Records {
		return fmt.Errorf("dataset: manifest claims %d records, read %d", man.Records, n)
	}
	return nil
}

// forEachRecord decodes one chunk from src. The decoder reads src to its
// end, so a .gz chunk's trailer has been checked when this returns nil.
func forEachRecord(path string, src io.Reader, fn func(*xmlenc.Record) error, n *uint64) error {
	dec, err := xmlenc.NewDecoder(src)
	if err != nil {
		return fmt.Errorf("dataset: %s: %w", path, err)
	}
	for {
		rec, err := dec.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("dataset: %s: %w", path, err)
		}
		*n++
		if err := fn(rec); err != nil {
			return err
		}
	}
}

// chunkOpener returns the function that opens the i-th chunk of a
// dataset as a stream of XML: the file, or for a .gz chunk the file
// inflated by gunzip — one member, and an error for anything after it —
// which is the only difference between the two kinds. It is called from
// one goroutine and reuses one reader, and its buffers, for every chunk.
func chunkOpener(dir string, chunks []string) func(i int) (io.ReadCloser, error) {
	var gz *gunzip
	return func(i int) (io.ReadCloser, error) {
		f, err := os.Open(filepath.Join(dir, chunks[i]))
		if err != nil {
			var pe *fs.PathError
			if errors.As(err, &pe) {
				err = pe.Err // the reader of the stream names the path
			}
			return nil, err
		}
		if filepath.Ext(chunks[i]) != ".gz" {
			return f, nil
		}
		if gz == nil {
			gz = new(gunzip)
		}
		if err := gz.reset(f); err != nil {
			f.Close()
			return nil, err
		}
		return struct {
			io.Reader
			io.Closer
		}{gz, f}, nil
	}
}
