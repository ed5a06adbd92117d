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
// any. Readers (ForEach, Verify) stream chunk by chunk with one record in
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
// appends record lines into an in-memory chunk buffer. A full chunk is
// sealed and written to disk, compressed if configured, either by one of
// Workers background goroutines or, when Workers is 0, on the caller's
// goroutine. With workers, compression — still the largest cost of a
// compressed dataset — leaves the record pipeline's critical path;
// without them every sealed chunk stalls the caller for one chunk's
// compression, and with them for as long as every worker is busy.
// SealStats counts those stalls. Each goroutine that compresses owns one
// deflater, whose state (tables, one block of tokens, a 64 KiB output
// buffer written through to the file) is the same size for any chunk.
//
// Record order is preserved by construction, not by synchronisation:
// chunk names are assigned serially at rotation time and the manifest
// lists them in that order, so the on-disk completion order is
// irrelevant to readers, and the directory's bytes are the same at any
// worker count. Buffers recycle through a freelist, and the bounded job
// queue caps memory at roughly (2×workers+1) chunks.
type Writer struct {
	dir        string
	chunkBytes int
	compress   bool
	meta       map[string]string

	raw     []byte // the chunk being assembled; nil between chunks
	curName string

	jobs     chan chunkJob // nil when Workers == 0
	freeBufs chan []byte
	dfl      *deflater // the caller goroutine's, when Workers == 0
	wg       sync.WaitGroup
	werrMu   sync.Mutex
	werr     error // first error of a worker

	seal   SealStats
	closed bool
	err    error // first error seen by Write or Close; sticky
	man    Manifest
}

// SealStats is what sealing chunks has cost the goroutine that calls
// Write and Close: inline compression without workers, back-pressure
// from a full job queue with them. A capture fed by a bounded queue
// loses frames while such a stall outlasts the queue.
type SealStats struct {
	Chunks uint64        // chunks sealed so far
	Total  time.Duration // spent sealing them, summed
	Max    time.Duration // the longest single seal
}

// WriterOptions configures a dataset writer.
type WriterOptions struct {
	// Compress gzips chunk files (.xml.gz).
	Compress bool
	// Workers is the number of background goroutines that compress and
	// write sealed chunks; 0 does that work inside Write and Close. The
	// files written are the same at any value. Write and Close must be
	// called from a single goroutine either way.
	Workers int
	// Meta is copied into the manifest and each chunk header.
	Meta map[string]string

	// chunkBytes, when positive, replaces defaultChunkBytes. Not a knob —
	// a field only so a test can cut a few records into several chunks.
	chunkBytes int
}

// chunkJob is one sealed in-memory chunk awaiting compression.
type chunkJob struct {
	name string
	data []byte
}

// defaultChunkBytes caps the encoded XML of one chunk: it rotates
// in-memory chunks well before they strain the freelist, and a byte bound
// keeps memory predictable when records carry large file lists.
const defaultChunkBytes = 4 << 20

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
	workers := max(opts.Workers, 0)
	w := &Writer{
		dir:        dir,
		chunkBytes: opts.chunkBytes,
		compress:   opts.Compress,
		meta:       opts.Meta,
		// One buffer filling, one per queued job, one per busy worker.
		freeBufs: make(chan []byte, 2*workers+1),
	}
	w.man.Version = "1.0"
	w.man.Meta = opts.Meta
	if workers > 0 {
		w.jobs = make(chan chunkJob, workers) // a sealed chunk per worker may wait
		for i := 0; i < workers; i++ {
			w.wg.Add(1)
			go w.worker()
		}
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
	if w.raw == nil {
		w.beginChunk()
	}
	w.raw = xmlenc.AppendRecord(w.raw, rec)
	w.man.Records++
	if len(w.raw) >= w.chunkBytes {
		w.err = w.sealChunk()
	}
	return w.err
}

// beginChunk starts the next chunk in a recycled buffer: it assigns the
// file name (recorded in manifest order) and appends the header.
func (w *Writer) beginChunk() {
	select {
	case w.raw = <-w.freeBufs:
	default:
		w.raw = make([]byte, 0, w.chunkBytes+defaultChunkBytes/4)
	}
	n := len(w.man.Chunks)
	w.curName = chunkName(n, w.compress)
	w.man.Chunks = append(w.man.Chunks, w.curName)
	meta := map[string]string{"chunk": strconv.Itoa(n)}
	for k, v := range w.meta {
		meta[k] = v
	}
	w.raw = xmlenc.AppendHeader(w.raw, meta)
}

// sealChunk closes the in-memory chunk and writes it out: queued for a
// worker (blocking here when every worker is busy is the writer's
// backpressure), or on this goroutine without workers. It returns the
// first chunk-write error known so far.
func (w *Writer) sealChunk() error {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		w.seal.Chunks++
		w.seal.Total += d
		w.seal.Max = max(w.seal.Max, d)
	}()
	job := chunkJob{name: w.curName, data: xmlenc.AppendFooter(w.raw)}
	w.raw = nil
	if w.jobs == nil {
		return w.writeChunkFile(job, &w.dfl)
	}
	w.jobs <- job
	return w.workerErr()
}

// SealStats reports the chunks sealed so far and what sealing them cost
// the caller of Write and Close — whose goroutine this must be called
// from, like them.
func (w *Writer) SealStats() SealStats { return w.seal }

func (w *Writer) worker() {
	defer w.wg.Done()
	var dfl *deflater
	for job := range w.jobs {
		if err := w.writeChunkFile(job, &dfl); err != nil {
			w.werrMu.Lock()
			if w.werr == nil {
				w.werr = err
			}
			w.werrMu.Unlock()
		}
	}
}

func (w *Writer) workerErr() error {
	w.werrMu.Lock()
	defer w.werrMu.Unlock()
	return w.werr
}

// writeChunkFile writes one chunk to disk, compressing if configured,
// and recycles its buffer. The deflater belongs to the calling goroutine
// and is reused between chunks; a member it writes depends on the
// chunk's bytes alone.
func (w *Writer) writeChunkFile(job chunkJob, dfl **deflater) error {
	defer w.recycle(job.data)
	f, err := os.Create(filepath.Join(w.dir, job.name))
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	if w.compress {
		if *dfl == nil {
			*dfl = new(deflater)
		}
		err = (*dfl).writeMember(f, job.data)
	} else {
		_, err = f.Write(job.data)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	return nil
}

// recycle offers a written chunk's buffer to the next beginChunk.
func (w *Writer) recycle(buf []byte) {
	select {
	case w.freeBufs <- buf[:0]:
	default:
	}
}

// SetCounters records the anonymisation totals in the manifest.
func (w *Writer) SetCounters(distinctClients, distinctFiles uint32) {
	w.man.DistinctClients = distinctClients
	w.man.DistinctFiles = distinctFiles
}

// Close writes the last chunk, waits for the workers and writes the
// manifest. A second Close returns what the first did. After a
// chunk-write failure it returns that error and leaves no manifest, so
// a broken dataset is unreadable rather than silently truncated.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err == nil && w.raw != nil {
		w.err = w.sealChunk()
	}
	if w.jobs != nil {
		close(w.jobs)
		w.wg.Wait()
		if w.err == nil {
			w.err = w.workerErr()
		}
	}
	if w.err == nil {
		w.err = w.writeManifest()
	}
	return w.err
}

func (w *Writer) writeManifest() error {
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
