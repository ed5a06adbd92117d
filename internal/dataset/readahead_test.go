package dataset

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"edtrace/internal/xmlenc"
)

// mangleChunk rewrites one chunk file of a dataset.
func mangleChunk(t *testing.T, dir, name string, mangle func([]byte) []byte) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mangle(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCorruptChunkDetected: a .gz chunk's trailer is part of the format,
// and nothing may follow a chunk's closing tag. Both used to read clean,
// because the reader stopped at </edtrace>. A .gz chunk is one member,
// and nothing may follow its trailer either — not even a second member
// that holds only blank lines, which compress/gzip's multistream mode
// used to read on into.
func TestCorruptChunkDetected(t *testing.T) {
	var blank bytes.Buffer
	gz := gzip.NewWriter(&blank)
	gz.Write([]byte("\n\n\n"))
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name     string
		compress bool
		mangle   func([]byte) []byte
		want     string
		is       error
	}{
		{"crc flipped", true, func(b []byte) []byte { b[len(b)-8] ^= 0x40; return b }, "gzip: invalid checksum", nil},
		{"length flipped", true, func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }, "gzip: invalid checksum", nil},
		{"trailer cut", true, func(b []byte) []byte { return b[:len(b)-8] }, "unexpected EOF", io.ErrUnexpectedEOF},
		{"cut mid-deflate", true, func(b []byte) []byte { return b[:len(b)/2] }, "unexpected EOF", io.ErrUnexpectedEOF},
		{"bytes after the member", true, func(b []byte) []byte { return append(b, "junk after the trailer"...) }, "gzip: invalid header", gzip.ErrHeader},
		{"a second member", true, func(b []byte) []byte { return append(b, blank.Bytes()...) }, "gzip: invalid header", gzip.ErrHeader},
		{"content after the closing tag", false, func(b []byte) []byte { return append(b, "<r/>\n"...) }, "content after </edtrace>", xmlenc.ErrSyntax},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer noLeak(t)()
			dir := t.TempDir()
			writeDataset(t, dir, 120, WriterOptions{chunkBytes: 3 << 10, Compress: tc.compress})
			path := mangleChunk(t, dir, chunkName(1, tc.compress), tc.mangle)
			check := func(what string, err error) {
				t.Helper()
				if err == nil || !strings.Contains(err.Error(), "dataset: "+path+": ") || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("%s: err = %v, want one naming %s and %q", what, err, path, tc.want)
				}
				if tc.is != nil && !errors.Is(err, tc.is) {
					t.Fatalf("%s: err = %v, want errors.Is %v", what, err, tc.is)
				}
			}
			check("ForEach", ForEach(dir, func(*xmlenc.Record) error { return nil }))
			_, err := Verify(dir)
			check("Verify", err)
		})
	}
}

// TestForEachLeavesNothingBehind: however a scan ends, the read-ahead
// goroutine has returned when ForEach does.
func TestForEachLeavesNothingBehind(t *testing.T) {
	newDataset := func(t *testing.T) string {
		dir := t.TempDir()
		// 3100 bytes close the first two chunks on their 50th record: a
		// 73-byte header and lines of 59 to 61 bytes.
		writeDataset(t, dir, 150, WriterOptions{chunkBytes: 3100, Compress: true})
		return dir
	}
	count := func(n *int) func(*xmlenc.Record) error {
		return func(*xmlenc.Record) error { *n++; return nil }
	}

	t.Run("callback fails", func(t *testing.T) {
		defer noLeak(t)()
		boom := errors.New("boom")
		var n int
		err := ForEach(newDataset(t), func(*xmlenc.Record) error {
			if n++; n == 10 {
				return boom
			}
			return nil
		})
		if err != boom || n != 10 {
			t.Fatalf("err = %v after %d records, want the callback's own error after 10", err, n)
		}
	})
	t.Run("chunk truncated", func(t *testing.T) {
		defer noLeak(t)()
		dir := newDataset(t)
		mangleChunk(t, dir, chunkName(1, true), func(b []byte) []byte { return b[:len(b)/2] })
		var n int
		if err := ForEach(dir, count(&n)); !errors.Is(err, io.ErrUnexpectedEOF) || n < 50 || n >= 100 {
			t.Fatalf("err = %v after %d records, want unexpected EOF inside the second chunk", err, n)
		}
	})
	t.Run("chunk missing", func(t *testing.T) {
		defer noLeak(t)()
		dir := newDataset(t)
		if err := os.Remove(filepath.Join(dir, chunkName(1, true))); err != nil {
			t.Fatal(err)
		}
		var n int
		err := ForEach(dir, count(&n))
		if !errors.Is(err, fs.ErrNotExist) || !strings.Contains(err.Error(), chunkName(1, true)) || n != 50 {
			t.Fatalf("err = %v after %d records, want not-exist naming the chunk after 50", err, n)
		}
	})
	t.Run("success", func(t *testing.T) {
		defer noLeak(t)()
		var n int
		if err := ForEach(newDataset(t), count(&n)); err != nil || n != 150 {
			t.Fatalf("err = %v after %d records", err, n)
		}
	})
}

// countingReader counts what the read-ahead's producer has taken from it.
type countingReader struct {
	r      io.Reader
	n      atomic.Int64
	closed atomic.Bool
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingReader) Close() error { c.closed.Store(true); return nil }

// TestReadAheadIsRingBounded: the producer runs ahead of a stalled
// consumer by the ring and no further, however long the stream is — so a
// reader's memory does not depend on the chunk size the writer used.
func TestReadAheadIsRingBounded(t *testing.T) {
	defer noLeak(t)()
	const ring = readAheadDepth * readAheadBlock
	stream := bytes.Repeat([]byte("0123456789abcdef"), 8*ring/16)
	src := &countingReader{r: bytes.NewReader(stream)}
	ra := startReadAhead(1, func(int) (io.ReadCloser, error) { return src, nil })

	// The consumer takes one byte and stalls. The producer fills the ring
	// and must then wait: its count stops growing.
	ra.nextStream()
	if _, err := io.ReadFull(ra, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	var got int64
	for settled := 0; settled < 20; settled++ {
		time.Sleep(5 * time.Millisecond)
		if n := src.n.Load(); n != got {
			got, settled = n, 0
		}
	}
	if got < readAheadBlock || got > ring {
		t.Fatalf("producer read %d bytes ahead of a stalled consumer; want between one block (%d) and the ring (%d)", got, readAheadBlock, ring)
	}

	// Released, the consumer gets the whole stream, in order.
	rest, err := io.ReadAll(ra)
	if err != nil || !bytes.Equal(rest, stream[1:]) {
		t.Fatalf("read %d bytes (err %v) after the stall, want the remaining %d unchanged", len(rest), err, len(stream)-1)
	}
	ra.stop()
	if !src.closed.Load() {
		t.Fatal("the stream was not closed")
	}
}

// TestForEachHoldsNoChunk: a pass's memory does not follow the chunk
// size. One chunk of 64 MiB of record text — sixteen times what the
// writer makes by default — is read with the live heap sampled along the
// way, and never holds more than a few MiB over what it held before.
func TestForEachHoldsNoChunk(t *testing.T) {
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, chunkName(0, true)))
	if err != nil {
		t.Fatal(err)
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	text := xmlenc.AppendHeader(nil, nil)
	rec := &xmlenc.Record{Op: "GetSources", Dir: xmlenc.DirQuery, FileRefs: []uint32{7}}
	raw, records := 0, uint64(0)
	for raw < 64<<20 {
		rec.T, rec.Client = float64(records), uint32(records%1000)
		text = xmlenc.AppendRecord(text, rec)
		if records++; len(text) >= 1<<20 {
			zw.Write(text)
			raw, text = raw+len(text), text[:0]
		}
	}
	zw.Write(xmlenc.AppendFooter(text))
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := json.Marshal(&Manifest{Version: "1.0", Chunks: []string{chunkName(0, true)}, Records: records})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), man, 0o644); err != nil {
		t.Fatal(err)
	}

	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before, peak, n := live(), uint64(0), uint64(0)
	if err := ForEach(dir, func(*xmlenc.Record) error {
		if n++; n%(records/8) == 0 {
			peak = max(peak, live())
		}
		return nil
	}); err != nil || n != records {
		t.Fatalf("read %d of %d records: %v", n, records, err)
	}
	grew := int64(peak) - int64(before)
	t.Logf("%d records, %d MiB of text: the live heap grew by %d KiB at most", records, raw>>20, grew>>10)
	if grew > 4<<20 {
		t.Fatalf("reading a chunk of %d MiB held %d bytes more than before", raw>>20, grew)
	}
}

// TestReadAheadStopsMidStream: stop returns once the producer has — with
// the stream it was reading closed — even when the ring is full.
func TestReadAheadStopsMidStream(t *testing.T) {
	defer noLeak(t)()
	src := &countingReader{r: bytes.NewReader(make([]byte, 8*readAheadDepth*readAheadBlock))}
	opened := 0
	ra := startReadAhead(3, func(int) (io.ReadCloser, error) { opened++; return src, nil })
	ra.nextStream()
	if _, err := io.ReadFull(ra, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	ra.stop()
	if !src.closed.Load() || opened != 1 {
		t.Fatalf("after stop: stream closed = %v, %d streams opened; want closed and 1", src.closed.Load(), opened)
	}
}
