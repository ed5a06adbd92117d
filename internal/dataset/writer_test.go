package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"edtrace/internal/xmlenc"
)

// noLeak snapshots the goroutine count; the returned check, deferred to
// the end of the test, waits for the count to settle back to it.
func noLeak(t *testing.T) func() {
	before := runtime.NumGoroutine()
	return func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<16)
				t.Fatalf("goroutine leak: %d before the test, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
}

// readDir returns every file of a dataset directory by name.
func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte)
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// TestWriterDeterministicAcrossWorkers: the directory's bytes — manifest
// and every chunk — are a function of the records alone, compressed
// inline or in background. A 2 KiB budget rotates chunks of fewer
// records as the records grow, and a 100 KiB one makes chunks of two
// segments; every compressed chunk is the member its text gives fed
// whole, and the output reads back in order and verifies.
func TestWriterDeterministicAcrossWorkers(t *testing.T) {
	defer noLeak(t)()
	const n = 3000
	write := func(dir string, budget int, background, compress bool) {
		w, err := NewWriter(dir, WriterOptions{
			chunkBytes: budget, Compress: compress, Background: background,
			Meta: map[string]string{"seed": "7"},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			rec := &xmlenc.Record{T: float64(i), Client: uint32(i % 10), Op: "OfferFiles", Dir: xmlenc.DirQuery}
			for f := 0; f < i/300; f++ { // later records are larger
				rec.Files = append(rec.Files, xmlenc.FileInfo{ID: uint32(f), SizeKB: 700 * 1024})
			}
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		w.SetCounters(10, n/300-1)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, budget := range []int{2 << 10, 100 << 10} {
		for _, compress := range []bool{false, true} {
			var want map[string][]byte
			for _, background := range []bool{false, true} {
				dir := t.TempDir()
				write(dir, budget, background, compress)
				got := readDir(t, dir)
				if want == nil {
					want = got
					checkWritten(t, dir, got, budget, compress, n)
					continue
				}
				if len(got) != len(want) {
					t.Fatalf("budget %d compress=%v background: %d files, want %d", budget, compress, len(got), len(want))
				}
				for name, data := range want {
					if !bytes.Equal(got[name], data) {
						t.Errorf("budget %d compress=%v: %s differs in background from inline", budget, compress, name)
					}
				}
			}
		}
	}
}

// checkWritten checks a dataset of n records written at budget: chunks
// rotated, named for compress, each member the one its text gives fed
// whole, and the records read back in order and verify.
func checkWritten(t *testing.T, dir string, files map[string][]byte, budget int, compress bool, n int) {
	t.Helper()
	man, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Chunks) < 4 {
		t.Fatalf("budget %d did not rotate: %d chunks", budget, len(man.Chunks))
	}
	if ext := filepath.Ext(man.Chunks[0]); (ext == ".gz") != compress {
		t.Fatalf("compress=%v wrote %s", compress, man.Chunks[0])
	}
	if compress {
		d := new(deflater)
		for i, name := range man.Chunks {
			text, err := stdlibGunzip(files[name])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if budget > segmentSize && i < len(man.Chunks)-1 && len(text) <= segmentSize {
				t.Fatalf("%s: %d bytes of text, want more than a segment", name, len(text))
			}
			if !bytes.Equal(files[name], deflateMember(t, d, text)) {
				t.Errorf("%s differs from its text deflated whole", name)
			}
		}
	}
	var i int
	if err := ForEach(dir, func(r *xmlenc.Record) error {
		if r.T != float64(i) {
			return fmt.Errorf("record %d out of order: %+v", i, r)
		}
		i++
		return nil
	}); err != nil || i != n {
		t.Fatalf("read back %d of %d records: %v", i, n, err)
	}
	if rep, err := Verify(dir); err != nil || !rep.OK() {
		t.Fatalf("Verify: %v %v", err, rep)
	}
}

// TestWriterChunkFailure makes a chunk file un-creatable mid-run (a
// directory already sits under its name): the first error surfaces from
// Write or Close and sticks, no manifest makes the broken dataset
// readable, and no background goroutine outlives Close.
func TestWriterChunkFailure(t *testing.T) {
	for _, background := range []bool{false, true} {
		t.Run(map[bool]string{false: "inline", true: "background"}[background], func(t *testing.T) {
			defer noLeak(t)()
			dir := t.TempDir()
			w, err := NewWriter(dir, WriterOptions{chunkBytes: 512, Background: background})
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Mkdir(filepath.Join(dir, chunkName(2, false)), 0o755); err != nil {
				t.Fatal(err)
			}
			var werr error
			for i := 0; i < 100 && werr == nil; i++ {
				werr = w.Write(&xmlenc.Record{T: float64(i), Op: "StatReq", Dir: xmlenc.DirQuery})
			}
			if !background && werr == nil {
				t.Fatal("Write did not report the failed chunk")
			}
			cerr := w.Close()
			if cerr == nil {
				t.Fatal("Close succeeded over a failed chunk")
			}
			if werr != nil && cerr != werr {
				t.Fatalf("Close = %v, want Write's first error %v", cerr, werr)
			}
			if again := w.Close(); again != cerr {
				t.Fatalf("second Close = %v, want %v", again, cerr)
			}
			if err := w.Write(&xmlenc.Record{Op: "StatReq"}); err != cerr {
				t.Fatalf("Write after the failure = %v, want %v", err, cerr)
			}
			if _, err := os.Stat(filepath.Join(dir, manifestName)); !os.IsNotExist(err) {
				t.Fatalf("manifest exists over a broken dataset (stat: %v)", err)
			}
		})
	}
}

// TestNewWriterRemovesStaleManifest: rewriting a dataset directory must
// not leave the old manifest over new chunks while the rewrite is open
// (or for good, if it fails).
func TestNewWriterRemovesStaleManifest(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, 30, WriterOptions{chunkBytes: 512})
	w, err := NewWriter(dir, WriterOptions{chunkBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("old manifest still readable while the directory is being rewritten")
	}
	if err := w.Write(&xmlenc.Record{Op: "StatReq", Dir: xmlenc.DirQuery}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil { // idempotent on success
		t.Fatal(err)
	}
	man, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Records != 1 || len(man.Chunks) != 1 {
		t.Fatalf("manifest: %+v", man)
	}
}

// TestNewWriterRemovesStaleChunks: a dataset written into a used
// directory leaves exactly its own files there — no chunk of a longer
// predecessor, none under the other Compress setting's names — and
// whatever else the directory held, chunk-like names included.
func TestNewWriterRemovesStaleChunks(t *testing.T) {
	for _, tc := range []struct {
		name          string
		before, after WriterOptions
	}{
		{"longer then shorter", WriterOptions{chunkBytes: 512}, WriterOptions{}},
		{"gz then plain", WriterOptions{chunkBytes: 512, Compress: true}, WriterOptions{chunkBytes: 512}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, fresh := t.TempDir(), t.TempDir()
			bystanders := []string{"notes.txt", "chunk-00001.xml.bak", "chunk-1.xml", "chunk-00002.xml.gz.tmp"}
			for _, name := range bystanders {
				if err := os.WriteFile(filepath.Join(dir, name), []byte("keep"), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			writeDataset(t, dir, 50, tc.before)
			writeDataset(t, dir, 30, tc.after)
			writeDataset(t, fresh, 30, tc.after)

			got, want := readDir(t, dir), readDir(t, fresh)
			for _, name := range bystanders {
				if string(got[name]) != "keep" {
					t.Errorf("%s did not survive: %q", name, got[name])
				}
				delete(got, name)
			}
			for name := range got {
				if _, ok := want[name]; !ok {
					t.Errorf("stale %s left behind", name)
				}
			}
			for name, data := range want {
				if !bytes.Equal(got[name], data) {
					t.Errorf("%s differs from the same dataset written into an empty directory", name)
				}
			}
		})
	}
}

// TestSealStats: one seal per chunk, the last one Close's; the stalls
// are what Write and Close spent compressing or waiting for the
// compressor, segment by segment, chunk sealed or not.
func TestSealStats(t *testing.T) {
	for _, background := range []bool{false, true} {
		w, err := NewWriter(t.TempDir(), WriterOptions{chunkBytes: 512, Compress: true, Background: background})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 35; i++ {
			if err := w.Write(&xmlenc.Record{T: float64(i), Op: "StatReq", Dir: xmlenc.DirQuery}); err != nil {
				t.Fatal(err)
			}
		}
		if st := w.SealStats(); st.Chunks != 3 {
			t.Errorf("background=%v: %d chunks sealed after 35 records of ~45 bytes to 512, want 3", background, st.Chunks)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if st := w.SealStats(); st.Chunks != 4 || st.Max <= 0 || st.Total < st.Max {
			t.Errorf("background=%v: after Close: %+v", background, st)
		}
	}
	// A chunk of several segments stalls its writer before it is sealed.
	w, err := NewWriter(t.TempDir(), WriterOptions{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*segmentSize/40; i++ {
		if err := w.Write(&xmlenc.Record{T: float64(i), Op: "StatReq", Dir: xmlenc.DirQuery}); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.SealStats(); st.Chunks != 0 || st.Max <= 0 || st.Total <= st.Max {
		t.Errorf("inline, before the first seal: %+v, want two stalls or more", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// recordText is the i-th of a run of records offering two files each,
// about 300 bytes of text apiece.
func recordText(i int) *xmlenc.Record {
	rec := &xmlenc.Record{T: float64(i) / 8, Client: uint32(i % 5000), Op: "OfferFiles", Dir: xmlenc.DirQuery}
	for f := range 2 {
		id := uint32(i*2+f) % 70000
		rec.Files = append(rec.Files, xmlenc.FileInfo{ID: id, SizeKB: uint64(id % 9000), NameHash: fmt.Sprintf("%032x", id), TypeHash: "b22f0418e8ac915eb66f829d262d14a2"})
	}
	return rec
}

// TestWriterHoldsNoChunk: what a compressed writer holds does not follow
// its chunk budget. With a 64 MiB budget and 8 MiB of records, so one
// chunk that is never sealed before Close, the live heap, sampled as the
// records go in, grows by less than 1.5 MiB, inline and in background.
func TestWriterHoldsNoChunk(t *testing.T) {
	for _, background := range []bool{false, true} {
		before := liveHeap()
		w, err := NewWriter(t.TempDir(), WriterOptions{chunkBytes: 64 << 20, Compress: true, Background: background})
		if err != nil {
			t.Fatal(err)
		}
		var peak uint64
		for i := 0; w.inChunk < 8<<20; i++ {
			if err := w.Write(recordText(i)); err != nil {
				t.Fatal(err)
			}
			if i%2048 == 0 {
				peak = max(peak, liveHeap())
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		grew := int64(peak) - int64(before)
		t.Logf("background=%v: the live heap grew by %d KiB at most", background, grew>>10)
		if grew >= 3<<19 {
			t.Errorf("background=%v: a writer of one 64 MiB chunk held %d bytes", background, grew)
		}
		runtime.KeepAlive(w)
	}
}

// TestWriterDeflatesOneSegmentACall: no Write or Close hands the matcher
// more than one segment and one record (and the footer), whatever the
// chunk budget, so no call stalls for longer than that takes. The
// deflater's input position counts the bytes; it restarts at a chunk's
// first segment, which is shorter than any chunk before it.
func TestWriterDeflatesOneSegmentACall(t *testing.T) {
	w, err := NewWriter(t.TempDir(), WriterOptions{chunkBytes: 300 << 10, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	fed := func() int { return w.c.dfl.base + len(w.c.dfl.src) }
	limit := func(line int) int { return segmentSize + line + len(xmlenc.AppendFooter(nil)) }
	most := 0
	for i := 0; i < 20000; i++ {
		rec := recordText(i)
		before := fed()
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
		handed := fed() - before
		if handed < 0 {
			handed = fed()
		}
		most = max(most, handed)
		if line := len(xmlenc.AppendRecord(nil, rec)); handed > limit(line) {
			t.Fatalf("Write %d handed the deflater %d bytes, over a segment and a record of %d", i, handed, line)
		}
	}
	before := fed()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if handed := fed() - before; handed <= 0 || handed > limit(0) {
		t.Fatalf("Close handed the deflater %d bytes", handed)
	}
	if st := w.SealStats(); st.Chunks < 4 || most < segmentSize {
		t.Fatalf("%d chunks, at most %d bytes a call: the test did not cross seals and segments", st.Chunks, most)
	}
}

// TestOpenChunkOrderIsNumeric: chunk names stop sorting lexicographically
// at chunk 100000 ("chunk-100000" < "chunk-99999"); a correctly written
// dataset of that size must still open, and a misnumbered list must not.
func TestOpenChunkOrderIsNumeric(t *testing.T) {
	man := Manifest{Version: "1.0"}
	for i := 0; i <= 100_000; i++ {
		man.Chunks = append(man.Chunks, chunkName(i, true))
	}
	put := func(m *Manifest) string {
		dir := t.TempDir()
		data, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, manifestName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	got, err := Open(put(&man))
	if err != nil {
		t.Fatalf("100001-chunk manifest rejected: %v", err)
	}
	if len(got.Chunks) != 100_001 {
		t.Fatalf("chunks = %d", len(got.Chunks))
	}
	man.Chunks[7], man.Chunks[8] = man.Chunks[8], man.Chunks[7]
	if _, err := Open(put(&man)); err == nil {
		t.Fatal("swapped chunk entries accepted")
	}
	if _, err := Open(put(&Manifest{Version: "1.0", Chunks: []string{"../chunk-00000.xml"}})); err == nil {
		t.Fatal("chunk name outside the directory accepted")
	}
}

// TestWriterRecordsMaxT: the manifest's max_t is the largest t a reader
// decodes from the chunks, bit for bit — the written text rounds t to
// milliseconds — whatever the order of the records. A t that is not a
// finite non-negative number does not count, nor does an empty dataset
// have any but 0.
func TestWriterRecordsMaxT(t *testing.T) {
	for _, tc := range []struct {
		name string
		ts   []float64
	}{
		{"empty", nil},
		{"rounded down", []float64{0.0004, 1.0004}},
		{"rounded up", []float64{0.5, 7.9996}},
		{"not last", []float64{1, 1 << 25, 3}},
		{"past 2^24 s", []float64{18144000.0006, 1<<24 + 0.0005}},
		{"not times", []float64{2.5, math.NaN(), -4, math.Inf(1), math.Inf(-1)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := NewWriter(dir, WriterOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range tc.ts {
				if err := w.Write(&xmlenc.Record{T: v, Op: "StatReq", Dir: xmlenc.DirQuery}); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			man, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			read := 0.0
			if err := ForEach(dir, func(r *xmlenc.Record) error {
				if r.T > read && !math.IsInf(r.T, 1) {
					read = r.T
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if man.MaxT == nil || math.Float64bits(*man.MaxT) != math.Float64bits(read) {
				t.Fatalf("manifest max_t %v, largest t read %v", man.MaxT, read)
			}
		})
	}
}
