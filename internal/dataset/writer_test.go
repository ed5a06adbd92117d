package dataset

import (
	"bytes"
	"encoding/json"
	"fmt"
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
// and every chunk — are a function of the records alone, whatever the
// worker count and however the workers interleave. A 2 KiB budget
// rotates chunks of fewer records as the records grow, and the output
// reads back in order and verifies.
func TestWriterDeterministicAcrossWorkers(t *testing.T) {
	defer noLeak(t)()
	const n = 1000
	write := func(dir string, workers int, compress bool) {
		w, err := NewWriter(dir, WriterOptions{
			chunkBytes: 2 << 10, Compress: compress, Workers: workers,
			Meta: map[string]string{"seed": "7"},
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			rec := &xmlenc.Record{T: float64(i), Client: uint32(i % 10), Op: "OfferFiles", Dir: xmlenc.DirQuery}
			for f := 0; f < i/100; f++ { // later records are larger
				rec.Files = append(rec.Files, xmlenc.FileInfo{ID: uint32(f), SizeKB: 700 * 1024})
			}
			if err := w.Write(rec); err != nil {
				t.Fatal(err)
			}
		}
		w.SetCounters(10, n/100-1)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, compress := range []bool{false, true} {
		var want map[string][]byte
		for _, workers := range []int{0, 1, runtime.GOMAXPROCS(0), 8} {
			dir := t.TempDir()
			write(dir, workers, compress)
			got := readDir(t, dir)
			if want == nil {
				want = got
				man, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				if len(man.Chunks) <= n/100 {
					t.Fatalf("byte budget did not rotate: %d chunks", len(man.Chunks))
				}
				if ext := filepath.Ext(man.Chunks[0]); (ext == ".gz") != compress {
					t.Fatalf("compress=%v wrote %s", compress, man.Chunks[0])
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
				continue
			}
			if len(got) != len(want) {
				t.Fatalf("compress=%v workers=%d: %d files, want %d", compress, workers, len(got), len(want))
			}
			for name, data := range want {
				if !bytes.Equal(got[name], data) {
					t.Errorf("compress=%v workers=%d: %s differs from the Workers=0 output", compress, workers, name)
				}
			}
		}
	}
}

// TestWriterChunkFailure makes a chunk file un-creatable mid-run (a
// directory already sits under its name): the first error surfaces from
// Write or Close and sticks, no manifest makes the broken dataset
// readable, and no worker goroutine outlives Close.
func TestWriterChunkFailure(t *testing.T) {
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			defer noLeak(t)()
			dir := t.TempDir()
			w, err := NewWriter(dir, WriterOptions{chunkBytes: 512, Workers: workers})
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
			if workers == 0 && werr == nil {
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

// TestSealStats: one seal per chunk, the last one Close's, at any width.
func TestSealStats(t *testing.T) {
	for _, workers := range []int{0, 2} {
		w, err := NewWriter(t.TempDir(), WriterOptions{chunkBytes: 512, Compress: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 35; i++ {
			if err := w.Write(&xmlenc.Record{T: float64(i), Op: "StatReq", Dir: xmlenc.DirQuery}); err != nil {
				t.Fatal(err)
			}
		}
		if st := w.SealStats(); st.Chunks != 3 {
			t.Errorf("workers=%d: %d chunks sealed after 35 records of ~45 bytes to 512, want 3", workers, st.Chunks)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		st := w.SealStats()
		if st.Chunks != 4 || st.Max <= 0 || st.Total < st.Max || st.Total > time.Duration(st.Chunks)*st.Max {
			t.Errorf("workers=%d: after Close: %+v", workers, st)
		}
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
