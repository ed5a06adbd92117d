package dataset

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"edtrace/internal/xmlenc"
)

func writeDataset(t *testing.T, dir string, n int, opts WriterOptions) {
	t.Helper()
	w, err := NewWriter(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := &xmlenc.Record{
			T:      float64(i),
			Client: uint32(i % 10),
			Op:     "GetSources",
			Dir:    xmlenc.DirQuery,
			FileRefs: []uint32{
				uint32(i % 100),
			},
		}
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	w.SetCounters(10, 100)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, 250, WriterOptions{chunkBytes: 6 << 10})

	man, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Records != 250 {
		t.Fatalf("records = %d", man.Records)
	}
	if len(man.Chunks) != 3 { // about 100 lines of ~62 bytes to 6 KiB
		t.Fatalf("chunks = %v", man.Chunks)
	}
	if man.DistinctClients != 10 || man.DistinctFiles != 100 {
		t.Fatalf("counters: %+v", man)
	}

	var n int
	var lastT float64 = -1
	err = ForEach(dir, func(r *xmlenc.Record) error {
		if r.T < lastT {
			return fmt.Errorf("records out of order: %f after %f", r.T, lastT)
		}
		lastT = r.T
		n++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 250 {
		t.Fatalf("ForEach visited %d records", n)
	}
}

func TestCompressedDataset(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, 120, WriterOptions{chunkBytes: 3 << 10, Compress: true})
	man, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range man.Chunks {
		if filepath.Ext(c) != ".gz" {
			t.Fatalf("chunk %s not compressed", c)
		}
	}
	var n int
	if err := ForEach(dir, func(*xmlenc.Record) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 120 {
		t.Fatalf("visited %d", n)
	}
}

func TestMetaPropagation(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, 5, WriterOptions{Meta: map[string]string{"seed": "7"}})
	man, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Meta["seed"] != "7" {
		t.Fatalf("meta = %v", man.Meta)
	}
}

func TestForEachAbortsOnCallbackError(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, 50, WriterOptions{})
	boom := errors.New("boom")
	var n int
	err := ForEach(dir, func(*xmlenc.Record) error {
		n++
		if n == 10 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if n != 10 {
		t.Fatalf("callback ran %d times", n)
	}
}

func TestOpenMissingAndCorrupt(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("missing manifest accepted")
	}
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "manifest.json"), []byte("{not json"), 0o644)
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupt manifest accepted")
	}
	os.WriteFile(filepath.Join(dir, "manifest.json"),
		[]byte(`{"version":"2.0","chunks":[],"records":0}`), 0o644)
	if _, err := Open(dir); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestRecordCountMismatchDetected(t *testing.T) {
	dir := t.TempDir()
	writeDataset(t, dir, 20, WriterOptions{})
	// Tamper with the manifest record count.
	man, _ := Open(dir)
	man.Records = 99
	data, _ := os.ReadFile(filepath.Join(dir, "manifest.json"))
	_ = data
	raw := []byte(`{"version":"1.0","chunks":["chunk-00000.xml"],"records":99}`)
	os.WriteFile(filepath.Join(dir, "manifest.json"), raw, 0o644)
	err := ForEach(dir, func(*xmlenc.Record) error { return nil })
	if err == nil {
		t.Fatal("count mismatch not detected")
	}
}

func TestEmptyDataset(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	man, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Records != 0 || len(man.Chunks) != 0 {
		t.Fatalf("manifest: %+v", man)
	}
	if err := ForEach(dir, func(*xmlenc.Record) error {
		t.Fatal("callback on empty dataset")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}
