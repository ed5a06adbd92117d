package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"edtrace/internal/xmlenc"
)

// writeValidDataset builds a dataset obeying every spec invariant:
// dense IDs by order of appearance, monotone t, hex hashes.
func writeValidDataset(t *testing.T, dir string) {
	t.Helper()
	w, err := NewWriter(dir, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	recs := []*xmlenc.Record{
		{T: 0.5, Client: 0, Op: "OfferFiles", Dir: xmlenc.DirQuery,
			Files: []xmlenc.FileInfo{{ID: 0, NameHash: "ab12", SizeKB: 10, TypeHash: "ff00"}}},
		{T: 0.6, Client: 0, Op: "OfferAck", Dir: xmlenc.DirAnswer, Accepted: 1},
		{T: 1.0, Client: 1, Op: "GetSources", Dir: xmlenc.DirQuery, FileRefs: []uint32{0, 1}},
		{T: 1.2, Client: 1, Op: "FoundSources", Dir: xmlenc.DirAnswer,
			FileRefs: []uint32{0}, Sources: []uint32{0, 2}},
		{T: 2.0, Client: 2, Op: "SearchReq", Dir: xmlenc.DirQuery,
			Keywords: []string{"deadbeef"}},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	w.SetCounters(3, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCleanDataset(t *testing.T) {
	dir := t.TempDir()
	writeValidDataset(t, dir)
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("violations on a clean dataset: %v", rep.Violations)
	}
	if rep.Records != 5 || rep.MaxClientID != 2 || rep.MaxFileID != 1 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestVerifyDetectsViolations(t *testing.T) {
	corrupt := func(t *testing.T, mangle func(string) string) *VerifyReport {
		t.Helper()
		dir := t.TempDir()
		writeValidDataset(t, dir)
		path := filepath.Join(dir, "chunk-00000.xml")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(mangle(string(data))), 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Verify(dir)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Timestamp regression.
	rep := corrupt(t, func(s string) string {
		return strings.Replace(s, `t="2.000"`, `t="0.100"`, 1)
	})
	if rep.OK() || !strings.Contains(rep.Violations[0], "timestamp") {
		t.Fatalf("timestamp regression missed: %+v", rep.Violations)
	}

	// Unknown op.
	rep = corrupt(t, func(s string) string {
		return strings.Replace(s, `op="SearchReq"`, `op="Bogus"`, 1)
	})
	if rep.OK() {
		t.Fatal("unknown op missed")
	}

	// Non-hex hash (raw string leaked).
	rep = corrupt(t, func(s string) string {
		return strings.Replace(s, `h="deadbeef"`, `h="mozart requiem"`, 1)
	})
	if rep.OK() {
		t.Fatal("raw string missed")
	}

	// Non-dense clientID (gap in the order-of-appearance numbering).
	rep = corrupt(t, func(s string) string {
		return strings.Replace(s, `c="2"`, `c="9"`, 1)
	})
	if rep.OK() {
		t.Fatal("non-dense clientID missed")
	}
}

func TestVerifyMissingDataset(t *testing.T) {
	if _, err := Verify(t.TempDir()); err == nil {
		t.Fatal("missing manifest accepted")
	}
}

// TestVerifyHugeIDCostsNothing: Verify's memory follows the manifest's
// counters, never the value of an ID in the data — an ID near 2³² is one
// violation and one map entry, not half a gigabyte of bitset.
func TestVerifyHugeIDCostsNothing(t *testing.T) {
	dir := t.TempDir()
	writeValidDataset(t, dir)
	mangleChunk(t, dir, "chunk-00000.xml", func(b []byte) []byte {
		return bytes.Replace(b, []byte(`<fr id="1"/>`), []byte(`<fr id="4294967290"/>`), 1)
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Verify(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxFileID != 4294967290 || len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "max fileID 4294967290, want 1") {
		t.Fatalf("report: %+v", rep)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("Verify allocated %d bytes over a five-record dataset", grew)
	}
}
