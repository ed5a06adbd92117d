package analysis

import (
	"math"
	"runtime"
	"testing"

	"edtrace/internal/xmlenc"
)

// TestSizeTableMovesFarIDs: an ID sized past the table's bound goes to the
// far map, and keeps its first size when the table grows over it.
func TestSizeTableMovesFarIDs(t *testing.T) {
	var s sizeTable
	s.add(denseSlack, 1)
	if len(s.kb) != 0 || s.far[denseSlack] != 1 {
		t.Fatalf("ID %d, the first sized, went to a table of %d IDs and a far map %v", denseSlack, len(s.kb), s.far)
	}
	s.add(0, 2)
	s.add(denseSlack-1, 3)
	if len(s.kb) != denseSlack || len(s.far) != 1 {
		t.Fatalf("after IDs 0 and %d: a table of %d IDs and a far map %v, want %d IDs and the far ID", denseSlack-1, len(s.kb), s.far, denseSlack)
	}
	s.add(denseSlack+1, 5)
	if s.far != nil || len(s.kb) != 2*denseSlack {
		t.Fatalf("after ID %d: a table of %d IDs and a far map %v, want %d IDs and none", denseSlack+1, len(s.kb), s.far, 2*denseSlack)
	}
	s.add(denseSlack, 4) // sized first while far: keeps 1
	s.finish()
	checkSizes(t, "finished", &s)
	want := map[uint32]uint64{0: 2, denseSlack - 1: 3, denseSlack: 1, denseSlack + 1: 5}
	if s.n != len(want) || len(s.kb) != denseSlack+2 {
		t.Fatalf("%d files in a table of %d IDs, want %d in %d", s.n, len(s.kb), len(want), denseSlack+2)
	}
	for id, kb := range want {
		if s.kb[id] != kb {
			t.Errorf("file %d: size %d, want %d", id, s.kb[id], kb)
		}
	}
}

// TestSizesBoundedForAnyIDs: a stream that sizes only files 0 and 2³²−1,
// offered and answered, allocates under 1 MiB from the collector's start
// to its figures: the far ID does not grow the table.
func TestSizesBoundedForAnyIDs(t *testing.T) {
	files := []xmlenc.FileInfo{{ID: 0, SizeKB: 1}, {ID: math.MaxUint32, SizeKB: 2}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := NewCollector()
	for client := range uint32(100) {
		c.Write(offerRec(client, files...))
		c.Write(&xmlenc.Record{Op: "SearchRes", Dir: xmlenc.DirAnswer, Client: client, Files: files})
	}
	f := c.Finalize()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("IDs 0 and 2³²−1 allocated %d bytes, want under 1 MiB", got)
	}
	if f.Fig8.N() != 2 || f.Fig8.Count(1) != 1 || f.Fig8.Count(2) != 1 {
		t.Fatalf("Fig 8 %v, want one file each of 1 and 2 KB", f.Fig8.Points())
	}
	checkSizes(t, "finished", &c.sizes)
}
