package anonymize

import (
	"runtime"
	"testing"
	"testing/quick"

	"edtrace/internal/ed2k"
	"edtrace/internal/randx"
)

func TestClientDirectOrderOfAppearance(t *testing.T) {
	c := NewClientDirect()
	ids := []uint32{0xDEADBEEF, 7, 0xFFFFFFFF, 0, 42}
	for want, id := range ids {
		if got := c.Anonymize(id); got != uint32(want) {
			t.Fatalf("Anonymize(%d) = %d, want %d", id, got, want)
		}
	}
	// Re-anonymising returns the same values.
	for want, id := range ids {
		if got := c.Anonymize(id); got != uint32(want) {
			t.Fatalf("repeat Anonymize(%d) = %d, want %d", id, got, want)
		}
	}
	if c.Count() != uint32(len(ids)) {
		t.Fatalf("Count = %d", c.Count())
	}
}

func TestClientDirectLookup(t *testing.T) {
	c := NewClientDirect()
	if _, ok := c.Lookup(5); ok {
		t.Fatal("unseen id found")
	}
	c.Anonymize(5)
	v, ok := c.Lookup(5)
	if !ok || v != 0 {
		t.Fatalf("Lookup(5) = %d,%v", v, ok)
	}
	// An id on an allocated page that was never itself seen.
	if _, ok := c.Lookup(6); ok {
		t.Fatal("neighbour id found")
	}
}

func TestClientDirectPaging(t *testing.T) {
	c := NewClientDirect()
	if c.PagesAllocated() != 0 || c.MemoryBytes() != dirBytes {
		t.Fatalf("empty table: %d pages, %d bytes", c.PagesAllocated(), c.MemoryBytes())
	}
	c.Anonymize(0)         // page 0
	c.Anonymize(pageCells) // page 1
	c.Anonymize(1)         // page 0 again
	if got := c.PagesAllocated(); got != 2 {
		t.Fatalf("PagesAllocated = %d, want 2", got)
	}
	if want := uint64(dirBytes + 2*pageBytes); c.MemoryBytes() != want {
		t.Fatalf("MemoryBytes = %d, want %d (directory + 2 pages)", c.MemoryBytes(), want)
	}
	if c.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestClientDirectPageEdges: the cells on either side of every kind of
// page boundary, and a Lookup that must not materialise anything.
func TestClientDirectPageEdges(t *testing.T) {
	c := NewClientDirect()
	ids := []uint32{
		0, pageCells - 1, // first and last cell of the first page
		pageCells, 2*pageCells - 1, // ... of the second
		0xFFFFFFFF, 0xFFFFFFFF - (pageCells - 1), // last and first cell of the last page
		7 * pageCells, // a page of its own
	}
	for want, id := range ids {
		if _, ok := c.Lookup(id); ok {
			t.Fatalf("Lookup(%#x) found an unseen id", id)
		}
		if got := c.Anonymize(id); got != uint32(want) {
			t.Fatalf("Anonymize(%#x) = %d, want %d", id, got, want)
		}
	}
	for want, id := range ids {
		if got, ok := c.Lookup(id); !ok || got != uint32(want) {
			t.Fatalf("Lookup(%#x) = %d,%v, want %d", id, got, ok, want)
		}
	}
	if got := c.PagesAllocated(); got != 4 {
		t.Fatalf("PagesAllocated = %d, want 4", got)
	}
	// Untouched pages, and unseen cells next to seen ones.
	for _, id := range []uint32{3 * pageCells, 0x80000000, 1, pageCells + 1, 0xFFFFFFFE} {
		if _, ok := c.Lookup(id); ok {
			t.Fatalf("Lookup(%#x) found an unseen id", id)
		}
	}
	if got := c.PagesAllocated(); got != 4 {
		t.Fatalf("Lookup materialised a page: %d pages, want 4", got)
	}
}

// TestClientDirectMatchesMapBaseline is the differential against the
// classical structure, on ID streams that stay on a couple of pages,
// fill a range densely, spread over the whole space, and mix the three.
func TestClientDirectMatchesMapBaseline(t *testing.T) {
	streams := map[string]func(r *randx.Rand) uint32{
		"few-pages": func(r *randx.Rand) uint32 { return r.Uint32() % 8192 }, // heavy reuse
		"low-dense": func(r *randx.Rand) uint32 { return r.Uint32() % (1 << 24) },
		"uniform":   func(r *randx.Rand) uint32 { return r.Uint32() },
		"mixture": func(r *randx.Rand) uint32 {
			switch r.IntN(3) {
			case 0:
				return r.Uint32() % 8192
			case 1:
				return r.Uint32() % (1 << 24)
			}
			return r.Uint32()
		},
	}
	for name, draw := range streams {
		t.Run(name, func(t *testing.T) {
			direct := NewClientDirect()
			baseline := NewClientMap()
			r := randx.New(1, 2)
			var ids []uint32
			for i := 0; i < 50000; i++ {
				id := draw(r)
				if i%3 == 0 && len(ids) > 0 {
					id = ids[r.IntN(len(ids))] // a repeat, whatever the space
				}
				ids = append(ids, id)
				if direct.Anonymize(id) != baseline.Anonymize(id) {
					t.Fatalf("divergence at step %d id %d", i, id)
				}
			}
			if direct.Count() != baseline.Count() {
				t.Fatalf("counts differ: %d vs %d", direct.Count(), baseline.Count())
			}
			for _, id := range ids {
				if got, ok := direct.Lookup(id); !ok || got != baseline.Anonymize(id) {
					t.Fatalf("Lookup(%d) = %d,%v, baseline %d", id, got, ok, baseline.Anonymize(id))
				}
			}
		})
	}
}

// TestClientDirectFootprint: the table's memory follows the IDs it has
// seen — at most one page per ID on top of the directory — and
// MemoryBytes tells the truth about it: the heap the table really holds
// is within a factor of two of the figure.
func TestClientDirectFootprint(t *testing.T) {
	const n = 3000 // the benchmark's capture sees about this many
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	before := heapInuse()
	c := NewClientDirect()
	r := randx.New(5, 6)
	for i := 0; i < n; i++ {
		c.Anonymize(r.Uint32())
	}
	held := heapInuse() - before
	runtime.KeepAlive(c)

	mem := c.MemoryBytes()
	if max := uint64(dirBytes + n*pageBytes); mem > max {
		t.Fatalf("MemoryBytes = %d for %d ids, want <= %d (directory + one page an id)", mem, n, max)
	}
	if held > 2*mem || mem > 2*held {
		t.Fatalf("heap in use grew by %d bytes, MemoryBytes says %d: not within 2x", held, mem)
	}
}

// TestClientDirectAllocs: once a page exists, neither a repeat nor a
// first sight on it allocates.
func TestClientDirectAllocs(t *testing.T) {
	c := NewClientDirect()
	const base = 9 * pageCells
	c.Anonymize(base)
	if a := testing.AllocsPerRun(100, func() { c.Anonymize(base) }); a != 0 {
		t.Errorf("seen id: %v allocs, want 0", a)
	}
	next := uint32(base)
	if a := testing.AllocsPerRun(100, func() { next++; c.Anonymize(next) }); a != 0 {
		t.Errorf("first-seen id on a materialised page: %v allocs, want 0", a)
	}
	if c.PagesAllocated() != 1 || c.Count() < 100 {
		t.Fatalf("%d pages, %d ids: the first-seen run did not stay on one page", c.PagesAllocated(), c.Count())
	}
}

func TestQuickClientDirectBijective(t *testing.T) {
	// Property: distinct ids get distinct anons, equal ids equal anons,
	// and anons are exactly 0..Count-1.
	f := func(ids []uint32) bool {
		c := NewClientDirect()
		seen := make(map[uint32]uint32)
		for _, id := range ids {
			got := c.Anonymize(id)
			if prev, ok := seen[id]; ok {
				if got != prev {
					return false
				}
				continue
			}
			if got != uint32(len(seen)) { // order of appearance
				return false
			}
			seen[id] = got
		}
		return c.Count() == uint32(len(seen))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func fid(bytes ...byte) ed2k.FileID {
	var id ed2k.FileID
	copy(id[:], bytes)
	return id
}

func TestFileBucketsOrderOfAppearance(t *testing.T) {
	f := NewFileBuckets(0, 1)
	ids := []ed2k.FileID{fid(1), fid(2), fid(1, 1), fid(0xFF, 0xEE, 0xDD)}
	for want, id := range ids {
		if got := f.Anonymize(id); got != uint32(want) {
			t.Fatalf("Anonymize(%v) = %d, want %d", id, got, want)
		}
	}
	for want, id := range ids {
		if got := f.Anonymize(id); got != uint32(want) {
			t.Fatalf("repeat Anonymize(%v) = %d, want %d", id, got, want)
		}
	}
	if f.Count() != 4 {
		t.Fatalf("Count = %d", f.Count())
	}
}

func TestFileBucketsLookup(t *testing.T) {
	f := NewFileBuckets(5, 11)
	id := fid(9, 9, 9)
	if _, ok := f.Lookup(id); ok {
		t.Fatal("unseen fileID found")
	}
	f.Anonymize(id)
	v, ok := f.Lookup(id)
	if !ok || v != 0 {
		t.Fatalf("Lookup = %d,%v", v, ok)
	}
}

func TestFileBucketsBytePairSelection(t *testing.T) {
	// All ids share the first two bytes but differ at bytes (5,11):
	// with pair (0,1) they all land in one bucket; with (5,11) they
	// spread. This is the mechanism behind Figure 3.
	mk := func(i byte) ed2k.FileID {
		var id ed2k.FileID
		id[0], id[1] = 0x00, 0x00 // forged prefix
		id[5], id[11] = i, i*7
		return id
	}
	firstTwo := NewFileBuckets(0, 1)
	chosen := NewFileBuckets(5, 11)
	for i := byte(0); i < 100; i++ {
		firstTwo.Anonymize(mk(i))
		chosen.Anonymize(mk(i))
	}
	if _, size := firstTwo.MaxBucket(); size != 100 {
		t.Fatalf("first-two-bytes max bucket = %d, want 100", size)
	}
	if _, size := chosen.MaxBucket(); size != 1 {
		t.Fatalf("chosen-bytes max bucket = %d, want 1", size)
	}
	sizes := firstTwo.BucketSizes()
	if sizes[0] != 100 {
		t.Fatalf("bucket 0 = %d, want 100", sizes[0])
	}
}

// TestFileBucketsMaxBucketMatchesScan: the largest bucket kept on insert
// is the one a scan in index order finds, ties included.
func TestFileBucketsMaxBucketMatchesScan(t *testing.T) {
	f := NewFileBuckets(5, 11)
	if idx, size := f.MaxBucket(); idx != 0 || size != 0 {
		t.Fatalf("empty MaxBucket = %d,%d", idx, size)
	}
	r := randx.New(8, 9)
	for i := 0; i < 3000; i++ {
		var id ed2k.FileID
		id[5], id[11] = byte(r.IntN(3)), byte(r.IntN(3)) // 9 buckets: ties are the rule
		id[0] = byte(r.IntN(64))
		f.Anonymize(id)
		if i%25 != 0 {
			continue
		}
		wantIdx, wantSize := 0, 0
		for b, n := range f.BucketSizes() {
			if n > wantSize {
				wantIdx, wantSize = b, n
			}
		}
		if idx, size := f.MaxBucket(); idx != wantIdx || size != wantSize {
			t.Fatalf("step %d: MaxBucket = %d,%d, scan finds %d,%d", i, idx, size, wantIdx, wantSize)
		}
	}
}

func TestFileBucketsAgainstBaselines(t *testing.T) {
	buckets := NewFileBuckets(5, 11)
	mp := NewFileMap()
	single := NewFileSingleSorted()
	r := randx.New(3, 4)
	for i := 0; i < 20000; i++ {
		var id ed2k.FileID
		// Small universe to force plenty of repeats.
		id[3] = byte(r.IntN(40))
		id[5] = byte(r.IntN(40))
		id[11] = byte(r.IntN(40))
		a, b, c := buckets.Anonymize(id), mp.Anonymize(id), single.Anonymize(id)
		if a != b || b != c {
			t.Fatalf("step %d: buckets=%d map=%d single=%d", i, a, b, c)
		}
	}
	if buckets.Count() != mp.Count() || mp.Count() != single.Count() {
		t.Fatal("counts diverge")
	}
}

func TestQuickFileBucketsBijective(t *testing.T) {
	f := func(raw [][16]byte) bool {
		fb := NewFileBuckets(5, 11)
		seen := make(map[ed2k.FileID]uint32)
		for _, r := range raw {
			id := ed2k.FileID(r)
			got := fb.Anonymize(id)
			if prev, ok := seen[id]; ok {
				if got != prev {
					return false
				}
				continue
			}
			if got != uint32(len(seen)) {
				return false
			}
			seen[id] = got
		}
		return fb.Count() == uint32(len(seen))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewFileBucketsValidation(t *testing.T) {
	for _, pair := range [][2]int{{-1, 0}, {0, 16}, {3, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pair %v: expected panic", pair)
				}
			}()
			NewFileBuckets(pair[0], pair[1])
		}()
	}
	if p := DefaultBytePair(); p[0] == p[1] || p[0] > 15 || p[1] > 15 {
		t.Fatal("bad default byte pair")
	}
}

func TestHashStringMD5(t *testing.T) {
	// RFC 1321 vector: md5("abc").
	if got := HashString("abc"); got != "900150983cd24fb0d6963f7d28e17f72" {
		t.Fatalf("HashString(abc) = %s", got)
	}
	if HashString("a") == HashString("b") {
		t.Fatal("distinct strings collide")
	}
	if HashString("x") != HashString("x") {
		t.Fatal("hash not deterministic")
	}
}

func TestSizeToKB(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 0}, {1023, 0}, {1024, 1}, {700 * 1024 * 1024, 700 * 1024},
	}
	for _, c := range cases {
		if got := SizeToKB(c.in); got != c.want {
			t.Errorf("SizeToKB(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

// benchIDs draws ids from a 2^26 space: enough pages to be realistic,
// bounded so the steady state measures lookups rather than page faults.
func benchIDs() []uint32 {
	r := randx.New(1, 1)
	ids := make([]uint32, 1<<16)
	for i := range ids {
		ids[i] = r.Uint32() & (1<<26 - 1)
	}
	return ids
}

func BenchmarkClientDirectHot(b *testing.B) {
	c := NewClientDirect()
	ids := benchIDs()
	for _, id := range ids {
		c.Anonymize(id) // warm: pages allocated, ids assigned
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Anonymize(ids[i&(len(ids)-1)])
	}
}

func BenchmarkClientMapHot(b *testing.B) {
	c := NewClientMap()
	ids := benchIDs()
	for _, id := range ids {
		c.Anonymize(id)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Anonymize(ids[i&(len(ids)-1)])
	}
}
