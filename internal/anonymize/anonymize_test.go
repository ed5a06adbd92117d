package anonymize

import (
	"encoding/binary"
	"runtime"
	"testing"
	"testing/quick"

	"edtrace/internal/ed2k"
	"edtrace/internal/randx"
)

// clientAnonymizer is what the clientID tests hold to one contract: the
// pipeline's table and the paper's array.
type clientAnonymizer interface {
	Anonymize(uint32) uint32
	Count() uint32
}

func clientTables() map[string]func() clientAnonymizer {
	return map[string]func() clientAnonymizer{
		"table":  func() clientAnonymizer { return NewClientTable() },
		"direct": func() clientAnonymizer { return NewClientDirect() },
	}
}

func TestClientDirectOrderOfAppearance(t *testing.T) {
	for name, fresh := range clientTables() {
		c := fresh()
		ids := []uint32{0xDEADBEEF, 7, 0xFFFFFFFF, 0, 42}
		for want, id := range ids {
			if got := c.Anonymize(id); got != uint32(want) {
				t.Fatalf("%s: Anonymize(%d) = %d, want %d", name, id, got, want)
			}
		}
		// Re-anonymising returns the same values.
		for want, id := range ids {
			if got := c.Anonymize(id); got != uint32(want) {
				t.Fatalf("%s: repeat Anonymize(%d) = %d, want %d", name, id, got, want)
			}
		}
		if c.Count() != uint32(len(ids)) {
			t.Fatalf("%s: Count = %d", name, c.Count())
		}
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

// TestClientDirectMatchesMapBaseline is the differential between the
// pipeline's table and the paper's array, on ID streams that stay on a
// couple of the array's pages, fill a range densely, spread over the
// whole space, and mix the three.
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
			table := NewClientTable()
			direct := NewClientDirect()
			r := randx.New(1, 2)
			var ids []uint32
			for i := 0; i < 50000; i++ {
				id := draw(r)
				if i%3 == 0 && len(ids) > 0 {
					id = ids[r.IntN(len(ids))] // a repeat, whatever the space
				}
				ids = append(ids, id)
				if table.Anonymize(id) != direct.Anonymize(id) {
					t.Fatalf("divergence at step %d id %d", i, id)
				}
			}
			if table.Count() != direct.Count() {
				t.Fatalf("counts differ: %d vs %d", table.Count(), direct.Count())
			}
			for _, id := range ids {
				if got, ok := direct.Lookup(id); !ok || got != table.Anonymize(id) {
					t.Fatalf("direct Lookup(%d) = %d,%v, table %d", id, got, ok, table.Anonymize(id))
				}
			}
			if table.Count() != direct.Count() {
				t.Fatal("a repeat grew the table")
			}
		})
	}
}

// TestClientDirectFootprint: the pipeline's table costs the clients it
// has seen and nothing for the 32-bit space around them — a hundred
// thousand IDs spread uniformly, one /20 each for the paper's array,
// hold a few bytes each — and MemoryBytes tells the truth about it: the
// heap the table really holds is within a factor of two of the figure.
func TestClientDirectFootprint(t *testing.T) {
	const n = 100_000
	heapInuse := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	r := randx.New(5, 6)
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = r.Uint32()
	}
	before := heapInuse()
	c := NewClientTable()
	for _, id := range ids {
		c.Anonymize(id)
	}
	held := heapInuse() - before
	runtime.KeepAlive(c)
	runtime.KeepAlive(ids) // freed in between, it would hide 4 bytes an ID

	mem := c.MemoryBytes()
	t.Logf("%d ids: MemoryBytes %d, heap in use grew by %d", c.Count(), mem, held)
	if per := mem / uint64(c.Count()); per >= 64 {
		t.Fatalf("MemoryBytes = %d for %d ids: %d B a client, want < 64", mem, c.Count(), per)
	}
	if held > 2*mem || mem > 2*held {
		t.Fatalf("heap in use grew by %d bytes, MemoryBytes says %d: not within 2x", held, mem)
	}
}

// TestClientDirectAllocs: a repeat never allocates, and a first sight
// allocates only when the map grows — less than once an insert over the
// inserts that double it.
func TestClientDirectAllocs(t *testing.T) {
	c := NewClientTable()
	// Distinct IDs spread over the space, as a capture's high IDs are:
	// an odd multiplier permutes the uint32s.
	spread := func(i uint32) uint32 { return i * 2654435761 }
	const base = 1 << 14
	for i := uint32(0); i < base; i++ {
		c.Anonymize(spread(i))
	}
	if a := testing.AllocsPerRun(100, func() { c.Anonymize(spread(base / 2)) }); a != 0 {
		t.Errorf("seen id: %v allocs, want 0", a)
	}
	next := uint32(base)
	// AllocsPerRun divides in integers: 0 means fewer allocations than runs.
	if a := testing.AllocsPerRun(base, func() { c.Anonymize(spread(next)); next++ }); a != 0 {
		t.Errorf("first-seen ids: %v allocs each over a doubling, want < 1", a)
	}
	if c.Count() < 2*base {
		t.Fatalf("%d ids after the doubling, want >= %d", c.Count(), 2*base)
	}
}

func TestQuickClientDirectBijective(t *testing.T) {
	// Property: distinct ids get distinct anons, equal ids equal anons,
	// and anons are exactly 0..Count-1, in the table and the array alike.
	for name, fresh := range clientTables() {
		f := func(ids []uint32) bool {
			c := fresh()
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
			t.Errorf("%s: %v", name, err)
		}
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

// randomFileIDs draws n fileIDs as hashes are: uniform 128-bit values.
func randomFileIDs(r *randx.Rand, n int) []ed2k.FileID {
	ids := make([]ed2k.FileID, n)
	for i := range ids {
		binary.LittleEndian.PutUint64(ids[i][:8], r.Uint64())
		binary.LittleEndian.PutUint64(ids[i][8:], r.Uint64())
	}
	return ids
}

// TestFileBucketsFootprint: the table holds the buckets in use and not
// 65 536 empty ones — a capture's ~12 000 fileIDs take under a megabyte,
// the 256 KiB directory included — and MemoryBytes tells the truth about
// its live bytes: the table's objects (HeapAlloc after a collection) are
// within 1.5x of the figure. The spans that hold them (HeapInuse, what a
// process pays) are bounded too: at a million IDs the buckets' outgrown
// arrays leave holes there, ~43 B a fileID against ~30 B live, and a
// growth policy that leaves more of them (an eighth at a time reads
// ~53 B) fails the bound.
func TestFileBucketsFootprint(t *testing.T) {
	heap := func() (live, inuse uint64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, ms.HeapInuse
	}
	for _, c := range []struct {
		n           int
		live, inuse uint64 // heap growth allowed, bytes
	}{
		{12_000, 1_000_000, 1_000_000},
		{1_000_000, 32 * 1_000_000, 48 * 1_000_000},
	} {
		ids := randomFileIDs(randx.New(5, uint64(c.n)), c.n)
		live0, inuse0 := heap()
		f := NewFileBuckets(5, 11)
		for _, id := range ids {
			f.Anonymize(id)
		}
		live1, inuse1 := heap()
		held, spans := live1-live0, inuse1-inuse0
		runtime.KeepAlive(f)
		runtime.KeepAlive(ids) // freed in between, it would hide 16 bytes an ID

		mem := f.MemoryBytes()
		t.Logf("%d ids: live heap grew by %d (%.1f B a fileID), in-use spans by %d (%.1f B), MemoryBytes %d",
			f.Count(), held, float64(held)/float64(f.Count()), spans, float64(spans)/float64(f.Count()), mem)
		if f.Count() != uint32(c.n) {
			t.Fatalf("Count = %d, want %d", f.Count(), c.n)
		}
		if held > c.live {
			t.Errorf("%d ids: live heap grew by %d bytes, want <= %d", c.n, held, c.live)
		}
		if spans > c.inuse {
			t.Errorf("%d ids: in-use spans grew by %d bytes, want <= %d", c.n, spans, c.inuse)
		}
		if 2*held > 3*mem || 2*mem > 3*held {
			t.Errorf("%d ids: live heap grew by %d bytes, MemoryBytes says %d: not within 1.5x", c.n, held, mem)
		}
	}
}

// TestFileBucketsAllocs: a repeat and a Lookup never allocate, and a
// first sight allocates at most once: its bucket's growth.
func TestFileBucketsAllocs(t *testing.T) {
	const base = 1 << 14
	ids := randomFileIDs(randx.New(6, 7), 2*base)
	f := NewFileBuckets(5, 11)
	for _, id := range ids[:base] {
		f.Anonymize(id)
	}
	if a := testing.AllocsPerRun(100, func() { f.Anonymize(ids[base/2]) }); a != 0 {
		t.Errorf("seen id: %v allocs, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { f.Lookup(ids[base/3]) }); a != 0 {
		t.Errorf("Lookup: %v allocs, want 0", a)
	}
	next := base
	// The slice of buckets in use grows too, rarely enough that the
	// integer division AllocsPerRun makes leaves one a first sight.
	if a := testing.AllocsPerRun(base-1, func() { f.Anonymize(ids[next]); next++ }); a > 1 {
		t.Errorf("first-seen ids: %v allocs each, want <= 1", a)
	}
	if f.Count() != 2*base {
		t.Fatalf("Count = %d, want %d", f.Count(), 2*base)
	}
}

// fileStream spells an ID stream for FuzzFileBucketsMatchesMap: each ID
// is a fresh one (its 16 bytes), a repeat of an earlier one, or the one
// before it with one byte changed.
type fileStream []byte

func (s fileStream) fresh(id ed2k.FileID) fileStream { return append(append(s, 0xFF), id[:]...) }
func (s fileStream) repeat(k byte) fileStream        { return append(s, k&0x3F) }
func (s fileStream) neighbour(i, v byte) fileStream  { return append(s, 0x40|i&0x0F, v) }

// decode reads the stream back; a truncated fresh ID is zero-padded.
func (s fileStream) decode() []ed2k.FileID {
	var ids []ed2k.FileID
	for len(s) > 0 {
		op := s[0]
		s = s[1:]
		switch {
		case op < 0x40 && len(ids) > 0:
			ids = append(ids, ids[int(op)%len(ids)])
		case op < 0x80 && len(ids) > 0 && len(s) > 0:
			id := ids[len(ids)-1]
			id[op&0x0F] = s[0]
			s = s[1:]
			ids = append(ids, id)
		default:
			var id ed2k.FileID
			s = s[copy(id[:], s):]
			ids = append(ids, id)
		}
	}
	return ids
}

// FuzzFileBucketsMatchesMap: the bucketed table is the hashtable under
// any byte pair and any stream — the same pseudonyms, again on a replay
// into the same table, a Lookup that agrees before and after each first
// sight, bucket sizes that are a recount by the two index bytes and a
// largest bucket that is a scan's.
func FuzzFileBucketsMatchesMap(f *testing.F) {
	forged := func(prefix ...byte) ed2k.FileID { // the pollution tools' fixed prefixes
		id := fid(prefix...)
		id[7], id[9], id[15] = 0x5A, 0xA5, byte(len(prefix))
		return id
	}
	var fig3 fileStream
	for i := byte(0); i < 6; i++ {
		fig3 = fig3.fresh(forged(0x00, 0x00, i)).fresh(forged(0x01, 0x00, i)).neighbour(15, i)
	}
	fig3 = fig3.repeat(0).repeat(5).repeat(17).neighbour(1, 0x00)
	var spread fileStream
	for _, id := range randomFileIDs(randx.New(9, 9), 12) {
		spread = spread.fresh(id).neighbour(5, id[5]^1).neighbour(11, 0).repeat(id[0])
	}
	f.Add(byte(0), byte(1), []byte(fig3))
	f.Add(byte(5), byte(11), []byte(fig3))
	f.Add(byte(5), byte(11), []byte(spread))
	f.Add(byte(7), byte(8), []byte(spread))
	f.Fuzz(func(t *testing.T, a, b byte, stream []byte) {
		a, b = a%16, b%16
		if a == b {
			return
		}
		ids := fileStream(stream).decode()
		fb, mp := NewFileBuckets(int(a), int(b)), NewFileMap()
		want := make(map[ed2k.FileID]uint32)
		for i, id := range ids {
			v, ok := fb.Lookup(id)
			if w, seen := want[id]; ok != seen || v != w {
				t.Fatalf("id %d: Lookup before = %d,%v, want %d,%v", i, v, ok, w, seen)
			}
			got, w := fb.Anonymize(id), mp.Anonymize(id)
			if got != w {
				t.Fatalf("id %d: buckets %d, map %d", i, got, w)
			}
			want[id] = w
			if v, ok := fb.Lookup(id); !ok || v != w {
				t.Fatalf("id %d: Lookup after = %d,%v, want %d", i, v, ok, w)
			}
		}
		for i, id := range ids {
			if got := fb.Anonymize(id); got != want[id] {
				t.Fatalf("replayed id %d: %d, first time %d", i, got, want[id])
			}
		}
		if fb.Count() != mp.Count() || int(fb.Count()) != len(want) {
			t.Fatalf("Count = %d, map %d, distinct %d", fb.Count(), mp.Count(), len(want))
		}

		// Whole-table loops are slow under the fuzzer's instrumentation,
		// so the sizes are compared as arrays and the largest bucket is
		// found among the buckets in use: the lowest index of the largest
		// size, as a scan in index order finds it.
		var recount [BucketCount]int
		bucketOf := func(id ed2k.FileID) int { return int(id[a])<<8 | int(id[b]) }
		for id := range want {
			recount[bucketOf(id)]++
		}
		// Equal to the recount, the sizes also sum to Count.
		if sizes := fb.BucketSizes(); len(sizes) != BucketCount || [BucketCount]int(sizes) != recount {
			t.Fatal("BucketSizes differs from a recount by the index bytes")
		}
		wantIdx, wantSize := 0, 0
		for id := range want {
			if k, n := bucketOf(id), recount[bucketOf(id)]; n > wantSize || n == wantSize && k < wantIdx {
				wantIdx, wantSize = k, n
			}
		}
		if idx, size := fb.MaxBucket(); idx != wantIdx || size != wantSize {
			t.Fatalf("MaxBucket = %d,%d, scan finds %d,%d", idx, size, wantIdx, wantSize)
		}
	})
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

// benchIDs draws ids from a 2^26 space: enough of the array's pages to
// be realistic, bounded so the steady state measures lookups rather than
// page faults.
func benchIDs() []uint32 {
	r := randx.New(1, 1)
	ids := make([]uint32, 1<<16)
	for i := range ids {
		ids[i] = r.Uint32() & (1<<26 - 1)
	}
	return ids
}

func benchClientHot(b *testing.B, c clientAnonymizer) {
	ids := benchIDs()
	for _, id := range ids {
		c.Anonymize(id) // warm: every id assigned
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Anonymize(ids[i&(len(ids)-1)])
	}
}

func BenchmarkClientTableHot(b *testing.B)  { benchClientHot(b, NewClientTable()) }
func BenchmarkClientDirectHot(b *testing.B) { benchClientHot(b, NewClientDirect()) }
