package anonymize

import (
	"encoding/binary"
	"fmt"
	"sort"

	"edtrace/internal/ed2k"
)

// BucketCount is the number of anonymisation arrays: the paper divides
// "the array size by a factor of 65 536 by using [two bytes] to index
// 65 536 arrays".
const BucketCount = 1 << 16

type fileSlot struct {
	id   ed2k.FileID
	anon uint32
}

// FileBuckets is the paper's bucketed structure: 65 536 sorted arrays,
// the bucket chosen by two bytes of the fileID. With genuinely random
// (hash) fileIDs the buckets stay balanced and sorted insertion is cheap;
// forged fileIDs concentrated on fixed prefixes skew the first-two-byte
// indexing catastrophically (Figure 3), which is why the byte pair is a
// parameter.
//
// The arrays are stored densely: a directory of 65 536 uint32s (256 KiB)
// points into a slice holding only the buckets in use, where 65 536 slice
// headers would take 1.5 MiB before the first file. 12 000 random
// fileIDs take ~0.86 MB, directory included; from ~10⁶ on, when every
// bucket is in use, the table costs what 65 536 slices did: ~30 B a
// fileID live, ~43 B of in-use heap spans at 10⁶ and ~30 B at 6·10⁶
// (TestFileBucketsFootprint).
type FileBuckets struct {
	byteA, byteB int
	// dir[b] is 0 while bucket b is empty, else 1 + its position in used.
	dir  [BucketCount]uint32
	used [][]fileSlot
	next uint32
	// The slots of capacity over all buckets, kept for MemoryBytes.
	slots uint64
	// The largest bucket, kept on insert (buckets only grow); among
	// equals the lowest index, as a scan in index order would find it.
	maxIdx, maxSize int
}

// NewFileBuckets returns a bucketed anonymizer indexing with fileID bytes
// a and b. The paper first used (0,1) — the pathological choice — and
// switched to two other bytes; our default elsewhere is (5,11).
func NewFileBuckets(a, b int) *FileBuckets {
	if a < 0 || a > 15 || b < 0 || b > 15 || a == b {
		panic(fmt.Sprintf("anonymize: invalid index byte pair (%d,%d)", a, b))
	}
	return &FileBuckets{byteA: a, byteB: b}
}

// DefaultBytePair is the byte pair used by the pipeline, mirroring the
// paper's fix of "selecting two different bytes in the fileID". Every
// default of the pair in the tree is this one.
func DefaultBytePair() [2]int { return [2]int{5, 11} }

func (f *FileBuckets) bucketIndex(id *ed2k.FileID) uint32 {
	return uint32(id[f.byteA])<<8 | uint32(id[f.byteB])
}

func less(a, b ed2k.FileID) bool {
	for i := 0; i < 16; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// search returns the position of the first slot of s whose ID is not
// below id's two big-endian halves hi and lo: the order of less.
func search(s []fileSlot, hi, lo uint64) int {
	i, j := 0, len(s)
	for i < j {
		h := int(uint(i+j) >> 1)
		shi := binary.BigEndian.Uint64(s[h].id[:8])
		if shi < hi || shi == hi && binary.BigEndian.Uint64(s[h].id[8:]) < lo {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// find returns id's bucket index and slots (nil while it is empty), the
// position of id or of its sorted insertion in it, and whether id is
// there.
func (f *FileBuckets) find(id *ed2k.FileID) (b uint32, bucket []fileSlot, i int, ok bool) {
	b = f.bucketIndex(id)
	if d := f.dir[b]; d != 0 {
		bucket = f.used[d-1]
	}
	i = search(bucket, binary.BigEndian.Uint64(id[:8]), binary.BigEndian.Uint64(id[8:]))
	return b, bucket, i, i < len(bucket) && bucket[i].id == *id
}

// Anonymize returns the stable anonymised identifier for id, assigning
// the next integer on first sight: a binary search in the bucket, and on
// first sight a sorted insertion.
func (f *FileBuckets) Anonymize(id ed2k.FileID) uint32 {
	b, bucket, i, ok := f.find(&id)
	if ok {
		return bucket[i].anon
	}
	anon := f.next
	f.next++
	if f.dir[b] == 0 {
		f.used = append(f.used, nil)
		f.dir[b] = uint32(len(f.used))
	}
	c := cap(bucket)
	bucket = append(bucket, fileSlot{})
	f.slots += uint64(cap(bucket) - c)
	copy(bucket[i+1:], bucket[i:])
	bucket[i] = fileSlot{id: id, anon: anon}
	f.used[f.dir[b]-1] = bucket
	if n := len(bucket); n > f.maxSize || n == f.maxSize && int(b) < f.maxIdx {
		f.maxIdx, f.maxSize = int(b), n
	}
	return anon
}

// Lookup returns the anonymisation of id if it has been seen.
func (f *FileBuckets) Lookup(id ed2k.FileID) (uint32, bool) {
	_, bucket, i, ok := f.find(&id)
	if !ok {
		return 0, false
	}
	return bucket[i].anon, true
}

// Count returns how many distinct fileIDs have been seen.
func (f *FileBuckets) Count() uint32 { return f.next }

// BucketSizes returns the size of every anonymisation array — the
// distribution plotted in the paper's Figure 3.
func (f *FileBuckets) BucketSizes() []int {
	out := make([]int, BucketCount)
	for _, bucket := range f.used { // none is empty
		out[f.bucketIndex(&bucket[0].id)] = len(bucket)
	}
	return out
}

// MaxBucket returns the largest bucket's index and size ("our max array
// size: 819" in Figure 3's annotation).
func (f *FileBuckets) MaxBucket() (idx, size int) { return f.maxIdx, f.maxSize }

// MemoryBytes is the table's live capacity, kept on insert: the
// directory (4 B an entry), the headers of the buckets in use (24 B each)
// and every slot of their capacity (20 B each). It is not the heap spans
// the table keeps in use, which the holes its buckets' outgrown arrays
// leave make ~1.4x larger at 10⁶ fileIDs.
func (f *FileBuckets) MemoryBytes() uint64 {
	return 4*BucketCount + 24*uint64(cap(f.used)) + 20*f.slots
}

// FileMap is the classical-hashtable baseline for fileIDs.
type FileMap struct {
	m    map[ed2k.FileID]uint32
	next uint32
}

// NewFileMap returns an empty map-based fileID anonymizer.
func NewFileMap() *FileMap {
	return &FileMap{m: make(map[ed2k.FileID]uint32)}
}

// Anonymize is FileBuckets.Anonymize over a Go map.
func (f *FileMap) Anonymize(id ed2k.FileID) uint32 {
	if v, ok := f.m[id]; ok {
		return v
	}
	v := f.next
	f.next++
	f.m[id] = v
	return v
}

// Count returns how many distinct fileIDs have been seen.
func (f *FileMap) Count() uint32 { return f.next }

// FileSingleSorted is the rejected design the paper discusses: one sorted
// array over all fileIDs. Dichotomic search is fast but every insertion
// shifts O(n) slots — "insertion has a prohibitive cost". Kept for the
// ablation benchmark that demonstrates the quadratic blow-up.
type FileSingleSorted struct {
	slots []fileSlot
	next  uint32
}

// NewFileSingleSorted returns the single-sorted-array baseline.
func NewFileSingleSorted() *FileSingleSorted {
	return &FileSingleSorted{}
}

// Anonymize is FileBuckets.Anonymize over one sorted array.
func (f *FileSingleSorted) Anonymize(id ed2k.FileID) uint32 {
	i := sort.Search(len(f.slots), func(k int) bool { return !less(f.slots[k].id, id) })
	if i < len(f.slots) && f.slots[i].id == id {
		return f.slots[i].anon
	}
	anon := f.next
	f.next++
	f.slots = append(f.slots, fileSlot{})
	copy(f.slots[i+1:], f.slots[i:])
	f.slots[i] = fileSlot{id: id, anon: anon}
	return anon
}

// Count returns how many distinct fileIDs have been seen.
func (f *FileSingleSorted) Count() uint32 { return f.next }
