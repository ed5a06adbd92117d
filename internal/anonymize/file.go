package anonymize

import (
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
type FileBuckets struct {
	byteA, byteB int
	buckets      [BucketCount][]fileSlot
	next         uint32
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

func (f *FileBuckets) bucketIndex(id ed2k.FileID) uint32 {
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

// Anonymize returns the stable anonymised identifier for id, assigning
// the next integer on first sight: a binary search in the bucket, and on
// first sight a sorted insertion.
func (f *FileBuckets) Anonymize(id ed2k.FileID) uint32 {
	b := f.bucketIndex(id)
	bucket := f.buckets[b]
	i := sort.Search(len(bucket), func(k int) bool { return !less(bucket[k].id, id) })
	if i < len(bucket) && bucket[i].id == id {
		return bucket[i].anon
	}
	anon := f.next
	f.next++
	bucket = append(bucket, fileSlot{})
	copy(bucket[i+1:], bucket[i:])
	bucket[i] = fileSlot{id: id, anon: anon}
	f.buckets[b] = bucket
	if n := len(bucket); n > f.maxSize || n == f.maxSize && int(b) < f.maxIdx {
		f.maxIdx, f.maxSize = int(b), n
	}
	return anon
}

// Lookup returns the anonymisation of id if it has been seen.
func (f *FileBuckets) Lookup(id ed2k.FileID) (uint32, bool) {
	bucket := f.buckets[f.bucketIndex(id)]
	i := sort.Search(len(bucket), func(k int) bool { return !less(bucket[k].id, id) })
	if i < len(bucket) && bucket[i].id == id {
		return bucket[i].anon, true
	}
	return 0, false
}

// Count returns how many distinct fileIDs have been seen.
func (f *FileBuckets) Count() uint32 { return f.next }

// BucketSizes returns the size of every anonymisation array — the
// distribution plotted in the paper's Figure 3.
func (f *FileBuckets) BucketSizes() []int {
	out := make([]int, BucketCount)
	for i := range f.buckets {
		out[i] = len(f.buckets[i])
	}
	return out
}

// MaxBucket returns the largest bucket's index and size ("our max array
// size: 819" in Figure 3's annotation).
func (f *FileBuckets) MaxBucket() (idx, size int) { return f.maxIdx, f.maxSize }

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
