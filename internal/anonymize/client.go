// Package anonymize implements the paper's anonymisation layer (§2.4):
//
//   - clientID: encoded by order of appearance. The paper rejects hashing
//     (trivially invertible over the 2^32 space) and shuffling, and uses a
//     flat array of 2^32 integers — 16 GB — indexed by the clientID so
//     every lookup is one memory access. ClientTable, the pipeline's
//     table, keeps the same pseudonyms (the next integer on first sight)
//     in a Go map, so it costs what the clients it has seen cost — 12 to
//     19 bytes each — wherever in the 32-bit space their IDs fall.
//     ClientDirect is the paper's array, cut into 16 KiB pages behind a
//     directory of 2^20 page pointers: 8 MiB of directory plus 16 KiB for
//     every /20 of the ID space touched. It stays as the reference the
//     table is tested against and the ablation row it is measured
//     against; it is smaller only when IDs fill a range densely, which
//     the high IDs of a capture do not (docs/architecture.md).
//   - fileID: also order of appearance, but 128-bit identifiers rule the
//     flat array out. The paper splits the set into 65 536 sorted arrays
//     indexed by two bytes of the fileID, and discovers that using the
//     *first* two bytes is pathological because forged fileIDs cluster on
//     a few prefixes (its Figure 3). FileBuckets implements the bucketed
//     structure with a configurable byte pair, storing only the buckets
//     in use behind a 256 KiB directory: ~0.86 MB for 12 000 random
//     fileIDs, ~30 B a fileID once every bucket is in use.
//   - strings (search keywords, filenames, server descriptions): md5.
//   - filesizes: truncated to kilobytes.
//   - timestamps: rebased to seconds since the start of the capture
//     (done by the pipeline, which owns the clock).
//
// Map-based and single-sorted-array fileID baselines are included because
// the paper explicitly argues classical structures are "too slow and/or
// too space consuming"; the ablation benchmarks quantify that claim.
package anonymize

// clientEntryBytes is what one client costs ClientTable, taken across a
// growth cycle of the map: 8 bytes of key and value plus a control byte
// a slot, at a load between 7/16 and 7/8 of the slots, is 10 to 21 bytes.
// The ablation benchmark measures 12 to 19.
const clientEntryBytes = 16

// ClientTable assigns each clientID the next integer the first time it
// is seen. Its map holds no pointers, so the garbage collector never
// scans it, and Go's map grows one bounded table at a time, so no insert
// stalls the capture for a rehash of the whole table.
type ClientTable struct {
	m map[uint32]uint32
}

// NewClientTable returns an empty table.
func NewClientTable() *ClientTable {
	return &ClientTable{m: make(map[uint32]uint32)}
}

// Anonymize returns the stable anonymised identifier for id, assigning
// the next integer on first sight.
func (c *ClientTable) Anonymize(id uint32) uint32 {
	if v, ok := c.m[id]; ok {
		return v
	}
	v := uint32(len(c.m))
	c.m[id] = v
	return v
}

// Count returns how many distinct clientIDs have been seen.
func (c *ClientTable) Count() uint32 { return uint32(len(c.m)) }

// MemoryBytes estimates the table's footprint from the clients it holds.
func (c *ClientTable) MemoryBytes() uint64 {
	return uint64(len(c.m)) * clientEntryBytes
}

// The paper's array, paged: 16 KiB pages (4096 cells, one /20 of the ID
// space) behind a directory of 2^20 page pointers.
const (
	clientSpaceBits = 32
	pageBits        = 12 // 4096 cells (16 KiB) per page
	pageCells       = 1 << pageBits
	dirEntries      = 1 << (clientSpaceBits - pageBits)

	pageBytes = pageCells * 4
	dirBytes  = dirEntries * 8
)

// ClientDirect is the paper's direct-index structure: conceptually one
// array of 2^32 uint32 cells, cell i holding the anonymisation of
// clientID i. A page materialises the first time an ID on it is seen;
// cells store anon+1 so the zero value means "unseen" and fresh pages
// need no initialisation pass. Once every page has been touched it is
// the paper's 16 GiB array plus the directory.
type ClientDirect struct {
	dir   *[dirEntries]*[pageCells]uint32
	pages int
	next  uint32
}

// NewClientDirect returns an empty table: the directory, no pages.
func NewClientDirect() *ClientDirect {
	return &ClientDirect{dir: new([dirEntries]*[pageCells]uint32)}
}

// Anonymize is ClientTable.Anonymize: one index computation and at most
// one page allocation.
func (c *ClientDirect) Anonymize(id uint32) uint32 {
	page := c.dir[id>>pageBits]
	if page == nil {
		page = new([pageCells]uint32)
		c.dir[id>>pageBits] = page
		c.pages++
	}
	cell := &page[id&(pageCells-1)]
	if v := *cell; v != 0 {
		return v - 1
	}
	anon := c.next
	c.next++
	*cell = anon + 1
	return anon
}

// Lookup returns the anonymisation of id if it has been seen.
func (c *ClientDirect) Lookup(id uint32) (uint32, bool) {
	page := c.dir[id>>pageBits]
	if page == nil {
		return 0, false
	}
	v := page[id&(pageCells-1)]
	if v == 0 {
		return 0, false
	}
	return v - 1, true
}

// Count returns how many distinct clientIDs have been seen.
func (c *ClientDirect) Count() uint32 { return c.next }

// PagesAllocated reports how many pages have materialised.
func (c *ClientDirect) PagesAllocated() int { return c.pages }

// MemoryBytes is the array's footprint: the directory and every
// materialised page.
func (c *ClientDirect) MemoryBytes() uint64 {
	return dirBytes + uint64(c.pages)*pageBytes
}
