// Package anonymize implements the paper's anonymisation layer (§2.4):
//
//   - clientID: encoded by order of appearance. The paper rejects hashing
//     (trivially invertible over the 2^32 space) and shuffling, and uses a
//     flat array of 2^32 integers — 16 GB — indexed by the clientID so
//     every lookup is one memory access. ClientDirect is that array cut
//     into 16 KiB pages (4096 cells, one /20 of the ID space) behind a
//     directory of 2^20 page pointers: a lookup is a shift, a directory
//     load, a mask and a cell load, and a page materialises the first
//     time an ID on it is seen. The table therefore costs 8 MiB of
//     directory plus 16 KiB per distinct /20 touched. There is no
//     separate "eager" layout with every page allocated up front: that
//     is this table once every page has been touched, which a capture
//     of the paper's 90 M clients approaches — the paper's 16 GiB
//     array, plus the directory.
//   - fileID: also order of appearance, but 128-bit identifiers rule the
//     flat array out. The paper splits the set into 65 536 sorted arrays
//     indexed by two bytes of the fileID, and discovers that using the
//     *first* two bytes is pathological because forged fileIDs cluster on
//     a few prefixes (its Figure 3). FileBuckets implements the bucketed
//     structure with a configurable byte pair.
//   - strings (search keywords, filenames, server descriptions): md5.
//   - filesizes: truncated to kilobytes.
//   - timestamps: rebased to seconds since the start of the capture
//     (done by the pipeline, which owns the clock).
//
// Map-based and single-sorted-array baselines are included because the
// paper explicitly argues classical structures are "too slow and/or too
// space consuming"; the ablation benchmarks quantify that claim.
package anonymize

import "fmt"

// The page size is a constant chosen from a measured curve (4, 16 and
// 64 KiB pages against live heap, lookup time and the ablation benchmark:
// docs/architecture.md). Smaller pages waste less around a lone ID but
// grow the directory, which is the one part of the table the garbage
// collector scans and, at 2^20 entries, already larger than L2.
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
// clientID i. Cells store anon+1 so the zero value means "unseen" and
// fresh pages need no initialisation pass.
type ClientDirect struct {
	dir   *[dirEntries]*[pageCells]uint32
	pages int
	next  uint32
}

// NewClientDirect returns an empty table: the directory, no pages.
func NewClientDirect() *ClientDirect {
	return &ClientDirect{dir: new([dirEntries]*[pageCells]uint32)}
}

// Anonymize returns the stable anonymised identifier for id, assigning
// the next integer on first sight: one index computation and at most one
// page allocation.
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

// MemoryBytes is the table's current footprint: the directory and every
// materialised page.
func (c *ClientDirect) MemoryBytes() uint64 {
	return dirBytes + uint64(c.pages)*pageBytes
}

// ClientMap is the classical-hashtable baseline the paper dismisses as too
// slow for billions of lookups. It exists for the ablation benchmarks.
type ClientMap struct {
	m    map[uint32]uint32
	next uint32
}

// NewClientMap returns an empty map-based anonymizer.
func NewClientMap() *ClientMap {
	return &ClientMap{m: make(map[uint32]uint32)}
}

// Anonymize is ClientDirect.Anonymize over a Go map.
func (c *ClientMap) Anonymize(id uint32) uint32 {
	if v, ok := c.m[id]; ok {
		return v
	}
	v := c.next
	c.next++
	c.m[id] = v
	return v
}

// Count returns how many distinct clientIDs have been seen.
func (c *ClientMap) Count() uint32 { return c.next }

// String describes the structure for reports.
func (c *ClientDirect) String() string {
	return fmt.Sprintf("direct-index array: %d clients, %d/%d pages of %d KiB, %.1f MiB with the directory",
		c.next, c.pages, dirEntries, pageBytes>>10, float64(c.MemoryBytes())/(1<<20))
}
