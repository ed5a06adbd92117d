package analysis

import (
	"math/bits"

	"edtrace/internal/stats"
)

// denseSlack is how far past twice the files sized so far a file ID may
// lie and still be held by a sizeTable's table. It keeps the first files
// of a stream, whose count says little yet, out of the far map.
const denseSlack = 256

// sizeTable holds each file's first size, for Fig 8. Anonymised file IDs
// are dense in [0, N) (spec §4), so the sizes live in a table indexed by
// ID, a size word and a seen bit an ID: about 8 bytes a file, where a map
// took 19–39. The table doubles to cover a new ID. An ID at or past
// 2n + denseSlack, n the files sized so far, is held in a map instead, so
// that no stream of IDs grows the table past O(n); once the table grows
// over such an ID, the ID moves into it with the size it has. The map so
// only ever holds IDs past the table.
//
// The zero sizeTable is empty and ready to use.
type sizeTable struct {
	kb   []uint64          // kb[id] is file id's size, where seen says so
	seen []uint64          // bit id%64 of seen[id/64]: kb[id] is set
	n    int               // files sized, in the table and in far
	far  map[uint32]uint64 // sizes of files past the table
}

// add records size kb for file id, unless the file has one already.
func (t *sizeTable) add(id uint32, kb uint64) {
	if uint(id) >= uint(len(t.kb)) {
		if uint(id) >= uint(2*t.n+denseSlack) {
			if _, ok := t.far[id]; !ok {
				if t.far == nil {
					t.far = make(map[uint32]uint64)
				}
				t.far[id] = kb
				t.n++
			}
			return
		}
		t.grow(uint(id) + 1)
	}
	if w, bit := id/64, uint64(1)<<(id%64); t.seen[w]&bit == 0 {
		t.seen[w] |= bit
		t.kb[id] = kb
		t.n++
	}
}

// grow doubles the table until it covers n IDs, and moves the sizes of the
// far IDs it then covers into it.
func (t *sizeTable) grow(n uint) {
	size := max(uint(len(t.kb)), 64)
	for size < n {
		size *= 2
	}
	t.resize(size)
	for id, kb := range t.far {
		if uint(id) < size {
			t.kb[id] = kb
			t.seen[id/64] |= 1 << (id % 64)
			delete(t.far, id)
		}
	}
	if len(t.far) == 0 {
		t.far = nil
	}
}

// resize copies the table into slices of exactly size IDs. The IDs past
// size, if it shrinks, must be unsized.
func (t *sizeTable) resize(size uint) {
	kb := make([]uint64, size)
	seen := make([]uint64, (size+63)/64)
	copy(kb, t.kb)
	copy(seen, t.seen)
	t.kb, t.seen = kb, seen
}

// finish trims the table to its last sized ID: what it holds once it is
// read. Adds after it grow it again.
func (t *sizeTable) finish() {
	size := uint(0)
	for w := len(t.seen) - 1; w >= 0; w-- {
		if t.seen[w] != 0 {
			size = uint(w)*64 + 64 - uint(bits.LeadingZeros64(t.seen[w]))
			break
		}
	}
	if size != uint(len(t.kb)) {
		t.resize(size)
	}
}

// fill adds each file's size to h.
func (t *sizeTable) fill(h *stats.IntHist) {
	for w, word := range t.seen {
		for ; word != 0; word &= word - 1 {
			h.Add(t.kb[w*64+bits.TrailingZeros64(word)])
		}
	}
	for _, kb := range t.far {
		h.Add(kb)
	}
}
