package server

import (
	"fmt"
	"testing"
	"unsafe"

	"edtrace/internal/ed2k"
)

// addrRange is the span of addresses one kind of a message's storage
// occupies.
type addrRange struct{ lo, hi, bytes uintptr }

func (r *addrRange) add(p unsafe.Pointer, n uintptr) {
	if n == 0 {
		return
	}
	a := uintptr(p)
	if r.bytes == 0 || a < r.lo {
		r.lo = a
	}
	r.hi = max(r.hi, a+n)
	r.bytes += n
}

func (r *addrRange) holds(p unsafe.Pointer, n uintptr) bool {
	a := uintptr(p)
	return n > 0 && a < r.hi && a+n > r.lo
}

// TestIndexOwnsOfferedFiles: once a fresh-decoded 200-file offer is
// handled, nothing the index keeps lies inside the message's slabs —
// not a file's packed tags, not its lowered name, not a tag name or
// string value its answers unpack, not a keyword key cut from its name —
// so no decoded message stays reachable from the index. Names are lower
// case, so strings.ToLower hands back its argument and would alias
// whatever it was given.
func TestIndexOwnsOfferedFiles(t *testing.T) {
	files := make([]ed2k.FileEntry, 200)
	for i := range files {
		files[i] = entry(byte(i), fmt.Sprintf("artist%d track%d.mp3", i%7, i), 1<<20, "audio")
		if i%50 == 0 { // a multi-byte name, the form searches use
			files[i].Tags = append(files[i].Tags, ed2k.Tag{Name: []byte("bitrate"), Type: ed2k.TagUint32, Num: 192})
		}
	}
	m, err := ed2k.Decode(ed2k.Encode(offer(5, files...)))
	if err != nil {
		t.Fatal(err)
	}
	msg := m.(*ed2k.OfferFiles)

	var tags, names, strs addrRange
	tagSize := unsafe.Sizeof(ed2k.Tag{})
	for _, e := range msg.Files {
		tags.add(unsafe.Pointer(unsafe.SliceData(e.Tags)), uintptr(len(e.Tags))*tagSize)
		for _, tg := range e.Tags {
			names.add(unsafe.Pointer(unsafe.SliceData(tg.Name)), uintptr(len(tg.Name)))
			strs.add(unsafe.Pointer(unsafe.StringData(tg.Str)), uintptr(len(tg.Str)))
		}
	}
	// Each kind of storage is one slab: its span is exactly its bytes.
	for what, r := range map[string]addrRange{"tags": tags, "names": names, "strings": strs} {
		if r.hi-r.lo != r.bytes {
			t.Fatalf("message %s span %d bytes for %d bytes of content: not one slab", what, r.hi-r.lo, r.bytes)
		}
	}
	inMessage := func(p unsafe.Pointer, n uintptr) bool {
		return tags.holds(p, n) || names.holds(p, n) || strs.holds(p, n)
	}
	str := func(s string) (unsafe.Pointer, uintptr) {
		return unsafe.Pointer(unsafe.StringData(s)), uintptr(len(s))
	}

	s := New("t", "d")
	if ack := s.Handle(0, 5, 4662, msg)[0].(*ed2k.OfferAck); ack.Accepted != 200 {
		t.Fatalf("accepted %d of 200", ack.Accepted)
	}
	indexed, keywords := 0, 0
	for _, sh := range s.shards {
		for _, f := range sh.files {
			indexed++
			if inMessage(str(string(f.tags))) || inMessage(str(f.nameLower())) {
				t.Fatalf("file %x: packed tags or lowered name inside the message", f.id)
			}
			for _, tg := range f.tags.appendTo(nil) {
				if inMessage(unsafe.Pointer(unsafe.SliceData(tg.Name)), uintptr(len(tg.Name))) || inMessage(str(tg.Str)) {
					t.Fatalf("file %x: unpacked tag %q inside the message", f.id, tg.Name)
				}
			}
		}
		for kw := range sh.keywords {
			keywords++
			if inMessage(str(kw)) {
				t.Fatalf("keyword %q inside the message", kw)
			}
		}
	}
	if indexed != 200 || keywords == 0 {
		t.Fatalf("indexed %d files and %d keywords", indexed, keywords)
	}
}
