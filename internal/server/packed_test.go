package server

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"edtrace/internal/ed2k"
	"edtrace/internal/randx"
)

// FuzzPackedTags: for every file of any offer the decoder accepts, the
// index's record keeps what the file's kept tags say and nothing of the
// message. Its packed tags unpack to resultTags field by field; the
// name, type and size read from them are FileEntry's; and neither they,
// nor the lowered name, nor a tag name or string unpacked from them lies
// inside the message's storage.
func FuzzPackedTags(f *testing.F) {
	long := strings.Repeat("y", 300)
	for _, files := range [][]ed2k.FileEntry{
		{entry(1, "Mozart Requiem LIVE.mp3", 5<<20, "Audio"), entry(2, "vivaldi seasons.mp3", 1, "audio")},
		{{}}, // no tags
		{{Tags: []ed2k.Tag{
			{Name: nil, Type: ed2k.TagString, Str: "nameless"},
			{Name: []byte("bitrate"), Type: ed2k.TagUint32, Num: 192},
			ed2k.StringTag(ed2k.FTFileName, ""),
			ed2k.StringTag(ed2k.FTFileType, "Vid\xc3\xa9o"),
			{Name: []byte(long), Type: ed2k.TagString, Str: long},
			ed2k.UintTag(ed2k.FTFileSize, 0xFFFFFFFF),
			ed2k.UintTag(0xFF, 7), // the last one-byte name
		}}},
		{{Tags: []ed2k.Tag{ed2k.StringTag(ed2k.FTFileName, "caf\xc3\xa9 \xff"), ed2k.StringTag(ed2k.FTFileName, "second")}}},
	} {
		f.Add(ed2k.Encode(offer(5, files...)))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		msg, err := ed2k.Decode(raw)
		if err != nil {
			return
		}
		m, ok := msg.(*ed2k.OfferFiles)
		if !ok {
			return
		}
		var held []addrRange
		hold := func(p unsafe.Pointer, n uintptr) {
			var r addrRange
			r.add(p, n)
			held = append(held, r)
		}
		for _, e := range m.Files {
			hold(unsafe.Pointer(unsafe.SliceData(e.Tags)), uintptr(len(e.Tags))*unsafe.Sizeof(ed2k.Tag{}))
			for _, tg := range e.Tags {
				hold(unsafe.Pointer(unsafe.SliceData(tg.Name)), uintptr(len(tg.Name)))
				hold(unsafe.Pointer(unsafe.StringData(tg.Str)), uintptr(len(tg.Str)))
			}
		}
		inMessage := func(p unsafe.Pointer, n uintptr) bool {
			for _, r := range held {
				if r.holds(p, n) {
					return true
				}
			}
			return false
		}
		str := func(s string) (unsafe.Pointer, uintptr) {
			return unsafe.Pointer(unsafe.StringData(s)), uintptr(len(s))
		}

		for i := range m.Files {
			e := &m.Files[i]
			kept := ed2k.FileEntry{Tags: resultTags(e.Tags)}
			idx := newIndexedFile(e, 9, 4662)
			got := idx.tags.appendTo(nil)
			if idx.tags.count() != len(kept.Tags) || len(got) != len(kept.Tags) {
				t.Fatalf("file %d: %d tags unpacked, count %d, want %d", i, len(got), idx.tags.count(), len(kept.Tags))
			}
			for k, want := range kept.Tags {
				g := got[k]
				if g.Type != want.Type || !bytes.Equal(g.Name, want.Name) || g.Str != want.Str || g.Num != want.Num {
					t.Fatalf("file %d tag %d: unpacked %+v, want %+v", i, k, g, want)
				}
				if inMessage(unsafe.Pointer(unsafe.SliceData(g.Name)), uintptr(len(g.Name))) || inMessage(str(g.Str)) {
					t.Fatalf("file %d tag %d: unpacked name or string inside the message", i, k)
				}
			}
			name, nok := idx.tags.name()
			wname, wnok := kept.Name()
			typ, tok := idx.tags.typ()
			wtyp, wtok := kept.Type()
			size, sok := idx.tags.size()
			wsize, wsok := kept.Size()
			if name != wname || nok != wnok || typ != wtyp || tok != wtok || size != wsize || sok != wsok {
				t.Fatalf("file %d: packed name %q %v, type %q %v, size %d %v; FileEntry says %q %v, %q %v, %d %v",
					i, name, nok, typ, tok, size, sok, wname, wnok, wtyp, wtok, wsize, wsok)
			}
			if idx.size != wsize || idx.nameLower() != strings.ToLower(wname) {
				t.Fatalf("file %d: size %d, lowered name %q; want %d, %q", i, idx.size, idx.nameLower(), wsize, strings.ToLower(wname))
			}
			if inMessage(str(string(idx.tags))) || inMessage(str(idx.nameLower())) {
				t.Fatalf("file %d: packed tags or lowered name inside the message", i)
			}
		}
	})
}

// TestEqualLower: the type test's ASCII fold agrees with comparing
// strings.ToLower's results, on ASCII, on runes that lowering lengthens
// or shortens, and on invalid UTF-8.
func TestEqualLower(t *testing.T) {
	words := []string{"", "a", "audio", "Audio", "AUDIO", "audios", "audi", "vid\xc3\xa9o", "VID\xc3\x89O",
		"\xe2\x84\xaa", "k", "K", "İ", "i̇", "\xff", "\xef\xbf\xbd", "a\xff", "A\xff", "a\xef\xbf\xbd"}
	for _, s := range words {
		for _, w := range words {
			lower := strings.ToLower(w)
			if got, want := equalLower(s, lower), strings.ToLower(s) == lower; got != want {
				t.Errorf("equalLower(%q, %q) = %v, want %v", s, lower, got, want)
			}
		}
	}
}

// footprintCatalog offers n files shaped like the bench's serve catalog
// from 1,500 clients, ten files an offer: a name of two or three words
// of a 1,000-word vocabulary and ".mp3" (~25 bytes, ~3.5 tokens), a size
// and the type "Audio".
func footprintCatalog(s *Server, n int) {
	r := randx.New(17, 3)
	zipf := randx.NewZipf(r, 1.4, 2, 999)
	files := make([]ed2k.FileEntry, 0, 10)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("word%04d", zipf.Uint64())
		for k := 1 + r.IntN(2); k > 0; k-- {
			name += fmt.Sprintf(" word%04d", zipf.Uint64())
		}
		var id ed2k.FileID
		for b := range id {
			id[b] = byte(r.Uint64())
		}
		files = append(files, ed2k.FileEntry{ID: id, Tags: []ed2k.Tag{
			ed2k.StringTag(ed2k.FTFileName, name+".mp3"),
			ed2k.UintTag(ed2k.FTFileSize, uint32(r.IntN(8<<20))),
			ed2k.StringTag(ed2k.FTFileType, "Audio"),
		}})
		if len(files) == cap(files) || i == n-1 {
			from := ed2k.ClientID(1000 + i%1500)
			s.Handle(0, from, 4662, offer(from, files...))
			files = files[:0]
		}
	}
}

// TestIndexFootprint: a file of a serve-shaped catalog costs the index
// at most 340 bytes of live heap — its record, packed tags, source,
// table entry and postings, and its share of the keyword and user
// tables. A tag array of its own, a second string of its values and
// lowered copies of its name and type cost ~430.
func TestIndexFootprint(t *testing.T) {
	const n, limit = 16_000, 340
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	s := New("t", "d")
	footprintCatalog(s, n)
	held := heap() - before
	runtime.KeepAlive(s)
	if got := s.Stats().IndexedFiles; got != n {
		t.Fatalf("indexed %d files, want %d", got, n)
	}
	per := float64(held) / n
	t.Logf("%d files: live heap grew by %d bytes, %.0f B an indexed file (a record of %d B)", n, held, per, unsafe.Sizeof(indexedFile{}))
	if per > limit {
		t.Errorf("%.0f B an indexed file, want <= %d", per, limit)
	}
}
