// Allocation gates measure the un-instrumented runtime; the race
// detector's shadow allocations would fail them spuriously.
//go:build !race

package server

import (
	"fmt"
	"testing"

	"edtrace/internal/ed2k"
)

// TestSearchAllocs pins what a full answer costs the allocator: a
// two-keyword search with MaxSearchResults hits allocates the answer
// (the SearchRes, its Results, one tag array for all of them, Handle's
// answer slice) and the lowered copy of its three-node expression, one
// slab — five objects, whatever the number of hits, candidates or nodes.
func TestSearchAllocs(t *testing.T) {
	s := New("t", "d")
	for i := 0; i < 40; i++ {
		e := entry(byte(i), fmt.Sprintf("common word%d take%d.mp3", i%2, i), 1000, "Audio")
		s.Handle(0, ed2k.ClientID(100+i), 1, offer(ed2k.ClientID(100+i), e))
	}
	req := &ed2k.SearchReq{Expr: ed2k.And(ed2k.Keyword("common"), ed2k.Keyword("word1"))}
	if res := s.Handle(0, 7, 7, req)[0].(*ed2k.SearchRes); len(res.Results) != MaxSearchResults {
		t.Fatalf("search found %d files, want %d", len(res.Results), MaxSearchResults)
	}
	const ceiling = 5
	if got := testing.AllocsPerRun(200, func() { s.Handle(0, 7, 7, req) }); got > ceiling {
		t.Fatalf("a %d-hit two-keyword search allocates %.0f times, ceiling %d", MaxSearchResults, got, ceiling)
	}
}

// TestReusedAnswersAllocs pins what a served request costs the allocator
// through one reused Answers, as a daemon session serves: nothing, once
// the buffer has grown to the requests it serves. The kinds share the
// buffer, so each reuses storage the others grew too.
func TestReusedAnswersAllocs(t *testing.T) {
	s := New("t", "d")
	for i := 0; i < 40; i++ {
		e := entry(byte(i), fmt.Sprintf("common word%d take%d.mp3", i%2, i), 1000, "Audio")
		for k := 0; k <= i%3; k++ { // one to three sources a file
			from := ed2k.ClientID(100 + i + 1000*k)
			s.Handle(0, from, 1, offer(from, e))
		}
	}
	var unknown ed2k.FileID
	unknown[3] = 0xEE
	reqs := []struct {
		name    string
		req     ed2k.Message
		answers int
	}{
		{"search", &ed2k.SearchReq{Expr: ed2k.And(ed2k.Keyword("common"), ed2k.Keyword("word1"))}, 1},
		{"getsources", &ed2k.GetSources{Hashes: []ed2k.FileID{
			entry(1, "", 0, "").ID, unknown, entry(2, "", 0, "").ID, entry(5, "", 0, "").ID,
		}}, 3},
		{"offer", offer(107, entry(7, "common word1 take7.mp3", 1000, "Audio")), 1},
		{"stat", &ed2k.StatReq{Challenge: 9}, 1},
	}
	var a Answers
	for _, c := range reqs {
		if got := len(s.HandleInto(&a, 0, 107, 1, c.req)); got != c.answers {
			t.Fatalf("%s: %d answers, want %d", c.name, got, c.answers)
		}
	}
	if res := s.HandleInto(&a, 0, 107, 1, reqs[0].req)[0].(*ed2k.SearchRes); len(res.Results) != MaxSearchResults {
		t.Fatalf("search found %d files, want %d", len(res.Results), MaxSearchResults)
	}
	for _, c := range reqs {
		if got := testing.AllocsPerRun(200, func() { s.HandleInto(&a, 0, 107, 1, c.req) }); got != 0 {
			t.Errorf("%s through a reused Answers allocates %.0f times, want 0", c.name, got)
		}
	}
}

// newFileSink keeps TestNewFileAllocs' records on the heap.
var newFileSink *indexedFile

// TestNewFileAllocs pins what the index's record of a new file costs
// beside the record itself: one allocation for its packed tags and, when
// its name has upper case, one for the lowered name, which the packed
// tags then hold too. A lower-case name is its own lowered name.
func TestNewFileAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		want float64
	}{
		{"mozart requiem live.mp3", 2},
		{"Mozart Requiem LIVE.mp3", 3},
	} {
		e := entry(1, c.name, 5<<20, "Audio")
		e.Tags = append(e.Tags, ed2k.Tag{Name: []byte("bitrate"), Type: ed2k.TagUint32, Num: 192})
		if got := testing.AllocsPerRun(200, func() { newFileSink = newIndexedFile(&e, 7, 4662) }); got != c.want {
			t.Errorf("%q: the record of a new file allocates %.0f times, want %.0f (the record included)", c.name, got, c.want)
		}
	}
}
