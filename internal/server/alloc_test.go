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
