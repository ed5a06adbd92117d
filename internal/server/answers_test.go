package server

import (
	"bytes"
	"fmt"
	"testing"

	"edtrace/internal/ed2k"
	"edtrace/internal/randx"
	"edtrace/internal/simtime"
)

// TestReusedAnswersMatchHandle runs one seeded request sequence through
// one reused Answers on one server and through Handle on its twin, and
// requires the encoded answers of every call to be byte-identical. The
// sequence touches every answer shape and every growth of the buffer:
// searches of every tree kind (ORs among them), GetSources mixing known
// and unknown hashes, offers that keep sources alive while time moves
// past the TTL of others, the sweep, stats, descriptions and answers the
// server ignores.
func TestReusedAnswersMatchHandle(t *testing.T) {
	reused, twin := NewShardedWith("t", "d", 4, nil), NewShardedWith("t", "d", 4, nil)
	var a Answers
	r := randx.New(11, 32)
	var ids []ed2k.FileID
	newID := func() ed2k.FileID {
		var id ed2k.FileID
		id[0], id[1], id[7] = byte(len(ids)), byte(len(ids)>>8), byte(r.Uint32())
		ids = append(ids, id)
		return id
	}
	now := simtime.Time(0)
	shapes := map[string]int{}
	for step := 0; step < 4000; step++ {
		now += simtime.Time(r.IntN(int(4 * simtime.Minute)))
		from := ed2k.ClientID(1000 + r.IntN(48))
		var req ed2k.Message
		switch n := r.IntN(100); {
		case n < 30:
			files := make([]ed2k.FileEntry, 1+r.IntN(4))
			for i := range files {
				id := newID()
				if len(ids) > 1 && r.Bool(0.4) {
					ids = ids[:len(ids)-1]
					id = ids[r.IntN(len(ids))]
				}
				name := fmt.Sprintf("%s %s.mp3", pickWord(r), randCase(r, pickWord(r)))
				files[i] = ed2k.FileEntry{ID: id, Tags: []ed2k.Tag{
					ed2k.StringTag(ed2k.FTFileName, name),
					ed2k.UintTag(ed2k.FTFileSize, uint32(r.IntN(1<<30))),
				}}
			}
			req = &ed2k.OfferFiles{Client: from, Port: 4662, Files: files}
		case n < 55:
			hashes := make([]ed2k.FileID, 1+r.IntN(ed2k.MaxHashesPer))
			for i := range hashes {
				if len(ids) == 0 || r.Bool(0.2) {
					hashes[i][15] = byte(r.Uint32()) // no file's ID
				} else {
					hashes[i] = ids[r.IntN(len(ids))]
				}
			}
			req = &ed2k.GetSources{Hashes: hashes}
		case n < 85:
			req = &ed2k.SearchReq{Expr: randExpr(r, 3, false)}
		case n < 90:
			req = &ed2k.StatReq{Challenge: r.Uint32()}
		case n < 93:
			req = ed2k.ServerDescReq{}
		case n < 95:
			req = ed2k.GetServerList{}
		case n < 97:
			req = &ed2k.OfferAck{Accepted: 1} // an answer: ignored
		default:
			reused.ExpireSources(now)
			twin.ExpireSources(now)
			continue
		}
		got := reused.HandleInto(&a, now, from, 4662, req)
		want := twin.Handle(now, from, 4662, req)
		if len(got) != len(want) {
			t.Fatalf("step %d, %T: %d answers through the reused buffer, %d from Handle", step, req, len(got), len(want))
		}
		for i := range got {
			if g, w := ed2k.Encode(got[i]), ed2k.Encode(want[i]); !bytes.Equal(g, w) {
				t.Fatalf("step %d, %T: answer %d differs\n got %+v\nwant %+v", step, req, i, got[i], want[i])
			}
			shapes[fmt.Sprintf("%T", got[i])]++
		}
		if _, ok := req.(*ed2k.SearchReq); ok && len(got[0].(*ed2k.SearchRes).Results) > 0 {
			shapes["search hits"]++
		}
		if len(got) > 1 {
			shapes["several answers"]++
		}
	}
	for _, shape := range []string{"*ed2k.OfferAck", "*ed2k.FoundSources", "*ed2k.SearchRes", "search hits",
		"several answers", "*ed2k.StatRes", "*ed2k.ServerDescRes", "*ed2k.ServerList"} {
		if shapes[shape] < 5 {
			t.Errorf("the sequence gave %d answers of shape %s: it no longer exercises the buffer", shapes[shape], shape)
		}
	}
	if st := reused.Stats(); st.IndexedFiles == len(ids) {
		t.Errorf("no file expired over the sequence (%d indexed): it no longer exercises the TTL", st.IndexedFiles)
	}
}
