package edserverd

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"time"

	"edtrace/internal/ed2k"
	"edtrace/internal/policy"
	"edtrace/internal/server"
	"edtrace/internal/simtime"
)

// TestBorrowedOffersIndexedByCopy: a session's requests are decoded into
// pooled structs that a later request on the session decodes over. Two
// offers whose files differ in name, tag order and tag names go through
// one session back to back, so the second is decoded (into the first's
// struct, when the pool hands it back) before anything asks about the
// first. The index must answer for both files exactly as a reference
// server fed Decoded copies of the same requests does.
func TestBorrowedOffersIndexedByCopy(t *testing.T) {
	const id = flushTestClient
	d := startTest(t, Config{})
	conn := loginAs(t, d)
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	sr := ed2k.NewStreamReader(conn)

	fa, fb := testEntry(1, "").ID, testEntry(2, "").ID
	reqs := []ed2k.Message{
		&ed2k.OfferFiles{Client: id, Port: flushTestPort, Files: []ed2k.FileEntry{{ID: fa, Tags: []ed2k.Tag{
			ed2k.StringTag(ed2k.FTFileName, "first borrowed alpha.mp3"),
			ed2k.UintTag(ed2k.FTFileSize, 3<<20),
			ed2k.StringTag(ed2k.FTFileType, "Audio"),
			{Name: []byte("artist"), Type: ed2k.TagString, Str: "alpha band"},
		}}}},
		&ed2k.OfferFiles{Client: id, Port: flushTestPort, Files: []ed2k.FileEntry{{ID: fb, Tags: []ed2k.Tag{
			ed2k.UintTag(ed2k.FTFileSize, 700<<20),
			{Name: []byte("bitrat"), Type: ed2k.TagUint32, Num: 192},
			ed2k.StringTag(ed2k.FTFileName, "the second overwriting beta video.avi"),
			ed2k.StringTag(ed2k.FTFileType, "Video"),
		}}}},
		&ed2k.GetSources{Hashes: []ed2k.FileID{fa, fb}},
		&ed2k.SearchReq{Expr: ed2k.Keyword("alpha")},
		&ed2k.SearchReq{Expr: ed2k.Keyword("beta")},
		&ed2k.SearchReq{Expr: &ed2k.SearchExpr{Kind: ed2k.KindMetaStr, Word: "audio", Meta: ed2k.MetaNameType}},
	}
	var stream []byte
	for _, m := range reqs {
		stream = ed2k.AppendFrameTCP(stream, m)
	}
	// One write: the session decodes every request on one goroutine
	// without waiting in between.
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}

	ref := server.New("ref", "")
	for i, m := range reqs {
		cp, err := ed2k.Decode(ed2k.Encode(m))
		if err != nil {
			t.Fatal(err)
		}
		for j, want := range ref.Handle(simtime.Time(0), id, flushTestPort, cp) {
			got, err := sr.Next()
			if err != nil {
				t.Fatalf("request %d answer %d: %v", i, j, err)
			}
			if g, w := ed2k.Encode(got), ed2k.Encode(want); !bytes.Equal(g, w) {
				t.Fatalf("request %d (%s) answer %d:\n got %v\nwant %v", i, ed2k.OpcodeName(m.Opcode()), j, got, want)
			}
		}
	}
}

// TestPolicyCutAskDoesNotShortenNextDecode: the policy truncates an
// over-budget GetSources in place, in the pooled struct the next
// GetSources is decoded into. The cut must not carry over: a later ask
// the budget covers is answered for every hash it names.
func TestPolicyCutAskDoesNotShortenNextDecode(t *testing.T) {
	// A low-ID session's burst is 2 hashes, a high-ID one's 4; the rate
	// refills a bucket within nanoseconds, so only the burst binds.
	half := 0.5
	d := startTest(t, Config{Policy: &policy.Config{Messages: &policy.MessageSpec{
		AskHashesPerSec: 1e9, AskBurst: 4, LowIDFactor: &half,
		ThrottleDelay: policy.Duration(time.Millisecond),
	}}})
	conn, sr := dialAndLogin(t, d) // low ID
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	files := []ed2k.FileEntry{testEntry(1, "a.mp3"), testEntry(2, "b.mp3"), testEntry(3, "c.mp3")}
	ask := &ed2k.GetSources{}
	for _, f := range files {
		ask.Hashes = append(ask.Hashes, f.ID)
	}
	var stream []byte
	for _, m := range []ed2k.Message{
		&ed2k.OfferFiles{Port: 4662, Files: files},
		ask, // cut to 2
		&ed2k.LoginRequest{Client: 0x0B000002, Port: 4662, Nick: "upgraded"}, // high ID from here
		ask, // within the budget
		&ed2k.StatReq{Challenge: 7},
	} {
		stream = ed2k.AppendFrameTCP(stream, m)
	}
	if _, err := conn.Write(stream); err != nil {
		t.Fatal(err)
	}
	var got []string
	for len(got) == 0 || got[len(got)-1] != "stat" {
		m, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch a := m.(type) {
		case *ed2k.FoundSources:
			got = append(got, fmt.Sprintf("sources %d", a.Hash[0]))
		case *ed2k.StatRes:
			got = append(got, "stat")
		default:
			got = append(got, fmt.Sprintf("%T", m))
		}
	}
	want := []string{"*ed2k.OfferAck", "sources 1", "sources 2", "*ed2k.IDChange",
		"sources 1", "sources 2", "sources 3", "stat"}
	if !slices.Equal(got, want) {
		t.Fatalf("answers %q,\nwant %q", got, want)
	}
}
