// Allocation gates measure the un-instrumented runtime; the race
// detector's shadow allocations would fail them spuriously.
//go:build !race

package xmlenc

import (
	"bytes"
	"testing"
)

// TestDecoderAllocsPerRecord gates the property the dataset read path is
// built on: a decoder that has grown its record's slices decodes in
// place. A record whose only string is its op — one of spec.md's twelve,
// which the decoder does not copy — costs no allocation; any other costs
// one, the string its hashes, keywords and server tag are substrings of.
// Each shape of sampleRecords is measured alone.
func TestDecoderAllocsPerRecord(t *testing.T) {
	const perRun, runs = 1000, 20
	for _, shape := range sampleRecords() {
		doc := AppendHeader(nil, nil)
		for i := 0; i < perRun*(runs+2); i++ { // a warm-up run here, another inside AllocsPerRun
			doc = AppendRecord(doc, shape)
		}
		dec, err := NewDecoder(bytes.NewReader(AppendFooter(doc)))
		if err != nil {
			t.Fatal(err)
		}
		decode := func() {
			for i := 0; i < perRun; i++ {
				if _, err := dec.Next(); err != nil {
					t.Fatal(err)
				}
			}
		}
		decode()
		want := 0.0
		if hasCopiedString(shape) {
			want = 1
		}
		if perRecord := testing.AllocsPerRun(runs, decode) / perRun; perRecord > want {
			t.Errorf("a warm decoder allocates %.3f times per %s record; want at most %.0f", perRecord, shape.Op, want)
		}
	}
}

// hasCopiedString reports whether r holds a string the decoder takes from
// its line: anything but a known op.
func hasCopiedString(r *Record) bool {
	if r.Server != "" || len(r.Keywords) > 0 || !KnownOp(r.Op) {
		return true
	}
	for _, f := range r.Files {
		if f.NameHash != "" || f.TypeHash != "" {
			return true
		}
	}
	return false
}
