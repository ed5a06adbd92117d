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
// place, paying one allocation per record — the string that the record's
// op, hashes, keywords and server tag are substrings of.
func TestDecoderAllocsPerRecord(t *testing.T) {
	const perRun, runs = 1000, 20
	shapes := sampleRecords()
	var doc []byte
	doc = AppendHeader(doc, nil)
	for i := 0; i < perRun*(runs+2); i++ { // a warm-up run here, another inside AllocsPerRun
		doc = AppendRecord(doc, shapes[i%len(shapes)])
	}
	doc = AppendFooter(doc)
	dec, err := NewDecoder(bytes.NewReader(doc))
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
	if perRecord := testing.AllocsPerRun(runs, decode) / perRun; perRecord > 1.1 {
		t.Fatalf("a warm decoder allocates %.2f times per record; want at most 1.1", perRecord)
	}
}
