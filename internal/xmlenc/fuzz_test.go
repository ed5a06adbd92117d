package xmlenc

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"testing"
)

// decodeAll decodes a whole document into records the caller may keep.
func decodeAll(doc []byte) ([]*Record, error) {
	dec, err := NewDecoder(bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	var recs []*Record
	for {
		r, err := dec.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs = append(recs, r.Clone())
	}
}

// FuzzDecoderLine feeds arbitrary bytes to the decoder as the record
// lines of an otherwise valid document. Nothing may panic, and whatever
// decodes must be stable under the encoder: AppendRecord of the record
// decodes to an equal record and encodes to the same bytes again. (t has
// three decimals on the wire, so the first re-encoding may round it.)
func FuzzDecoderLine(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(bytes.TrimSuffix(AppendRecord(nil, r), []byte("\n")))
	}
	for _, line := range badRecordLines() {
		f.Add([]byte(line))
	}
	f.Add([]byte(`<r t="NaN" c="1" op="a&quot;b&amp;" dir="a" srv="&lt;s&gt;"><k h="&apos;&bogus;"/></r>`))
	f.Add([]byte(`<r t="1e3"c="4294967295"op="StatRes"dir="a"files="7"><f id="1" id="2" n=""/></r>`))
	f.Fuzz(func(t *testing.T, line []byte) {
		doc := append(AppendHeader(nil, nil), line...)
		doc = AppendFooter(append(doc, '\n'))
		recs, _ := decodeAll(doc)
		for _, r1 := range recs {
			b1 := AppendRecord(nil, r1)
			again, err := decodeAll(AppendFooter(append(AppendHeader(nil, nil), b1...)))
			if err != nil || len(again) != 1 {
				t.Fatalf("re-encoded record does not decode (%v, %d records):\n%s", err, len(again), b1)
			}
			r2 := again[0]
			if b2 := AppendRecord(nil, r2); !bytes.Equal(b1, b2) {
				t.Fatalf("encoding is not stable:\n%s%s", b1, b2)
			}
			if math.Abs(r1.T-r2.T) <= 0.0005 || math.IsNaN(r1.T) && math.IsNaN(r2.T) {
				r1.T, r2.T = 0, 0
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("record changed through the encoder:\n got %+v\nwant %+v", r2, r1)
			}
		}
	})
}
