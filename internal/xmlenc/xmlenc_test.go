package xmlenc

import (
	"bytes"
	"encoding/xml"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func sampleRecords() []*Record {
	return []*Record{
		{T: 0.001, Client: 0, Op: "OfferFiles", Dir: DirQuery, Files: []FileInfo{
			{ID: 0, NameHash: "aabb", SizeKB: 4096, TypeHash: "ccdd"},
			{ID: 1, SizeKB: 716800},
		}},
		{T: 0.002, Client: 0, Op: "OfferAck", Dir: DirAnswer, Accepted: 2},
		{T: 1.5, Client: 7, Op: "SearchReq", Dir: DirQuery,
			Keywords: []string{"deadbeef", "cafebabe"}, MinKB: 100, MaxKB: 900000},
		{T: 2.25, Client: 9, Op: "GetSources", Dir: DirQuery, FileRefs: []uint32{3, 4, 5}},
		{T: 2.5, Client: 9, Op: "FoundSources", Dir: DirAnswer,
			FileRefs: []uint32{3}, Sources: []uint32{0, 7, 12}},
		{T: 3, Client: 12, Op: "StatRes", Dir: DirAnswer, Users: 120000, FilesCount: 9000000},
		{T: 4, Client: 13, Op: "GetServerList", Dir: DirQuery},
		{T: 5, Client: 14, Op: "SearchRes", Dir: DirAnswer, Server: "mesh-1",
			Files: []FileInfo{{ID: 2, SizeKB: 12}}},
	}
}

// encodeDoc builds one whole document the way the dataset writer builds
// a chunk: header, one line per record, footer.
func encodeDoc(meta map[string]string, recs ...*Record) []byte {
	b := AppendHeader(nil, meta)
	for _, r := range recs {
		b = AppendRecord(b, r)
	}
	return AppendFooter(b)
}

func roundtrip(t *testing.T, recs []*Record, meta map[string]string) ([]*Record, map[string]string) {
	t.Helper()
	dec, err := NewDecoder(bytes.NewReader(encodeDoc(meta, recs...)))
	if err != nil {
		t.Fatal(err)
	}
	var got []*Record
	for {
		r, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	return got, dec.Meta()
}

func TestRoundtripAllRecordShapes(t *testing.T) {
	want := sampleRecords()
	got, meta := roundtrip(t, want, map[string]string{"seed": "42", "scale": "0.001"})
	if len(got) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("record %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
	if meta["seed"] != "42" || meta["scale"] != "0.001" || meta["version"] != "1.0" {
		t.Fatalf("meta = %v", meta)
	}
}

func TestOutputIsValidXML(t *testing.T) {
	// Cross-validate the hand-rolled encoder against encoding/xml.
	recs := sampleRecords()
	// Include hostile strings in hashes (should never happen in real
	// datasets, but escaping must still be correct).
	recs[2].Keywords = []string{`a&b<c>"d'`}
	raw := encodeDoc(map[string]string{"note": `has "quotes" & <brackets>`}, recs...)

	type xmlRecord struct {
		T   float64 `xml:"t,attr"`
		C   uint32  `xml:"c,attr"`
		Op  string  `xml:"op,attr"`
		Dir string  `xml:"dir,attr"`
		K   []struct {
			H string `xml:"h,attr"`
		} `xml:"k"`
	}
	var doc struct {
		XMLName xml.Name    `xml:"edtrace"`
		Note    string      `xml:"note,attr"`
		Records []xmlRecord `xml:"r"`
	}
	if err := xml.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("encoding/xml rejects our output: %v", err)
	}
	if doc.Note != `has "quotes" & <brackets>` {
		t.Fatalf("meta escaping mangled: %q", doc.Note)
	}
	if len(doc.Records) != len(recs) {
		t.Fatalf("encoding/xml parsed %d records", len(doc.Records))
	}
	if doc.Records[2].K[0].H != `a&b<c>"d'` {
		t.Fatalf("keyword escaping mangled: %q", doc.Records[2].K[0].H)
	}
}

func TestDecoderRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"empty":         "",
		"not xml":       "hello world",
		"wrong root":    `<other version="1.0">` + "\n",
		"bad version":   `<edtrace version="9.9">` + "\n",
		"unclosed root": `<edtrace version="1.0"` + "\n",
	}
	for name, in := range cases {
		if _, err := NewDecoder(strings.NewReader(in)); !errors.Is(err, ErrSyntax) {
			t.Errorf("%s: err = %v, want ErrSyntax", name, err)
		}
	}
}

func TestDecoderRejectsBadRecords(t *testing.T) {
	header := `<edtrace version="1.0">` + "\n"
	cases := map[string]string{
		"unknown element":  `<x t="1" c="1" op="A" dir="q"/>`,
		"unknown attr":     `<r t="1" c="1" op="A" dir="q" bogus="1"/>`,
		"bad dir":          `<r t="1" c="1" op="A" dir="z"/>`,
		"bad number":       `<r t="1" c="abc" op="A" dir="q"/>`,
		"unclosed record":  `<r t="1" c="1" op="A" dir="q">`,
		"child not closed": `<r t="1" c="1" op="A" dir="q"><fr id="3"></r>`,
		"fr without id":    `<r t="1" c="1" op="A" dir="q"><fr x="3"/></r>`,
		"trailing junk":    `<r t="1" c="1" op="A" dir="q"/>junk`,
		"unknown child":    `<r t="1" c="1" op="A" dir="q"><zz id="3"/></r>`,
	}
	for name, line := range cases {
		dec, err := NewDecoder(strings.NewReader(header + line + "\n</edtrace>\n"))
		if err != nil {
			t.Fatalf("%s: header rejected: %v", name, err)
		}
		if _, err := dec.Next(); !errors.Is(err, ErrSyntax) {
			t.Errorf("%s: err = %v, want ErrSyntax", name, err)
		}
	}
}

func TestDecoderMissingClosingTag(t *testing.T) {
	in := `<edtrace version="1.0">` + "\n" + `<r t="1" c="1" op="A" dir="q"/>` + "\n"
	dec, err := NewDecoder(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Next(); !errors.Is(err, ErrSyntax) {
		t.Fatalf("missing </edtrace>: err = %v", err)
	}
}

func TestUnescapeEntities(t *testing.T) {
	cases := map[string]string{
		"&amp;":        "&",
		"&lt;&gt;":     "<>",
		"&quot;&apos;": `"'`,
		"a&amp;b":      "a&b",
		"&unknown;":    "&unknown;",
		"plain":        "plain",
		"&amp;&amp;":   "&&",
	}
	for in, want := range cases {
		if got := unescape(in); got != want {
			t.Errorf("unescape(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestQuickRoundtripRandomRecords(t *testing.T) {
	f := func(t16 uint16, client uint32, refs []uint32, srcs []uint32, kws []string) bool {
		rec := &Record{
			T:      float64(t16) / 7,
			Client: client,
			Op:     "GetSources",
			Dir:    DirQuery,
		}
		rec.FileRefs = append(rec.FileRefs, refs...)
		rec.Sources = append(rec.Sources, srcs...)
		for _, k := range kws {
			// Strip control characters the grammar (by design) forbids:
			// real keyword values are md5 hex.
			clean := strings.Map(func(r rune) rune {
				if r < 0x20 || r == 0x7F {
					return -1
				}
				return r
			}, k)
			rec.Keywords = append(rec.Keywords, clean)
		}
		dec, err := NewDecoder(bytes.NewReader(encodeDoc(nil, rec)))
		if err != nil {
			return false
		}
		got, err := dec.Next()
		if err != nil {
			return false
		}
		if math.Abs(got.T-rec.T) > 0.0005 { // 3 fraction digits
			return false
		}
		got.T = rec.T
		return reflect.DeepEqual(got, rec)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeRecord(b *testing.B) {
	var sink []byte
	rec := sampleRecords()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = AppendRecord(sink[:0], rec)
	}
}

func BenchmarkDecodeRecord(b *testing.B) {
	recs := make([]*Record, 1000)
	for i := range recs {
		recs[i] = sampleRecords()[i%len(sampleRecords())]
	}
	data := encodeDoc(nil, recs...)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dec, _ := NewDecoder(bytes.NewReader(data))
		for {
			if _, err := dec.Next(); err != nil {
				break
			}
		}
	}
}
