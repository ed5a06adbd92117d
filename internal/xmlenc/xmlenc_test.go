package xmlenc

import (
	"bytes"
	"encoding/xml"
	"errors"
	"io"
	"math"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
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
		got = append(got, r.Clone()) // Next refills the one record it returns
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

// TestSpecExample keeps spec.md honest: its example document decodes, and
// encoding the records again gives the example back byte for byte.
func TestSpecExample(t *testing.T) {
	spec, err := os.ReadFile("spec.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(spec), "```xml\n")
	example, _, ok2 := strings.Cut(rest, "```")
	if !ok || !ok2 {
		t.Fatal("spec.md has no ```xml example")
	}
	dec, err := NewDecoder(strings.NewReader(example))
	if err != nil {
		t.Fatal(err)
	}
	var recs []*Record
	ops := map[string]bool{}
	for {
		r, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, r.Clone())
		ops[r.Op] = true
	}
	if len(recs) != 7 || len(ops) != 7 {
		t.Fatalf("the example holds %d records of %d kinds, want 7 of 7", len(recs), len(ops))
	}
	meta := dec.Meta()
	delete(meta, "version") // AppendHeader writes it itself
	if got := string(encodeDoc(meta, recs...)); got != example {
		t.Fatalf("the example is not what the encoder writes for its records:\n%s", got)
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

// badRecordLines are record lines outside the grammar, by defect.
func badRecordLines() map[string]string {
	return map[string]string{
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
}

func TestDecoderRejectsBadRecords(t *testing.T) {
	header := `<edtrace version="1.0">` + "\n"
	for name, line := range badRecordLines() {
		dec, err := NewDecoder(strings.NewReader(header + line + "\n</edtrace>\n"))
		if err != nil {
			t.Fatalf("%s: header rejected: %v", name, err)
		}
		if _, err := dec.Next(); !errors.Is(err, ErrSyntax) || !strings.Contains(err.Error(), "line 2:") {
			t.Errorf("%s: err = %v, want ErrSyntax at line 2", name, err)
		}
	}
}

// TestDecoderRejectsContentAfterClosingTag: the closing tag ends the
// document (spec.md); blank lines may follow it, nothing else.
func TestDecoderRejectsContentAfterClosingTag(t *testing.T) {
	doc := string(encodeDoc(nil, sampleRecords()[1]))
	for name, tc := range map[string]struct {
		tail string
		ok   bool
	}{
		"nothing":     {"", true},
		"blank lines": {"\n  \n", true},
		"a record":    {`<r t="1" c="1" op="A" dir="q"/>` + "\n", false},
		"junk":        {"junk", false},
	} {
		dec, err := NewDecoder(strings.NewReader(doc + tc.tail))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := dec.Next(); err != nil {
			t.Fatalf("%s: first record: %v", name, err)
		}
		_, err = dec.Next()
		if tc.ok && err != io.EOF {
			t.Errorf("%s: err = %v, want io.EOF", name, err)
		}
		if !tc.ok && (!errors.Is(err, ErrSyntax) || !strings.Contains(err.Error(), "line 5")) {
			t.Errorf("%s: err = %v, want ErrSyntax at line 5", name, err)
		}
	}
}

// TestDecoderReturnsReadError: what the reader fails with reaches the
// caller as it is, not dressed up as a syntax error — a truncated or
// corrupt compressed stream must be reported as that.
func TestDecoderReturnsReadError(t *testing.T) {
	doc := encodeDoc(nil, sampleRecords()...)
	boom := errors.New("boom")
	for _, cut := range []int{0, 10, len(doc) / 2, len(doc)} {
		dec, err := NewDecoder(io.MultiReader(bytes.NewReader(doc[:cut]), iotest.ErrReader(boom)))
		for err == nil {
			_, err = dec.Next()
		}
		if err != boom {
			t.Errorf("reader failing after %d bytes: err = %v, want the reader's", cut, err)
		}
	}
}

// TestDecoderRecordLifetime pins the contract of Next: one record, owned
// by the decoder, refilled by every call; Clone is how a caller keeps one.
func TestDecoderRecordLifetime(t *testing.T) {
	recs := sampleRecords()
	dec, err := NewDecoder(bytes.NewReader(encodeDoc(nil, recs[0], recs[2], recs[7])))
	if err != nil {
		t.Fatal(err)
	}
	first, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	kept := first.Clone()
	second, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatalf("Next returned a new record (%p, then %p): it must refill the one it owns", first, second)
	}
	if !reflect.DeepEqual(second.Clone(), recs[2]) {
		t.Fatalf("second record = %+v, want %+v", second, recs[2])
	}
	if !reflect.DeepEqual(kept, recs[0]) {
		t.Fatalf("the clone changed under the next Next:\n got %+v\nwant %+v", kept, recs[0])
	}
	// The clone's strings are ordinary strings: they outlive the line, the
	// read buffer and the decoder they came from.
	for {
		if _, err := dec.Next(); err != nil {
			break
		}
	}
	dec = nil
	runtime.GC()
	runtime.GC()
	if !reflect.DeepEqual(kept, recs[0]) {
		t.Fatalf("the clone did not survive a collection:\n got %+v\nwant %+v", kept, recs[0])
	}
}

// TestDecoderLongLine: a line longer than the read buffer decodes like
// any other, and so does the short one after it.
func TestDecoderLongLine(t *testing.T) {
	long := &Record{T: 1, Client: 1, Op: "GetSources", Dir: DirQuery}
	for i := 0; i < 3*lineBuffer/len(`<fr id="10000"/>`); i++ {
		long.FileRefs = append(long.FileRefs, uint32(10000+i))
	}
	want := []*Record{sampleRecords()[0], long, sampleRecords()[4]}
	got, _ := roundtrip(t, want, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %d records around a %d-byte line; they differ from the input", len(got), len(AppendRecord(nil, long)))
	}
}

// TestDecoderFirstOfRepeatedChildAttribute: a child's attributes are
// looked up by name, so the first of a repeated one counts and unknown
// ones are skipped; on <r> itself the last of a repeated one counts.
func TestDecoderFirstOfRepeatedChildAttribute(t *testing.T) {
	line := `<r t="1" t="2" c="3" op="X" dir="a"><f zz="9" id="4" id="oops" s="5" s="6" n="aa" n="bb"/><fr id="7" id="8"/></r>`
	dec, err := NewDecoder(strings.NewReader(`<edtrace version="1.0">` + "\n" + line + "\n</edtrace>\n"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Next()
	if err != nil {
		t.Fatal(err)
	}
	want := &Record{T: 2, Client: 3, Op: "X", Dir: DirAnswer,
		Files: []FileInfo{{ID: 4, SizeKB: 5, NameHash: "aa"}}, FileRefs: []uint32{7}}
	if !reflect.DeepEqual(got.Clone(), want) {
		t.Fatalf("got %+v\nwant %+v", got, want)
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
	f := func(t16 uint16, client uint32, refs []uint32, srcs []uint32, kws []string, sizes []uint64, srv string) bool {
		// Strip control characters the grammar (by design) forbids: real
		// string values are md5 hex and server names.
		clean := func(s string) string {
			return strings.Map(func(r rune) rune {
				if r < 0x20 || r == 0x7F {
					return -1
				}
				return r
			}, s)
		}
		rec := &Record{
			T:      float64(t16) / 7,
			Client: client,
			Op:     "GetSources",
			Dir:    DirQuery,
			Server: clean(srv),
		}
		rec.FileRefs = append(rec.FileRefs, refs...)
		rec.Sources = append(rec.Sources, srcs...)
		for _, k := range kws {
			rec.Keywords = append(rec.Keywords, clean(k))
		}
		for i, kb := range sizes {
			fi := FileInfo{ID: uint32(i), SizeKB: kb}
			if i < len(rec.Keywords) {
				fi.NameHash, fi.TypeHash = rec.Keywords[i], rec.Keywords[len(rec.Keywords)-1-i]
			}
			rec.Files = append(rec.Files, fi)
		}
		dec, err := NewDecoder(bytes.NewReader(encodeDoc(nil, rec)))
		if err != nil {
			return false
		}
		next, err := dec.Next()
		if err != nil {
			return false
		}
		got := next.Clone()
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

// appendEscapedRef is appendEscaped as it was before its byte table: a
// strings.ContainsAny check, then a switch a byte.
func appendEscapedRef(b []byte, val string) []byte {
	if !strings.ContainsAny(val, `&<>"'`) {
		return append(b, val...)
	}
	for i := 0; i < len(val); i++ {
		switch val[i] {
		case '&':
			b = append(b, "&amp;"...)
		case '<':
			b = append(b, "&lt;"...)
		case '>':
			b = append(b, "&gt;"...)
		case '"':
			b = append(b, "&quot;"...)
		case '\'':
			b = append(b, "&apos;"...)
		default:
			b = append(b, val[i])
		}
	}
	return b
}

// TestAppendEscapedEveryByte: every byte value, alone, between others, in
// one value holding all 256, and at either end of a long value, is written
// as the reference writes it.
func TestAppendEscapedEveryByte(t *testing.T) {
	var all []byte
	for c := range 256 {
		all = append(all, byte(c))
	}
	vals := []string{"", string(all), string(all[128:]) + string(all[:128])}
	for c := range 256 {
		s := string([]byte{byte(c)})
		vals = append(vals, s, "a"+s+"b", s+s, s+"file name long enough to skip ahead.mp3", "file name long enough.mp3"+s)
	}
	for _, v := range vals {
		if got, want := appendEscaped([]byte(`<x a="`), v), appendEscapedRef([]byte(`<x a="`), v); !bytes.Equal(got, want) {
			t.Fatalf("appendEscaped(%q) = %q, want %q", v, got, want)
		}
	}
}
