package xmlenc

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
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

// decodeLine decodes one record line.
func decodeLine(line []byte) (*Record, error) {
	recs, err := decodeAll(AppendFooter(append(append(AppendHeader(nil, nil), line...), '\n')))
	if err != nil {
		return nil, err
	}
	if len(recs) != 1 {
		return nil, fmt.Errorf("%d records", len(recs))
	}
	return recs[0], nil
}

// loosen rewrites a record line the decoder accepts into the same record
// in a form whose every attribute and child the decoder's fast path hands
// to the tagScanner: two spaces before each attribute of <r>, an ignored
// zz="" at the end of every child, and a space before each "/>". It
// returns nil for a line the tagScanner cannot walk.
func loosen(line []byte) []byte {
	s := tagScanner{line: line}
	name, err := s.tag()
	if err != nil {
		return nil
	}
	out := append([]byte{'<'}, name...)
	inChild := false
	for {
		tok, err := s.next()
		if err != nil {
			return nil
		}
		switch tok {
		case tokAttr:
			if !inChild {
				out = append(out, ' ')
			}
			out = append(out, ' ')
			out = append(out, s.key...)
			out = append(out, `="`...)
			out = append(out, s.val...)
			out = append(out, '"')
			continue
		case tokSelfClose:
			if !inChild {
				return append(out, " />"...)
			}
			out = append(out, ` zz="" />`...)
		case tokOpen:
			if inChild {
				return nil
			}
			out = append(out, '>')
		}
		if rest := line[s.i:]; bytes.HasPrefix(rest, []byte("</r>")) {
			return append(out, rest...)
		}
		if name, err = s.tag(); err != nil {
			return nil
		}
		out = append(append(out, '<'), name...)
		inChild = true
	}
}

// sameRecord reports whether a and b are equal, t bit for bit (so a NaN
// equals itself).
func sameRecord(a, b *Record) bool {
	x, y := *a, *b
	if math.Float64bits(x.T) != math.Float64bits(y.T) {
		return false
	}
	x.T, y.T = 0, 0
	return reflect.DeepEqual(&x, &y)
}

// FuzzDecoderLine feeds arbitrary bytes to the decoder as the record
// lines of an otherwise valid document. Nothing may panic, and whatever
// decodes must be stable under the encoder: AppendRecord of the record
// decodes to an equal record and encodes to the same bytes again. (t has
// three decimals on the wire, so the first re-encoding may round it.) A
// single accepted line must also decode to the same record after loosen,
// which takes the decoder's fast path out of it: the fast path and the
// tagScanner agree on every line either reads.
func FuzzDecoderLine(f *testing.F) {
	for _, r := range sampleRecords() {
		f.Add(bytes.TrimSuffix(AppendRecord(nil, r), []byte("\n")))
	}
	for _, line := range badRecordLines() {
		f.Add([]byte(line))
	}
	f.Add([]byte(`<r t="NaN" c="1" op="a&quot;b&amp;" dir="a" srv="&lt;s&gt;"><k h="&apos;&bogus;"/></r>`))
	f.Add([]byte(`<r t="1e3"c="4294967295"op="StatRes"dir="a"files="7"><f id="1" id="2" n=""/></r>`))
	for _, tc := range edgeLines() {
		f.Add([]byte(tc.line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		doc := append(AppendHeader(nil, nil), line...)
		doc = AppendFooter(append(doc, '\n'))
		recs, err := decodeAll(doc)
		if err == nil && len(recs) == 1 && bytes.IndexByte(line, '\n') < 0 {
			trimmed := bytes.TrimSpace(line)
			loose := loosen(trimmed)
			if loose == nil {
				t.Fatalf("the tagScanner cannot walk an accepted line: %q", trimmed)
			}
			if r, err := decodeLine(loose); err != nil || !sameRecord(r, recs[0]) {
				t.Fatalf("the loosened line decodes differently (%v):\n%s\n%s\n got %+v\nwant %+v", err, trimmed, loose, r, recs[0])
			}
		}
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
			// r2's t is r1's rounded to the wire's three decimals, exactly.
			r1.T, _ = strconv.ParseFloat(strconv.FormatFloat(r1.T, 'f', 3, 64), 64)
			if !sameRecord(r1, r2) {
				t.Fatalf("record changed through the encoder:\n got %+v\nwant %+v", r2, r1)
			}
		}
	})
}

// edgeLine is a record line at an edge of the grammar's values: it
// decodes to want, or fails with an error containing err.
type edgeLine struct {
	line string
	want *Record
	err  string
}

func edgeLines() []edgeLine {
	const head = `<r t="1.000" c="1" op="GetSources" dir="q"`
	rec := func(edit func(*Record)) *Record {
		r := &Record{T: 1, Client: 1, Op: "GetSources"}
		edit(r)
		return r
	}
	return []edgeLine{
		{line: `<r t="1.000" c="4294967295" op="StatReq" dir="q"/>`,
			want: &Record{T: 1, Client: 4294967295, Op: "StatReq"}},
		{line: `<r t="1.000" c="4294967296" op="StatReq" dir="q"/>`, err: `attribute c="4294967296"`},
		{line: head + `><fr id="4294967295"/><s c="4294967295"/></r>`,
			want: rec(func(r *Record) { r.FileRefs, r.Sources = []uint32{4294967295}, []uint32{4294967295} })},
		{line: head + `><fr id="4294967296"/></r>`, err: `<fr id="4294967296">`},
		{line: head + `><s c="42949672950"/></r>`, err: `<s c="42949672950">`},
		{line: head + `><f id="4294967296" s="1"/></r>`, err: `<f id="4294967296">`},
		{line: head + `><f id="1" s="18446744073709551615"/></r>`,
			want: rec(func(r *Record) { r.Files = []FileInfo{{ID: 1, SizeKB: math.MaxUint64}} })},
		{line: head + `><f id="1" s="18446744073709551616"/></r>`, err: `<f s="18446744073709551616">`},
		{line: head + `><f id="1" s="99999999999999999999"/></r>`, err: `<f s="99999999999999999999">`},
		{line: head + ` minkb="18446744073709551615" maxkb="18446744073709551615"/>`,
			want: rec(func(r *Record) { r.MinKB, r.MaxKB = math.MaxUint64, math.MaxUint64 })},
		{line: head + ` maxkb="18446744073709551616"/>`, err: `attribute maxkb="18446744073709551616"`},
		{line: `<r t="0001.500" c="007" op="OfferAck" dir="a" n="00000000000000000000002"/>`,
			want: &Record{T: 1.5, Client: 7, Op: "OfferAck", Dir: DirAnswer, Accepted: 2}},
		{line: head + `><fr id="0009"/><f id="00" s="000000000000000000000000000001"/></r>`,
			want: rec(func(r *Record) { r.FileRefs, r.Files = []uint32{9}, []FileInfo{{ID: 0, SizeKB: 1}} })},
		{line: `<r t="1.000" c="1" op="OfferAck" dir="a" n=""/>`, err: `attribute n=""`},
		{line: head + `><f id="1" s="2" n="" ty=""/></r>`,
			want: rec(func(r *Record) { r.Files = []FileInfo{{ID: 1, SizeKB: 2}} })},
		{line: head + `><k h="ab&amp;cd"/><f id="1" s="2" n="&amp;" ty="a&amp;&lt;"/></r>`,
			want: rec(func(r *Record) {
				r.Keywords, r.Files = []string{"ab&cd"}, []FileInfo{{ID: 1, SizeKB: 2, NameHash: "&", TypeHash: "a&<"}}
			})},
		{line: head + `><f id="1" s="2"/></r>`,
			want: rec(func(r *Record) { r.Files = []FileInfo{{ID: 1, SizeKB: 2}} })},
		{line: head + `><f id="1"/></r>`,
			want: rec(func(r *Record) { r.Files = []FileInfo{{ID: 1}} })},
		{line: `<r t="1.000" c="1" op="Bogus&amp;" dir="q" srv="mesh-1"/>`,
			want: &Record{T: 1, Client: 1, Op: "Bogus&", Server: "mesh-1"}},
		{line: `<r t="1.000" c="1" op="Bogus" dir="a" srv=""/>`,
			want: &Record{T: 1, Client: 1, Op: "Bogus", Dir: DirAnswer}},
		{line: `<r t="9007199254740.991" c="1" op="StatReq" dir="q"/>`,
			want: &Record{T: 9007199254740.991, Client: 1, Op: "StatReq"}},
		{line: `<r t="9007199254740.993" c="1" op="StatReq" dir="q"/>`,
			want: &Record{T: 9007199254740.993, Client: 1, Op: "StatReq"}},
		{line: `<r t="1.00" c="1" op="StatReq" dir="q"/>`,
			want: &Record{T: 1, Client: 1, Op: "StatReq"}},
		{line: `<r t="1e400" c="1" op="StatReq" dir="q"/>`, err: `attribute t="1e400"`},
	}
}

// TestDecoderEdgeValues decodes each edge line as written, where the fast
// path reads what it can, and loosened, where the tagScanner reads it all:
// both must give the same record, or fail with the same error.
func TestDecoderEdgeValues(t *testing.T) {
	for _, tc := range edgeLines() {
		loose := loosen([]byte(tc.line))
		if loose == nil {
			t.Fatalf("loosen(%s) = nil", tc.line)
		}
		for _, line := range [][]byte{[]byte(tc.line), loose} {
			got, err := decodeLine(line)
			switch {
			case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
				t.Errorf("%s: err = %v, want one with %q", line, err, tc.err)
			case tc.err == "" && err != nil:
				t.Errorf("%s: %v", line, err)
			case tc.err == "" && !sameRecord(got, tc.want):
				t.Errorf("%s:\n got %+v\nwant %+v", line, got, tc.want)
			}
		}
	}
}

// checkAppendTime is the whole contract of appendTime: strconv's bytes.
func checkAppendTime(t *testing.T, v float64) {
	t.Helper()
	got, want := appendTime(nil, v), strconv.AppendFloat(nil, v, 'f', 3, 64)
	if !bytes.Equal(got, want) {
		t.Fatalf("appendTime(%v = %#x) = %q, strconv gives %q", v, math.Float64bits(v), got, want)
	}
}

// timeSeeds are the stamps appendTime's shortcut could get wrong: exact
// ties (j/16 seconds is j×62.5 ms), decimal x.xxx5 values a hair to either
// side of one, the edges of the shortcut's range, and what a capture
// really carries — microseconds (pcap) and nanoseconds (simtime) over
// their unit.
func timeSeeds() []float64 {
	seeds := []float64{
		0, math.Copysign(0, -1), 0.0004, 0.0005, 0.0015, 0.0625, 0.1875, 1.0005, 2.5, 1234.5675, 604800.0005,
		-1.5, -0.0005, 1e-320, 0.9995, 0.9999999999999999, 999.9995,
		1 << 43 / 1000.0, 1<<43/1000.0 - 1e-3, 1 << 53 / 1000.0, 1 << 53, 1<<53 - 1, 1<<53 - 3, 1 << 63, 1e22, 1e300,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, us := range []uint64{1, 499, 500, 501, 1500, 62500, 999999, 1000500, 3599999500, 6048000000500} {
		seeds = append(seeds, float64(us)/1e6, float64(us*1000+1)/1e9)
	}
	return seeds
}

// TestAppendTimeMatchesStrconv: byte equality over the seeds, their
// floating-point neighbours, and a seeded sweep of the shapes a capture's
// timestamps take plus raw bit patterns.
func TestAppendTimeMatchesStrconv(t *testing.T) {
	for _, v := range timeSeeds() {
		checkAppendTime(t, v)
		checkAppendTime(t, math.Nextafter(v, math.Inf(1)))
		checkAppendTime(t, math.Nextafter(v, math.Inf(-1)))
	}
	n := 50_000
	if testing.Short() {
		n = 5_000
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < n; i++ {
		week := uint64(rng.Int63n(7 * 24 * 3600 * 1e6)) // a week of microseconds
		checkAppendTime(t, float64(week)/1e6)
		checkAppendTime(t, float64(week*1000+uint64(rng.Intn(1000)))/1e9)
		// k.5 ms, which no float64 holds unless k.5 = j×62.5: a near-tie.
		checkAppendTime(t, (float64(rng.Int63n(1<<43))+0.5)/1000)
		checkAppendTime(t, math.Float64frombits(rng.Uint64()))
		checkAppendTime(t, rng.Float64()*math.Ldexp(1, rng.Intn(60)-10))
	}
}

// FuzzAppendTimeMatchesStrconv: the same equality for any float64.
func FuzzAppendTimeMatchesStrconv(f *testing.F) {
	for _, v := range timeSeeds() {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		checkAppendTime(t, math.Float64frombits(bits))
	})
}

// checkParseTime is the contract of the decoder's t: the fast path
// (cursor.time) accepts nothing strconv.ParseFloat does not take the same
// way — as b and as the value of an attribute, b" — and a record whose t
// is b decodes exactly when strconv accepts b, with the same bits.
func checkParseTime(t *testing.T, b []byte) {
	t.Helper()
	if bytes.IndexAny(b, "\"\n") < 0 {
		want, err := strconv.ParseFloat(string(b), 64)
		r, derr := decodeLine(fmt.Appendf(nil, `<r t="%s" c="1" op="StatReq" dir="q"/>`, b))
		if (derr == nil) != (err == nil) || derr == nil && math.Float64bits(r.T) != math.Float64bits(want) {
			t.Fatalf("t=%q decodes to %+v, %v; strconv gives %v (%#x), %v", b, r, derr, want, math.Float64bits(want), err)
		}
	}
	for _, line := range [][]byte{b, append(b[:len(b):len(b)], '"')} {
		c := cursor{line: line}
		v, ok := c.time()
		if !ok {
			continue
		}
		value := line[:c.i-1] // what it read up to the closing quote
		if w, err := strconv.ParseFloat(string(value), 64); err != nil || math.Float64bits(v) != math.Float64bits(w) {
			t.Fatalf("cursor.time(%q) = %v; strconv gives %v, %v for %q", line, v, w, err, value)
		}
	}
}

// timeTexts are t values in appendTime's form from timeSeeds, plus forms
// only strconv takes.
func timeTexts() []string {
	var texts []string
	for _, v := range timeSeeds() {
		texts = append(texts, strconv.FormatFloat(v, 'f', 3, 64))
	}
	return append(texts, "1e3", ".5", "1.", "12345678901234567890", "99999999999999999999.999",
		"NaN", "-0.000", "+1.000", "0x1p-2", "1_000.000", "1.000 ", "9007199254740.992", "")
}

// TestParseTimeMatchesStrconv: the texts, and a seeded sweep of
// thousandths on both sides of 2⁵³, where millis' shortcut ends.
func TestParseTimeMatchesStrconv(t *testing.T) {
	for _, s := range timeTexts() {
		checkParseTime(t, []byte(s))
	}
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 20_000; i++ {
		ms := uint64(rng.Int63n(1 << 54))
		if i%2 == 0 {
			ms = 1<<53 - 1000 + uint64(rng.Intn(2000))
		}
		checkParseTime(t, fmt.Appendf(nil, "%d.%03d", ms/1000, ms%1000))
	}
}

// FuzzParseTimeMatchesStrconv: the same contract for any bytes.
func FuzzParseTimeMatchesStrconv(f *testing.F) {
	for _, s := range timeTexts() {
		f.Add([]byte(s))
	}
	f.Fuzz(checkParseTime)
}
