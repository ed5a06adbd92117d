package xmlenc

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strconv"
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
