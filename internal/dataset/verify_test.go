package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"edtrace/internal/xmlenc"
)

// writeValidDataset builds a dataset obeying every spec invariant:
// dense IDs by order of appearance, monotone t, md5 digests for hashes.
func writeValidDataset(t *testing.T, dir string) {
	t.Helper()
	w, err := NewWriter(dir, WriterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	writeValidRecords(t, w)
	w.SetCounters(3, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// The digests in writeValidRecords: md5 of "requiem.mp3", "Audio" and
// "mozart".
const (
	nameDigest    = "21ba6d6319dc503daf20f63940d600c3"
	typeDigest    = "b22f0418e8ac915eb66f829d262d14a2"
	keywordDigest = "e842795b282293fd61bc294c49edb12b"
)

// writeValidRecords writes the five records of writeValidDataset.
func writeValidRecords(tb testing.TB, w *Writer) {
	tb.Helper()
	recs := []*xmlenc.Record{
		{T: 0.5, Client: 0, Op: "OfferFiles", Dir: xmlenc.DirQuery,
			Files: []xmlenc.FileInfo{{ID: 0, NameHash: nameDigest, SizeKB: 10, TypeHash: typeDigest}}},
		{T: 0.6, Client: 0, Op: "OfferAck", Dir: xmlenc.DirAnswer, Accepted: 1},
		{T: 1.0, Client: 1, Op: "GetSources", Dir: xmlenc.DirQuery, FileRefs: []uint32{0, 1}},
		{T: 1.2, Client: 1, Op: "FoundSources", Dir: xmlenc.DirAnswer,
			FileRefs: []uint32{0}, Sources: []uint32{0, 2}},
		{T: 2.0, Client: 2, Op: "SearchReq", Dir: xmlenc.DirQuery,
			Keywords: []string{keywordDigest}},
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			tb.Fatal(err)
		}
	}
}

func TestVerifyCleanDataset(t *testing.T) {
	dir := t.TempDir()
	writeValidDataset(t, dir)
	rep, err := Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("violations on a clean dataset: %v", rep.Violations)
	}
	if rep.Records != 5 || rep.MaxClientID != 2 || rep.MaxFileID != 1 {
		t.Fatalf("report: %+v", rep)
	}
}

func TestVerifyDetectsViolations(t *testing.T) {
	corrupt := func(t *testing.T, mangle func(string) string) *VerifyReport {
		t.Helper()
		dir := t.TempDir()
		writeValidDataset(t, dir)
		path := filepath.Join(dir, "chunk-00000.xml")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(mangle(string(data))), 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := Verify(dir)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}

	// Timestamp regression.
	rep := corrupt(t, func(s string) string {
		return strings.Replace(s, `t="2.000"`, `t="0.100"`, 1)
	})
	if rep.OK() || !strings.Contains(rep.Violations[0], "timestamp") {
		t.Fatalf("timestamp regression missed: %+v", rep.Violations)
	}

	// Unknown op.
	rep = corrupt(t, func(s string) string {
		return strings.Replace(s, `op="SearchReq"`, `op="Bogus"`, 1)
	})
	if rep.OK() {
		t.Fatal("unknown op missed")
	}

	// Non-hex hash (raw string leaked).
	rep = corrupt(t, func(s string) string {
		return strings.Replace(s, `h="`+keywordDigest+`"`, `h="mozart requiem"`, 1)
	})
	if rep.OK() {
		t.Fatal("raw string missed")
	}

	// Non-dense clientID (gap in the order-of-appearance numbering).
	rep = corrupt(t, func(s string) string {
		return strings.Replace(s, `c="2"`, `c="9"`, 1)
	})
	if rep.OK() {
		t.Fatal("non-dense clientID missed")
	}
}

// TestVerifySrvProvenance: a merged dataset's manifest names its servers
// (meta "servers") and every record carries one of them in srv; a record
// naming another server is flagged, and so is any srv in a dataset that
// names none. Datasets merged from several servers were written before
// the writer stopped producing them, and they still read and verify.
func TestVerifySrvProvenance(t *testing.T) {
	for _, tc := range []struct {
		name string
		meta map[string]string
		tags []string // one record each, client IDs 0, 1, ...
		want string   // "" verifies
	}{
		{"declared servers", map[string]string{"servers": "a,b"}, []string{"a", "b", "a"}, ""},
		{"undeclared server", map[string]string{"servers": "a,b"}, []string{"a", "c"},
			`record 2: srv tag "c" not among declared servers`},
		{"single-server dataset", nil, []string{"", "a"},
			`record 2: srv tag "a" in a single-server dataset`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := NewWriter(dir, WriterOptions{Meta: tc.meta})
			if err != nil {
				t.Fatal(err)
			}
			for i, tag := range tc.tags {
				r := &xmlenc.Record{T: float64(i), Client: uint32(i), Op: "StatReq", Dir: xmlenc.DirQuery, Server: tag}
				if err := w.Write(r); err != nil {
					t.Fatal(err)
				}
			}
			w.SetCounters(uint32(len(tc.tags)), 0)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			rep, err := Verify(dir)
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case tc.want == "" && !rep.OK():
				t.Fatalf("violations: %v", rep.Violations)
			case tc.want != "" && !slices.Equal(rep.Violations, []string{tc.want}):
				t.Fatalf("violations %q, want [%q]", rep.Violations, tc.want)
			}
		})
	}
}

// TestVerifyRejectsTimesBeforeTheCapture: spec §2 makes t the seconds
// since the capture started, so a t that is not finite or lies below 0 is
// a violation of its own record, and the monotone check starts at the
// first record rather than at a sentinel below every valid t.
func TestVerifyRejectsTimesBeforeTheCapture(t *testing.T) {
	for _, tc := range []struct {
		name string
		from []string // t values replaced, in order, one each
		to   string
		want []string
	}{
		{"NaN", []string{`t="0.500"`, `t="0.600"`}, `t="NaN"`, []string{
			"record 1: timestamp NaN is not a time since the capture start",
			"record 2: timestamp NaN is not a time since the capture start",
		}},
		{"negative", []string{`t="0.500"`}, `t="-0.250"`, []string{
			"record 1: timestamp -0.25 is not a time since the capture start",
		}},
		// The last record's t was the manifest's max_t.
		{"infinite", []string{`t="2.000"`}, `t="+Inf"`, []string{
			"record 5: timestamp +Inf is not a time since the capture start",
			"manifest max_t 2, largest t read 1.2",
		}},
		{"far negative", []string{`t="0.500"`}, `t="-7.000"`, []string{
			"record 1: timestamp -7 is not a time since the capture start",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeValidDataset(t, dir)
			mangleChunk(t, dir, "chunk-00000.xml", func(b []byte) []byte {
				for _, from := range tc.from {
					b = bytes.Replace(b, []byte(from), []byte(tc.to), 1)
				}
				return b
			})
			rep, err := Verify(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rep.Violations, tc.want) {
				t.Fatalf("violations %q, want %q", rep.Violations, tc.want)
			}
		})
	}
}

// TestVerifyChecksMaxT: spec §4 makes the manifest's max_t the largest t
// of any record. One below or above it is a violation; a manifest without
// the field, from a writer that did not record it, is not.
func TestVerifyChecksMaxT(t *testing.T) {
	for _, tc := range []struct {
		name, maxT string // the max_t line's replacement; "" drops it
		want       []string
	}{
		{"missing", "", nil},
		{"below", `"max_t": 1.999,`, []string{"manifest max_t 1.999, largest t read 2"}},
		{"above", `"max_t": 2.001,`, []string{"manifest max_t 2.001, largest t read 2"}},
		{"negative", `"max_t": -2,`, []string{"manifest max_t -2, largest t read 2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeValidDataset(t, dir)
			path := filepath.Join(dir, manifestName)
			man, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			line := []byte("  \"max_t\": 2,\n")
			if !bytes.Contains(man, line) {
				t.Fatalf("manifest has no max_t of 2:\n%s", man)
			}
			repl := []byte(nil)
			if tc.maxT != "" {
				repl = []byte("  " + tc.maxT + "\n")
			}
			if err := os.WriteFile(path, bytes.Replace(man, line, repl, 1), 0o644); err != nil {
				t.Fatal(err)
			}
			rep, err := Verify(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rep.Violations, tc.want) {
				t.Fatalf("violations %q, want %q", rep.Violations, tc.want)
			}
		})
	}
}

// TestVerifyRequiresDigests: spec §4 makes n, ty and h md5 digests — 32
// lower-case hexadecimal digits — so a digest of another length, an
// upper-case one or an empty h is a violation; an n or ty left out is
// not, as the encoder omits them when empty.
func TestVerifyRequiresDigests(t *testing.T) {
	const fileViolation = "record 1: file hash not an md5 digest"
	keywordViolation := func(h string) string {
		return `record 5: keyword hash "` + h + `" not an md5 digest`
	}
	for _, tc := range []struct {
		name     string
		from, to string
		want     []string
	}{
		{"h of 31", keywordDigest, keywordDigest[:31], []string{keywordViolation(keywordDigest[:31])}},
		{"h of 33", keywordDigest, keywordDigest + "0", []string{keywordViolation(keywordDigest + "0")}},
		{"h upper case", keywordDigest, strings.ToUpper(keywordDigest), []string{keywordViolation(strings.ToUpper(keywordDigest))}},
		{"h empty", `h="` + keywordDigest + `"`, `h=""`, []string{keywordViolation("")}},
		{"n of 31", nameDigest, nameDigest[:31], []string{fileViolation}},
		{"n of 33", nameDigest, nameDigest + "f", []string{fileViolation}},
		{"ty upper case", typeDigest, strings.ToUpper(typeDigest), []string{fileViolation}},
		{"ty of 31", typeDigest, typeDigest[1:], []string{fileViolation}},
		{"n left out", ` n="` + nameDigest + `"`, ``, nil},
		{"ty left out", ` ty="` + typeDigest + `"`, ``, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeValidDataset(t, dir)
			mangleChunk(t, dir, "chunk-00000.xml", func(b []byte) []byte {
				if !bytes.Contains(b, []byte(tc.from)) {
					t.Fatalf("chunk holds no %q", tc.from)
				}
				return bytes.Replace(b, []byte(tc.from), []byte(tc.to), 1)
			})
			rep, err := Verify(dir)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rep.Violations, tc.want) {
				t.Fatalf("violations %q, want %q", rep.Violations, tc.want)
			}
		})
	}
}

// hexDigestScalar is isDigest's reference: a byte at a time.
func hexDigestScalar(s string) bool {
	if len(s) != 32 {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// TestIsDigestExhaustive: every byte value at every position of a digest,
// over a digest of every digit and over one of the range ends, and the
// lengths around 32 — the word-at-a-time check agrees with the scalar one
// each time.
func TestIsDigestExhaustive(t *testing.T) {
	for _, digest := range []string{"0123456789abcdef0123456789abcdef", "09af09af09af09af09af09af09af09af"} {
		b := []byte(digest)
		for pos := range b {
			for c := range 256 {
				b[pos] = byte(c)
				if got, want := isDigest(string(b)), hexDigestScalar(string(b)); got != want {
					t.Fatalf("isDigest(%q) = %v, want %v", b, got, want)
				}
			}
			b[pos] = digest[pos]
		}
	}
	for _, n := range []int{0, 8, 31, 33} {
		s := strings.Repeat("a", n)
		if isDigest(s) {
			t.Errorf("isDigest accepts %d digits", n)
		}
	}
}

func TestVerifyMissingDataset(t *testing.T) {
	if _, err := Verify(t.TempDir()); err == nil {
		t.Fatal("missing manifest accepted")
	}
}

// TestVerifyHugeIDCostsNothing: Verify's memory follows the manifest's
// counters, never the value of an ID in the data — an ID near 2³² is one
// violation and one map entry, not half a gigabyte of bitset.
func TestVerifyHugeIDCostsNothing(t *testing.T) {
	dir := t.TempDir()
	writeValidDataset(t, dir)
	mangleChunk(t, dir, "chunk-00000.xml", func(b []byte) []byte {
		return bytes.Replace(b, []byte(`<fr id="1"/>`), []byte(`<fr id="4294967290"/>`), 1)
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Verify(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxFileID != 4294967290 || len(rep.Violations) != 1 || !strings.Contains(rep.Violations[0], "max fileID 4294967290, want 1") {
		t.Fatalf("report: %+v", rep)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("Verify allocated %d bytes over a five-record dataset", grew)
	}
}

// TestVerifyHugeClaimCostsNothing: nor does Verify's memory follow what
// the manifest claims. A manifest that claims 2³²-1 clients and files over
// a five-record dataset is four violations, not a gigabyte of bitsets.
func TestVerifyHugeClaimCostsNothing(t *testing.T) {
	dir := t.TempDir()
	writeValidDataset(t, dir)
	path := filepath.Join(dir, manifestName)
	man, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	man = bytes.Replace(man, []byte(`"distinct_clients": 3`), []byte(`"distinct_clients": 4294967295`), 1)
	man = bytes.Replace(man, []byte(`"distinct_files": 2`), []byte(`"distinct_files": 4294967295`), 1)
	if err := os.WriteFile(path, man, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Verify(dir)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"manifest claims 4294967295 clients, dataset references 3",
		"max clientID 2, want 4294967294 (dense order-of-appearance)",
		"manifest claims 4294967295 files, dataset references 2",
		"max fileID 1, want 4294967294 (dense order-of-appearance)",
	}
	if rep.Records != 5 || !slices.Equal(rep.Violations, want) {
		t.Fatalf("report: %+v", rep)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("Verify allocated %d bytes over a five-record dataset", grew)
	}
}

// FuzzVerifyManifest: Open, ForEach and Verify on any manifest over a
// small valid set of chunks — a plain one and a .gz one — return an error
// or a result; none panics, and none allocates more than 8 MiB plus 64
// bytes per byte of manifest. A report never passes a max_t other than
// the chunks' largest t.
//
//	go test -run '^$' -fuzz '^FuzzVerifyManifest$' -fuzztime 15s ./internal/dataset/
func FuzzVerifyManifest(f *testing.F) {
	dir := f.TempDir()
	w, err := NewWriter(dir, WriterOptions{})
	if err != nil {
		f.Fatal(err)
	}
	writeValidRecords(f, w)
	w.SetCounters(3, 2)
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		f.Fatal(err)
	}
	chunk, err := os.ReadFile(filepath.Join(dir, chunkName(0, false)))
	if err != nil {
		f.Fatal(err)
	}
	var gz bytes.Buffer
	if err := new(deflater).writeMember(&gz, chunk); err != nil {
		f.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, chunkName(1, true)), gz.Bytes(), 0o644); err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{"version":"1.0","chunks":["chunk-00000.xml","chunk-00001.xml.gz"],"records":10,"distinct_clients":3,"distinct_files":2}`))
	f.Add([]byte(`{"version":"1.0","chunks":["chunk-00000.xml"],"records":5,"distinct_clients":4294967295,"distinct_files":4294967295}`))
	f.Add([]byte(`{"version":"1.0","chunks":["chunk-00000.xml"],"records":5,"meta":{"servers":"a,b"}}`))
	f.Add([]byte(`{"version":"1.0","chunks":["chunk-00000.xml.gz"],"records":18446744073709551615}`))
	// Both chunks' largest t is 2: max_t missing, below, above, negative,
	// huge and not a number.
	for _, maxT := range []string{``, `"max_t":1.5,`, `"max_t":2.5,`, `"max_t":-1,`, `"max_t":1e308,`, `"max_t":"2",`} {
		f.Add([]byte(`{"version":"1.0","chunks":["chunk-00000.xml","chunk-00001.xml.gz"],"records":10,` + maxT + `"distinct_clients":3,"distinct_files":2}`))
	}
	f.Add([]byte(`{"version":"1.0","chunks":null}`))
	f.Add([]byte(`{"version":"2.0"}`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, manifest []byte) {
		if err := os.WriteFile(filepath.Join(dir, manifestName), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		man, err := Open(dir)
		if err == nil && man == nil {
			t.Fatal("Open returned neither a manifest nor an error")
		}
		n := 0
		ForEach(dir, func(*xmlenc.Record) error { n++; return nil })
		rep, err := Verify(dir)
		if err == nil && rep == nil {
			t.Fatal("Verify returned neither a report nor an error")
		}
		// Every chunk's largest t is 2.
		if rep != nil && man.MaxT != nil && *man.MaxT != 2 && rep.OK() {
			t.Fatalf("Verify passed a max_t of %v", *man.MaxT)
		}
		runtime.ReadMemStats(&after)
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(8<<20+64*len(manifest)); grew > bound {
			t.Fatalf("a %d-byte manifest cost %d bytes of allocation, over %d", len(manifest), grew, bound)
		}
	})
}
