package dataset

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand/v2"
	"testing"
	"testing/iotest"
)

// stdlibGunzip is the oracle: compress/gzip reading one member, and
// nothing after it — what a chunk is (spec.md §5).
func stdlibGunzip(data []byte) ([]byte, error) {
	r := bytes.NewReader(data)
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	zr.Multistream(false)
	out, err := io.ReadAll(zr)
	if err == nil && r.Len() > 0 {
		err = errAfterMember
	}
	return out, err
}

func readGunzip(src io.Reader) ([]byte, error) {
	var z gunzip
	if err := z.reset(src); err != nil {
		return nil, err
	}
	return io.ReadAll(&z)
}

// errClass names what an error means to a reader of chunks; the two
// readers must agree on it, not on offsets or wording.
func errClass(err error) string {
	var corrupt flate.CorruptInputError
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, errAfterMember):
		return "data after the member"
	case errors.Is(err, gzip.ErrHeader):
		return "bad header"
	case errors.Is(err, gzip.ErrChecksum):
		return "bad checksum"
	case err == io.EOF:
		return "no member"
	case errors.Is(err, io.ErrUnexpectedEOF):
		return "truncated"
	case errors.As(err, &corrupt):
		return "corrupt"
	}
	return "unexpected error: " + err.Error()
}

// sameAsStdlib reads data with both readers, the new one from a whole
// buffer and from a source that hands out one byte per Read (every
// refill on an input boundary), and fails on any difference of
// acceptance, error class or output.
func sameAsStdlib(t testing.TB, data []byte) []byte {
	t.Helper()
	want, wantErr := stdlibGunzip(data)
	for _, src := range []struct {
		name string
		r    io.Reader
	}{
		{"whole", bytes.NewReader(data)},
		{"one byte a read", iotest.OneByteReader(bytes.NewReader(data))},
	} {
		got, err := readGunzip(src.r)
		if errClass(err) != errClass(wantErr) {
			t.Fatalf("%s: %d input bytes: error %v (%s), compress/gzip %v (%s)",
				src.name, len(data), err, errClass(err), wantErr, errClass(wantErr))
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("%s: %d input bytes: output differs from compress/gzip's (%d vs %d bytes)",
				src.name, len(data), len(got), len(want))
		}
	}
	return want
}

func gzipped(t testing.TB, data []byte, level int, hdr gzip.Header) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	zw.Header = hdr
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// member assembles a gzip member from a header and a raw DEFLATE stream,
// for headers and streams compress/gzip does not write.
func member(header, deflated, raw []byte) []byte {
	m := append(append([]byte(nil), header...), deflated...)
	m = binary.LittleEndian.AppendUint32(m, crc32.ChecksumIEEE(raw))
	return binary.LittleEndian.AppendUint32(m, uint32(len(raw)))
}

func deflated(t testing.TB, raw []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(raw)
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sampleText is record-like text, compressible the way chunks are.
func sampleText(n int) []byte {
	var b []byte
	for i := 0; len(b) < n; i++ {
		b = fmt.Appendf(b, "<r t=\"%d.%03d\" c=\"%d\" op=\"GetSources\" d=\"q\"><fr id=\"%d\"/></r>\n", i/7, i%1000, i%97, i*31%1009)
	}
	return b[:n]
}

// TestGunzipHeaderFlags: every RFC 1952 header flag, and compress/gzip's
// limits on what they carry.
func TestGunzipHeaderFlags(t *testing.T) {
	raw := sampleText(3000)
	body := deflated(t, raw, 4)
	fixed := []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}
	withFlags := func(flg byte, fields ...[]byte) []byte {
		h := append([]byte(nil), fixed...)
		h[3] = flg
		for _, f := range fields {
			h = append(h, f...)
		}
		return h
	}
	hcrc := func(h []byte) []byte {
		return binary.LittleEndian.AppendUint16(h, uint16(crc32.ChecksumIEEE(h)))
	}
	name := func(n int) []byte { return append(bytes.Repeat([]byte{'n'}, n), 0) }
	cases := []struct {
		name   string
		header []byte
		want   string
	}{
		{"none", withFlags(0), "ok"},
		{"FTEXT", withFlags(1), "ok"},
		{"FEXTRA", withFlags(4, []byte{5, 0}, []byte("extra")), "ok"},
		{"FEXTRA of 65535 bytes", withFlags(4, []byte{0xff, 0xff}, make([]byte, 65535)), "ok"},
		{"FNAME", withFlags(8, name(12)), "ok"},
		{"FNAME of 511 bytes", withFlags(8, name(511)), "ok"},
		{"FNAME of 512 bytes", withFlags(8, name(512)), "bad header"},
		{"FCOMMENT", withFlags(16, name(40)), "ok"},
		{"FCOMMENT of 512 bytes", withFlags(16, name(512)), "bad header"},
		{"FHCRC", hcrc(withFlags(2)), "ok"},
		{"FHCRC bad", func() []byte { h := hcrc(withFlags(2)); h[len(h)-1] ^= 1; return h }(), "bad header"},
		{"all of them", hcrc(withFlags(31, []byte{3, 0}, []byte("xyz"), name(9), name(20))), "ok"},
		{"reserved bits", withFlags(0xe0), "ok"},
		{"bad magic", func() []byte { h := withFlags(0); h[1] = 0x8c; return h }(), "bad header"},
		{"not deflate", func() []byte { h := withFlags(0); h[2] = 7; return h }(), "bad header"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := member(tc.header, body, raw)
			out := sameAsStdlib(t, m)
			if _, err := readGunzip(bytes.NewReader(m)); errClass(err) != tc.want {
				t.Fatalf("err = %v, want %s", err, tc.want)
			}
			if tc.want == "ok" && !bytes.Equal(out, raw) {
				t.Fatal("output differs from the input deflated")
			}
		})
	}
}

// TestGunzipLevels: members of every level, over inputs from empty to
// several windows long — level 0's stored blocks included, which then run
// across window slides — read the same as compress/gzip reads them.
func TestGunzipLevels(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	random := make([]byte, 600<<10)
	for i := range random {
		random[i] = byte(rng.Uint32())
	}
	inputs := map[string][]byte{
		"empty":  nil,
		"byte":   {'x'},
		"text":   sampleText(1 << 20),
		"random": random,
		"runs":   bytes.Repeat([]byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaab"), 20000),
	}
	for name, raw := range inputs {
		for _, level := range []int{flate.NoCompression, flate.HuffmanOnly, 1, 4, 9} {
			t.Run(fmt.Sprintf("%s/%s", name, levelName(level)), func(t *testing.T) {
				if out := sameAsStdlib(t, gzipped(t, raw, level, gzip.Header{})); !bytes.Equal(out, raw) {
					t.Fatal("output differs from the input")
				}
			})
		}
	}
}

// bitWriter writes a DEFLATE stream by hand, for blocks compress/flate
// would not choose.
type bitWriter struct {
	out []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

// code writes a Huffman code, whose most significant bit goes first.
func (w *bitWriter) code(c uint64, n uint) {
	var rev uint64
	for i := uint(0); i < n; i++ {
		rev |= (c >> i & 1) << (n - 1 - i)
	}
	w.bits(rev, n)
}

func (w *bitWriter) align() {
	if w.n > 0 {
		w.bits(0, 8-w.n)
	}
}

// The length and distance codes of RFC 1951 §3.2.5.
var (
	lengthBase  = []int{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = []uint{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase    = []int{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra   = []uint{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
)

// fixedSym writes a literal/length symbol in the fixed code (§3.2.6).
func (w *bitWriter) fixedSym(s int) {
	switch {
	case s < 144:
		w.code(uint64(0x30+s), 8)
	case s < 256:
		w.code(uint64(0x190+s-144), 9)
	case s < 280:
		w.code(uint64(s-256), 7)
	default:
		w.code(uint64(0xc0+s-280), 8)
	}
}

// token is a literal (length 0) or a match.
type token struct {
	lit          byte
	length, dist int
}

// fixedBlock writes tokens as one fixed-Huffman block, and appends to out
// what they decode to.
func (w *bitWriter) fixedBlock(final bool, toks []token, out []byte) []byte {
	bfinal := uint64(0)
	if final {
		bfinal = 1
	}
	w.bits(bfinal, 1)
	w.bits(1, 2)
	for _, tk := range toks {
		if tk.length == 0 {
			w.fixedSym(int(tk.lit))
			out = append(out, tk.lit)
			continue
		}
		i := len(lengthBase) - 1
		for lengthBase[i] > tk.length {
			i--
		}
		if tk.length == 258 {
			i = 28
		}
		w.fixedSym(257 + i)
		w.bits(uint64(tk.length-lengthBase[i]), lengthExtra[i])
		j := len(distBase) - 1
		for distBase[j] > tk.dist {
			j--
		}
		w.code(uint64(j), 5)
		w.bits(uint64(tk.dist-distBase[j]), distExtra[j])
		for k := 0; k < tk.length; k++ {
			out = append(out, out[len(out)-tk.dist])
		}
	}
	w.fixedSym(256)
	return out
}

// storedBlocks writes data as stored blocks of at most 65535 bytes.
func (w *bitWriter) storedBlocks(data []byte) {
	for len(data) > 0 {
		n := min(len(data), 65535)
		w.bits(0, 3)
		w.align()
		w.bits(uint64(n), 16)
		w.bits(uint64(^n&0xffff), 16)
		w.out = append(w.out, data[:n]...)
		data = data[n:]
	}
}

var plainHeader = []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}

// TestGunzipFixedHuffman: fixed-Huffman blocks, with matches at every
// kind of distance — overlapping their own output by one byte, by less
// than a word, and from further back.
func TestGunzipFixedHuffman(t *testing.T) {
	var w bitWriter
	var raw []byte
	raw = w.fixedBlock(false, []token{
		{lit: 'a'}, {length: 10, dist: 1},
		{lit: 'x'}, {lit: 'y'}, {lit: 'z'}, {length: 20, dist: 3},
		{lit: 0}, {lit: 200}, {lit: 255}, {length: 258, dist: 9},
	}, raw)
	raw = w.fixedBlock(true, []token{{length: 3, dist: 290}, {length: 100, dist: 7}, {lit: '!'}}, raw)
	w.align()
	m := member(plainHeader, w.out, raw)
	if out := sameAsStdlib(t, m); !bytes.Equal(out, raw) {
		t.Fatalf("read %q, want %q", out, raw)
	}
}

// TestGunzipFarMatchAcrossSlide: a match at the furthest distance, 32768,
// decoded just before, at and after the window slides — its source is
// the first byte of the history the slide keeps.
func TestGunzipFarMatchAcrossSlide(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	prefix := make([]byte, winSize+histSize)
	for i := range prefix {
		prefix[i] = byte(rng.Uint32())
	}
	for _, n := range []int{histSize, outLimit - 1, outLimit, outLimit + 1, winSize - 258, winSize - 1, winSize, winSize + 1, winSize + histSize} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			var w bitWriter
			w.storedBlocks(prefix[:n])
			raw := w.fixedBlock(true, []token{{length: 258, dist: 32768}, {length: 258, dist: 32768}, {lit: '.'}}, append([]byte(nil), prefix[:n]...))
			w.align()
			if out := sameAsStdlib(t, member(plainHeader, w.out, raw)); !bytes.Equal(out, raw) {
				t.Fatal("output differs from the expected")
			}
		})
	}
}

// TestGunzipTruncatedAndCorrupted: cut at every byte, and with each byte
// flipped in turn, a small member — a dynamic block, a stored one and a
// fixed one — fails as compress/gzip fails on it.
func TestGunzipTruncatedAndCorrupted(t *testing.T) {
	// compress/flate's Flush ends its blocks with an empty stored one,
	// which leaves the stream byte-aligned for the blocks written here.
	var buf bytes.Buffer
	fw, err := flate.NewWriter(&buf, 6)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(sampleText(2000))
	if err := fw.Flush(); err != nil {
		t.Fatal(err)
	}
	w := bitWriter{out: buf.Bytes()}
	w.bits(0, 3)
	w.align()
	w.out = append(w.out, 3, 0, 0xfc, 0xff, 's', 't', 'o')
	raw := w.fixedBlock(true, []token{{lit: 'x'}, {length: 5, dist: 1}, {length: 12, dist: 40}}, append(sampleText(2000), "sto"...))
	w.align()
	m := member(plainHeader, w.out, raw)
	if out := sameAsStdlib(t, m); !bytes.Equal(out, raw) {
		t.Fatal("the whole member does not read back")
	}
	for n := range m {
		sameAsStdlib(t, m[:n])
	}
	for i := range m {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			bad := append([]byte(nil), m...)
			bad[i] ^= flip
			sameAsStdlib(t, bad)
		}
	}
}

// fibonacciText is the bytes 'a', 'b', ... in Fibonacci counts — 1, 1,
// 2, 3, 5, ... of the last — shuffled: the counts that make the deepest
// Huffman tree for their total, so that deflated literal-only they carry
// codes of every length from 1 bit to beyond litBits.
func fibonacciText(symbols int, seed uint64) []byte {
	var b []byte
	for i, prev, count := 0, 0, 1; i < symbols; i, prev, count = i+1, count, prev+count {
		b = append(b, bytes.Repeat([]byte{byte('a' + symbols - 1 - i)}, count)...)
	}
	rng := rand.New(rand.NewPCG(seed, 7))
	rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
	return b
}

// digestText is lines of md5-like digests, the literals a chunk's hashes
// deflate to.
func digestText(lines int) []byte {
	var b []byte
	for i := range lines {
		b = fmt.Appendf(b, "<k h=\"%032x\"/>\n", uint64(i)*0x9e3779b97f4a7c15)
	}
	return b
}

// pairedMember is a member of literals alone.
type pairedMember struct {
	name string
	data []byte
	deep bool // its code has lengths from 1 bit to beyond litBits
}

// pairedMembers are members whose literal/length codes pair literals in
// the primary table — literal-only dynamic blocks, compress/flate's
// HuffmanOnly over skewed text and over digests — and, last, a
// fixed-code block of literals, whose codes are too long to pair.
func pairedMembers(tb testing.TB) []pairedMember {
	var w bitWriter
	var toks []token
	for _, c := range digestText(8) {
		toks = append(toks, token{lit: c})
	}
	fixedRaw := w.fixedBlock(true, toks, nil)
	w.align()
	return []pairedMember{
		{"fibonacci 14", gzipped(tb, fibonacciText(14, 1), flate.HuffmanOnly, gzip.Header{}), true},
		{"fibonacci 16", gzipped(tb, fibonacciText(16, 2), flate.HuffmanOnly, gzip.Header{}), true},
		{"digests", gzipped(tb, digestText(40), flate.HuffmanOnly, gzip.Header{}), false},
		{"fixed", member(plainHeader, w.out, fixedRaw), false},
	}
}

// TestGunzipPairedLiterals: members whose codes pair literals read as
// compress/gzip reads them, whole and cut at every byte — where the input
// ends symbol decodes a pair's first literal alone, as compress/flate
// would. The dynamic members must really hold pairs, and the deep ones
// codes of one bit and codes longer than the primary table's.
func TestGunzipPairedLiterals(t *testing.T) {
	for _, m := range pairedMembers(t) {
		t.Run(m.name, func(t *testing.T) {
			sameAsStdlib(t, m.data)
			for n := range m.data {
				sameAsStdlib(t, m.data[:n])
			}
			var z gunzip
			if err := z.reset(bytes.NewReader(m.data)); err != nil {
				t.Fatal(err)
			}
			if _, err := io.Copy(io.Discard, &z); err != nil {
				t.Fatal(err)
			}
			if z.lit == &fixedLit {
				return
			}
			pairs, lens := 0, map[uint32]bool{}
			for _, e := range z.dyn.lit.entries {
				if e&kindLiteral != 0 {
					if literals(e) == 2 {
						pairs++
						lens[e>>8&15] = true
					} else {
						lens[e&entLen] = true
					}
				}
			}
			if pairs == 0 || m.deep && (!lens[1] || z.dyn.lit.subMask == 0) {
				t.Fatalf("%d pairs, code lengths %v, sub-tables %v: not the codes the test is for",
					pairs, lens, z.dyn.lit.subMask != 0)
			}
		})
	}
}

// TestGunzipOneMember: a chunk is one member (spec.md §5). Whatever
// follows the trailer, even a second valid member, is an error.
func TestGunzipOneMember(t *testing.T) {
	m := gzipped(t, sampleText(5000), 4, gzip.Header{})
	for name, tail := range map[string][]byte{
		"a second member": gzipped(t, []byte("\n\n"), 4, gzip.Header{}),
		"one zero byte":   {0},
		"junk":            []byte("junk after the trailer"),
	} {
		t.Run(name, func(t *testing.T) {
			both := append(append([]byte(nil), m...), tail...)
			if _, err := readGunzip(bytes.NewReader(both)); !errors.Is(err, errAfterMember) || !errors.Is(err, gzip.ErrHeader) {
				t.Fatalf("err = %v, want %v", err, errAfterMember)
			}
			sameAsStdlib(t, both)
		})
	}
}

// FuzzGunzipMatchesStdlib: on any input the reader accepts and rejects
// what compress/gzip does — one member and nothing after it — with the
// same output and the same class of error.
//
//	go test -run '^$' -fuzz '^FuzzGunzipMatchesStdlib$' -fuzztime 15s ./internal/dataset/
func FuzzGunzipMatchesStdlib(f *testing.F) {
	raw := sampleText(4000)
	for _, level := range []int{flate.NoCompression, flate.HuffmanOnly, 1, 4, 9} {
		f.Add(gzipped(f, raw, level, gzip.Header{}))
	}
	f.Add(gzipped(f, nil, 4, gzip.Header{Name: "n", Comment: "c", Extra: []byte("e")}))
	f.Add(gzipped(f, []byte("hello, hello, hello"), 9, gzip.Header{}))
	var w bitWriter
	fixedRaw := w.fixedBlock(true, []token{{lit: 'a'}, {length: 10, dist: 1}, {lit: 'b'}, {length: 30, dist: 11}}, nil)
	w.align()
	f.Add(member(plainHeader, w.out, fixedRaw))
	for _, m := range pairedMembers(f) {
		f.Add(m.data)
	}
	f.Add([]byte{})
	f.Add([]byte{0x1f, 0x8b})
	f.Fuzz(func(t *testing.T, data []byte) {
		sameAsStdlib(t, data)
	})
}
