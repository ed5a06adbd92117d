package dataset

import (
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"

	"edtrace/internal/xmlenc"
)

// writeMember writes src to w as one gzip member, fed whole.
func (d *deflater) writeMember(w io.Writer, src []byte) error {
	d.reset(w)
	d.Write(src)
	return d.Close()
}

// deflateMember is one member of src, fed whole, from d or, if d is nil,
// from a fresh deflater.
func deflateMember(tb testing.TB, d *deflater, src []byte) []byte {
	tb.Helper()
	return deflateSplit(tb, d, src, nil)
}

// deflateSplit is deflateMember with src fed in pieces as long as cuts
// says, round after round; a round that feeds nothing feeds the rest
// whole.
func deflateSplit(tb testing.TB, d *deflater, src []byte, cuts []int) []byte {
	tb.Helper()
	if d == nil {
		d = new(deflater)
	}
	var out bytes.Buffer
	d.reset(&out)
	for len(src) > 0 {
		fed := 0
		for _, c := range cuts {
			n := min(len(src), c)
			d.Write(src[:n])
			src, fed = src[n:], fed+n
		}
		if fed == 0 {
			d.Write(src)
			src = nil
		}
	}
	if err := d.Close(); err != nil {
		tb.Fatal(err)
	}
	return out.Bytes()
}

// deflateMembers compresses every chunk as the writer does, with one
// deflater, and returns the members.
func deflateMembers(tb testing.TB, chunks [][]byte) [][]byte {
	members := make([][]byte, len(chunks))
	d := new(deflater)
	for i, chunk := range chunks {
		members[i] = deflateMember(tb, d, chunk)
	}
	return members
}

// storedBound is the most a member of n input bytes may take: its bytes,
// 5 for each stored block of them — a block holds at most maxBlockTokens
// tokens and a token at least one byte, an empty member one empty block —
// and 18 of gzip framing.
func storedBound(n int) int {
	return n + 5*max(1, (n+maxBlockTokens-1)/maxBlockTokens) + 18
}

// roundTrip deflates src and checks the member: compress/gzip reading
// one member and nothing after it, and gunzip, both give src back, and
// the member stays within storedBound. It returns the member.
func roundTrip(tb testing.TB, src []byte) []byte {
	tb.Helper()
	m := deflateMember(tb, nil, src)
	if got, err := stdlibGunzip(m); err != nil || !bytes.Equal(got, src) {
		tb.Fatalf("compress/gzip: %d bytes in, %d back, err %v", len(src), len(got), err)
	}
	if got, err := readGunzip(bytes.NewReader(m)); err != nil || !bytes.Equal(got, src) {
		tb.Fatalf("gunzip: %d bytes in, %d back, err %v", len(src), len(got), err)
	}
	if len(m) > storedBound(len(src)) {
		tb.Fatalf("%d bytes in, a member of %d: over the bound %d", len(src), len(m), storedBound(len(src)))
	}
	return m
}

// quoteFree returns n seeded bytes from an alphabet of size letters,
// none of them a quote: text with no anchor, so no match.
func quoteFree(seed uint64, n, size int) []byte {
	rng := rand.New(rand.NewPCG(seed, 1))
	b := make([]byte, n)
	for i := range b {
		b[i] = 'A' + byte(rng.IntN(size))
	}
	return b
}

// TestDeflateShortInputs: the empty member, and every input too short to
// hold an anchor that can load 8 bytes, quotes or not, bytes of every
// fixed-code length among them. The header is the one compress/gzip
// writes.
func TestDeflateShortInputs(t *testing.T) {
	want := deflateChunks(t, [][]byte{nil}, 4)[0]
	if m := roundTrip(t, nil); !bytes.Equal(m[:10], want[:10]) {
		t.Fatalf("header % x, compress/gzip writes % x", m[:10], want[:10])
	}
	for n := 1; n <= 8; n++ {
		for _, src := range [][]byte{[]byte(`"a"b"c"d"`[:n]), bytes.Repeat([]byte{'"'}, n), sampleText(n), []byte("\x00\x8f\x90\xa2\xff\"\x7f\xfe")[:n]} {
			roundTrip(t, src)
		}
	}
}

// TestDeflateInputs: what the matcher meets at the edges of its design —
// text with no quote (no anchor), runs of one byte, random bytes.
func TestDeflateInputs(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	random := make([]byte, 1<<20)
	for i := range random {
		random[i] = byte(rng.Uint32())
	}
	t.Run("no quotes", func(t *testing.T) {
		// No anchor, no match: what is left is the Huffman code's saving.
		src := bytes.ReplaceAll(sampleText(200<<10), []byte{'"'}, []byte{'\''})
		if m := roundTrip(t, src); len(m) > len(src)*3/4 {
			t.Fatalf("%d bytes of markup became %d", len(src), len(m))
		}
	})
	t.Run("run of quotes", func(t *testing.T) {
		// Every byte an anchor: distance 1, length 258, over and over.
		if m := roundTrip(t, bytes.Repeat([]byte{'"'}, 1<<20)); len(m) > 8<<10 {
			t.Fatalf("1 MiB of one byte became %d", len(m))
		}
	})
	t.Run("run without an anchor", func(t *testing.T) {
		roundTrip(t, bytes.Repeat([]byte{'a'}, 1<<20))
	})
	t.Run("random", func(t *testing.T) {
		// Nothing to find: every block goes stored.
		if m := roundTrip(t, random); len(m) < len(random) {
			t.Fatalf("%d random bytes became %d", len(random), len(m))
		}
	})
	t.Run("random then text", func(t *testing.T) {
		roundTrip(t, append(append(sampleText(100<<10), random[:70000]...), sampleText(100<<10)...))
	})
}

// TestDeflateWindowEdge: a repeat exactly 32768 bytes back is within the
// window and taken; one 32769 back is not.
func TestDeflateWindowEdge(t *testing.T) {
	repeat := []byte(`"` + string(quoteFree(1, 60, 26)))
	size := func(back int) int {
		filler := quoteFree(2, back-len(repeat), 4) // compressible, no anchor
		src := slices.Concat(repeat, filler, repeat)
		return len(roundTrip(t, src))
	}
	near, far := size(32768), size(32769)
	t.Logf("repeat 32768 back: %d B, 32769 back: %d B", near, far)
	if far-near < 30 {
		t.Fatalf("the repeat at the window's edge saved %d bytes, want it taken as a match", far-near)
	}
}

// TestDeflateMatchAcrossBlocks: a match whose source is in the previous
// block, for matches that fall just before, on and just after the block
// boundary.
func TestDeflateMatchAcrossBlocks(t *testing.T) {
	repeat := []byte(`"` + string(quoteFree(3, 60, 26)))
	for at := maxBlockTokens - 70; at <= maxBlockTokens+10; at += 5 {
		t.Run(fmt.Sprint(at), func(t *testing.T) {
			// The filler is all literals, one token a byte, so the second
			// repeat starts at token at.
			head := quoteFree(4, at-600, 4)
			src := slices.Concat(head, repeat, quoteFree(5, 600-len(repeat), 4), repeat, quoteFree(6, 500, 4))
			without := slices.Concat(head, repeat, quoteFree(5, 600-len(repeat), 4), quoteFree(7, len(repeat), 26), quoteFree(6, 500, 4))
			if m, w := roundTrip(t, src), roundTrip(t, without); len(w)-len(m) < 30 {
				t.Fatalf("the repeat saved %d bytes, want it taken as a match", len(w)-len(m))
			}
		})
	}
}

// TestDeflateSplitsMatchWhole: a member's bytes do not depend on how its
// input is split — into pieces around the lookahead's size, around a
// segment's, or of one byte — over inputs long enough to slide the
// window many times: chunk text, runs of quotes (258 bytes a token),
// which cut blocks on maxBlockSpan, and random bytes, which go stored.
// The members keep within storedBound.
func TestDeflateSplitsMatchWhole(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 14))
	random := make([]byte, 1<<20)
	for i := range random {
		random[i] = byte(rng.Uint32())
	}
	near, seg := make([]int, 64), make([]int, 64)
	for i := range near {
		near[i] = rng.IntN(2 * lookahead)
		seg[i] = segmentSize - 4096 + rng.IntN(8192)
	}
	text := sampleText(3 << 20)
	d := new(deflater)
	for _, tc := range []struct {
		name string
		src  []byte
		cuts []int
	}{
		{"text near the lookahead", text, near},
		{"text by segments", text, seg},
		{"text byte by byte", text[:600<<10], []int{1}},
		{"quotes near the lookahead", bytes.Repeat([]byte{'"'}, 3<<20), near},
		{"quotes by segments", bytes.Repeat([]byte{'"'}, 3<<20), seg},
		{"random by segments", random, seg},
		{"mixed near the lookahead", slices.Concat(text[:400<<10], random[:300<<10], bytes.Repeat([]byte(`"ab`), 200<<10), text[:300<<10]), near},
	} {
		whole := roundTrip(t, tc.src)
		if got := deflateSplit(t, d, tc.src, tc.cuts); !bytes.Equal(got, whole) {
			t.Errorf("%s: the member differs from the whole input's", tc.name)
		}
	}
}

// fibonacci returns n frequencies that make an unlimited Huffman code n-1
// bits deep.
func fibonacci(n int) []uint32 {
	f := make([]uint32, n)
	f[0], f[1] = 1, 1
	for i := 2; i < n; i++ {
		f[i] = f[i-1] + f[i-2]
	}
	return f
}

// huffman is what an unlimited Huffman code spends on freq, merging the
// two lightest weights each time, and how deep that tree is.
func huffman(freq []uint32) (cost uint64, depth int) {
	type node struct {
		w uint64
		d int
	}
	var nodes []node
	for _, f := range freq {
		if f > 0 {
			nodes = append(nodes, node{uint64(f), 0})
		}
	}
	for len(nodes) > 1 {
		slices.SortFunc(nodes, func(a, b node) int { return int(a.w) - int(b.w) })
		m := node{nodes[0].w + nodes[1].w, max(nodes[0].d, nodes[1].d) + 1}
		cost += m.w
		nodes = append(nodes[2:], m)
	}
	if len(nodes) == 1 {
		depth = nodes[0].d
	}
	return cost, depth
}

// checkCode checks lens as a code for freq under limit — complete, no
// code over the limit, every used symbol coded — and returns its depth
// and what it spends on freq.
func checkCode(t *testing.T, freq []uint32, lens []uint8, limit int) (maxLen int, cost uint64) {
	t.Helper()
	kraft := 0
	for s, l := range lens {
		if int(l) > limit || freq[s] > 0 && l == 0 {
			t.Fatalf("symbol %d (frequency %d) has length %d, limit %d", s, freq[s], l, limit)
		}
		if l > 0 {
			kraft += 1 << (limit - int(l))
		}
		maxLen = max(maxLen, int(l))
		cost += uint64(freq[s]) * uint64(l)
	}
	if kraft != 1<<limit {
		t.Fatalf("Kraft sum %d/%d: the code is not complete", kraft, 1<<limit)
	}
	return maxLen, cost
}

// TestHuffmanLengthLimits: Fibonacci-weighted frequencies, which an
// unlimited code would make 29 and 18 bits deep, get complete codes at
// exactly the 15-bit and 7-bit limits; random ones get codes as cheap as
// unlimited Huffman whenever that fits.
func TestHuffmanLengthLimits(t *testing.T) {
	var h huffBuilder
	for _, tc := range []struct{ syms, used, limit int }{{maxLitSyms, 30, 15}, {19, 19, 7}} {
		freq := make([]uint32, tc.syms)
		copy(freq, fibonacci(tc.used))
		lens := make([]uint8, tc.syms)
		h.lengths(freq, lens, tc.limit)
		if maxLen, _ := checkCode(t, freq, lens, tc.limit); maxLen != tc.limit {
			t.Fatalf("Fibonacci code at limit %d is %d bits deep", tc.limit, maxLen)
		}
	}
	rng := rand.New(rand.NewPCG(7, 8))
	for i := range 2000 {
		syms, limit := maxLitSyms, 15
		if i%2 == 1 {
			syms, limit = 19, 7
		}
		freq := make([]uint32, syms)
		for s := range freq {
			if rng.IntN(3) > 0 {
				freq[s] = uint32(rng.IntN(1 << rng.IntN(16)))
			}
		}
		lens := make([]uint8, syms)
		h.lengths(freq, lens, limit)
		_, cost := checkCode(t, freq, lens, limit)
		if unlimited, depth := huffman(freq); cost < unlimited || depth <= limit && cost != unlimited {
			t.Fatalf("case %d: cost %d, Huffman's %d at depth %d, limit %d", i, cost, unlimited, depth, limit)
		}
	}
}

// TestDeflateFibonacciBytes: a block whose literal frequencies are
// Fibonacci-weighted codes them at the 15-bit limit, and reads back.
func TestDeflateFibonacciBytes(t *testing.T) {
	var src []byte
	for i, f := range fibonacci(21) {
		src = append(src, bytes.Repeat([]byte{'A' + byte(i)}, int(f))...)
	}
	rng := rand.New(rand.NewPCG(9, 10))
	rng.Shuffle(len(src), func(i, j int) { src[i], src[j] = src[j], src[i] })
	if len(src) >= maxBlockTokens {
		t.Fatalf("%d bytes do not fit one block", len(src))
	}
	roundTrip(t, src)
}

// heapSampler is a destination that records the live heap as a member
// is written through it.
type heapSampler struct {
	writes, bytes int
	peak          uint64
}

func liveHeap() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

func (h *heapSampler) Write(p []byte) (int, error) {
	if h.writes++; h.writes%16 == 0 {
		h.peak = max(h.peak, liveHeap())
	}
	h.bytes += len(p)
	return len(p), nil
}

// TestDeflateHoldsNoChunk: what the deflater holds does not follow the
// chunk size. One chunk of 64 MiB of record text — sixteen times what the
// writer makes by default — is deflated into a destination that samples
// the live heap, which never holds more than 1 MiB over the input.
func TestDeflateHoldsNoChunk(t *testing.T) {
	text := xmlenc.AppendHeader(make([]byte, 0, 65<<20), nil)
	rec := &xmlenc.Record{Op: "OfferFiles", Dir: xmlenc.DirQuery}
	for i := 0; len(text) < 64<<20; i++ {
		rec.T, rec.Client = float64(i)/8, uint32(i%5000)
		rec.Files = append(rec.Files[:0], xmlenc.FileInfo{ID: uint32(i % 70000), SizeKB: uint64(i % 9000), NameHash: fmt.Sprintf("%032x", i%70000), TypeHash: "b22f0418e8ac915eb66f829d262d14a2"})
		text = xmlenc.AppendRecord(text, rec)
	}
	text = xmlenc.AppendFooter(text)
	before := liveHeap()
	dst := &heapSampler{}
	if err := new(deflater).writeMember(dst, text); err != nil {
		t.Fatal(err)
	}
	grew := int64(dst.peak) - int64(before)
	t.Logf("%d MiB of text into %d KiB: the live heap grew by %d KiB at most", len(text)>>20, dst.bytes>>10, grew>>10)
	if dst.writes < 32 {
		t.Fatalf("%d writes: too few samples", dst.writes)
	}
	if grew > 1<<20 {
		t.Fatalf("deflating a chunk of %d MiB held %d bytes more than before", len(text)>>20, grew)
	}
	runtime.KeepAlive(text)
}

// FuzzDeflateRoundTrip: for any input the member reads back through
// compress/gzip (one member, nothing after it) and through gunzip, stays
// within storedBound, and is the same from a reused deflater as from a
// fresh one, and fed in the pieces cuts gives as fed whole.
//
//	go test -run '^$' -fuzz '^FuzzDeflateRoundTrip$' -fuzztime 15s ./internal/dataset/
func FuzzDeflateRoundTrip(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte(`"`), []byte{0})
	f.Add(sampleText(5000), []byte{1, 0, 255, 7})
	f.Add(bytes.Repeat([]byte(`"ab"`), 300), []byte{3})
	f.Add(append(sampleText(2000), quoteFree(12, 2000, 200)...), []byte{200, 31})
	reused := new(deflater)
	deflateMember(f, reused, sampleText(70<<10))
	f.Fuzz(func(t *testing.T, src, cuts []byte) {
		m := roundTrip(t, src)
		if again := deflateMember(t, reused, src); !bytes.Equal(again, m) {
			t.Fatalf("%d bytes: a reused deflater wrote a different member", len(src))
		}
		pieces := make([]int, len(cuts))
		for i, c := range cuts {
			pieces[i] = int(c)
		}
		if split := deflateSplit(t, reused, src, pieces); !bytes.Equal(split, m) {
			t.Fatalf("%d bytes cut by % x: a different member than fed whole", len(src), cuts)
		}
	})
}
