package dataset

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/bits"
	"slices"
)

// deflater writes a whole chunk as one gzip member (RFC 1952 around an
// RFC 1951 stream): the write path's compressor, built for chunk text the
// way gunzip is built for reading it, where compress/flate spends most of
// its time walking hash chains through markup that repeats on every line.
//
// The matcher is anchored on the grammar. spec.md §2 quotes every value,
// so a match is looked for only right after a '"' — bytes.IndexByte
// jumps from one to the next, and the literal runs between them (digits,
// new hashes) are never hashed a byte at a time. At an anchor two
// direct-mapped tables, with no chains, hold the last anchor whose next 4
// and next 8 bytes hashed alike; the longer of the two candidates wins.
// A match is extended forward 8 bytes at a time, up to 258, and backward
// over the bytes not yet emitted, which takes in the markup before the
// anchor. A match shorter than lazyBelow gets one lazy look at the next
// anchor inside it, and the anchors inside an emitted match are entered
// into the tables. Text without quotes is still compressed correctly,
// only badly: no anchor, no match.
//
// Tokens are kept for one block of at most maxBlockTokens and then coded
// as whichever of a dynamic Huffman block, a fixed one or stored blocks
// is smallest, so no block is larger than storing its bytes. Huffman
// codes are length-limited by package-merge. The bit writer is 64-bit and
// kept in locals through the token loop, and its bytes go to the
// destination through a fixed buffer.
//
// A member is streamed: reset starts it, Write feeds its input in pieces
// of any size and Close ends it. The deflater keeps a window of the
// input: the 32 KiB a match may reach back, the current block's bytes
// for a stored block, and a lookahead of 2×258+8 bytes past the last
// anchor looked up, which is as far as the lazy look and insert read, so
// the matcher decides on a piece's last anchors what it would decide on
// the whole input. Literals are emitted once no match can reach back
// over them, and the tables are cleared for every member, so a member's
// bytes depend on its input alone — not on where it was split, nor on
// what the deflater wrote before — and what the deflater holds does not
// depend on the input's size.
type deflater struct {
	w   io.Writer
	err error // the first error w returned

	// The matcher: src holds the member's input from position base on
	// (cap(src) is windowSize), src[:emitted] has become tokens, the
	// current block's tokens stand for src[blockStart:emitted], and the
	// next anchor's quote is looked for from src[next]. crc covers all
	// the input so far.
	src        []byte
	base       int
	emitted    int
	blockStart int
	next       int
	crc        uint32
	toks       []uint32 // the current block's tokens
	litFreq    [maxLitSyms]uint32
	distFreq   [maxDistSyms]uint32
	t4         [1 << hash4Bits]uint32 // the last anchor by a hash of its next 4 bytes
	t8         [1 << hash8Bits]uint32 // and of its next 8

	// The bit writer: nacc bits in acc follow out[:o], which is written to
	// w whenever it passes flushAt.
	out  []byte
	o    int
	acc  uint64
	nacc uint

	// A dynamic block's codes, rebuilt for each, and the scratch that
	// builds them. A code entry is the bit-reversed code with its length
	// in the top byte; lenEnc is the same for length-3, its extra bits
	// included.
	litEnc  [maxLitSyms]uint32
	distEnc [32]uint32
	clEnc   [19]uint32
	lenEnc  [256]uint32
	clFreq  [19]uint32
	clToks  []uint16 // code-length symbols, extra bits' value << 5
	lens    [maxLitSyms + maxDistSyms]uint8
	huff    huffBuilder
}

const (
	hash4Bits = 13
	hash8Bits = 14
	// maxBlockTokens bounds a block's tokens. A token covers a byte at
	// least, so every block but the last covers 32 KiB or more, and
	// storing them costs at most 5 bytes per 32 KiB of input.
	maxBlockTokens = 32 << 10
	// maxBlockSpan bounds the input one block stands for, which the
	// window keeps for a stored block. Chunk text's blocks end on
	// maxBlockTokens long before (205 KB at most over the curve's
	// capture); only long matches, up to 258 bytes a token, reach it,
	// and a block it ends covers more than 32 KiB too.
	maxBlockSpan = 512 << 10
	minMatch     = 4
	maxMatch     = 258
	lazyBelow    = 32
	// lookahead is what the matcher needs past an anchor: a match, the
	// next anchor inside it, that one's match and its 8-byte load.
	lookahead  = 2*maxMatch + 8
	windowSize = maxBlockSpan + 64<<10
	outSize    = 64 << 10
	flushAt    = outSize - 8 // a flush writes 8 bytes at out[o:]

	// A token is a literal byte, or tokMatch | the distance's code << 24 |
	// length-3 << 16 | the distance's extra bits.
	tokMatch = 1 << 31
)

// gzipHeader is what compress/gzip writes at any level but 1 and 9: no
// flags, no modification time, XFL 0, OS unknown.
var gzipHeader = [10]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}

// reset starts a member written to w. At the first call it allocates the
// deflater's buffers, reused after.
func (d *deflater) reset(w io.Writer) {
	if d.out == nil {
		d.src = make([]byte, 0, windowSize)
		d.out = make([]byte, outSize)
		d.toks = make([]uint32, 0, maxBlockTokens)
		d.clToks = make([]uint16, 0, len(d.lens))
	}
	d.w, d.err = w, nil
	d.src, d.base, d.emitted, d.blockStart, d.next, d.crc = d.src[:0], 0, 0, 0, 0, 0
	d.toks = d.toks[:0]
	clear(d.litFreq[:])
	clear(d.distFreq[:])
	clear(d.t4[:])
	clear(d.t8[:])
	d.o = copy(d.out, gzipHeader[:])
	d.acc, d.nacc = 0, 0
}

// Write deflates p as the member's next input, but for the lookahead
// the matcher holds back until more input or Close. It returns the
// destination's first error.
func (d *deflater) Write(p []byte) (int, error) {
	d.crc = crc32.Update(d.crc, crc32.IEEETable, p)
	for n := 0; n < len(p); {
		if len(d.src) == cap(d.src) {
			d.slide()
		}
		k := min(len(p)-n, cap(d.src)-len(d.src))
		d.src = append(d.src, p[n:n+k]...)
		n += k
		d.match(false)
	}
	return len(p), d.err
}

// Close deflates the input held back, codes the last block and writes
// the gzip trailer. It does not close the destination.
func (d *deflater) Close() error {
	d.match(true)
	d.block(true)
	d.put(0, (8-d.nacc)&7)
	d.put(uint64(d.crc), 32)
	d.put(uint64(uint32(d.base+len(d.src))), 32)
	d.writeOut()
	d.w = nil
	return d.err
}

// slide drops from the window the input before the current block and
// before the history of the bytes not yet emitted. After match(false),
// at most ~800 bytes are not yet emitted and a block spans at most
// maxBlockSpan, so that frees 64 KiB less those at least.
func (d *deflater) slide() {
	drop := max(0, min(d.blockStart, d.emitted-histSize))
	d.src = d.src[:copy(d.src, d.src[drop:])]
	d.base += drop
	d.emitted -= drop
	d.blockStart -= drop
	d.next -= drop
}

// match turns the window's input into tokens, block by block: all of it
// when final, else up to the last anchor with a lookahead behind it.
// A match reaches back at most maxMatch bytes before its anchor, so the
// bytes before that, short of the next anchor, are emitted as literals.
func (d *deflater) match(final bool) {
	src := d.src
	last := len(src) - 8 // the last anchor that can load 8 bytes
	stop := last         // the last anchor looked up now
	if !final {
		stop = len(src) - lookahead
	}
	for {
		q := bytes.IndexByte(src[d.next:], '"')
		if q < 0 {
			d.next = len(src)
			break
		}
		p := d.next + q + 1
		if p > stop {
			d.next = p - 1
			break
		}
		d.next = p
		start, end, dist := d.find(p)
		if end == 0 {
			continue
		}
		if end-start < lazyBelow {
			// One lazy look: a match from the next anchor inside this one
			// that reaches further replaces it, or what is left of it.
			if q := bytes.IndexByte(src[p:end-1], '"'); q >= 0 && p+q+1 <= last {
				b := p + q + 1
				if start2, end2, dist2 := d.find(b); end2 > end {
					if start2-start >= minMatch {
						d.literals(start)
						d.backref(start2-start, dist)
					}
					p, start, end, dist = b, start2, end2, dist2
				}
			}
		}
		d.literals(start)
		d.backref(end-start, dist)
		d.insert(p, end, last)
		d.next = end - 1
	}
	if final {
		d.literals(len(src))
	} else {
		d.literals(d.next - maxMatch)
	}
}

// find looks up anchor p, enters it into the tables and returns the
// longer match of the two candidates, extended backward as far as the
// bytes not yet emitted allow — or end 0 for none.
func (d *deflater) find(p int) (start, end, dist int) {
	src := d.src
	v := binary.LittleEndian.Uint64(src[p:])
	h4, h8 := hash4(v), hash8(v)
	c4, c8 := d.t4[h4], d.t8[h8]
	at := uint32(d.base + p)
	d.t4[h4], d.t8[h8] = at, at

	limit := min(maxMatch, len(src)-p)
	n := 0
	for i, c := range [2]uint32{c8, c4} {
		// The tables hold positions in the member, mod 2³², which is
		// exact within a window: a candidate past the window is out of
		// range whatever its value, and one within it is in src.
		back := at - c
		if back-1 >= histSize || i == 1 && c == c8 {
			continue
		}
		if m := matchLen(src[p-int(back):], src[p:], limit); m > n {
			n, dist = m, int(back)
		}
	}
	if n < minMatch {
		return 0, 0, 0
	}
	start = p
	for c := p - dist; start > d.emitted && c > 0 && n < maxMatch && src[start-1] == src[c-1]; c-- {
		start--
		n++
	}
	return start, start + n, dist
}

func hash4(v uint64) uint32 { return uint32(v) * 0x9e3779b1 >> (32 - hash4Bits) }
func hash8(v uint64) uint32 { return uint32(v * 0x9e3779b97f4a7c15 >> (64 - hash8Bits)) }

// matchLen returns how many of the first limit bytes of a and b are
// equal; b is no longer than a.
func matchLen(a, b []byte, limit int) int {
	n := 0
	for ; n+8 <= limit; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < limit && a[n] == b[n] {
		n++
	}
	return n
}

// insert enters into the tables the anchors after p and before end: those
// inside an emitted match, which were not looked up.
func (d *deflater) insert(p, end, last int) {
	src := d.src
	for {
		q := bytes.IndexByte(src[p:end-1], '"')
		if q < 0 || p+q+1 > last {
			return
		}
		p += q + 1
		v := binary.LittleEndian.Uint64(src[p:])
		d.t4[hash4(v)], d.t8[hash8(v)] = uint32(d.base+p), uint32(d.base+p)
	}
}

// literals emits src[emitted:to] as literals.
func (d *deflater) literals(to int) {
	for d.emitted < to {
		if len(d.toks) == maxBlockTokens || d.emitted-d.blockStart == maxBlockSpan {
			d.block(false)
		}
		n := min(to-d.emitted, maxBlockTokens-len(d.toks), maxBlockSpan-(d.emitted-d.blockStart))
		for _, b := range d.src[d.emitted : d.emitted+n] {
			d.toks = append(d.toks, uint32(b))
			d.litFreq[b]++
		}
		d.emitted += n
	}
}

// backref emits a match of length bytes from dist back.
func (d *deflater) backref(length, dist int) {
	if len(d.toks) == maxBlockTokens || d.emitted+length-d.blockStart > maxBlockSpan {
		d.block(false)
	}
	l, x := length-3, dist-1
	var dc uint8
	if x < 256 {
		dc = distCodeOf[x]
	} else {
		dc = distCodeOf[256+x>>7]
	}
	d.toks = append(d.toks, tokMatch|uint32(dc)<<24|uint32(l)<<16|uint32(dist-int(distCodeBase[dc])))
	d.litFreq[257+int(lengthCodeOf[l])]++
	d.distFreq[dc]++
	d.emitted += length
}

// block codes the current block's tokens as the smallest of a dynamic
// Huffman block, a fixed one and stored blocks, and starts the next.
func (d *deflater) block(final bool) {
	d.litFreq[256]++ // the end of the block
	extra := 0       // the length and distance extra bits, the same in either Huffman block
	for i, f := range d.litFreq[257:] {
		extra += int(f) * int(lengthCodeExtra[i])
	}
	for i, f := range d.distFreq {
		extra += int(f) * int(distCodeExtra[i])
	}
	dynamic, fixed := 3+extra, 3+extra
	for s, f := range d.litFreq {
		fixed += int(f) * int(fixedLitEnc[s]>>24)
	}
	for _, f := range d.distFreq {
		fixed += int(f) * 5
	}
	nlit, ndist, ncl := d.dynamicCodes()
	dynamic += 14 + 3*ncl
	for s, f := range d.clFreq {
		dynamic += int(f) * int(d.clEnc[s]>>24)
	}
	for _, t := range d.clToks {
		dynamic += int(clExtra[t&31])
	}
	for s, f := range d.litFreq {
		dynamic += int(f) * int(d.litEnc[s]>>24)
	}
	for s, f := range d.distFreq {
		dynamic += int(f) * int(d.distEnc[s]>>24)
	}
	n := d.emitted - d.blockStart
	stored := 3 + int((8-(d.nacc+3)&7)&7) + 32 + 8*n + 40*(max(1, (n+65534)/65535)-1)

	last := uint64(0)
	if final {
		last = 1
	}
	switch {
	case stored < min(dynamic, fixed):
		d.stored(final)
	case fixed <= dynamic:
		d.put(last|1<<1, 3)
		d.tokens(&fixedLitEnc, &fixedDistEnc)
	default:
		d.put(last|2<<1, 3)
		d.put(uint64(nlit-257)|uint64(ndist-1)<<5|uint64(ncl-4)<<10, 14)
		for _, s := range codeOrder[:ncl] {
			d.put(uint64(d.clEnc[s]>>24), 3)
		}
		for _, t := range d.clToks {
			e := d.clEnc[t&31]
			d.put(uint64(e&0xffff)|uint64(t>>5)<<(e>>24), uint(e>>24)+uint(clExtra[t&31]))
		}
		d.tokens(&d.litEnc, &d.distEnc)
	}
	d.toks = d.toks[:0]
	clear(d.litFreq[:])
	clear(d.distFreq[:])
	d.blockStart = d.emitted
}

// dynamicCodes builds the current block's dynamic codes and the
// code-length code that sends them, and returns how many literal/length,
// distance and code-length code lengths the block header carries.
func (d *deflater) dynamicCodes() (nlit, ndist, ncl int) {
	lens := d.lens[:]
	d.huff.lengths(d.litFreq[:], lens[:maxLitSyms], 15)
	d.huff.lengths(d.distFreq[:], lens[maxLitSyms:], 15)
	canonical(lens[:maxLitSyms], d.litEnc[:])
	canonical(lens[maxLitSyms:], d.distEnc[:maxDistSyms])
	for nlit = maxLitSyms; lens[nlit-1] == 0; nlit-- {
	}
	for ndist = maxDistSyms; lens[maxLitSyms+ndist-1] == 0; ndist-- {
	}
	// The two sequences are run-length coded as one (RFC 1951 §3.2.7).
	copy(lens[nlit:], lens[maxLitSyms:maxLitSyms+ndist])
	d.runLengths(lens[:nlit+ndist])
	var clLens [19]uint8
	d.huff.lengths(d.clFreq[:], clLens[:], 7)
	canonical(clLens[:], d.clEnc[:])
	for ncl = 19; clLens[codeOrder[ncl-1]] == 0; ncl-- {
	}
	return nlit, ndist, max(ncl, 4)
}

// runLengths codes a sequence of code lengths with the code-length
// alphabet: 16 repeats the previous length 3–6 times, 17 and 18 send 3–10
// and 11–138 zeros.
func (d *deflater) runLengths(lens []uint8) {
	d.clToks = d.clToks[:0]
	clear(d.clFreq[:])
	emit := func(sym, rep uint16) {
		d.clToks = append(d.clToks, sym|rep<<5)
		d.clFreq[sym]++
	}
	for i := 0; i < len(lens); {
		v, n := lens[i], 1
		for i+n < len(lens) && lens[i+n] == v {
			n++
		}
		i += n
		if v == 0 {
			for ; n >= 11; n -= min(n, 138) {
				emit(18, uint16(min(n, 138)-11))
			}
			if n >= 3 {
				emit(17, uint16(n-3))
				n = 0
			}
		} else {
			emit(uint16(v), 0)
			for n--; n >= 3; n -= min(n, 6) {
				emit(16, uint16(min(n, 6)-3))
			}
		}
		for ; n > 0; n-- {
			emit(uint16(v), 0)
		}
	}
}

// tokens writes the block's tokens in the given codes, then its end. The
// bit writer lives in locals: after each token its whole bytes go to out,
// which leaves fewer than 8 bits for the next token's 48 at most.
func (d *deflater) tokens(lit *[maxLitSyms]uint32, dist *[32]uint32) {
	for l := range d.lenEnc {
		c := lengthCodeOf[l]
		e := lit[257+int(c)]
		d.lenEnc[l] = (e&0xffff | uint32(l+3-int(lengthCodeBase[c]))<<(e>>24)) | (e>>24+uint32(lengthCodeExtra[c]))<<24
	}
	lens := &d.lenEnc
	out, o := d.out, d.o
	acc, n := d.acc, d.nacc
	for _, t := range d.toks {
		if t < tokMatch {
			e := lit[byte(t)]
			acc |= uint64(e&0xffff) << n
			n += uint(e >> 24)
		} else {
			e := lens[byte(t>>16)]
			acc |= uint64(e&0xffffff) << n
			n += uint(e >> 24)
			dc := t >> 24 & 31
			e = dist[dc]
			acc |= (uint64(e&0xffff) | uint64(t&0xffff)<<(e>>24)) << n
			n += uint(e>>24) + uint(distCodeExtra[dc])
		}
		binary.LittleEndian.PutUint64(out[o:], acc)
		k := n >> 3
		o += int(k)
		acc >>= k << 3
		n &= 7
		if o > flushAt {
			d.o = o
			d.writeOut()
			o = 0
		}
	}
	d.o, d.acc, d.nacc = o, acc, n
	e := lit[256]
	d.put(uint64(e&0xffff), uint(e>>24))
}

// stored writes the current block's bytes as stored blocks.
func (d *deflater) stored(final bool) {
	data := d.src[d.blockStart:d.emitted]
	for {
		n := min(len(data), 65535)
		last := uint64(0)
		if final && n == len(data) {
			last = 1
		}
		d.put(last, 3)
		d.put(0, (8-d.nacc)&7)
		d.put(uint64(n)|uint64(^n&0xffff)<<16, 32)
		if d.o+n > flushAt {
			d.writeOut()
			if d.err == nil {
				_, d.err = d.w.Write(data[:n])
			}
		} else {
			d.o += copy(d.out[d.o:], data[:n])
		}
		if data = data[n:]; len(data) == 0 {
			return
		}
	}
}

// put writes the low nb bits of v, at most 56.
func (d *deflater) put(v uint64, nb uint) {
	d.acc |= v << d.nacc
	d.nacc += nb
	binary.LittleEndian.PutUint64(d.out[d.o:], d.acc)
	k := d.nacc >> 3
	d.o += int(k)
	d.acc >>= k << 3
	d.nacc &= 7
	if d.o > flushAt {
		d.writeOut()
	}
}

// writeOut hands out's whole bytes to the destination, unless it failed
// already.
func (d *deflater) writeOut() {
	if d.err == nil {
		_, d.err = d.w.Write(d.out[:d.o])
	}
	d.o = 0
}

// huffBuilder computes length-limited Huffman codes by package-merge
// (Larmore and Hirschberg): optimal under the limit, and complete, which
// every inflater requires of a code of two symbols or more.
type huffBuilder struct {
	leaves []uint64 // frequency << 16 | symbol, ascending
	// isLeaf[j] tells, for each item of level j's list in order, whether
	// it is a leaf or a package of two items of level j+1; the deepest
	// level, at most the 15th, is all leaves.
	isLeaf    [14][2 * maxLitSyms]bool
	prev, cur [2 * maxLitSyms]uint64
}

// lengths sets lens[s] to the length of symbol s's code, at most limit
// bits, for the frequencies freq. A code has at least two symbols: when
// fewer are used, unused ones with the lowest numbers make up the pair.
func (h *huffBuilder) lengths(freq []uint32, lens []uint8, limit int) {
	clear(lens[:len(freq)])
	leaves := h.leaves[:0]
	for s, f := range freq {
		if f > 0 {
			leaves = append(leaves, uint64(f)<<16|uint64(s))
		}
	}
	for s := 0; len(leaves) < 2; s++ {
		if freq[s] == 0 {
			leaves = append(leaves, uint64(s))
		}
	}
	slices.Sort(leaves)
	h.leaves = leaves
	n := len(leaves)

	// The deepest level's list is the leaves; each level above merges the
	// leaves with the packages of adjacent pairs of the level below.
	prev := h.prev[:n]
	for i, l := range leaves {
		prev[i] = l >> 16
	}
	for j := limit - 2; j >= 0; j-- {
		cur, isLeaf := h.cur[:0], h.isLeaf[j][:0]
		li, pi, npk := 0, 0, len(prev)/2
		for li < n || pi < npk {
			if pi == npk || li < n && leaves[li]>>16 <= prev[2*pi]+prev[2*pi+1] {
				cur = append(cur, leaves[li]>>16)
				isLeaf = append(isLeaf, true)
				li++
			} else {
				cur = append(cur, prev[2*pi]+prev[2*pi+1])
				isLeaf = append(isLeaf, false)
				pi++
			}
		}
		prev = h.prev[:copy(h.prev[:], cur)]
	}
	// The 2n-2 cheapest items of the top level make the code. Going down,
	// the packages taken at one level are the first pairs of the next,
	// and a leaf is as long as the number of levels that take it.
	take := 2*n - 2
	for j := 0; j < limit && take > 0; j++ {
		leavesTaken := take
		if j < limit-1 {
			leavesTaken = 0
			for _, leaf := range h.isLeaf[j][:take] {
				if leaf {
					leavesTaken++
				}
			}
		}
		for _, l := range leaves[:leavesTaken] {
			lens[uint16(l)]++
		}
		take = 2 * (take - leavesTaken)
	}
}

// canonical assigns the canonical Huffman code of RFC 1951 §3.2.2 for the
// code lengths lens, bit-reversed for an LSB-first writer, with the length
// in the top byte; an unused symbol's entry is 0.
func canonical(lens []uint8, enc []uint32) {
	var count, next [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	code := uint16(0)
	for l := 1; l < 16; l++ {
		code = (code + count[l-1]) << 1
		next[l] = code
	}
	for s, l := range lens {
		enc[s] = 0
		if l != 0 {
			enc[s] = uint32(bits.Reverse16(next[l])>>(16-l)) | uint32(l)<<24
			next[l]++
		}
	}
}

// The encoder's view of RFC 1951's tables, derived from the decoder's
// (litSyms, distSyms): each length and distance code's base and extra
// bits, the code of each length-3, and of each distance-1 below 256 or of
// its value >> 7 above; the fixed codes; the code-length code's extra
// bits.
var (
	lengthCodeBase, lengthCodeExtra [29]uint16
	distCodeBase, distCodeExtra     [32]uint16
	lengthCodeOf                    [256]uint8
	distCodeOf                      [512]uint8
	fixedLitEnc                     [maxLitSyms]uint32
	fixedDistEnc                    [32]uint32
	clExtra                         = [32]uint8{16: 2, 17: 3, 18: 7}
)

func init() {
	for c := range 29 {
		e := litSyms[257+c]
		lengthCodeBase[c], lengthCodeExtra[c] = uint16(e>>16), uint16(e>>8&15)
		// 284's extra bits reach 258, which 285, set after, codes alone.
		for l := int(lengthCodeBase[c]); l < int(lengthCodeBase[c])+1<<lengthCodeExtra[c] && l <= 258; l++ {
			lengthCodeOf[l-3] = uint8(c)
		}
	}
	for c := range 30 {
		e := distSyms[c]
		distCodeBase[c], distCodeExtra[c] = uint16(e>>16), uint16(e>>8&15)
		for x := int(distCodeBase[c]) - 1; x < int(distCodeBase[c])-1+1<<distCodeExtra[c]; x++ {
			if x < 256 {
				distCodeOf[x] = uint8(c)
			} else {
				distCodeOf[256+x>>7] = uint8(c)
			}
		}
	}
	// The fixed code is defined over 288 symbols, two of them never sent.
	var lens [288]uint8
	var enc [288]uint32
	for s := range lens {
		lens[s] = 8
		if s >= 144 && s < 256 {
			lens[s] = 9
		} else if s >= 256 && s < 280 {
			lens[s] = 7
		}
	}
	canonical(lens[:], enc[:])
	copy(fixedLitEnc[:], enc[:])
	for s := range fixedDistEnc {
		fixedDistEnc[s] = uint32(bits.Reverse16(uint16(s))>>11) | 5<<24
	}
}
