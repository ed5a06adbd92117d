package dataset

import (
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
)

// gunzip inflates one gzip member (RFC 1952 around an RFC 1951 stream):
// the whole of a compressed chunk, as spec.md §5 defines it. It is the
// read path's inflater, built for that one job instead of compress/gzip,
// whose per-symbol ReadByte through an interface and byte-at-a-time
// dictionary writes cost the analysis more than decoding the XML did.
//
// Input comes from a 64 KiB buffer; while eight bytes of it remain, one
// 64-bit load refills the bit buffer without a branch. Huffman codes
// decode through a 12-bit (literal/length) or 8-bit (distance) primary
// table and sub-tables behind it, rebuilt into the same storage for
// every dynamic block. A literal/length primary entry whose bits hold
// a literal's code and all of the next literal's holds both literals
// (pairLiterals): a chunk's hex digests are mostly literals of short
// codes, and each pair is one lookup less. Output is decoded straight
// into a window of histSize bytes of history plus room for 224 KiB more,
// which slides only once the caller has read everything decoded.
//
// The reader accepts and rejects exactly what gzip.Reader with
// Multistream(false) does, errors included by class — gzip.ErrHeader,
// gzip.ErrChecksum, io.ErrUnexpectedEOF, flate.CorruptInputError — and
// then fails on any byte after the member's trailer (errAfterMember).
// Near the end of the input it decodes one symbol at a time, reading no
// further than compress/flate would, so a short input and a corrupt one
// are told apart as compress/flate tells them. FuzzGunzipMatchesStdlib
// holds the two readers equal.
type gunzip struct {
	src    io.Reader
	srcErr error  // what ended src: io.EOF or its read error; nil while it may hold more
	in     []byte // input buffer: in[pos:end] is unread
	pos    int
	end    int
	base   int64 // offset in the member of in[0]

	bits  uint64 // input bits, the next one lowest; nbits of them are loaded
	nbits uint   // (any bits above are the input's next bits, or zero)

	win  []byte // histSize of history, then output; win[rpos:wpos] is unread
	wpos int
	rpos int

	state  int
	final  bool       // the current block is the member's last
	stored int        // bytes left in a stored block
	lit    *huffTable // the current Huffman block's codes
	dist   *huffTable
	dyn    struct{ lit, dist, lens huffTable } // a dynamic block's, reused

	crc  uint32 // of the output so far, and its length
	size uint32
	err  error // sticky: what Read returns once the output is used up
}

const (
	gunzipInput = 64 << 10
	histSize    = 32 << 10 // the furthest a DEFLATE match reaches back
	winSize     = histSize + 224<<10
	// outLimit is the last output position a Huffman symbol is decoded
	// from: a match of the longest length, copied in whole 8-byte words,
	// still ends inside the window.
	outLimit = winSize - 264

	litBits     = 12 // primary table widths: 16 KiB of literal/length entries
	distBits    = 8
	maxLitSyms  = 286 // the symbols a dynamic block may code
	maxDistSyms = 30
)

// Decoding states.
const (
	stBlock   = iota // at a block header
	stStored         // inside a stored block
	stHuffman        // inside a Huffman block
	stTrailer        // past the final block
)

// errAfterMember: a chunk is one member, and nothing may follow its
// trailer. It is a header error, as compress/gzip calls bytes that follow
// a member and do not start another.
var errAfterMember = fmt.Errorf("%w: data after the member's trailer", gzip.ErrHeader)

// reset starts reading the member src holds, and reads its header. At
// the first call it allocates the reader's buffers, reused after.
func (z *gunzip) reset(src io.Reader) error {
	if z.in == nil {
		// Room for a sub-table per symbol of the longest code, which no
		// code outgrows.
		z.in = make([]byte, gunzipInput)
		z.win = make([]byte, winSize)
		z.dyn.lit = newHuffTable(1<<litBits + maxLitSyms<<(15-litBits))
		z.dyn.dist = newHuffTable(1<<distBits + maxDistSyms<<(15-distBits))
		z.dyn.lens = newHuffTable(1 << 7)
	}
	z.src, z.srcErr = src, nil
	z.pos, z.end, z.base = 0, 0, 0
	z.bits, z.nbits = 0, 0
	z.wpos, z.rpos = 0, 0
	z.state = stBlock
	z.crc, z.size = 0, 0
	z.err = z.header()
	return z.err
}

// header reads an RFC 1952 member header. Every flag is honoured: FTEXT
// means nothing to a reader, FEXTRA, FNAME and FCOMMENT are skipped,
// FHCRC is checked. A name or comment of 512 bytes or more is rejected,
// and the reserved flag bits are ignored, both as compress/gzip does.
func (z *gunzip) header() error {
	z.more()
	if z.nbits == 0 && z.srcErr == io.EOF {
		return io.EOF // no member at all, as gzip.NewReader reports it
	}
	// next reads a header byte into the header's CRC; after a short input
	// it reads nothing more, and err says why.
	var err error
	crc := ^uint32(0)
	next := func() byte {
		if err == nil {
			err = z.need(8)
		}
		if err != nil {
			return 0
		}
		b := byte(z.take(8))
		crc = crc32.IEEETable[byte(crc)^b] ^ crc>>8
		return b
	}
	var fixed [10]byte
	for i := range fixed {
		fixed[i] = next()
	}
	if err != nil {
		return err
	}
	if fixed[0] != 0x1f || fixed[1] != 0x8b || fixed[2] != 8 {
		return gzip.ErrHeader
	}
	const fHCRC, fEXTRA, fNAME, fCOMMENT = 1 << 1, 1 << 2, 1 << 3, 1 << 4
	flg := fixed[3]
	if flg&fEXTRA != 0 {
		for n := int(next()) | int(next())<<8; n > 0 && err == nil; n-- {
			next()
		}
	}
	for _, f := range []byte{fNAME, fCOMMENT} {
		for i := 0; flg&f != 0 && err == nil; i++ {
			if i == 512 {
				return gzip.ErrHeader
			}
			if next() == 0 {
				break
			}
		}
	}
	if err != nil {
		return err
	}
	if flg&fHCRC != 0 {
		want := uint16(^crc)
		if err := z.need(16); err != nil {
			return err
		}
		if uint16(z.take(16)) != want {
			return gzip.ErrHeader
		}
	}
	return nil
}

// Read reads the member's inflated bytes. After the last of them it
// returns io.EOF once the trailer has checked out and nothing follows it.
func (z *gunzip) Read(p []byte) (int, error) {
	for z.rpos == z.wpos {
		if z.err != nil {
			return 0, z.err
		}
		z.err = z.decode()
	}
	n := copy(p, z.win[z.rpos:z.wpos])
	z.rpos += n
	return n, nil
}

// decode inflates the next stretch of output into the window, whose
// every decoded byte the caller has read.
func (z *gunzip) decode() error {
	if z.wpos > outLimit {
		z.wpos = copy(z.win, z.win[z.wpos-histSize:z.wpos])
		z.rpos = z.wpos
	}
	start := z.wpos
	err := z.inflate()
	z.crc = crc32.Update(z.crc, crc32.IEEETable, z.win[start:z.wpos])
	z.size += uint32(z.wpos - start)
	if err == nil && z.state == stTrailer {
		err = z.trailer()
	}
	return err
}

// inflate decodes blocks until the window is full or the final block
// has ended.
func (z *gunzip) inflate() error {
	for z.wpos <= outLimit {
		var err error
		switch z.state {
		case stBlock:
			err = z.blockHeader()
		case stStored:
			err = z.storedData()
		case stHuffman:
			err = z.huffman()
		default:
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (z *gunzip) blockHeader() error {
	if err := z.need(3); err != nil {
		return err
	}
	z.final = z.take(1) == 1
	switch z.take(2) {
	case 0:
		z.drop(z.nbits & 7)
		if err := z.need(32); err != nil {
			return err
		}
		n, nn := z.take(16), z.take(16)
		if n != ^nn&0xffff {
			return z.corrupt()
		}
		z.stored = int(n)
		z.state = stStored
		return nil
	case 1:
		z.lit, z.dist = &fixedLit, &fixedDist
	case 2:
		if err := z.dynamic(); err != nil {
			return err
		}
		z.lit, z.dist = &z.dyn.lit, &z.dyn.dist
	default:
		return z.corrupt()
	}
	z.state = stHuffman
	return nil
}

// storedData copies a stored block's bytes, as many as the window has
// room for: first those already in the bit buffer, then straight from
// the input buffer.
func (z *gunzip) storedData() error {
	n := min(z.stored, winSize-z.wpos)
	z.stored -= n
	for ; n > 0 && z.nbits > 0; n-- {
		z.win[z.wpos] = byte(z.take(8))
		z.wpos++
	}
	if z.nbits == 0 {
		z.bits = 0 // the bytes it still held are read from z.in now
	}
	for n > 0 {
		if z.pos == z.end {
			if z.fill(); z.pos == z.end {
				return z.short()
			}
		}
		m := copy(z.win[z.wpos:z.wpos+n], z.in[z.pos:z.end])
		z.wpos += m
		z.pos += m
		n -= m
	}
	if z.stored == 0 {
		z.endBlock()
	}
	return nil
}

func (z *gunzip) endBlock() {
	if z.final {
		z.state = stTrailer
	} else {
		z.state = stBlock
	}
}

// codeOrder is the order a dynamic block sends its code-length code in.
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// dynamic reads a dynamic block's code definitions (RFC 1951 §3.2.7)
// into z.dyn, checking them as compress/flate does.
func (z *gunzip) dynamic() error {
	if err := z.need(14); err != nil {
		return err
	}
	nlit := int(z.take(5)) + 257
	ndist := int(z.take(5)) + 1
	nclen := int(z.take(4)) + 4
	if nlit > maxLitSyms || ndist > maxDistSyms {
		return z.corrupt()
	}
	var clens [19]uint8
	for _, sym := range codeOrder[:nclen] {
		if err := z.need(3); err != nil {
			return err
		}
		clens[sym] = uint8(z.take(3))
	}
	if !z.dyn.lens.build(clens[:], clSyms[:], 7) {
		return z.corrupt()
	}
	var all [maxLitSyms + maxDistSyms]uint8
	lens := all[:nlit+ndist]
	for i := 0; i < len(lens); {
		e, err := z.symbol(&z.dyn.lens)
		if err != nil {
			return err
		}
		sym := uint8(e >> 16)
		if sym < 16 {
			lens[i] = sym
			i++
			continue
		}
		var rep, extra uint
		var val uint8
		switch sym {
		case 16:
			if i == 0 {
				return z.corrupt()
			}
			rep, extra, val = 3, 2, lens[i-1]
		case 17:
			rep, extra = 3, 3
		default:
			rep, extra = 11, 7
		}
		if err := z.need(extra); err != nil {
			return err
		}
		rep += uint(z.take(extra))
		if i+int(rep) > len(lens) {
			return z.corrupt()
		}
		for ; rep > 0; rep-- {
			lens[i] = val
			i++
		}
	}
	if !z.dyn.lit.build(lens[:nlit], litSyms[:], litBits) || !z.dyn.dist.build(lens[nlit:], distSyms[:], distBits) {
		return z.corrupt()
	}
	z.dyn.lit.pairLiterals()
	// compress/flate reads at least the end-of-block code's length before
	// it decodes a literal/length symbol; so does symbol.
	z.dyn.lit.min = max(z.dyn.lit.min, uint(lens[256]))
	return nil
}

// huffman decodes the current Huffman block until it ends or the window
// is full: fast while eight input bytes are buffered, symbol by symbol at
// the input's end.
func (z *gunzip) huffman() error {
	for z.state == stHuffman && z.wpos <= outLimit {
		if z.end-z.pos < 8 {
			z.fill()
		}
		var err error
		if z.end-z.pos >= 8 {
			err = z.huffmanFast()
		} else {
			err = z.huffmanSymbol()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// huffmanFast is the hot loop. Every pass refills the bit buffer to at
// least 56 bits, which covers two literal entries — a literal of up to 15
// bits or a pair within 12, then another pair — or one whole match (15 +
// 5 bits of length, 15 + 13 of distance): nothing it reads can run
// short. A literal entry's two bytes are stored whole and the output
// moves on by one or two, into the slack the window keeps past outLimit.
func (z *gunzip) huffmanFast() error {
	in, pos := z.in[:z.end], z.pos
	bitbuf, nbits := z.bits, z.nbits
	win, wpos := z.win, z.wpos
	lit, dist := z.lit.entries, z.dist.entries
	litPrimary := (*[1 << litBits]uint32)(lit)
	distPrimary := (*[1 << distBits]uint32)(dist)
	litSub, distSub := z.lit.subMask, z.dist.subMask
	bad := false
	for pos <= len(in)-8 && wpos <= outLimit {
		bitbuf |= binary.LittleEndian.Uint64(in[pos:]) << nbits
		pos += int((63 - nbits) >> 3)
		nbits |= 56

		e := litPrimary[bitbuf&(1<<litBits-1)]
		if e&kindSub != 0 {
			e = lit[e>>16+uint32(bitbuf>>litBits&litSub)]
		}
		if e&kindLiteral != 0 {
			n := uint(e & entLen)
			bitbuf >>= n
			nbits -= n
			binary.LittleEndian.PutUint16(win[wpos:], uint16(e>>16))
			wpos += literals(e)
			if e = litPrimary[bitbuf&(1<<litBits-1)]; e&kindLiteral != 0 {
				n := uint(e & entLen)
				bitbuf >>= n
				nbits -= n
				binary.LittleEndian.PutUint16(win[wpos:], uint16(e>>16))
				wpos += literals(e)
			}
			continue
		}
		n := uint(e & entLen)
		bitbuf >>= n
		nbits -= n
		if e&kindCopy == 0 {
			if e&kindEnd != 0 {
				z.endBlock()
			} else {
				bad = true
			}
			break
		}
		extra := uint(e>>8) & 15
		length := int(e>>16) + int(bitbuf&(1<<extra-1))
		bitbuf >>= extra
		nbits -= extra

		e = distPrimary[bitbuf&(1<<distBits-1)]
		if e&kindSub != 0 {
			e = dist[e>>16+uint32(bitbuf>>distBits&distSub)]
		}
		if e&kindCopy == 0 {
			bad = true
			break
		}
		n = uint(e & entLen)
		bitbuf >>= n
		nbits -= n
		extra = uint(e>>8) & 15
		d := int(e>>16) + int(bitbuf&(1<<extra-1))
		bitbuf >>= extra
		nbits -= extra
		if d > wpos {
			bad = true
			break
		}
		copyMatch(win, wpos, d, length)
		wpos += length
	}
	z.pos, z.bits, z.nbits, z.wpos = pos, bitbuf, nbits, wpos
	if bad {
		return z.corrupt()
	}
	return nil
}

// huffmanSymbol decodes one literal, match or end of block where the
// input may end: every read is checked for the bits it needs.
func (z *gunzip) huffmanSymbol() error {
	e, err := z.symbol(z.lit)
	if err != nil {
		return err
	}
	switch {
	case e&kindLiteral != 0:
		z.win[z.wpos] = byte(e >> 16)
		z.wpos++
		return nil
	case e&kindEnd != 0:
		z.endBlock()
		return nil
	}
	length, err := z.extra(e)
	if err != nil {
		return err
	}
	if e, err = z.symbol(z.dist); err != nil {
		return err
	}
	d, err := z.extra(e)
	if err != nil {
		return err
	}
	if d > z.wpos {
		return z.corrupt()
	}
	copyMatch(z.win, z.wpos, d, length)
	z.wpos += length
	return nil
}

// copyMatch writes the length bytes that start dist bytes back at wpos.
// At a distance of eight or more it copies whole words, writing up to
// seven bytes past the match that later output overwrites.
func copyMatch(win []byte, wpos, dist, length int) {
	from := wpos - dist
	if dist >= 8 {
		for i := 0; i < length; i += 8 {
			binary.LittleEndian.PutUint64(win[wpos+i:], binary.LittleEndian.Uint64(win[from+i:]))
		}
		return
	}
	// Closer than a word the source overlaps the copy: each pass doubles
	// what there is to copy from.
	for n := 0; n < length; {
		n += copy(win[wpos+n:wpos+length], win[from:wpos+n])
	}
}

// trailer checks the member's CRC-32 and length, and that nothing
// follows it.
func (z *gunzip) trailer() error {
	z.drop(z.nbits & 7)
	if err := z.need(32); err != nil {
		return err
	}
	crc := z.take(32)
	if err := z.need(32); err != nil {
		return err
	}
	if crc != z.crc || z.take(32) != z.size {
		return gzip.ErrChecksum
	}
	if z.nbits == 0 && z.pos == z.end {
		z.fill()
	}
	if z.nbits > 0 || z.pos < z.end {
		return errAfterMember
	}
	return z.srcErr // io.EOF, unless reading on to find that out failed
}

// fill moves the unread input to the front of the buffer and reads src
// until at least eight bytes are buffered or src has no more.
func (z *gunzip) fill() {
	if z.srcErr != nil {
		return
	}
	if z.pos > 0 {
		z.base += int64(z.pos)
		z.end = copy(z.in, z.in[z.pos:z.end])
		z.pos = 0
	}
	for z.end < 8 && z.srcErr == nil {
		var n int
		n, z.srcErr = z.src.Read(z.in[z.end:])
		z.end += n
	}
}

// more loads buffered input into the bit buffer, filling the buffer
// from src as it runs low: afterwards fewer than 56 bits are loaded only
// if the input has ended. (Never 64: huffmanFast's refill needs a bit
// free.)
func (z *gunzip) more() {
	if z.end-z.pos < 8 {
		z.fill()
	}
	for z.nbits < 56 && z.pos < z.end {
		z.bits |= uint64(z.in[z.pos]) << z.nbits
		z.pos++
		z.nbits += 8
	}
}

// need loads n bits, or says why the input could not supply them.
func (z *gunzip) need(n uint) error {
	if z.nbits < n {
		if z.more(); z.nbits < n {
			return z.short()
		}
	}
	return nil
}

func (z *gunzip) take(n uint) uint32 {
	v := uint32(z.bits & (1<<n - 1))
	z.drop(n)
	return v
}

func (z *gunzip) drop(n uint) {
	z.bits >>= n
	z.nbits -= n
}

// short is the error of an input that ended before the member did.
func (z *gunzip) short() error {
	if z.srcErr != nil && z.srcErr != io.EOF {
		return z.srcErr
	}
	return io.ErrUnexpectedEOF
}

// corrupt is the error of input that is no DEFLATE stream, at the
// offset in the member of the first byte not yet consumed.
func (z *gunzip) corrupt() error {
	return flate.CorruptInputError(z.base + int64(z.pos) - int64(z.nbits/8))
}

// symbol decodes one symbol of t where the input may end. Like
// compress/flate it wants t.min bits before it decides anything, then
// the matched code's length: a shortfall of either is a short input,
// while a code t does not assign, or a symbol the format forbids, is
// corrupt input. Of a pair of literals it takes the first alone, whose
// length is all compress/flate would want.
func (z *gunzip) symbol(t *huffTable) (uint32, error) {
	z.more()
	if z.nbits < t.min {
		return 0, z.short()
	}
	e := t.lookup(z.bits) // bits past nbits are zero if the input has ended
	if first := e >> 8 & 15; e&kindLiteral != 0 && first != 0 {
		e = kindLiteral | e&0xff0000 | first
	}
	n := uint(e & entLen)
	if n > z.nbits {
		return 0, z.short()
	}
	if e&(kindLiteral|kindEnd|kindCopy) == 0 {
		return 0, z.corrupt()
	}
	z.drop(n)
	return e, nil
}

// extra adds a length or distance code's extra bits to its base.
func (z *gunzip) extra(e uint32) (int, error) {
	n := uint(e>>8) & 15
	if err := z.need(n); err != nil {
		return 0, err
	}
	return int(e>>16) + int(z.take(n)), nil
}

// A table entry is the code's length in bits 0–7 — what decoding it
// consumes — a kind in bits 12–15 with, for a length or distance, its
// count of extra bits in bits 8–11, and a value in bits 16–31: the
// literal, the length or distance base, or a sub-table's offset. A
// literal entry that holds a pair has the second literal in bits 24–31,
// the first one's code length in bits 8–11 and the two codes' in bits
// 0–7. An entry of no kind is a code the tree leaves unassigned (length
// 0) or a symbol the format forbids, both corrupt input.
const (
	entLen      = 0xff
	kindCopy    = 1 << 12
	kindSub     = 1 << 13
	kindEnd     = 1 << 14
	kindLiteral = 1 << 15
)

// huffTable decodes one canonical Huffman code, least significant bit
// first: a primary table indexed by the next primary input bits and, for
// longer codes, sub-tables of subMask+1 entries indexed by the bits after.
type huffTable struct {
	entries []uint32
	primary uint
	subMask uint64
	min     uint // the bits compress/flate loads before it decodes a symbol
}

// literals is how many literals a literal entry holds: two where it
// gives the first one's length.
func literals(e uint32) int { return 1 + int((e>>8&15+15)>>4) }

func newHuffTable(capacity int) huffTable {
	return huffTable{entries: make([]uint32, 0, capacity)}
}

func (t *huffTable) lookup(b uint64) uint32 {
	e := t.entries[b&(1<<t.primary-1)]
	if e&kindSub != 0 {
		e = t.entries[e>>16+uint32(b>>t.primary&t.subMask)]
	}
	return e
}

// build makes t decode the code with the given code lengths, symbol i
// decoding to syms[i] | its length. It accepts what compress/flate does:
// a complete code, the degenerate code of one symbol of length 1, and the
// empty code, whose every entry is unassigned.
func (t *huffTable) build(lengths []uint8, syms []uint32, primary uint) bool {
	var count [16]int
	minLen, maxLen := 0, 0
	for _, n := range lengths {
		if n != 0 {
			count[n]++
			if minLen == 0 || int(n) < minLen {
				minLen = int(n)
			}
			maxLen = max(maxLen, int(n))
		}
	}
	var next [16]int
	code := 0
	for n := minLen; n <= maxLen && maxLen > 0; n++ {
		code <<= 1
		next[n] = code
		code += count[n]
	}
	if maxLen > 0 && code != 1<<maxLen && !(code == 1 && maxLen == 1) {
		return false
	}
	size := 1 << primary
	subBits := max(maxLen-int(primary), 0)
	t.primary, t.subMask, t.min = primary, 1<<subBits-1, uint(minLen)
	t.entries = t.entries[:size]
	clear(t.entries)
	for sym, n := range lengths {
		if n == 0 {
			continue
		}
		rev := int(bits.Reverse16(uint16(next[n])) >> (16 - n))
		next[n]++
		e := syms[sym] | uint32(n)
		if int(n) <= int(primary) {
			for i := rev; i < size; i += 1 << n {
				t.entries[i] = e
			}
			continue
		}
		// A code longer than the primary table: its first primary bits
		// pick a sub-table, shared with the other codes they begin.
		p := rev & (size - 1)
		if t.entries[p] == 0 {
			off := len(t.entries)
			t.entries = t.entries[:off+1<<subBits]
			clear(t.entries[off:])
			t.entries[p] = kindSub | uint32(off)<<16
		}
		sub := t.entries[t.entries[p]>>16:]
		for i := rev >> primary; i < 1<<subBits; i += 1 << (int(n) - int(primary)) {
			sub[i] = e
		}
	}
	return true
}

// pairLiterals makes each primary entry of a literal/length table whose
// litBits hold a literal's code and all of a second literal's after it
// hold both literals. The entry at i decodes the code in the low bits of
// i; the code after a first one of n bits is decoded by the entry at
// i>>n, which stands for every value of the n bits above when its code
// has at most litBits-n bits. Going down from the highest index, it reads
// only entries it has not yet paired: i>>n is below i, or is i at 0.
func (t *huffTable) pairLiterals() {
	primary := (*[1 << litBits]uint32)(t.entries)
	for i := len(primary) - 1; i >= 0; i-- {
		e := primary[i]
		n := e & 15 // the code's length: no code is longer than 15 bits
		next := primary[uint(i)>>n]
		if e&next&kindLiteral != 0 && n+next&entLen <= litBits {
			primary[i] = kindLiteral | next>>16<<24 | e&0xff0000 | n<<8 | (n + next&entLen)
		}
	}
}

// The symbols of the three codes, as table entries less their lengths.
var litSyms, distSyms, clSyms = func() (lit [288]uint32, dist [32]uint32, cl [19]uint32) {
	for i := range 256 {
		lit[i] = kindLiteral | uint32(i)<<16
	}
	lit[256] = kindEnd
	base := 3
	for i := range 28 { // symbols 257–284; 286 and 287 stay forbidden
		extra := max(i-4, 0) / 4
		lit[257+i] = kindCopy | uint32(extra)<<8 | uint32(base)<<16
		base += 1 << extra
	}
	lit[285] = kindCopy | 258<<16
	base = 1
	for i := range 30 { // 30 and 31 stay forbidden
		extra := max(i-2, 0) / 2
		dist[i] = kindCopy | uint32(extra)<<8 | uint32(base)<<16
		base += 1 << extra
	}
	for i := range cl {
		cl[i] = kindLiteral | uint32(i)<<16
	}
	return
}()

// The fixed codes of RFC 1951 §3.2.6.
var fixedLit, fixedDist = func() (lit, dist huffTable) {
	var lens [288]uint8
	for i := range lens {
		switch {
		case i < 144:
			lens[i] = 8
		case i < 256:
			lens[i] = 9
		case i < 280:
			lens[i] = 7
		default:
			lens[i] = 8
		}
	}
	lit, dist = newHuffTable(1<<litBits), newHuffTable(1<<distBits)
	lit.build(lens[:], litSyms[:], litBits)
	lit.pairLiterals()
	for i := range 32 {
		lens[i] = 5
	}
	dist.build(lens[:32], distSyms[:], distBits)
	return lit, dist
}()
