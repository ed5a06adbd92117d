package analysis

import (
	"math"
	"slices"
)

// mergeFloor is the shortest tail a pairSet sorts and merges. Below it the
// radix sort's fixed cost (eight 256-entry counts) and a new run's
// allocation outweigh the memory a longer tail would hold.
const mergeFloor = 1 << 10

// tailRatio is how many tail pairs a pairSet takes for each pair of its run
// before it merges. A merge costs the run plus the tail, so a tail as long
// as the run keeps the merge work a constant per add on average; a longer
// one would hold more memory, at 8 bytes a pair against the run's ~2.
const tailRatio = 1

// pairSet is a set of packed uint64 pairs, hi<<32 | lo: a run of the
// distinct pairs in ascending order, delta coded in bytes, and an unsorted
// tail of new pairs. When the tail holds tailRatio pairs for each pair of
// the run (and at least mergeFloor), it is radix sorted, deduplicated and
// stream-merged with the run into a new run, the pairs the two share
// dropped. Each pair is sorted once, and a pair's share of the merges is a
// constant on average: a run that doubles costs its own length, and one
// that does not grow costs the run plus the tail it absorbed.
//
// The run groups pairs by their high half. The first pair of a group is
// uvarint(Δhi<<1 | 1) from the previous group's high half (from 0 for the
// first group) and then uvarint(lo); each further pair of the group is
// uvarint(Δlo<<1) from the pair before it. A pair so takes at most 10
// bytes, and 1–3 on the figures' captures, whose anonymised IDs are small
// and dense. A merge copies the codes of run pairs that keep their
// predecessor as they are, and re-codes only the run pair after each
// inserted tail pair.
//
// The cost is not spread evenly. The add that fills the tail pays for the
// whole merge, and once the run stops growing that is one merge of the
// whole run every run-length adds (BenchmarkPairSetStall). A merge holds a
// tail-sized scratch, and, when it adds a pair, the new run while the old
// one is live.
//
// The zero pairSet is empty and ready to use.
type pairSet struct {
	run  []byte   // the distinct pairs, ascending, delta coded
	n    int      // pairs in run
	tail []uint64 // pairs added since the last merge, unsorted
}

// limit is the tail length at which the set merges.
func (s *pairSet) limit() int { return max(s.n*tailRatio, mergeFloor) }

func (s *pairSet) add(p uint64) {
	if cap(s.tail) == 0 {
		s.tail = make([]uint64, 0, s.limit())
	}
	s.tail = append(s.tail, p)
	if len(s.tail) >= s.limit() {
		s.merge()
	}
}

// finish merges the tail into the run, releases the tail's buffer and
// trims the run to its length: what the set holds once it is read. Adds
// after it allocate a new tail.
func (s *pairSet) finish() {
	s.merge()
	s.tail = nil
	if cap(s.run) > len(s.run) {
		run := make([]byte, len(s.run))
		copy(run, s.run)
		s.run = run
	}
}

// merge sorts the tail into the run and empties the tail. The tail's
// buffer is kept if it can take the next tail whole; otherwise it is
// dropped, and the next add allocates one that can.
func (s *pairSet) merge() {
	if len(s.tail) == 0 {
		return
	}
	var added int
	s.run, added = mergeRun(s.run, s.n, radixSort(s.tail, make([]uint64, len(s.tail))))
	s.n += added
	s.tail = s.tail[:0]
	if cap(s.tail) < s.limit() {
		s.tail = nil
	}
}

// pairRoom is the most one pair's code takes: two varints of 5 bytes.
const pairRoom = 10

// mergeRun merges the sorted pairs of tail, which may repeat, into the n
// pairs of run and returns the merged run and how many distinct pairs of
// tail it did not hold. run is returned as it is when it holds every pair
// of tail; otherwise the merged run is new, and run is not written.
//
// The run pairs between two inserted pairs keep their predecessor, so
// their codes are copied as they are; only the run pair after an inserted
// one is re-coded, and its code does not grow. The new run is sized at the
// first new pair for the rest of the tail at the run's bytes a pair,
// rounded up, and doubled if a denser tail overruns that.
func mergeRun(run []byte, n int, tail []uint64) ([]byte, int) {
	var (
		out    []byte // the merged run, allocated at the first new pair
		w      int    // its length
		prev   uint64 // the last pair of the merged run so far
		added  int
		cur    uint64 // the run pair at run[at:next], if more; else MaxUint64
		at     int
		next   int
		more   = len(run) > 0
		from   int  // run[from:at] is still to be copied as it is
		recode bool // cur follows an inserted pair: its code changes
	)
	if more {
		cur, next = nextPair(run, 0, 0)
	} else {
		cur = math.MaxUint64 // past the run: no pair is less
	}
	for i, p := range tail {
		if i > 0 && p == tail[i-1] {
			continue
		}
		if recode && cur < p {
			w = putPair(out, w, prev, cur)
			from, recode = next, false
		}
		for cur < p {
			prev, at = cur, next
			if at >= len(run) {
				cur, more = math.MaxUint64, false
				break
			}
			cur, next = nextPair(run, at, cur)
		}
		if more && cur == p {
			continue
		}
		// Room for what is left of the run and p.
		if need := len(run) - from + pairRoom; len(out)-w < need {
			perPair := len(run)/(n+1) + 1
			out = slices.Grow(out[:w], max(need+perPair*(len(tail)-i), len(out)))
			out = out[:cap(out)]
		}
		if from < at {
			w += copy(out[w:], run[from:at])
		}
		w = putPair(out, w, prev, p)
		prev, from, recode = p, at, more
		added++
	}
	if out == nil {
		return run, 0
	}
	if recode {
		w = putPair(out, w, prev, cur)
		from = next
	}
	w += copy(out[w:], run[from:])
	return out[:w], added
}

// putPair writes p's code after prev into dst at w and returns the offset
// past it; w == 0 is the first pair of a run, and prev must then be 0.
func putPair(dst []byte, w int, prev, p uint64) int {
	if hi := p >> 32; w == 0 || hi != prev>>32 {
		w = putUvarint(dst, w, (hi-prev>>32)<<1|1)
		return putUvarint(dst, w, p&math.MaxUint32)
	}
	return putUvarint(dst, w, (p-prev)<<1)
}

// putUvarint writes v into dst at w and returns the offset past it.
func putUvarint(dst []byte, w int, v uint64) int {
	for v >= 0x80 {
		dst[w] = byte(v) | 0x80
		v >>= 7
		w++
	}
	dst[w] = byte(v)
	return w + 1
}

// uvarint decodes the varint at run[at:] and returns it and the offset
// past it.
func uvarint(run []byte, at int) (uint64, int) {
	v := uint64(0)
	for shift := uint(0); ; shift += 7 {
		b := run[at]
		at++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v, at
		}
	}
}

// nextPair decodes the pair at run[at:], after p, and returns it and the
// offset past it; the caller checks at < len(run).
func nextPair(run []byte, at int, p uint64) (uint64, int) {
	v, at := uvarint(run, at)
	if v&1 == 0 {
		return p + v>>1, at
	}
	lo, at := uvarint(run, at)
	return (p>>32+v>>1)<<32 | lo, at
}

// groups calls fn, in order, with each distinct high half of the run and
// how many pairs carry it.
func (s *pairSet) groups(fn func(hi uint32, n int)) {
	var hi, v uint64
	n := 0
	for at := 0; at < len(s.run); {
		if v, at = uvarint(s.run, at); v&1 == 0 {
			n++
			continue
		}
		if n > 0 {
			fn(uint32(hi), n)
		}
		hi += v >> 1
		n = 1
		for s.run[at] >= 0x80 { // lo, which the count does not need
			at++
		}
		at++
	}
	if n > 0 {
		fn(uint32(hi), n)
	}
}

// keyCount is one distinct key of a sorted list and how often it occurs.
type keyCount struct {
	key uint32
	n   int
}

// lowCounts returns each distinct low half of the run, in ascending order,
// and how many pairs carry it: the low halves, radix sorted, and their runs
// counted.
func (s *pairSet) lowCounts() []keyCount {
	lows := make([]uint32, s.n)
	var p uint64
	for i, at := 0, 0; i < len(lows); i++ {
		p, at = nextPair(s.run, at, p)
		lows[i] = uint32(p)
	}
	lows = radixSort(lows, make([]uint32, len(lows)))
	var out []keyCount
	for i := 0; i < len(lows); {
		j := i + 1
		for j < len(lows) && lows[j] == lows[i] {
			j++
		}
		out = append(out, keyCount{lows[i], j - i})
		i = j
	}
	return out
}

// radixSort sorts keys in ascending order by a stable LSD radix sort on
// 8-bit digits, skipping every digit all keys share. One pass counts every
// digit; each digit that varies then costs one scatter pass. tmp, as long
// as keys, is the other buffer of those passes; the result is in whichever
// of the two the last pass wrote, and that one is returned.
func radixSort[K uint32 | uint64](keys, tmp []K) []K {
	if len(keys) < 2 {
		return keys
	}
	var at [8][256]int
	digits := 4
	if ^K(0) > math.MaxUint32 {
		digits = 8
		for _, k := range keys {
			u := uint64(k)
			at[0][u&0xff]++
			at[1][u>>8&0xff]++
			at[2][u>>16&0xff]++
			at[3][u>>24&0xff]++
			at[4][u>>32&0xff]++
			at[5][u>>40&0xff]++
			at[6][u>>48&0xff]++
			at[7][u>>56]++
		}
	} else {
		for _, k := range keys {
			u := uint64(k)
			at[0][u&0xff]++
			at[1][u>>8&0xff]++
			at[2][u>>16&0xff]++
			at[3][u>>24]++
		}
	}
	src, dst := keys, tmp[:len(keys)]
	for digit := range digits {
		shift := uint(digit) * 8
		if at[digit][keys[0]>>shift&0xff] == len(keys) {
			continue // every key has this digit
		}
		pos := 0
		for d, c := range at[digit] {
			at[digit][d] = pos
			pos += c
		}
		for _, k := range src {
			d := k >> shift & 0xff
			dst[at[digit][d]] = k
			at[digit][d]++
		}
		src, dst = dst, src
	}
	return src
}
