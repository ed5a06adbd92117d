package analysis

// mergeFloor is the shortest tail a pairSet sorts and merges. Below it the
// radix sort's fixed cost (eight 256-entry counts) outweighs the memory a
// longer tail would hold.
const mergeFloor = 1 << 10

// pairSet is a set of packed uint64 pairs in one buffer: a sorted,
// deduplicated run at the front and an unsorted tail of new pairs after
// it. When the tail grows as long as the run (and at least mergeFloor),
// it is radix sorted and merged into the run with duplicates dropped. The
// buffer so holds at most twice the distinct pairs plus mergeFloor, each
// pair is sorted once, and a pair's share of the merges is a constant on
// average: a run that doubles costs its own length, and one that does not
// grow costs the run plus the tail it absorbed.
//
// The cost is not spread evenly. The add that fills the tail pays for the
// whole merge, and once the run stops growing that is one merge of the
// whole run every run-length adds (BenchmarkPairSetStall). A merge also
// holds a tail-sized scratch, and a growth a new buffer while the old one
// is live, so for the length of a merge the set holds up to about three
// times its distinct pairs.
//
// The zero pairSet is empty and ready to use.
type pairSet struct {
	buf   []uint64 // buf[:run] sorted and distinct, buf[run:] the tail
	run   int
	limit int // len(buf) at which the tail is merged; cap(buf) >= limit
}

func (s *pairSet) add(p uint64) {
	s.buf = append(s.buf, p)
	if len(s.buf) >= s.limit {
		s.merge()
	}
}

// sorted merges the tail and returns the distinct pairs in ascending
// order. The slice is the set's own: adds after it append past its end.
func (s *pairSet) sorted() []uint64 {
	s.merge()
	return s.buf[:s.run]
}

// merge sorts the tail into the run, then makes room for the next tail:
// as long as the run, and at least mergeFloor.
func (s *pairSet) merge() {
	if tail := s.buf[s.run:]; len(tail) > 0 {
		// The merge writes over the tail, so the sorted, deduplicated tail
		// goes to scratch, whichever buffer the sort ended in.
		scratch := make([]uint64, len(tail))
		scratch = scratch[:compactInto(scratch, radixSort(tail, scratch))]
		s.run = mergeInto(s.buf[:s.run+len(scratch)], s.run, scratch)
	}
	s.buf = s.buf[:s.run]
	s.limit = s.run + max(s.run, mergeFloor)
	if cap(s.buf) < s.limit {
		grown := make([]uint64, s.run, s.limit)
		copy(grown, s.buf)
		s.buf = grown
	}
}

// compactInto copies the sorted src to dst, one of each run of equal
// values, and returns how many it wrote. dst may be src itself.
func compactInto(dst, src []uint64) int {
	n := 0
	for _, k := range src {
		if n == 0 || k != dst[n-1] {
			dst[n] = k
			n++
		}
	}
	return n
}

// mergeInto merges b into dst[:n], both sorted and distinct, in place and
// back to front, keeping one of each pair the two share. dst has room for
// n+len(b); the merged run is moved to its front and its length returned.
func mergeInto(dst []uint64, n int, b []uint64) int {
	i, j, k := n-1, len(b)-1, n+len(b)
	// k > i at every write: it never reaches a run pair not yet read.
	for j >= 0 {
		k--
		switch {
		case i >= 0 && dst[i] > b[j]:
			dst[k] = dst[i]
			i--
		case i >= 0 && dst[i] == b[j]:
			dst[k] = b[j]
			i--
			j--
		default:
			dst[k] = b[j]
			j--
		}
	}
	// dst[:i+1] never moved; the merged rest sits at dst[k:], past the gap
	// the shared pairs left.
	return i + 1 + copy(dst[i+1:], dst[k:n+len(b)])
}

// radixSort sorts keys in ascending order by a stable LSD radix sort on
// 8-bit digits, skipping every digit all keys share. One pass counts every
// digit; each digit that varies then costs one scatter pass. tmp, as long
// as keys, is the other buffer of those passes; the result is in whichever
// of the two the last pass wrote, and that one is returned.
func radixSort(keys, tmp []uint64) []uint64 {
	if len(keys) < 2 {
		return keys
	}
	var at [8][256]int
	for _, k := range keys {
		at[0][k&0xff]++
		at[1][k>>8&0xff]++
		at[2][k>>16&0xff]++
		at[3][k>>24&0xff]++
		at[4][k>>32&0xff]++
		at[5][k>>40&0xff]++
		at[6][k>>48&0xff]++
		at[7][k>>56]++
	}
	src, dst := keys, tmp[:len(keys)]
	for digit := range at {
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

// keyCount is one distinct key of a sorted list and how often it occurs.
type keyCount struct {
	key uint32
	n   int
}

// forRuns calls fn, in order, with each distinct value of p>>shift over
// the sorted pairs and the length of its run.
func forRuns(pairs []uint64, shift uint, fn func(key uint32, n int)) {
	for i := 0; i < len(pairs); {
		key := pairs[i] >> shift
		j := i + 1
		for j < len(pairs) && pairs[j]>>shift == key {
			j++
		}
		fn(uint32(key), j-i)
		i = j
	}
}

// lowCounts returns each distinct low half of the distinct pairs, in
// ascending order, and how many pairs carry it: the low halves, radix
// sorted, and their runs counted.
func lowCounts(pairs []uint64) []keyCount {
	lows := make([]uint64, len(pairs))
	for i, p := range pairs {
		lows[i] = uint64(uint32(p))
	}
	var out []keyCount
	forRuns(radixSort(lows, make([]uint64, len(lows))), 0, func(key uint32, n int) {
		out = append(out, keyCount{key, n})
	})
	return out
}
