package anonymize

import (
	"math"

	"edtrace/internal/ed2k"
)

// The paper fixed the Figure 3 pathology by hand-picking "two different
// bytes in the fileID". This file automates that choice: given a sample
// of observed fileIDs, BestBytePair returns the pair whose joint
// empirical distribution has maximal entropy — the pair that spreads the
// anonymisation buckets most evenly even under pollution.

// ByteEntropy returns the empirical Shannon entropy (in bits, max 8) of
// each of the 16 fileID byte positions over the sample.
func ByteEntropy(sample []ed2k.FileID) [16]float64 {
	var counts [16][256]int
	for _, id := range sample {
		for p := 0; p < 16; p++ {
			counts[p][id[p]]++
		}
	}
	var out [16]float64
	n := float64(len(sample))
	if n == 0 {
		return out
	}
	for p := 0; p < 16; p++ {
		h := 0.0
		for _, c := range counts[p] {
			if c == 0 {
				continue
			}
			q := float64(c) / n
			h -= q * math.Log2(q)
		}
		out[p] = h
	}
	return out
}

// BestBytePair scans all 120 byte pairs and returns the one with maximal
// joint entropy over the sample, plus that entropy in bits (max 16).
// With fewer than 2 sample IDs it falls back to DefaultBytePair.
func BestBytePair(sample []ed2k.FileID) (a, b int, bits float64) {
	if len(sample) < 2 {
		p := DefaultBytePair()
		return p[0], p[1], 0
	}
	n := float64(len(sample))
	bestA, bestB, best := 0, 1, -1.0
	counts := make(map[uint16]int, 1<<12)
	for i := 0; i < 15; i++ {
		for j := i + 1; j < 16; j++ {
			clear(counts)
			for _, id := range sample {
				counts[uint16(id[i])<<8|uint16(id[j])]++
			}
			h := 0.0
			for _, c := range counts {
				q := float64(c) / n
				h -= q * math.Log2(q)
			}
			if h > best {
				best, bestA, bestB = h, i, j
			}
		}
	}
	return bestA, bestB, best
}
