package anonymize

import (
	"testing"

	"edtrace/internal/ed2k"
	"edtrace/internal/randx"
)

func forgedSample(n int, r *randx.Rand) []ed2k.FileID {
	out := make([]ed2k.FileID, n)
	for i := range out {
		var id ed2k.FileID
		// Forged-heavy mix: 40% pollution with fixed first two bytes and
		// low-entropy byte 2; the rest uniform.
		if r.Bool(0.4) {
			id[0], id[1] = 0x00, 0x00
			id[2] = byte(r.IntN(4))
			for j := 3; j < 16; j++ {
				id[j] = byte(r.Uint32())
			}
		} else {
			for j := 0; j < 16; j++ {
				id[j] = byte(r.Uint32())
			}
		}
		out[i] = id
	}
	return out
}

func TestByteEntropyFlagsForgedPositions(t *testing.T) {
	r := randx.New(1, 2)
	sample := forgedSample(20000, r)
	h := ByteEntropy(sample)
	// Bytes 0 and 1 carry mostly the forged constant: entropy well below
	// the uniform positions.
	if h[0] >= h[8] || h[1] >= h[8] {
		t.Fatalf("forged bytes not low-entropy: h0=%.2f h1=%.2f h8=%.2f", h[0], h[1], h[8])
	}
	if h[2] >= h[8] {
		t.Fatalf("semi-structured byte 2 should lose entropy: h2=%.2f h8=%.2f", h[2], h[8])
	}
	if h[8] < 7.5 {
		t.Fatalf("uniform byte entropy too low: %.2f", h[8])
	}
}

func TestBestBytePairAvoidsForgedBytes(t *testing.T) {
	r := randx.New(3, 4)
	sample := forgedSample(20000, r)
	a, b, bits := BestBytePair(sample)
	for _, bad := range []int{0, 1, 2} {
		if a == bad || b == bad {
			t.Fatalf("BestBytePair picked forged byte %d (pair %d,%d)", bad, a, b)
		}
	}
	if bits < 10 {
		t.Fatalf("joint entropy %.2f bits suspiciously low", bits)
	}
	// The selected pair must beat the naive first-two-bytes layout when
	// actually used for bucketing.
	naive := NewFileBuckets(0, 1)
	smart := NewFileBuckets(a, b)
	for _, id := range sample {
		naive.Anonymize(id)
		smart.Anonymize(id)
	}
	_, naiveMax := naive.MaxBucket()
	_, smartMax := smart.MaxBucket()
	if smartMax*4 > naiveMax {
		t.Fatalf("entropy-selected pair max %d not clearly better than naive %d",
			smartMax, naiveMax)
	}
}

func TestBestBytePairFallback(t *testing.T) {
	a, b, bits := BestBytePair(nil)
	if d := DefaultBytePair(); a != d[0] || b != d[1] || bits != 0 {
		t.Fatalf("fallback = (%d,%d,%f)", a, b, bits)
	}
}
