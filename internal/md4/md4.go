// Package md4 implements the MD4 hash algorithm as defined in RFC 1320.
//
// MD4 is cryptographically broken and must never be used for security.
// It is implemented here because the eDonkey network identifies files by
// their MD4-based hash (the fileID, see ed2k.FileID), and the Go standard
// library does not ship MD4. The implementation follows RFC 1320 and
// passes the appendix A.5 test vectors.
package md4

import "encoding/binary"

// Size is the size of an MD4 checksum in bytes.
const Size = 16

// BlockSize is the block size of MD4 in bytes.
const BlockSize = 64

const (
	init0 = 0x67452301
	init1 = 0xEFCDAB89
	init2 = 0x98BADCFE
	init3 = 0x10325476
)

// digest represents the partial evaluation of an MD4 checksum.
type digest struct {
	s   [4]uint32
	x   [BlockSize]byte
	nx  int
	len uint64
}

// Sum returns the MD4 checksum of data.
func Sum(data []byte) [Size]byte {
	d := digest{s: [4]uint32{init0, init1, init2, init3}}
	d.write(data)
	return d.checkSum()
}

// write absorbs p, buffering a partial block until the next write or the
// padding completes it.
func (d *digest) write(p []byte) {
	d.len += uint64(len(p))
	if d.nx > 0 {
		c := copy(d.x[d.nx:], p)
		d.nx += c
		if d.nx == BlockSize {
			block(d, d.x[:])
			d.nx = 0
		}
		p = p[c:]
	}
	if len(p) >= BlockSize {
		nn := len(p) &^ (BlockSize - 1)
		block(d, p[:nn])
		p = p[nn:]
	}
	if len(p) > 0 {
		d.nx = copy(d.x[:], p)
	}
}

func (d *digest) checkSum() [Size]byte {
	// Padding: append 0x80, then zeros, then the length in bits.
	lenBits := d.len << 3
	var tmp [1 + 63 + 8]byte
	tmp[0] = 0x80
	pad := (55 - d.len) % 64 // number of zero bytes after 0x80
	binary.LittleEndian.PutUint64(tmp[1+pad:], lenBits)
	d.write(tmp[:1+pad+8])
	if d.nx != 0 {
		panic("md4: internal error, padding did not flush")
	}

	var out [Size]byte
	binary.LittleEndian.PutUint32(out[0:], d.s[0])
	binary.LittleEndian.PutUint32(out[4:], d.s[1])
	binary.LittleEndian.PutUint32(out[8:], d.s[2])
	binary.LittleEndian.PutUint32(out[12:], d.s[3])
	return out
}

var shift1 = [4]uint{3, 7, 11, 19}
var shift2 = [4]uint{3, 5, 9, 13}
var shift3 = [4]uint{3, 9, 11, 15}

var xIndex2 = [16]uint{0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15}
var xIndex3 = [16]uint{0, 8, 4, 12, 2, 10, 6, 14, 1, 9, 5, 13, 3, 11, 7, 15}

func block(d *digest, p []byte) {
	a, b, c, dd := d.s[0], d.s[1], d.s[2], d.s[3]
	var x [16]uint32
	for len(p) >= BlockSize {
		aa, bb, cc, ddd := a, b, c, dd
		for i := 0; i < 16; i++ {
			x[i] = binary.LittleEndian.Uint32(p[i*4:])
		}

		// Round 1: F(x,y,z) = (x AND y) OR (NOT x AND z).
		for i := uint(0); i < 16; i++ {
			s := shift1[i%4]
			f := (b & c) | (^b & dd)
			a += f + x[i]
			a = a<<s | a>>(32-s)
			a, b, c, dd = dd, a, b, c
		}

		// Round 2: G(x,y,z) = (x AND y) OR (x AND z) OR (y AND z).
		for i := uint(0); i < 16; i++ {
			s := shift2[i%4]
			g := (b & c) | (b & dd) | (c & dd)
			a += g + x[xIndex2[i]] + 0x5A827999
			a = a<<s | a>>(32-s)
			a, b, c, dd = dd, a, b, c
		}

		// Round 3: H(x,y,z) = x XOR y XOR z.
		for i := uint(0); i < 16; i++ {
			s := shift3[i%4]
			h := b ^ c ^ dd
			a += h + x[xIndex3[i]] + 0x6ED9EBA1
			a = a<<s | a>>(32-s)
			a, b, c, dd = dd, a, b, c
		}

		a += aa
		b += bb
		c += cc
		dd += ddd

		p = p[BlockSize:]
	}
	d.s[0], d.s[1], d.s[2], d.s[3] = a, b, c, dd
}
