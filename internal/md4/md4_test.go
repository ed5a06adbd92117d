package md4

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"
	"testing/quick"
)

// RFC 1320 appendix A.5 test vectors.
var rfcVectors = []struct {
	in   string
	want string
}{
	{"", "31d6cfe0d16ae931b73c59d7e0c089c0"},
	{"a", "bde52cb31de33e46245e05fbdbd6fb24"},
	{"abc", "a448017aaf21d8525fc10ae87aa6729d"},
	{"message digest", "d9130a8164549fe818874806e1c7014b"},
	{"abcdefghijklmnopqrstuvwxyz", "d79e1c308aa5bbcdeea8ed63df412da9"},
	{"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789", "043f8582f241db351ce627e153e7f0e4"},
	{"12345678901234567890123456789012345678901234567890123456789012345678901234567890", "e33b4ddc9c38f2199c3e7b164fcc0536"},
}

func TestRFC1320Vectors(t *testing.T) {
	for _, v := range rfcVectors {
		got := Sum([]byte(v.in))
		if hex.EncodeToString(got[:]) != v.want {
			t.Errorf("Sum(%q) = %x, want %s", v.in, got, v.want)
		}
	}
}

// sumPieces is Sum over data written in pieces of at most chunk bytes,
// through the partial-block buffer Sum's padding write relies on.
func sumPieces(data []byte, chunk int) [Size]byte {
	d := digest{s: [4]uint32{init0, init1, init2, init3}}
	for len(data) > chunk {
		d.write(data[:chunk])
		data = data[chunk:]
	}
	d.write(data)
	return d.checkSum()
}

func TestIncrementalWriteMatchesOneShot(t *testing.T) {
	data := make([]byte, 1031) // deliberately not a multiple of the block size
	for i := range data {
		data[i] = byte(i * 31)
	}
	want := Sum(data)
	for _, chunk := range []int{1, 3, 63, 64, 65, 128, 1000} {
		if got := sumPieces(data, chunk); got != want {
			t.Errorf("chunk=%d: %x, want %x", chunk, got, want)
		}
	}
}

func TestQuickIncrementalSplit(t *testing.T) {
	// Property: splitting the input at any point yields the same digest.
	f := func(data []byte, splitAt uint16) bool {
		if len(data) == 0 {
			return true
		}
		d := digest{s: [4]uint32{init0, init1, init2, init3}}
		cut := int(splitAt) % len(data)
		d.write(data[:cut])
		d.write(data[cut:])
		return d.checkSum() == Sum(data)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDistinctInputsDistinctDigests(t *testing.T) {
	// Not a real collision test (MD4 is broken), but random short inputs
	// must virtually never collide; a failure here means a plumbing bug
	// such as ignored input bytes.
	f := func(a, b []byte) bool {
		if bytes.Equal(a, b) {
			return true
		}
		ha, hb := Sum(a), Sum(b)
		return ha != hb
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLengthBoundaries(t *testing.T) {
	// Exercise every padding branch: lengths around the 55/56/64 byte
	// boundaries where the length field spills into an extra block.
	for n := 0; n <= 130; n++ {
		data := bytes.Repeat([]byte{'x'}, n)
		one := Sum(data)
		if got := sumPieces(data, 1); got != one {
			t.Fatalf("n=%d: byte by byte %x != one-shot %x", n, got, one)
		}
	}
}

func BenchmarkMD4_1K(b *testing.B) {
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		Sum(data)
	}
}

func ExampleSum() {
	digest := Sum([]byte("abc"))
	fmt.Printf("%x\n", digest)
	// Output: a448017aaf21d8525fc10ae87aa6729d
}
