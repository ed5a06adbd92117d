package anonymize

import (
	"crypto/md5"
	"encoding/hex"
	"unsafe"
)

// HashString anonymises a search string, filename or server description
// with its md5 hex digest, as §2.4 prescribes: "Search strings, filenames,
// and server descriptions are encoded by their md5 hash code, which
// provides satisfying anonymisation while keeping a coherent dataset"
// (equal strings stay equal after anonymisation).
//
// It runs for every filename and keyword of a capture, so it costs the
// digest and the one allocation of its result: md5.Sum reads s in place
// (it only reads, and keeps nothing), and the digits are built on the
// stack.
func HashString(s string) string {
	sum := md5.Sum(unsafe.Slice(unsafe.StringData(s), len(s)))
	var digits [2 * md5.Size]byte
	hex.Encode(digits[:], sum[:])
	return string(digits[:])
}

// SizeToKB reduces a byte-precise file size to kilobytes, the precision
// reduction §2.4 applies to file sizes.
func SizeToKB(bytes uint64) uint64 { return bytes / 1024 }
