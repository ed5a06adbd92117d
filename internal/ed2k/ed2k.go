// Package ed2k implements the eDonkey2000 server protocol subset observed
// by the paper's capture: UDP client↔server queries and answers.
//
// The wire format follows the unofficial protocol specification the paper
// cites (Kulbak & Bickson, "The eMule protocol specification"): every UDP
// datagram starts with the protocol marker 0xE3 and a one-byte opcode,
// followed by an opcode-specific payload using little-endian integers,
// length-prefixed strings, typed metadata tags and, for searches, a
// prefix-encoded boolean expression tree.
//
// One deliberate deviation is documented in DESIGN.md: file announcements
// (OfferFiles) travel over UDP here, whereas real eDonkey announces over
// TCP. The paper analyses UDP traffic only yet reports provider-side
// statistics (its Figures 4 and 6), so our UDP-only capture must observe
// providing behaviour directly.
//
// Decoding is deliberately split in two phases, mirroring §2.3 of the
// paper: a cheap structural validation (magic byte, known opcode,
// per-opcode length plausibility) followed by an effective decode that can
// still fail on semantically invalid payloads. The two failure classes are
// distinguishable via errors.Is so the pipeline can reproduce the paper's
// "0.68 % undecoded, 78 % of which structurally incorrect" accounting.
package ed2k

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
)

// ProtoEDonkey is the protocol marker beginning every eDonkey datagram.
const ProtoEDonkey = 0xE3

// Opcodes of the UDP server protocol subset modelled here.
const (
	OpGetServerList  = 0x14 // management: ask for known servers
	OpServerList     = 0x32 // answer: list of (ip,port)
	OpOfferFiles     = 0x15 // announcement: files provided by the client
	OpOfferAck       = 0x16 // answer: server accepted an announcement
	OpGlobSearchReq  = 0x92 // file search by metadata expression
	OpGlobSearchRes  = 0x93 // answer: list of matching file entries
	OpGlobGetSources = 0x9A // source search by fileID
	OpGlobFoundSrcs  = 0x9B // answer: providers of one fileID
	OpGlobStatReq    = 0x96 // management: server status ping
	OpGlobStatRes    = 0x97 // answer: users/files counters
	OpServerDescReq  = 0xA2 // management: server name/description
	OpServerDescRes  = 0xA3 // answer: name + description strings
)

// opcodeNames maps opcodes to human-readable names for logs and stats.
var opcodeNames = map[byte]string{
	OpGetServerList:  "GetServerList",
	OpServerList:     "ServerList",
	OpOfferFiles:     "OfferFiles",
	OpOfferAck:       "OfferAck",
	OpGlobSearchReq:  "SearchReq",
	OpGlobSearchRes:  "SearchRes",
	OpGlobGetSources: "GetSources",
	OpGlobFoundSrcs:  "FoundSources",
	OpGlobStatReq:    "StatReq",
	OpGlobStatRes:    "StatRes",
	OpServerDescReq:  "ServerDescReq",
	OpServerDescRes:  "ServerDescRes",
}

// OpcodeName returns a stable human-readable name for an opcode.
func OpcodeName(op byte) string {
	if n, ok := opcodeNames[op]; ok {
		return n
	}
	return fmt.Sprintf("op0x%02X", op)
}

// KnownOpcode reports whether op belongs to the modelled protocol subset.
func KnownOpcode(op byte) bool {
	_, ok := opcodeNames[op]
	return ok
}

// FileID is the 128-bit MD4-based file identifier files are indexed by.
type FileID [16]byte

// String returns the canonical lowercase hex form.
func (f FileID) String() string { return hex.EncodeToString(f[:]) }

// ClientID identifies a client: its IPv4 address when directly reachable
// (a "high ID"), or a server-assigned number below 2^24 otherwise.
type ClientID uint32

// LowIDThreshold separates low IDs (NAT'd clients) from high IDs.
const LowIDThreshold = 0x1000000

// IsLowID reports whether the client is not directly reachable.
func (c ClientID) IsLowID() bool { return c < LowIDThreshold }

// Endpoint is a provider location in source-search answers.
type Endpoint struct {
	ID   ClientID
	Port uint16
}

// Error classes. Structural errors are detected by the validation phase;
// semantic errors only by the effective decode.
var (
	// ErrStructural tags any failure the structural validator catches:
	// bad magic, unknown opcode, impossible length.
	ErrStructural = errors.New("ed2k: structurally invalid message")
	// ErrSemantic tags payloads that pass structural validation but
	// cannot be decoded (bad tag types, count mismatches, malformed
	// search expressions).
	ErrSemantic = errors.New("ed2k: undecodable message")
)

func structuralf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrStructural, fmt.Sprintf(format, args...))
}

func semanticf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrSemantic, fmt.Sprintf(format, args...))
}

// Hard limits protecting the decoder against hostile or buggy clients.
const (
	MaxStringLen   = 1 << 12 // longest filename/keyword accepted
	MaxTagsPerFile = 32
	MaxFilesPerMsg = 256 // offers and search answers
	MaxHashesPer   = 64  // fileIDs in one GetSources query
	MaxExprNodes   = 64  // search expression tree size
	MaxExprDepth   = 16
)

// buffer is a cursor over a received payload with bounds-checked reads.
// All multi-byte integers on the wire are little-endian.
type buffer struct {
	b   []byte
	off int
}

func (r *buffer) remaining() int { return len(r.b) - r.off }

func (r *buffer) u8() (byte, error) {
	if r.remaining() < 1 {
		return 0, semanticf("truncated u8 at offset %d", r.off)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *buffer) u16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, semanticf("truncated u16 at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, nil
}

func (r *buffer) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, semanticf("truncated u32 at offset %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *buffer) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, semanticf("truncated %d-byte field at offset %d", n, r.off)
	}
	v := r.b[r.off : r.off+n]
	r.off += n
	return v, nil
}

func (r *buffer) fileID() (FileID, error) {
	var id FileID
	b, err := r.bytes(16)
	if err != nil {
		return id, err
	}
	copy(id[:], b)
	return id, nil
}

// strBytes reads a length-prefixed string field in place: the result
// aliases the payload, so a decoder copies it into storage of its own.
func (r *buffer) strBytes() ([]byte, error) {
	n, err := r.u16()
	if err != nil {
		return nil, err
	}
	if int(n) > MaxStringLen {
		return nil, semanticf("string length %d exceeds limit", n)
	}
	return r.bytes(int(n))
}

// strField reads a length-prefixed string field without copying it,
// returning the offset of its prefix and its length. A decoder that
// gathers a message's strings into one parks the offset and gets the
// bytes back with strAt once the message has been read.
func (r *buffer) strField() (off uint32, n int, err error) {
	off = uint32(r.off)
	b, err := r.strBytes()
	return off, len(b), err
}

// strAt returns the string field strField read at off in b.
func strAt(b []byte, off uint32) []byte {
	n := uint32(binary.LittleEndian.Uint16(b[off:]))
	return b[off+2 : off+2+n]
}

func (r *buffer) str() (string, error) {
	b, err := r.strBytes()
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// sized returns s emptied with room for n elements: its own capacity when
// that suffices (a message recycled through a pool), else one allocation
// of exactly n.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// Append helpers used by the encoders.

func appendU16(b []byte, v uint16) []byte {
	return binary.LittleEndian.AppendUint16(b, v)
}

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendStr(b []byte, s string) []byte {
	b = appendU16(b, uint16(len(s)))
	return append(b, s...)
}
