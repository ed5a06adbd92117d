// Package xmlenc defines the anonymised record model of the released
// dataset and its XML encoding.
//
// The paper stores the decoded, anonymised traffic as XML because "it
// leads to easy-to-read and rigorously specified text files" (§2.5,
// footnote 3). The grammar here is specified in spec.md next to this
// file: a line-oriented XML subset — one <r> element per line inside one
// <edtrace> document — that a streaming parser can process without
// holding more than a line in memory. Both the encoder and the decoder
// are hand-rolled for throughput; a test cross-validates the output
// against encoding/xml.
package xmlenc

import "slices"

// Dir distinguishes client queries from server answers.
type Dir uint8

// Direction values.
const (
	DirQuery Dir = iota
	DirAnswer
)

// String returns "q" or "a", the wire attribute value.
func (d Dir) String() string {
	if d == DirAnswer {
		return "a"
	}
	return "q"
}

// FileInfo is one anonymised file entry (offers, search results).
type FileInfo struct {
	// ID is the anonymised fileID (order of appearance).
	ID uint32
	// NameHash is the md5 of the filename, empty if absent.
	NameHash string
	// SizeKB is the file size truncated to kilobytes.
	SizeKB uint64
	// TypeHash is the md5 of the filetype tag, empty if absent.
	TypeHash string
}

// opNames are spec.md §3's twelve message kinds, the most frequent in a
// capture first.
var opNames = [...]string{
	"GetSources", "FoundSources", "OfferFiles", "OfferAck", "StatReq", "StatRes",
	"SearchReq", "SearchRes", "GetServerList", "ServerList", "ServerDescReq", "ServerDescRes",
}

// KnownOp reports whether op is one of spec.md §3's twelve message kinds.
func KnownOp(op string) bool {
	return slices.Contains(opNames[:], op)
}

// Record is one anonymised eDonkey message, query or answer.
//
// Field usage by opcode:
//   - OfferFiles (q): Files
//   - OfferAck (a): Accepted
//   - SearchReq (q): Keywords, MinKB, MaxKB
//   - SearchRes (a): Files
//   - GetSources (q): FileRefs
//   - FoundSources (a): FileRefs[0] = the file, Sources
//   - StatReq (q): nothing
//   - StatRes (a): Users, FilesCount
//   - GetServerList (q) / ServerDescReq (q): nothing
//   - ServerList (a): Accepted = number of servers (addresses withheld)
//   - ServerDescRes (a): Keywords[0] = name hash, Keywords[1] = desc hash
type Record struct {
	// T is seconds since the start of the capture — timestamps are
	// rebased exactly as §2.4 prescribes to limit deanonymisation risk.
	T float64
	// Client is the anonymised clientID this message is from (queries)
	// or to (answers).
	Client uint32
	// Op is the ed2k opcode name (ed2k.OpcodeName).
	Op string
	// Dir marks query vs answer.
	Dir Dir
	// Server is the capturing server's name in merged multi-server
	// captures (the srv attribute); empty in single-server datasets.
	Server string

	Files      []FileInfo
	FileRefs   []uint32
	Sources    []uint32
	Keywords   []string
	MinKB      uint64
	MaxKB      uint64
	Users      uint32
	FilesCount uint32
	Accepted   uint32
}

// Reset clears the record for reuse, keeping slice capacity. The capture
// pipeline recycles one scratch record through every transform, which is
// why sinks may not retain the records they are handed (see
// core.RecordSink); retaining sinks must Clone.
func (r *Record) Reset() {
	r.T = 0
	r.Client = 0
	r.Op = ""
	r.Dir = DirQuery
	r.Server = ""
	r.Files = r.Files[:0]
	r.FileRefs = r.FileRefs[:0]
	r.Sources = r.Sources[:0]
	r.Keywords = r.Keywords[:0]
	r.MinKB, r.MaxKB = 0, 0
	r.Users, r.FilesCount, r.Accepted = 0, 0, 0
}

// Clone returns a deep copy that remains valid after the original is
// recycled — what a sink must store if it keeps records past its Write
// call.
func (r *Record) Clone() *Record {
	c := *r
	if r.Files != nil {
		c.Files = append([]FileInfo(nil), r.Files...)
	}
	if r.FileRefs != nil {
		c.FileRefs = append([]uint32(nil), r.FileRefs...)
	}
	if r.Sources != nil {
		c.Sources = append([]uint32(nil), r.Sources...)
	}
	if r.Keywords != nil {
		c.Keywords = append([]string(nil), r.Keywords...)
	}
	return &c
}
