package dataset

import (
	"fmt"
	"math"
	"strings"

	"edtrace/internal/xmlenc"
)

// VerifyReport summarises a dataset-invariant check (the guarantees the
// spec in internal/xmlenc/spec.md makes to consumers).
type VerifyReport struct {
	Records     uint64
	Violations  []string
	MaxClientID uint32
	MaxFileID   uint32
}

// OK reports whether no invariant was violated.
func (v *VerifyReport) OK() bool { return len(v.Violations) == 0 }

const maxViolations = 20

// Verify streams the dataset at dir and checks every released-data
// invariant: monotone timestamps, known ops, dense anonymised IDs
// consistent with the manifest counters, md5 digests for hashes, KB
// sizes. A merged multi-server dataset (manifest meta "servers")
// additionally requires every record's srv provenance tag to name a
// declared server.
func Verify(dir string) (*VerifyReport, error) {
	man, err := Open(dir)
	if err != nil {
		return nil, err
	}
	var servers map[string]bool
	if s := man.Meta["servers"]; s != "" {
		servers = make(map[string]bool)
		for _, name := range strings.Split(s, ",") {
			servers[name] = true
		}
	}
	rep := &VerifyReport{}
	add := func(format string, args ...any) {
		if len(rep.Violations) < maxViolations {
			rep.Violations = append(rep.Violations, fmt.Sprintf(format, args...))
		}
	}
	// Every t is seconds since the capture started (spec §2), so 0 bounds
	// the first record's from below, and a t that is not a finite
	// non-negative number is reported and not compared with its neighbours.
	lastT := 0.0
	seenClients := newIDSet(man.DistinctClients)
	seenFiles := newIDSet(man.DistinctFiles)
	noteClient := func(c uint32) {
		seenClients.add(c)
		if c > rep.MaxClientID {
			rep.MaxClientID = c
		}
	}
	noteFile := func(f uint32) {
		seenFiles.add(f)
		if f > rep.MaxFileID {
			rep.MaxFileID = f
		}
	}
	err = ForEach(dir, func(r *xmlenc.Record) error {
		rep.Records++
		if math.IsNaN(r.T) || math.IsInf(r.T, 0) || r.T < 0 {
			add("record %d: timestamp %g is not a time since the capture start", rep.Records, r.T)
		} else {
			if r.T < lastT {
				add("record %d: timestamp %f before %f", rep.Records, r.T, lastT)
			}
			lastT = r.T
		}
		if !xmlenc.KnownOp(r.Op) {
			add("record %d: unknown op %q", rep.Records, r.Op)
		}
		if servers != nil && !servers[r.Server] {
			add("record %d: srv tag %q not among declared servers", rep.Records, r.Server)
		} else if servers == nil && r.Server != "" {
			add("record %d: srv tag %q in a single-server dataset", rep.Records, r.Server)
		}
		noteClient(r.Client)
		for _, f := range r.FileRefs {
			noteFile(f)
		}
		for _, s := range r.Sources {
			noteClient(s)
		}
		for i := range r.Files {
			f := &r.Files[i]
			noteFile(f.ID)
			// n and ty are omitted when empty (spec §2); h never is.
			if f.NameHash != "" && !isDigest(f.NameHash) || f.TypeHash != "" && !isDigest(f.TypeHash) {
				add("record %d: file hash not an md5 digest", rep.Records)
			}
		}
		for _, k := range r.Keywords {
			if !isDigest(k) {
				add("record %d: keyword hash %q not an md5 digest", rep.Records, k)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if rep.Records != man.Records {
		add("manifest claims %d records, read %d", man.Records, rep.Records)
	}
	// Density: anonymised IDs must be exactly 0..N-1.
	if man.DistinctClients > 0 {
		if seenClients.distinct != uint64(man.DistinctClients) {
			add("manifest claims %d clients, dataset references %d",
				man.DistinctClients, seenClients.distinct)
		}
		if rep.MaxClientID != man.DistinctClients-1 {
			add("max clientID %d, want %d (dense order-of-appearance)",
				rep.MaxClientID, man.DistinctClients-1)
		}
	}
	if man.DistinctFiles > 0 {
		if seenFiles.distinct != uint64(man.DistinctFiles) {
			add("manifest claims %d files, dataset references %d",
				man.DistinctFiles, seenFiles.distinct)
		}
		if rep.MaxFileID != man.DistinctFiles-1 {
			add("max fileID %d, want %d (dense order-of-appearance)",
				rep.MaxFileID, man.DistinctFiles-1)
		}
	}
	return rep, nil
}

// idSet counts the distinct anonymised IDs a dataset references. The spec
// makes them dense in [0, n) with n in the manifest, so one bit per ID
// below the claim covers every ID a valid dataset holds; an ID beyond the
// claim — already a violation — goes to a map, as every ID does when the
// manifest claims nothing. The bits grow with the largest ID below the
// claim seen so far, never past the claim: what Verify holds follows the
// data, not what a manifest says of it.
type idSet struct {
	claim    uint32
	bits     []uint64 // bit id of the IDs seen below claim
	beyond   map[uint32]struct{}
	distinct uint64
}

func newIDSet(claim uint32) *idSet {
	return &idSet{claim: claim, beyond: make(map[uint32]struct{})}
}

func (s *idSet) add(id uint32) {
	if id < s.claim {
		w := int(id >> 6)
		if w >= len(s.bits) {
			n := min(max(w+1, 2*len(s.bits)), int((uint64(s.claim)+63)/64))
			s.bits = append(s.bits, make([]uint64, n-len(s.bits))...)
		}
		if bit := uint64(1) << (id & 63); s.bits[w]&bit == 0 {
			s.bits[w] |= bit
			s.distinct++
		}
		return
	}
	if _, ok := s.beyond[id]; !ok {
		s.beyond[id] = struct{}{}
		s.distinct++
	}
}

// isDigest reports whether s is an md5 digest as spec §4 has it: 32
// lower-case hexadecimal digits. It checks the digits a word of eight at
// a time. A word with a byte of 0x80 or more fails; below that, adding
// 0x80-lo to a byte sets its high bit exactly when the byte is lo or
// more, and adding 0x7f-hi exactly when it is above hi, and neither add
// carries into the next byte. A byte is a digit when the first add for
// '0' sets the bit and the second for '9' does not, or likewise for 'a'
// and 'f'.
func isDigest(s string) bool {
	if len(s) != 32 {
		return false
	}
	bad := notHex(le64(s[0:])) | notHex(le64(s[8:])) | notHex(le64(s[16:])) | notHex(le64(s[24:]))
	return bad&highBits == 0
}

const (
	lowBits  = 0x0101010101010101
	highBits = 0x8080808080808080
)

// notHex sets the high bit of every byte of w that is not a lower-case
// hexadecimal digit, when no byte of w is 0x80 or more; otherwise it
// sets the high bit of at least one byte.
func notHex(w uint64) uint64 {
	digit := (w + lowBits*(0x80-'0')) &^ (w + lowBits*(0x7f-'9'))
	letter := (w + lowBits*(0x80-'a')) &^ (w + lowBits*(0x7f-'f'))
	return w | ^(digit | letter)
}

// le64 loads the first eight bytes of s, the first lowest; the compiler
// makes it one load.
func le64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}
