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
// sizes, the manifest's max_t. A merged multi-server dataset (manifest
// meta "servers") additionally requires every record's srv provenance
// tag to name a declared server. It is one Checker over one ForEach.
func Verify(dir string) (*VerifyReport, error) {
	man, err := Open(dir)
	if err != nil {
		return nil, err
	}
	c := NewChecker(man)
	if err := ForEach(dir, c.Write); err != nil {
		return nil, err
	}
	return c.Report(), nil
}

// Checker checks a dataset's records against the invariants of spec §4
// as a ForEach pass reads them: Write takes each record in order, and
// Report adds the checks that need them all. A wrong record count is not
// among them: ForEach fails on it.
type Checker struct {
	man     *Manifest
	servers map[string]bool // nil for a single-server dataset
	rep     VerifyReport
	// Every t is seconds since the capture started (spec §2), so 0 bounds
	// the first record's from below, and a t that is not a finite
	// non-negative number is reported and not compared with its neighbours.
	lastT, maxT float64
	clients     *idSet
	files       *idSet
}

// NewChecker returns a checker for the records of the dataset man
// describes.
func NewChecker(man *Manifest) *Checker {
	c := &Checker{
		man:     man,
		clients: newIDSet(man.DistinctClients),
		files:   newIDSet(man.DistinctFiles),
	}
	if s := man.Meta["servers"]; s != "" {
		c.servers = make(map[string]bool)
		for _, name := range strings.Split(s, ",") {
			c.servers[name] = true
		}
	}
	return c
}

func (c *Checker) add(format string, args ...any) {
	if len(c.rep.Violations) < maxViolations {
		c.rep.Violations = append(c.rep.Violations, fmt.Sprintf(format, args...))
	}
}

func (c *Checker) noteClient(id uint32) {
	c.clients.add(id)
	c.rep.MaxClientID = max(c.rep.MaxClientID, id)
}

func (c *Checker) noteFile(id uint32) {
	c.files.add(id)
	c.rep.MaxFileID = max(c.rep.MaxFileID, id)
}

// Write checks one record. It never fails: a violation goes to the
// report.
func (c *Checker) Write(r *xmlenc.Record) error {
	rep := &c.rep
	rep.Records++
	if math.IsNaN(r.T) || math.IsInf(r.T, 0) || r.T < 0 {
		c.add("record %d: timestamp %g is not a time since the capture start", rep.Records, r.T)
	} else {
		if r.T < c.lastT {
			c.add("record %d: timestamp %f before %f", rep.Records, r.T, c.lastT)
		}
		c.lastT = r.T
		c.maxT = max(c.maxT, r.T)
	}
	if !xmlenc.KnownOp(r.Op) {
		c.add("record %d: unknown op %q", rep.Records, r.Op)
	}
	if c.servers != nil && !c.servers[r.Server] {
		c.add("record %d: srv tag %q not among declared servers", rep.Records, r.Server)
	} else if c.servers == nil && r.Server != "" {
		c.add("record %d: srv tag %q in a single-server dataset", rep.Records, r.Server)
	}
	c.noteClient(r.Client)
	for _, f := range r.FileRefs {
		c.noteFile(f)
	}
	for _, s := range r.Sources {
		c.noteClient(s)
	}
	for i := range r.Files {
		f := &r.Files[i]
		c.noteFile(f.ID)
		// n and ty are omitted when empty (spec §2); h never is.
		if f.NameHash != "" && !isDigest(f.NameHash) || f.TypeHash != "" && !isDigest(f.TypeHash) {
			c.add("record %d: file hash not an md5 digest", rep.Records)
		}
	}
	for _, k := range r.Keywords {
		if !isDigest(k) {
			c.add("record %d: keyword hash %q not an md5 digest", rep.Records, k)
		}
	}
	return nil
}

// Report adds the whole-dataset checks to what Write found and returns
// the report. Call it once, after the last record.
func (c *Checker) Report() *VerifyReport {
	man, rep := c.man, &c.rep
	if man.MaxT != nil && *man.MaxT != c.maxT {
		c.add("manifest max_t %v, largest t read %v", *man.MaxT, c.maxT)
	}
	// Density: anonymised IDs must be exactly 0..N-1.
	if man.DistinctClients > 0 {
		if c.clients.distinct != uint64(man.DistinctClients) {
			c.add("manifest claims %d clients, dataset references %d",
				man.DistinctClients, c.clients.distinct)
		}
		if rep.MaxClientID != man.DistinctClients-1 {
			c.add("max clientID %d, want %d (dense order-of-appearance)",
				rep.MaxClientID, man.DistinctClients-1)
		}
	}
	if man.DistinctFiles > 0 {
		if c.files.distinct != uint64(man.DistinctFiles) {
			c.add("manifest claims %d files, dataset references %d",
				man.DistinctFiles, c.files.distinct)
		}
		if rep.MaxFileID != man.DistinctFiles-1 {
			c.add("max fileID %d, want %d (dense order-of-appearance)",
				rep.MaxFileID, man.DistinctFiles-1)
		}
	}
	return rep
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
