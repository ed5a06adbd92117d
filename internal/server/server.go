// Package server implements the eDonkey directory server whose traffic
// the capture observes — the substrate the paper could not open-source
// (§2.2: "this source code is not open-source").
//
// The server does what §2.1 describes: it "indexes files and users", and
// answers "searches for files (based on metadata like filename, size or
// filetype)" and "searches for providers (called sources) of given
// files". Internally the index is split across N independently-lockable
// shards: files and their source lists live in the shard their fileID
// hashes to, keyword posting lists in the shard their keyword hashes to,
// and users (plus the per-opcode counters) in the shard their clientID
// hashes to. Every Handle path therefore locks only the shards its keys
// touch, so concurrent callers — the edserverd daemon runs one goroutine
// per TCP connection — scale across cores instead of serialising on one
// struct. Stats are kept per shard and aggregated on read. Answer sizes
// are bounded the way deployed servers bounded them (UDP answers
// truncate source and result lists).
//
// A search locks less than that: a posting list holds the indexed files
// themselves, in announcement order, so a search reads one slice header
// per keyword under that keyword's shard lock and then walks the list
// with no lock held. Beside each file a posting holds the byte-pair
// signature of its lowered name, so the walk turns away most candidates
// without loading the file (see nameSig). Three invariants make the
// lock-free walk safe.
//
//   - Everything a search reads from an indexedFile is write-once,
//     filled in before the file is appended to any posting list, except
//     the source count, which is an atomic (0 = expired).
//   - A posting list is append-only for as long as any reader can hold
//     it: an offer only writes past every earlier reader's len, and the
//     expiry sweep builds a new list instead of compacting the old one.
//   - No path holds two shard locks at once, so there is no lock order
//     to respect.
package server

import (
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"
	"unsafe"

	"edtrace/internal/ed2k"
	"edtrace/internal/obs"
	"edtrace/internal/simtime"
)

// Limits mirror deployed server behaviour: UDP answers are small.
const (
	// MaxSourcesPerAnswer bounds sources in one FoundSources answer.
	MaxSourcesPerAnswer = 50
	// MaxSearchResults bounds entries in one SearchRes answer. UDP
	// answers must fit a datagram comfortably below the MTU — deployed
	// servers sent very small UDP result lists.
	MaxSearchResults = 12
	// MaxCandidates bounds how many index candidates one search scans,
	// protecting the server from pathological keywords.
	MaxCandidates = 512
	// MaxPostingList bounds how many fileIDs one keyword remembers.
	MaxPostingList = 4096
)

// What one search result costs on the wire besides its file's tags: the
// entry head (fileID, client, port, tag count) and the sources tag the
// answer adds (type, name length, one-byte name, value).
const (
	resultHeadBytes = 16 + 4 + 2 + 4
	sourcesTagBytes = 1 + 2 + 1 + 4
	// maxResultTagBytes bounds the encoded tags an indexed file keeps, so
	// that a SearchRes of MaxSearchResults files (opcode, result count,
	// the results) fits one TCP frame.
	maxResultTagBytes = (ed2k.MaxTCPFrame-1-4)/MaxSearchResults - resultHeadBytes - sourcesTagBytes
)

type source struct {
	id       ed2k.ClientID
	port     uint16
	lastSeen simtime.Time
}

// indexedFile is one file of the index. The file table owns it; posting
// lists point at it, and searches read it through them with no lock.
type indexedFile struct {
	// Everything but live and sources is write-once, set before the file
	// is reachable from any posting list: the first announcement's fileID
	// and announcer, its size, and its kept tags packed in one string
	// (see packedTags), followed there by its lowered name when lowering
	// changes the name; tags[nameLo:nameHi] is the lowered name either
	// way. So search evaluation never folds a name's case or scans tags
	// for a name or size per candidate. The fields are ordered so that
	// the record fits the 80-byte size class.
	id     ed2k.FileID
	client ed2k.ClientID
	port   uint16
	size   uint32
	// live is len(sources), stored under the owning shard's write lock
	// and loaded by searches without it: the sources tag and the
	// availability constraint of an answer. It is 0 only once the expiry
	// sweep has deleted the file from the table, and then stays 0 — a
	// re-announcement makes a new indexedFile — so a posting whose file
	// reads 0 is dead.
	live           atomic.Uint32
	nameLo, nameHi uint32
	tags           packedTags
	// sources is guarded by the owning shard's lock.
	sources []source
}

// nameLower is the file's name, lowered as strings.ToLower lowers it.
func (f *indexedFile) nameLower() string { return string(f.tags[f.nameLo:f.nameHi]) }

// posting is one entry of a keyword's posting list: an indexed file and
// the signature of its lowered name, computed once when the file was
// created. A search tests the signature against the one its expression
// requires before it loads the file.
type posting struct {
	sig uint64
	f   *indexedFile
}

// nameSig is the byte-pair signature of s: bit pairBit(s[i], s[i+1]) set
// for every adjacent pair of bytes. Every byte pair of a substring is a
// byte pair of the string, so strings.Contains(name, word) implies that
// nameSig(word) is a subset of nameSig(name), whatever the bytes; the
// converse does not hold, and a candidate the signature passes is still
// tested in full. A word shorter than two bytes requires nothing.
func nameSig(s string) uint64 {
	var sig uint64
	for i := 1; i < len(s); i++ {
		sig |= 1 << pairBit(s[i-1], s[i])
	}
	return sig
}

// pairBit spreads the 65,536 byte pairs over a signature's 64 bits: the
// top six bits of a multiplicative hash of the pair.
func pairBit(a, b byte) uint {
	return uint((uint32(a)<<8|uint32(b))*0x9E3779B1) >> 26
}

// requiredSig is the signature every file a lowered expression matches
// must carry: a keyword's own, the union over an AND, the intersection
// over an OR, the left side's of an ANDNOT, and none for a size, type or
// availability constraint.
func requiredSig(e *ed2k.SearchExpr) uint64 {
	switch e.Kind {
	case ed2k.KindKeyword:
		return nameSig(e.Word)
	case ed2k.KindAnd:
		return requiredSig(e.Left) | requiredSig(e.Right)
	case ed2k.KindOr:
		return requiredSig(e.Left) & requiredSig(e.Right)
	case ed2k.KindNot:
		return requiredSig(e.Left)
	}
	return 0
}

// Stats counts server activity per opcode plus index gauges.
type Stats struct {
	// Received counts handled queries by opcode name.
	Received map[string]uint64
	// Answered counts emitted answers by opcode name.
	Answered map[string]uint64
	// IndexedFiles, IndexedSources and Users are current table gauges.
	IndexedFiles   int
	IndexedSources int
	Users          int
}

// shard is one independently-lockable slice of the index. A single
// Server routes three key spaces onto the same shard array — fileIDs,
// keywords and clientIDs each by their own hash — so one shard holds
// unrelated fractions of all three tables behind one lock.
type shard struct {
	mu    sync.RWMutex
	files map[ed2k.FileID]*indexedFile
	// keywords maps a token to the postings of the files whose name holds
	// it, in announcement order, each file once. mu guards the map and
	// each list's slice header; the elements a header covers never
	// change, so a search copies the header under RLock and reads the
	// elements after the unlock. Writers keep that true: offers append
	// (writing only past the len any reader holds), the sweep replaces a
	// list it has to shrink with a new one.
	keywords map[string][]posting
	users    map[ed2k.ClientID]simtime.Time

	// Index gauges, updated at the mutation points (under the lock
	// already held there) and read lock-free by Stats/StatReq and the
	// metrics exposition — the single source of truth for table sizes.
	gFiles    *obs.Gauge
	gKeywords *obs.Gauge
	gUsers    *obs.Gauge
	gSources  *obs.Gauge
}

// SweepEvery is the period at which both tiers call ExpireSources: the
// daemon on its wall clock, the simulator on its virtual one. A source
// not re-announced within SourceTTL is gone by the next sweep.
const SweepEvery = 5 * simtime.Minute

// Server is an in-memory eDonkey directory server, safe for concurrent
// Handle/ExpireSources/Stats calls. The exported configuration fields
// must be set before the first concurrent use.
type Server struct {
	// Name and Desc are returned by ServerDescRes.
	Name string
	Desc string
	// SourceTTL expires sources that stopped re-announcing (2 h).
	SourceTTL simtime.Time

	shards []*shard
	mask   uint64

	reg *obs.Registry
	m   *metrics
	// instr gates the wall-clock Handle timing (two time.Now calls per
	// query plus a histogram observe) and the sweep's (the same per
	// shard). Counters and gauges are always live — Stats depends on
	// them — but timing is only worth paying when somebody is watching,
	// so it is on only when a registry was supplied.
	instr bool
}

// New returns an empty single-shard server — the deterministic
// configuration the discrete-event simulator drives from one goroutine.
func New(name, desc string) *Server {
	return NewShardedWith(name, desc, 1, nil)
}

// NewShardedWith returns an empty server whose index is split across n
// independently-lockable shards (n is rounded up to a power of two;
// n <= 1 degenerates to the single-lock layout), registering all
// metrics with reg: the per-shard and aggregate index gauges, the
// per-opcode received and answered counters, the Handle latency
// histograms, the sweep's shard-hold histogram and the expiry reclaim
// counters. A nil reg uses a private registry (still readable via
// Metrics) and leaves Handle and sweep timing off — the simulator's
// configuration.
func NewShardedWith(name, desc string, n int, reg *obs.Registry) *Server {
	if n < 1 {
		n = 1
	}
	if n&(n-1) != 0 {
		n = 1 << bits.Len(uint(n))
	}
	instr := reg != nil
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		Name:      name,
		Desc:      desc,
		SourceTTL: 2 * simtime.Hour,
		shards:    make([]*shard, n),
		mask:      uint64(n - 1),
		reg:       reg,
		m:         newMetrics(reg),
		instr:     instr,
	}
	for i := range s.shards {
		s.shards[i] = &shard{
			files:     make(map[ed2k.FileID]*indexedFile),
			keywords:  make(map[string][]posting),
			users:     make(map[ed2k.ClientID]simtime.Time),
			gFiles:    new(obs.Gauge),
			gKeywords: new(obs.Gauge),
			gUsers:    new(obs.Gauge),
			gSources:  new(obs.Gauge),
		}
	}
	s.ExposeIndex(reg)
	return s
}

// Metrics returns the registry the server's metrics live in.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// NumShards reports the shard count (after power-of-two rounding).
func (s *Server) NumShards() int { return len(s.shards) }

// fnv1a is FNV-1a over b — fast, allocation-free, and uniform even on
// the low-entropy forged fileIDs whose first bytes cluster on 0x0000.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h = (h ^ uint64(c)) * 1099511628211
	}
	return h
}

func (s *Server) fileShard(id ed2k.FileID) *shard {
	return s.shards[fnv1a(id[:])&s.mask]
}

func (s *Server) kwShard(kw string) *shard {
	h := uint64(14695981039346656037)
	for i := 0; i < len(kw); i++ {
		h = (h ^ uint64(kw[i])) * 1099511628211
	}
	return s.shards[h&s.mask]
}

func (s *Server) userShard(id ed2k.ClientID) *shard {
	var b [4]byte
	b[0], b[1], b[2], b[3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
	return s.shards[fnv1a(b[:])&s.mask]
}

// Tokenize splits a filename into lowercase keywords the way historical
// servers did: runs of ASCII letters and digits, length >= 2. It makes at
// most two allocations: the result, sized by a counting pass, and, when a
// token has upper case, one lowered copy of the tokens that they are all
// cut from. Otherwise they are cut from name itself. (Lowering the whole
// name would not do: strings.ToLower changes the byte length of invalid
// UTF-8 and of some runes, and the offsets would no longer match.)
func Tokenize(name string) []string {
	n, size, upper := 0, 0, false
	forTokens(name, func(tok string) {
		n++
		size += len(tok)
		for i := 0; i < len(tok) && !upper; i++ {
			upper = tok[i] >= 'A' && tok[i] <= 'Z'
		}
	})
	if n == 0 {
		return nil
	}
	out := make([]string, 0, n)
	if !upper {
		forTokens(name, func(tok string) { out = append(out, tok) })
		return out
	}
	var b strings.Builder
	b.Grow(size)
	forTokens(name, func(tok string) {
		for i := 0; i < len(tok); i++ {
			c := tok[i]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			b.WriteByte(c)
		}
	})
	lower := b.String()
	forTokens(name, func(tok string) {
		out = append(out, lower[:len(tok)])
		lower = lower[len(tok):]
	})
	return out
}

// forTokens calls fn with each run of at least two ASCII letters and
// digits in name, in order.
func forTokens(name string, fn func(tok string)) {
	start := -1
	for i := 0; i <= len(name); i++ {
		if i < len(name) {
			if c := name[i]; c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
				if start < 0 {
					start = i
				}
				continue
			}
		}
		if start >= 0 && i-start >= 2 {
			fn(name[start:i])
		}
		start = -1
	}
}

// Answers is the storage HandleInto builds one request's answers in: the
// answer list, the SearchRes with its results and their one tag array,
// the FoundSources values and the one endpoint array their sources are
// cut from, the OfferAck, the StatRes and the lowered copy of a search's
// expression. Every piece grows to the largest request it has served and
// is then reused, so a caller that keeps one Answers per goroutine
// allocates nothing for the answers to searches, source asks, offers and
// stats in steady state; the rare server-list and description answers
// are made fresh. A buffer keeps no array it has outgrown, so what it
// holds between requests is its own storage — at most ~69 KiB at the
// protocol's limits (64 hashes of 50 sources, 12 results of 32 tags, 64
// expression nodes), a few KiB for typical traffic — plus references to
// data it does not own: indexed files' tags from its answers, the last
// search's words, and answers a caller appended past the list it was
// handed.
//
// The answers HandleInto returns are borrowed: they are valid until the
// next HandleInto on the same Answers, which overwrites them in place. A
// caller that keeps an answer longer, or hands it to another goroutine,
// uses Handle instead. The zero value is ready to use; an Answers is not
// safe for concurrent use.
//
// The single answers are pointers made on first use, not values: no
// answer then points into the Answers itself, so Handle's fresh one stays
// on its stack and allocates only the answers a request has.
type Answers struct {
	msgs    []ed2k.Message
	res     *ed2k.SearchRes
	results []ed2k.FileEntry
	tags    []ed2k.Tag
	found   []ed2k.FoundSources
	eps     []ed2k.Endpoint
	ack     *ed2k.OfferAck
	stat    *ed2k.StatRes
	slab    []ed2k.SearchExpr
}

// Handle processes one decoded query at virtual time now, from the given
// client coordinates, and returns the answers to send (possibly several:
// GetSources yields one FoundSources per known hash). The answers are the
// caller's to keep: Handle is HandleInto on fresh storage. Safe for
// concurrent use.
func (s *Server) Handle(now simtime.Time, from ed2k.ClientID, port uint16, msg ed2k.Message) []ed2k.Message {
	var a Answers
	return s.HandleInto(&a, now, from, port, msg)
}

// HandleInto is Handle building the answers in a's storage; they are
// valid until the next call on a (see Answers). Safe for concurrent use
// with distinct Answers.
func (s *Server) HandleInto(a *Answers, now simtime.Time, from ed2k.ClientID, port uint16, msg ed2k.Message) []ed2k.Message {
	op := msg.Opcode()
	s.m.received.Inc(op)
	var start time.Time
	if s.instr {
		start = time.Now()
	}
	us := s.userShard(from)
	us.mu.Lock()
	if _, seen := us.users[from]; !seen {
		us.gUsers.Inc()
	}
	us.users[from] = now
	us.mu.Unlock()

	a.msgs = a.msgs[:0]
	switch m := msg.(type) {
	case *ed2k.OfferFiles:
		a.msgs = append(a.msgs, s.handleOffer(a, now, from, port, m))
	case *ed2k.GetSources:
		s.handleGetSources(a, now, m)
	case *ed2k.SearchReq:
		a.msgs = append(a.msgs, s.handleSearch(a, m))
	case *ed2k.StatReq:
		users, files := s.counts()
		if a.stat == nil {
			a.stat = new(ed2k.StatRes)
		}
		*a.stat = ed2k.StatRes{Challenge: m.Challenge, Users: uint32(users), Files: uint32(files)}
		a.msgs = append(a.msgs, a.stat)
	case ed2k.GetServerList:
		// This server knows no others: the list is always empty.
		a.msgs = append(a.msgs, &ed2k.ServerList{})
	case ed2k.ServerDescReq:
		a.msgs = append(a.msgs, &ed2k.ServerDescRes{Name: s.Name, Desc: s.Desc})
	default:
		// Answers arriving at the server (spoofed or looped) are ignored,
		// like a real server would.
		return nil
	}
	for _, ans := range a.msgs {
		s.m.answered.Inc(ans.Opcode())
	}
	if s.instr {
		s.m.handle.Observe(op, time.Since(start))
	}
	return a.msgs
}

func (s *Server) handleOffer(a *Answers, now simtime.Time, from ed2k.ClientID, port uint16, m *ed2k.OfferFiles) ed2k.Message {
	accepted := uint32(0)
	for i := range m.Files {
		f := &m.Files[i]
		sh := s.fileShard(f.ID)
		sh.mu.Lock()
		idx := sh.files[f.ID]
		isNew := idx == nil
		if isNew {
			idx = newIndexedFile(f, from, port)
			sh.files[f.ID] = idx
			sh.gFiles.Inc()
		}
		if addSource(idx, from, port, now) {
			sh.gSources.Inc()
		}
		sh.mu.Unlock()
		// Keyword indexing happens outside the file shard's lock (posting
		// lists live in other shards; never nest shard locks). Only the
		// announcement that created the file indexes it, and a token the
		// name repeats is indexed once, so a posting list holds each file
		// at most once. The tokens are cut from the file's packed tags, or
		// from one lowered copy of its tokens, so a keyword's map key does
		// not pin the message either.
		if isNew {
			name, _ := idx.tags.name()
			toks := Tokenize(name)
			p := posting{sig: nameSig(idx.nameLower()), f: idx}
			for i, kw := range toks {
				if slices.Contains(toks[:i], kw) {
					continue
				}
				ks := s.kwShard(kw)
				ks.mu.Lock()
				// Bound per-keyword lists: popular keywords stay
				// useful, pathological ones stop growing.
				if lst := ks.keywords[kw]; len(lst) < MaxPostingList {
					if len(lst) == 0 {
						ks.gKeywords.Inc()
					}
					ks.keywords[kw] = append(lst, p)
				}
				ks.mu.Unlock()
			}
		}
		accepted++
	}
	if a.ack == nil {
		a.ack = new(ed2k.OfferAck)
	}
	a.ack.Accepted = accepted
	return a.ack
}

// newIndexedFile is the index's record of an offered file first
// announced by from: nothing in it points into the offer. It keeps two
// objects, the record and the file's packed tags; lowering a name with
// upper case makes a third, which it drops once copied into the packed
// tags.
func newIndexedFile(f *ed2k.FileEntry, from ed2k.ClientID, port uint16) *indexedFile {
	kept := resultTags(f.Tags)
	e := ed2k.FileEntry{Tags: kept}
	name, _ := e.Name()
	lower := strings.ToLower(name)
	if lower == name {
		lower = "" // the packed name serves
	}
	idx := &indexedFile{id: f.ID, client: from, port: port, tags: packTags(kept, lower)}
	start, end, _ := idx.tags.find(ed2k.FTFileName, ed2k.TagString)
	if lower != "" {
		start, end = len(idx.tags)-len(lower), len(idx.tags)
	}
	idx.nameLo, idx.nameHi = uint32(start), uint32(end)
	idx.size, _ = idx.tags.size()
	return idx
}

// oneByteNames backs the one-byte tag names that answers carry, the
// standard form of every tag name: name b is oneByteNames[b:b+1:b+1], so
// unpacking a file's tags costs no name storage. Nothing writes to a tag
// name the index hands out (see ftSources).
var oneByteNames = func() (a [256]byte) {
	for i := range a {
		a[i] = byte(i)
	}
	return a
}()

// resultTags is the longest prefix of an offered file's tags that the
// index keeps: at most MaxTagsPerFile-1 of them, because an answer adds
// the sources tag, and at most maxResultTagBytes of them on the wire, so
// that a full SearchRes stays one TCP frame. Without them an offer the
// decoder accepts could make answers the decoder rejects.
func resultTags(tags []ed2k.Tag) []ed2k.Tag {
	size := 0
	for i, t := range tags {
		size += 1 + 2 + len(t.Name) // type, name length, name
		if t.Type == ed2k.TagString {
			size += 2 + len(t.Str)
		} else {
			size += 4
		}
		if i == ed2k.MaxTagsPerFile-1 || size > maxResultTagBytes {
			return tags[:i]
		}
	}
	return tags
}

// packedTags is an indexed file's kept tags (resultTags) in one string of
// the index's own: a count byte, then each tag as the wire lays it out —
// its type, its name's length (two bytes, little endian), its name, and
// a string's length and bytes or a number's four bytes — and after the
// last tag whatever the file appended (its lowered name). No tags is the
// empty string. A decoded message holds all its files' tags, names and
// strings in shared slabs, so keeping the message's tags would keep
// every file of the offer alive for as long as this one is indexed; the
// packed copy is one allocation, ~50 bytes for a typical file where a
// tag array of its own took 144 and more.
type packedTags string

// packTags packs tags, which resultTags bounded: fewer than 256 of them,
// each name and string shorter than 64 KiB. A tag of any type but
// TagString keeps its number, as the encoder does. tail follows the
// tags.
func packTags(tags []ed2k.Tag, tail string) packedTags {
	if len(tags) == 0 {
		return ""
	}
	n := 1 + len(tail)
	for _, t := range tags {
		value := 4
		if t.Type == ed2k.TagString {
			value = 2 + len(t.Str)
		}
		n += 1 + 2 + len(t.Name) + value
	}
	var b strings.Builder
	b.Grow(n)
	u16 := func(v int) {
		b.WriteByte(byte(v))
		b.WriteByte(byte(v >> 8))
	}
	b.WriteByte(byte(len(tags)))
	for _, t := range tags {
		b.WriteByte(t.Type)
		u16(len(t.Name))
		b.Write(t.Name)
		if t.Type == ed2k.TagString {
			u16(len(t.Str))
			b.WriteString(t.Str)
		} else {
			u16(int(t.Num))
			u16(int(t.Num >> 16))
		}
	}
	b.WriteString(tail)
	return packedTags(b.String())
}

// count is the number of tags p holds.
func (p packedTags) count() int {
	if p == "" {
		return 0
	}
	return int(p[0])
}

// appendTo appends p's tags to dst, as they were packed. A tag's Str is
// a substring of p. A one-byte name points into oneByteNames; a longer
// one is a read-only view of p's bytes, which nothing writes to (see
// ftSources).
func (p packedTags) appendTo(dst []ed2k.Tag) []ed2k.Tag {
	k := len(dst)
	dst = slices.Grow(dst, p.count())[:k+p.count()]
	for i := 1; k < len(dst); k++ {
		t := &dst[k]
		t.Type = p[i]
		n := int(p[i+1]) | int(p[i+2])<<8
		i += 3
		switch n {
		case 0:
			t.Name = nil
		case 1:
			b := int(p[i])
			t.Name = oneByteNames[b : b+1 : b+1]
		default:
			t.Name = unsafe.Slice(unsafe.StringData(string(p[i:])), n)
		}
		i += n
		if t.Type == ed2k.TagString {
			n = int(p[i]) | int(p[i+1])<<8
			t.Str, t.Num = string(p[i+2:i+2+n]), 0
			i += 2 + n
		} else {
			t.Str, t.Num = "", p.u32(i)
			i += 4
		}
	}
	return dst
}

// u32 is the little-endian number at offset i of p.
func (p packedTags) u32(i int) uint32 {
	return uint32(p[i]) | uint32(p[i+1])<<8 | uint32(p[i+2])<<16 | uint32(p[i+3])<<24
}

// find returns where the value of the first of p's tags named by the
// one-byte id with the given type begins and ends in p (a string's
// bytes, a number's four), as ed2k.FileEntry's Name, Type and Size find
// theirs. It walks the tags' lengths only, building no ed2k.Tag: a
// search's type test calls it for every candidate.
func (p packedTags) find(id, typ byte) (start, end int, ok bool) {
	for i, k := 1, p.count(); k > 0; k-- {
		t, n := p[i], int(p[i+1])|int(p[i+2])<<8
		start = i + 3 + n
		if t == ed2k.TagString {
			start += 2
			end = start + (int(p[start-2]) | int(p[start-1])<<8)
		} else {
			end = start + 4
		}
		if t == typ && n == 1 && p[i+3] == id {
			return start, end, true
		}
		i = end
	}
	return 0, 0, false
}

// name, typ and size are the file's name, type and size tags, as
// ed2k.FileEntry's Name, Type and Size report them.
func (p packedTags) name() (string, bool) {
	start, end, ok := p.find(ed2k.FTFileName, ed2k.TagString)
	return string(p[start:end]), ok
}

func (p packedTags) typ() (string, bool) {
	start, end, ok := p.find(ed2k.FTFileType, ed2k.TagString)
	return string(p[start:end]), ok
}

func (p packedTags) size() (uint32, bool) {
	start, _, ok := p.find(ed2k.FTFileSize, ed2k.TagUint32)
	if !ok {
		return 0, false
	}
	return p.u32(start), true
}

// equalLower reports whether strings.ToLower(s) == lower without
// allocating when s is ASCII. Lowering maps each ASCII byte on its own,
// so an ASCII prefix of s that differs from lower's decides the answer;
// the first other byte hands the rest to strings.ToLower.
func equalLower(s, lower string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return strings.ToLower(s) == lower
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if i == len(lower) || c != lower[i] {
			return false
		}
	}
	return len(s) == len(lower)
}

// addSource registers or refreshes one provider; the caller holds the
// file's shard write-locked.
func addSource(idx *indexedFile, id ed2k.ClientID, port uint16, now simtime.Time) bool {
	for i := range idx.sources {
		if idx.sources[i].id == id {
			idx.sources[i].lastSeen = now
			idx.sources[i].port = port
			return false
		}
	}
	idx.sources = append(idx.sources, source{id: id, port: port, lastSeen: now})
	idx.live.Store(uint32(len(idx.sources)))
	return true
}

// handleGetSources appends to a.msgs one FoundSources per known hash with
// a live source. The answers are values of a.found, which grows at most
// once a request, to room for every hash still to come; their sources
// are cut from a.eps, capacity-clipped so that appending to one answer's
// sources cannot write into the next. The cut is made once the loop is
// over, from the endpoint array as it ended: an array that grew during
// the loop keeps no answer on its predecessor, and clearing the previous
// request's answers first leaves no stale one beyond len(a.found), so a
// buffer keeps no endpoint array but its own.
func (s *Server) handleGetSources(a *Answers, now simtime.Time, m *ed2k.GetSources) {
	clear(a.found)
	a.found, a.eps = a.found[:0], a.eps[:0]
	for i, h := range m.Hashes {
		sh := s.fileShard(h)
		sh.mu.RLock()
		idx := sh.files[h]
		if idx == nil {
			sh.mu.RUnlock()
			continue // unknown files are silently unanswered, like real servers
		}
		a.eps = slices.Grow(a.eps, min(len(idx.sources), MaxSourcesPerAnswer))
		first := len(a.eps)
		for _, src := range idx.sources {
			if s.SourceTTL > 0 && now-src.lastSeen > s.SourceTTL {
				continue
			}
			a.eps = append(a.eps, ed2k.Endpoint{ID: src.id, Port: src.port})
			if len(a.eps)-first >= MaxSourcesPerAnswer {
				break
			}
		}
		sh.mu.RUnlock()
		if len(a.eps) == first {
			continue
		}
		if len(a.found) == cap(a.found) {
			a.found = slices.Grow(a.found, len(m.Hashes)-i)
		}
		a.found = append(a.found, ed2k.FoundSources{Hash: h, Sources: a.eps[first:]})
	}
	a.msgs = slices.Grow(a.msgs, len(a.found))
	first := 0
	for j := range a.found {
		n := len(a.found[j].Sources)
		a.found[j].Sources = a.eps[first : first+n : first+n]
		first += n
		a.msgs = append(a.msgs, &a.found[j])
	}
}

// ftSources is the name of the sources tag every search result carries;
// all answers share it, and nothing writes to an answer's tag names.
var ftSources = []byte{ed2k.FTSources}

func (s *Server) handleSearch(a *Answers, m *ed2k.SearchReq) ed2k.Message {
	if a.res == nil {
		a.res = new(ed2k.SearchRes)
	}
	res := a.res
	res.Results = nil
	if m.Expr == nil {
		return res
	}
	expr := lowerExpr(m.Expr, &a.slab)
	var buf [4]covering // an OR of more keywords than this allocates
	lists, _, ok := s.cover(expr, buf[:0])
	if !ok {
		return res
	}
	need := requiredSig(expr)

	// Walk the candidates with no lock held (see shard.keywords), in
	// announcement order. A posting whose signature lacks a bit the
	// expression requires cannot match, and is passed over without
	// loading its file. A file both sides of an OR cover comes by twice;
	// the hit list is short enough to dedupe by scanning it.
	var (
		hits   [MaxSearchResults]*indexedFile
		live   [MaxSearchResults]uint32
		n      int
		budget = MaxCandidates
	)
scan:
	for _, c := range lists {
		lst := c.postings
		if len(lst) > budget {
			lst = lst[:budget]
		}
		budget -= len(lst)
		for _, p := range lst {
			if p.sig&need != need {
				continue
			}
			f := p.f
			src := f.live.Load()
			if src == 0 || !evalExpr(expr, c.leaf, f, src) || slices.Contains(hits[:n], f) {
				continue
			}
			hits[n], live[n] = f, src
			if n++; n == MaxSearchResults {
				break scan
			}
		}
	}
	if n == 0 {
		return res
	}

	// One Results slice and one tag array for the whole answer, a's own
	// when they are long enough. Each result's tags are the file's,
	// unpacked, plus the sources tag, capacity-clipped so that appending
	// to one result cannot write into the next. The results past this
	// answer's are cleared, so none keeps a tag array a has outgrown.
	total := n
	for _, f := range hits[:n] {
		total += f.tags.count()
	}
	if cap(a.tags) < total {
		a.tags = make([]ed2k.Tag, 0, total)
	}
	if cap(a.results) < n {
		a.results = make([]ed2k.FileEntry, n)
	}
	tags := a.tags[:0]
	res.Results = a.results[:n]
	clear(a.results[n:])
	for i, f := range hits[:n] {
		start := len(tags)
		tags = f.tags.appendTo(tags)
		tags = append(tags, ed2k.Tag{Name: ftSources, Type: ed2k.TagUint32, Num: live[i]})
		res.Results[i] = ed2k.FileEntry{ID: f.id, Client: f.client, Port: f.port, Tags: tags[start:len(tags):len(tags)]}
	}
	return res
}

// covering is one posting list a search walks and the keyword leaf of the
// lowered expression that list belongs to. Every file on the list holds
// the leaf's word as a token, so the leaf is true for every candidate the
// list supplies and is not tested again.
type covering struct {
	postings []posting
	leaf     *ed2k.SearchExpr
}

// cover appends to dst posting lists that together hold every indexed
// file the lowered expression e can match, each with its keyword leaf,
// and reports their total length. It follows the tree: a keyword is
// covered by its own list; an AND by the shorter of its sides' covers
// (the left on a tie, so a chain of ANDs scans its leftmost rarest
// keyword), or by the only side that has one; an ANDNOT by its left
// side's; an OR by both sides' covers one after the other. ok is false
// when the index has no such lists — a size, type or availability
// constraint on its own, a word that is no file's token, an OR with such
// a side — and the search then answers nothing rather than scan the file
// table.
func (s *Server) cover(e *ed2k.SearchExpr, dst []covering) (lists []covering, cost int, ok bool) {
	switch e.Kind {
	case ed2k.KindKeyword:
		ks := s.kwShard(e.Word)
		ks.mu.RLock()
		lst, indexed := ks.keywords[e.Word]
		ks.mu.RUnlock()
		if !indexed {
			return dst, 0, false
		}
		return append(dst, covering{postings: lst, leaf: e}), len(lst), true
	case ed2k.KindAnd:
		left, lcost, lok := s.cover(e.Left, dst)
		if !lok {
			return s.cover(e.Right, dst)
		}
		both, rcost, rok := s.cover(e.Right, left)
		if !rok || lcost <= rcost {
			return left, lcost, true
		}
		// The right side's lists sit after the left's in the same array;
		// append moves them down over it.
		return append(dst, both[len(left):]...), rcost, true
	case ed2k.KindNot:
		return s.cover(e.Left, dst)
	case ed2k.KindOr:
		left, lcost, lok := s.cover(e.Left, dst)
		if !lok {
			return dst, 0, false
		}
		both, rcost, rok := s.cover(e.Right, left)
		if !rok {
			return dst, 0, false
		}
		return both, lcost + rcost, true
	}
	return dst, 0, false
}

// lowerExpr clones a search tree with all string operands lowered, so
// evaluation against the cached lowered index needs no per-candidate
// case folding. Semantics match ed2k.SearchExpr.Matches for ASCII input
// (a property-checked invariant in the tests). The clone's nodes come
// from *slab, replaced by one sized by the tree when it is too short; the
// request's own tree is left as it is: it belongs to the caller.
func lowerExpr(e *ed2k.SearchExpr, slab *[]ed2k.SearchExpr) *ed2k.SearchExpr {
	if e == nil {
		return nil
	}
	if n := exprNodes(e); cap(*slab) < n {
		*slab = make([]ed2k.SearchExpr, 0, n)
	}
	*slab = (*slab)[:0]
	return lowerInto(e, slab)
}

func exprNodes(e *ed2k.SearchExpr) int {
	if e == nil {
		return 0
	}
	return 1 + exprNodes(e.Left) + exprNodes(e.Right)
}

// lowerInto appends e's lowered clone to *slab, whose capacity holds the
// whole tree, so no append moves the nodes already taken.
func lowerInto(e *ed2k.SearchExpr, slab *[]ed2k.SearchExpr) *ed2k.SearchExpr {
	if e == nil {
		return nil
	}
	*slab = append(*slab, *e)
	out := &(*slab)[len(*slab)-1]
	out.Word = strings.ToLower(e.Word)
	out.Left = lowerInto(e.Left, slab)
	out.Right = lowerInto(e.Right, slab)
	return out
}

// evalExpr evaluates a lowered search tree against an indexed file's
// write-once metadata and the source count the caller loaded from it.
// known is the keyword leaf whose posting list supplied the file (nil
// for none): the file holds its word, so it is true without a test.
func evalExpr(e, known *ed2k.SearchExpr, idx *indexedFile, live uint32) bool {
	switch e.Kind {
	case ed2k.KindKeyword:
		return e == known || strings.Contains(idx.nameLower(), e.Word)
	case ed2k.KindMetaStr:
		if e.Meta != ed2k.MetaNameType {
			return false
		}
		typ, _ := idx.tags.typ()
		return equalLower(typ, e.Word)
	case ed2k.KindMetaNum:
		var field uint32
		switch e.Meta {
		case ed2k.MetaNameSize:
			field = idx.size
		case ed2k.MetaNameAvail:
			field = live
		default:
			return false
		}
		if e.NumOp == ed2k.NumericMax {
			return field <= e.Value
		}
		return field >= e.Value
	case ed2k.KindAnd:
		return evalExpr(e.Left, known, idx, live) && evalExpr(e.Right, known, idx, live)
	case ed2k.KindOr:
		return evalExpr(e.Left, known, idx, live) || evalExpr(e.Right, known, idx, live)
	case ed2k.KindNot:
		return evalExpr(e.Left, known, idx, live) && !evalExpr(e.Right, known, idx, live)
	}
	return false
}

// ExpireSources drops sources not re-announced within the TTL; servers
// ran this periodically to keep answers fresh. The sweep also reclaims
// everything a long-running daemon would otherwise leak: files left
// with no live source are deleted, the postings that point at them are
// stripped from the keyword lists, and users idle past the TTL are
// forgotten. Shards are swept one at a time, so concurrent Handle calls
// only ever wait for one shard's sweep. With timing on, each shard's
// two lock holds, summed, are one observation of
// edserver_sweep_shard_seconds.
func (s *Server) ExpireSources(now simtime.Time) {
	if s.SourceTTL <= 0 {
		return
	}
	var held []time.Duration
	if s.instr {
		held = make([]time.Duration, len(s.shards))
	}
	for i, sh := range s.shards {
		var start time.Time
		if s.instr {
			start = time.Now()
		}
		sh.mu.Lock()
		for id, idx := range sh.files {
			kept := idx.sources[:0]
			for _, src := range idx.sources {
				if now-src.lastSeen <= s.SourceTTL {
					kept = append(kept, src)
				} else {
					sh.gSources.Dec()
					s.m.reclaimedSources.Inc()
				}
			}
			idx.sources = kept
			idx.live.Store(uint32(len(kept)))
			if len(kept) == 0 {
				delete(sh.files, id)
				sh.gFiles.Dec()
				s.m.reclaimedFiles.Inc()
			}
		}
		for u, seen := range sh.users {
			if now-seen > s.SourceTTL {
				delete(sh.users, u)
				sh.gUsers.Dec()
				s.m.reclaimedUsers.Inc()
			}
		}
		sh.mu.Unlock()
		if s.instr {
			held[i] = time.Since(start)
		}
	}
	// Strip the dead postings: those of the files deleted above, and any
	// an offer racing an earlier sweep appended after that sweep had
	// passed its keyword. A file re-announced since is a new indexedFile
	// with postings of its own, so the dead ones are told apart by the
	// pointer alone and no file shard is consulted. A list that shrinks
	// is rebuilt at the size of its live postings, never compacted in
	// place: a search may still be walking the old one.
	for i, sh := range s.shards {
		var start time.Time
		if s.instr {
			start = time.Now()
		}
		sh.mu.Lock()
		for kw, lst := range sh.keywords {
			live := 0
			for _, p := range lst {
				if p.f.live.Load() != 0 {
					live++
				}
			}
			if live == len(lst) {
				continue
			}
			kept := make([]posting, 0, live)
			for _, p := range lst {
				if p.f.live.Load() != 0 {
					kept = append(kept, p)
				}
			}
			if len(kept) > 0 {
				sh.keywords[kw] = kept
			} else {
				delete(sh.keywords, kw)
				sh.gKeywords.Dec()
			}
		}
		sh.mu.Unlock()
		if s.instr {
			s.m.sweep.Observe(held[i] + time.Since(start))
		}
	}
}

// counts aggregates the user and file gauges across shards (read path
// of StatReq) by summing the per-shard atomics — lock-free, so a StatReq
// storm never contends with Handle. The sum is not atomic across
// shards, the same fuzziness a deployed server's status answer had.
func (s *Server) counts() (users, files int) {
	for _, sh := range s.shards {
		users += int(sh.gUsers.Value())
		files += int(sh.gFiles.Value())
	}
	return users, files
}

// Stats snapshots the counters. Everything is read from the obs metrics
// — the same gauges and counters /metrics exposes — so the two views
// can never disagree, and the read takes no shard locks.
func (s *Server) Stats() Stats {
	st := Stats{
		Received: s.m.received.values(),
		Answered: s.m.answered.values(),
	}
	for _, sh := range s.shards {
		st.IndexedFiles += int(sh.gFiles.Value())
		st.IndexedSources += int(sh.gSources.Value())
		st.Users += int(sh.gUsers.Value())
	}
	return st
}

// Counts reports the user and file gauges (what StatRes answers).
func (s *Server) Counts() (users, files int) { return s.counts() }

// Users reports the distinct clients seen.
func (s *Server) Users() int {
	users, _ := s.counts()
	return users
}
