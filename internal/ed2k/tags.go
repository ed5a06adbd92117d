package ed2k

import (
	"encoding/binary"
	"fmt"
	"strings"
)

// Tag types on the wire.
const (
	TagString = 0x02
	TagUint32 = 0x03
)

// Standard one-byte tag names (FT_* in the protocol specification).
const (
	FTFileName = 0x01
	FTFileSize = 0x02
	FTFileType = 0x03
	FTSources  = 0x15
)

// Tag is one metadata entry attached to a file: either a string value or
// a 32-bit integer, keyed by a (usually one-byte) name.
type Tag struct {
	Name []byte // usually a single FT* byte; searches may use ASCII names
	Str  string // valid when Type == TagString
	Num  uint32 // valid when Type == TagUint32
	Type byte
}

// StringTag builds a string-valued tag with a standard one-byte name.
func StringTag(id byte, v string) Tag {
	return Tag{Name: []byte{id}, Type: TagString, Str: v}
}

// UintTag builds an integer-valued tag with a standard one-byte name.
func UintTag(id byte, v uint32) Tag {
	return Tag{Name: []byte{id}, Type: TagUint32, Num: v}
}

// ID returns the one-byte standard name, or 0 if the name is not a
// single-byte identifier.
func (t Tag) ID() byte {
	if len(t.Name) == 1 {
		return t.Name[0]
	}
	return 0
}

// appendTag encodes a tag: [type u8][namelen u16][name][value].
func appendTag(b []byte, t Tag) []byte {
	b = append(b, t.Type)
	b = appendU16(b, uint16(len(t.Name)))
	b = append(b, t.Name...)
	switch t.Type {
	case TagString:
		b = appendStr(b, t.Str)
	case TagUint32:
		b = appendU32(b, t.Num)
	default:
		panic(fmt.Sprintf("ed2k: cannot encode tag type 0x%02X", t.Type))
	}
	return b
}

// readTagAppend decodes one tag into the next slot of tags, which the
// caller sized, enforcing the type whitelist; an unknown tag type is a
// semantic error (a structurally plausible but undecodable message, the
// kind §2.3 attributes to clients with "their own interpretation of the
// protocol"). The slot's Name capacity is reused when it suffices (a
// recycled message), else the name comes from the message's name slab. A
// string value stays in the payload until setStrings copies it out: Num
// parks its field's offset.
func readTagAppend(r *buffer, tags []Tag, s *entrySlabs) ([]Tag, error) {
	tags = tags[:len(tags)+1]
	t := &tags[len(tags)-1]
	t.Str, t.Num = "", 0
	typ, err := r.u8()
	if err != nil {
		return tags, err
	}
	nameLen, err := r.u16()
	if err != nil {
		return tags, err
	}
	if int(nameLen) > MaxStringLen {
		return tags, semanticf("tag name length %d exceeds limit", nameLen)
	}
	name, err := r.bytes(int(nameLen))
	if err != nil {
		return tags, err
	}
	if cap(t.Name) < len(name) {
		t.Name = takeSlab(&s.names, len(name))
	}
	t.Name = append(t.Name[:0], name...)
	t.Type = typ
	switch typ {
	case TagString:
		off, n, err := r.strField()
		if err != nil {
			return tags, err
		}
		t.Num = off
		s.strs += n
	case TagUint32:
		t.Num, err = r.u32()
		if err != nil {
			return tags, err
		}
	default:
		return tags, semanticf("unknown tag type 0x%02X", typ)
	}
	return tags, nil
}

// FileEntry describes one file as carried in offers and search answers:
// identifier, provider coordinates, and metadata tags.
type FileEntry struct {
	ID     FileID
	Client ClientID
	Port   uint16
	Tags   []Tag
}

// Name returns the filename tag value, if present.
func (e *FileEntry) Name() (string, bool) {
	for _, t := range e.Tags {
		if t.ID() == FTFileName && t.Type == TagString {
			return t.Str, true
		}
	}
	return "", false
}

// Size returns the filesize tag value in bytes, if present.
func (e *FileEntry) Size() (uint32, bool) {
	for _, t := range e.Tags {
		if t.ID() == FTFileSize && t.Type == TagUint32 {
			return t.Num, true
		}
	}
	return 0, false
}

// Type returns the filetype tag value, if present.
func (e *FileEntry) Type() (string, bool) {
	for _, t := range e.Tags {
		if t.ID() == FTFileType && t.Type == TagString {
			return t.Str, true
		}
	}
	return "", false
}

func appendFileEntry(b []byte, e *FileEntry) []byte {
	b = append(b, e.ID[:]...)
	b = appendU32(b, uint32(e.Client))
	b = appendU16(b, e.Port)
	b = appendU32(b, uint32(len(e.Tags)))
	for _, t := range e.Tags {
		b = appendTag(b, t)
	}
	return b
}

// entryLen is the size appendFileEntry encodes e in.
func entryLen(e *FileEntry) int {
	n := fileEntryHead
	for _, t := range e.Tags {
		n += 1 + 2 + len(t.Name) // type, name length, name
		if t.Type == TagString {
			n += 2 + len(t.Str)
		} else {
			n += 4
		}
	}
	return n
}

// entrySlabs is the storage one message's file entries are decoded into:
// tag slots and tag-name bytes handed out from one slab each, and the
// string bytes the decode has seen, which setStrings copies into one
// string. A fresh decode sizes both slabs from countEntries; a pooled
// decode leaves them empty and reuses the capacity its recycled entries
// hold, taking a new slice only where that capacity falls short.
type entrySlabs struct {
	tags  []Tag
	names []byte
	strs  int
}

// takeSlab cuts the next n elements off *slab as an empty slice with
// capacity exactly n, so appending to it cannot write into its
// neighbour's; when the slab is short it allocates instead.
func takeSlab[T any](slab *[]T, n int) []T {
	if n > len(*slab) {
		return make([]T, 0, n)
	}
	s := (*slab)[:0:n]
	*slab = (*slab)[n:]
	return s
}

// entryCounts sizes a fresh message's slabs: the file entries a counting
// walk found whole, and the tags and tag-name bytes they carry.
type entryCounts struct {
	entries, tags, names int
}

// fileEntryHead is an entry's fixed prefix: fileID, client, port, tag count.
const fileEntryHead = 16 + 4 + 2 + 4

// countEntries walks up to n file entries at the head of b without
// decoding them. It only counts: it stops at the first thing the decode
// would reject, so its counts are exact for a message that decodes and
// merely short for one that does not, whose fill pass then fails with the
// error it always gave.
func countEntries(b []byte, n int) (c entryCounts) {
	off := 0
	for ; c.entries < n; c.entries++ {
		if len(b)-off < fileEntryHead {
			return c
		}
		ntags := binary.LittleEndian.Uint32(b[off+fileEntryHead-4:])
		off += fileEntryHead
		if ntags > MaxTagsPerFile {
			return c
		}
		c.tags += int(ntags)
		for i := uint32(0); i < ntags; i++ {
			if len(b)-off < 3 {
				return c
			}
			typ, nameLen := b[off], int(binary.LittleEndian.Uint16(b[off+1:]))
			off += 3
			if nameLen > MaxStringLen || len(b)-off < nameLen {
				return c
			}
			c.names += nameLen
			off += nameLen
			switch typ {
			case TagString:
				if len(b)-off < 2 {
					return c
				}
				n := int(binary.LittleEndian.Uint16(b[off:]))
				off += 2
				if n > MaxStringLen || len(b)-off < n {
					return c
				}
				off += n
			case TagUint32:
				if len(b)-off < 4 {
					return c
				}
				off += 4
			default:
				return c
			}
		}
	}
	return c
}

// decodeEntries decodes the n file entries of an OfferFiles or SearchRes
// into entries (nil for a fresh message, the recycled slice for a pooled
// one). A fresh message counts first, then fills: its entries, tags and
// tag names come from one slice each, every entry's Tags and every tag's
// Name capacity-clipped. Both paths take their string values as
// substrings of one string, so a message costs a fixed number of
// allocations — fresh, the entry, tag and name slabs and the string;
// pooled, the string alone once its pool is warm.
func decodeEntries(r *buffer, entries []FileEntry, n uint32, pooled bool) ([]FileEntry, error) {
	var s entrySlabs
	if pooled {
		entries = entries[:0]
	} else {
		c := countEntries(r.b[r.off:], int(n))
		entries = sized(entries, c.entries)
		s.tags = make([]Tag, c.tags)
		s.names = make([]byte, c.names)
	}
	for i := uint32(0); i < n; i++ {
		var err error
		if entries, err = readFileEntryAppend(r, entries, &s); err != nil {
			return entries, err
		}
	}
	setStrings(entries, r.b, s.strs)
	return entries, nil
}

// setStrings gives every string tag its value as a substring of one
// string of total bytes, copying each from the payload field whose
// offset its Num parks.
func setStrings(entries []FileEntry, payload []byte, total int) {
	var all strings.Builder
	all.Grow(total)
	for i := range entries {
		for j := range entries[i].Tags {
			if t := &entries[i].Tags[j]; t.Type == TagString {
				start := all.Len()
				all.Write(strAt(payload, t.Num))
				t.Str, t.Num = all.String()[start:], 0
			}
		}
	}
}

// readFileEntryAppend decodes one file entry into the next slot of
// entries. The slot's Tags capacity is reused when it holds the entry's
// tags (a recycled message), else the tags come from the tag slab.
func readFileEntryAppend(r *buffer, entries []FileEntry, s *entrySlabs) ([]FileEntry, error) {
	var e *FileEntry
	if len(entries) < cap(entries) {
		entries = entries[:len(entries)+1]
		e = &entries[len(entries)-1]
	} else {
		entries = append(entries, FileEntry{})
		e = &entries[len(entries)-1]
	}
	e.Tags = e.Tags[:0]
	id, err := r.fileID()
	if err != nil {
		return entries, err
	}
	e.ID = id
	cid, err := r.u32()
	if err != nil {
		return entries, err
	}
	e.Client = ClientID(cid)
	e.Port, err = r.u16()
	if err != nil {
		return entries, err
	}
	n, err := r.u32()
	if err != nil {
		return entries, err
	}
	if n > MaxTagsPerFile {
		return entries, semanticf("file entry claims %d tags", n)
	}
	if cap(e.Tags) < int(n) {
		e.Tags = takeSlab(&s.tags, int(n))
	}
	for i := uint32(0); i < n; i++ {
		e.Tags, err = readTagAppend(r, e.Tags, s)
		if err != nil {
			return entries, err
		}
	}
	return entries, nil
}
