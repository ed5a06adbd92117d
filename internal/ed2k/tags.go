package ed2k

import "fmt"

// Tag types on the wire.
const (
	TagString = 0x02
	TagUint32 = 0x03
)

// Standard one-byte tag names (FT_* in the protocol specification).
const (
	FTFileName    = 0x01
	FTFileSize    = 0x02
	FTFileType    = 0x03
	FTFileFormat  = 0x04
	FTSources     = 0x15
	FTCompleteSrc = 0x30
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

// readTagAppend decodes one tag into the next slot of tags, enforcing
// the type whitelist; an unknown tag type is a semantic error (a
// structurally plausible but undecodable message, the kind §2.3
// attributes to clients with "their own interpretation of the
// protocol"). The slot's Name capacity is reused, so decoding tags with
// one-byte standard names into a recycled slice allocates nothing;
// string values are the one inherent allocation.
func readTagAppend(r *buffer, tags []Tag) ([]Tag, error) {
	var t *Tag
	if len(tags) < cap(tags) {
		tags = tags[:len(tags)+1]
		t = &tags[len(tags)-1]
	} else {
		tags = append(tags, Tag{})
		t = &tags[len(tags)-1]
	}
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
	t.Name = append(t.Name[:0], name...)
	t.Type = typ
	switch typ {
	case TagString:
		t.Str, err = r.str()
		if err != nil {
			return tags, err
		}
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

// readFileEntryAppend decodes one file entry into the next slot of
// entries, reusing the slot's Tags capacity (and each tag's Name
// capacity) when the slice has been recycled through a message pool.
func readFileEntryAppend(r *buffer, entries []FileEntry) ([]FileEntry, error) {
	var e *FileEntry
	if len(entries) < cap(entries) {
		entries = entries[:len(entries)+1]
		e = &entries[len(entries)-1]
		e.Tags = e.Tags[:0]
	} else {
		entries = append(entries, FileEntry{})
		e = &entries[len(entries)-1]
	}
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
	for i := uint32(0); i < n; i++ {
		e.Tags, err = readTagAppend(r, e.Tags)
		if err != nil {
			return entries, err
		}
	}
	return entries, nil
}
