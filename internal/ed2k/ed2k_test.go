package ed2k

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
)

func mustDecode(t *testing.T, raw []byte) Message {
	t.Helper()
	m, err := Decode(raw)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	return m
}

func sampleEntry(i byte) FileEntry {
	var id FileID
	for j := range id {
		id[j] = i + byte(j)
	}
	return FileEntry{
		ID:     id,
		Client: ClientID(1000 + uint32(i)),
		Port:   4662,
		Tags: []Tag{
			StringTag(FTFileName, "some file.mp3"),
			UintTag(FTFileSize, 4*1024*1024),
			StringTag(FTFileType, "Audio"),
		},
	}
}

// entriesOf builds n file entries with distinct names: a name, a size
// and a type tag each, the shape clients offer.
func entriesOf(n int) []FileEntry {
	out := make([]FileEntry, n)
	for i := range out {
		out[i] = FileEntry{
			ID:     FileID{byte(i), byte(i >> 8), 7},
			Client: ClientID(1000 + i),
			Port:   4662,
			Tags: []Tag{
				StringTag(FTFileName, fmt.Sprintf("artist %d - track %d.mp3", i%37, i)),
				UintTag(FTFileSize, uint32(3<<20+i)),
				StringTag(FTFileType, "Audio"),
			},
		}
	}
	return out
}

// searchResOf builds an n-result answer shaped like the server's: each
// result carries its entry's three tags plus the sources tag.
func searchResOf(n int) *SearchRes {
	m := &SearchRes{Results: entriesOf(n)}
	for i := range m.Results {
		m.Results[i].Tags = append(m.Results[i].Tags, UintTag(FTSources, uint32(i+1)))
	}
	return m
}

// balancedExpr builds a balanced search tree of n nodes (n = 2^k − 1)
// whose leaves are keywords with every fourth one a size constraint, and
// whose operators alternate AND and OR.
func balancedExpr(n int) *SearchExpr {
	leaf := 0
	var build func(n int, or bool) *SearchExpr
	build = func(n int, or bool) *SearchExpr {
		if n == 1 {
			leaf++
			if leaf%4 == 0 {
				return SizeAtLeast(uint32(leaf) << 20)
			}
			return Keyword(fmt.Sprintf("word%d", leaf))
		}
		l, r := build((n-1)/2, !or), build((n-1)/2, !or)
		if or {
			return Or(l, r)
		}
		return And(l, r)
	}
	return build(n, false)
}

func TestRoundtripAllMessageKinds(t *testing.T) {
	msgs := []Message{
		GetServerList{},
		&ServerList{Servers: []ServerAddr{{IP: 0x01020304, Port: 4661}, {IP: 5, Port: 80}}},
		&OfferFiles{Client: 7, Port: 4662, Files: []FileEntry{sampleEntry(1), sampleEntry(9)}},
		&OfferAck{Accepted: 2},
		&SearchReq{Expr: And(Keyword("mozart"), SizeAtLeast(1<<20))},
		&SearchRes{Results: []FileEntry{sampleEntry(3)}},
		&GetSources{Hashes: []FileID{sampleEntry(1).ID, sampleEntry(2).ID}},
		&FoundSources{Hash: sampleEntry(1).ID, Sources: []Endpoint{{ID: 9, Port: 1}, {ID: 10, Port: 2}}},
		&StatReq{Challenge: 0xDEADBEEF},
		&StatRes{Challenge: 0xDEADBEEF, Users: 123456, Files: 7890123},
		ServerDescReq{},
		&ServerDescRes{Name: "big server", Desc: "ten weeks of my life"},
	}
	for _, m := range msgs {
		raw := Encode(m)
		if raw[0] != ProtoEDonkey || raw[1] != m.Opcode() {
			t.Fatalf("%s: bad header % X", OpcodeName(m.Opcode()), raw[:2])
		}
		got := mustDecode(t, raw)
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Errorf("%s roundtrip:\n got %#v\nwant %#v", OpcodeName(m.Opcode()), got, m)
		}
	}
}

// normalize maps nil and empty slices to a comparable form.
func normalize(m Message) Message {
	switch v := m.(type) {
	case *ServerList:
		if len(v.Servers) == 0 {
			v.Servers = nil
		}
	case *OfferFiles:
		if len(v.Files) == 0 {
			v.Files = nil
		}
		for i := range v.Files {
			if len(v.Files[i].Tags) == 0 {
				v.Files[i].Tags = nil
			}
		}
	case *SearchRes:
		if len(v.Results) == 0 {
			v.Results = nil
		}
		for i := range v.Results {
			if len(v.Results[i].Tags) == 0 {
				v.Results[i].Tags = nil
			}
		}
	case *FoundSources:
		if len(v.Sources) == 0 {
			v.Sources = nil
		}
	}
	return m
}

func TestAppendEncodeMatchesEncode(t *testing.T) {
	m := &StatReq{Challenge: 42}
	prefix := []byte{0xFF, 0xFE}
	out := AppendEncode(prefix, m)
	if string(out[:2]) != string(prefix) {
		t.Fatal("AppendEncode must preserve the prefix")
	}
	if string(out[2:]) != string(Encode(m)) {
		t.Fatal("AppendEncode payload differs from Encode")
	}
}

// TestFitDatagram: a search answer is cut to the longest prefix of its
// results whose encoding fits the room, whatever the tags' shapes; an
// answer that fits, and any other kind, is returned as it is.
func TestFitDatagram(t *testing.T) {
	long := string(make([]byte, MaxStringLen))
	var results []FileEntry
	for i := 0; i < 12; i++ {
		e := sampleEntry(byte(i))
		for k := 0; k < i%4; k++ {
			e.Tags = append(e.Tags, Tag{Name: []byte("long name"), Type: TagString, Str: long[:1000*k+i]})
		}
		results = append(results, e)
	}
	res := &SearchRes{Results: results}
	full := len(Encode(res))
	for _, room := range []int{6, 100, 1000, 5000, full - 1, full, MaxDatagram} {
		got := FitDatagram(res, room).(*SearchRes)
		if n := len(Encode(got)); n > room {
			t.Fatalf("room %d: the fitted answer encodes to %d bytes", room, n)
		}
		if k := len(got.Results); k < len(results) {
			if n := len(Encode(&SearchRes{Results: results[:k+1]})); n <= room {
				t.Fatalf("room %d: cut to %d results, but %d take %d bytes", room, k, k+1, n)
			}
		} else if got != res {
			t.Fatalf("room %d: an answer that fits was copied", room)
		}
	}
	if st := (&StatRes{}); FitDatagram(st, 1) != Message(st) {
		t.Fatal("FitDatagram changed an answer that is no SearchRes")
	}
}

func TestStructuralErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":                {},
		"one byte":             {ProtoEDonkey},
		"bad magic":            {0xAA, OpGlobStatReq, 1, 2, 3, 4},
		"unknown opcode":       {ProtoEDonkey, 0x77, 0, 0},
		"statreq wrong length": {ProtoEDonkey, OpGlobStatReq, 1, 2, 3},
		"getsources not x16":   append([]byte{ProtoEDonkey, OpGlobGetSources}, make([]byte, 17)...),
		"getsources empty":     {ProtoEDonkey, OpGlobGetSources},
		"serverlist bad mod":   append([]byte{ProtoEDonkey, OpServerList}, make([]byte, 4)...),
		"getserverlist extra":  {ProtoEDonkey, OpGetServerList, 1},
		"foundsrc too short":   append([]byte{ProtoEDonkey, OpGlobFoundSrcs}, make([]byte, 10)...),
		// Not eDonkey opcodes: a one-peer announce, a forwarded GetSources
		// and an empty forward answer of a server mesh this codec once
		// spoke are unknown opcodes like any other.
		"unknown opcode 0xA4": append([]byte{ProtoEDonkey, 0xA4, 1}, make([]byte, 18)...),
		"unknown opcode 0xA5": append([]byte{ProtoEDonkey, 0xA5, 0, 0, 0, 0}, Encode(&GetSources{Hashes: []FileID{{1}}})...),
		"unknown opcode 0xA6": {ProtoEDonkey, 0xA6, 0, 0, 0, 0, 0},
	}
	for name, raw := range cases {
		_, err := Decode(raw)
		if !errors.Is(err, ErrStructural) {
			t.Errorf("%s: err = %v, want ErrStructural", name, err)
		}
		if errors.Is(err, ErrSemantic) {
			t.Errorf("%s: error belongs to both classes", name)
		}
	}
}

func TestSemanticErrors(t *testing.T) {
	// Structurally plausible payloads whose interior is garbage.
	badTag := Encode(&OfferFiles{Client: 1, Port: 2, Files: []FileEntry{sampleEntry(1)}})
	// Corrupt the first tag's type byte (offset: 2 hdr + 4+2+4 offer hdr +
	// 16 id + 4 client + 2 port + 4 tagcount = byte 38).
	badTag[38] = 0x99

	countLie := Encode(&FoundSources{Hash: FileID{1}, Sources: []Endpoint{{ID: 1, Port: 1}}})
	countLie[2+16] = 7 // claim 7 sources, carry 1 (still 17+6k bytes total)

	trailing := append(Encode(&StatReq{Challenge: 5}), 0)
	// 5 bytes after StatReq fails the exact-length structural check, so
	// use SearchRes which has only a minimum: valid empty res + junk.
	trailingRes := append(Encode(&SearchRes{}), 1, 2, 3)

	emptyKeyword := []byte{ProtoEDonkey, OpGlobSearchReq, 0x01, 0x00, 0x00}

	resLie := Encode(&SearchRes{Results: []FileEntry{sampleEntry(1)}})
	resLie[2] = 200 // count says 200, one entry present

	for name, raw := range map[string][]byte{
		"unknown tag type":    badTag,
		"foundsources count":  countLie,
		"searchres trailing":  trailingRes,
		"empty keyword":       emptyKeyword,
		"searchres count lie": resLie,
	} {
		_, err := Decode(raw)
		if !errors.Is(err, ErrSemantic) {
			t.Errorf("%s: err = %v, want ErrSemantic", name, err)
		}
	}
	// And the exact-length case really is structural.
	if _, err := Decode(trailing); !errors.Is(err, ErrStructural) {
		t.Errorf("statreq trailing: err = %v, want ErrStructural", err)
	}
}

func TestSearchExprRoundtripDeep(t *testing.T) {
	e := AndNot(
		Or(Keyword("bach"), And(Keyword("goldberg"), TypeIs("Audio"))),
		SizeAtMost(700*1024*1024),
	)
	raw := Encode(&SearchReq{Expr: e})
	m := mustDecode(t, raw).(*SearchReq)
	if m.Expr.String() != e.String() {
		t.Fatalf("expr roundtrip: %s != %s", m.Expr, e)
	}
}

func TestSearchExprLimits(t *testing.T) {
	// Build a left-spine tree deeper than MaxExprDepth.
	e := Keyword("x")
	for i := 0; i < MaxExprDepth+2; i++ {
		e = And(e, Keyword("y"))
	}
	raw := Encode(&SearchReq{Expr: e})
	_, err := Decode(raw)
	if !errors.Is(err, ErrSemantic) {
		t.Fatalf("deep expr: err = %v, want ErrSemantic", err)
	}
}

func TestSearchMatches(t *testing.T) {
	f := sampleEntry(1) // name "some file.mp3", size 4 MiB, type Audio
	cases := []struct {
		expr *SearchExpr
		want bool
	}{
		{Keyword("FILE"), true},
		{Keyword("absent"), false},
		{TypeIs("audio"), true},
		{TypeIs("Video"), false},
		{SizeAtLeast(1 << 20), true},
		{SizeAtLeast(1 << 30), false},
		{SizeAtMost(1 << 30), true},
		{And(Keyword("some"), TypeIs("Audio")), true},
		{And(Keyword("some"), TypeIs("Video")), false},
		{Or(Keyword("absent"), TypeIs("Audio")), true},
		{AndNot(Keyword("some"), Keyword("file")), false},
		{AndNot(Keyword("some"), Keyword("absent")), true},
	}
	for _, c := range cases {
		if got := c.expr.Matches(&f); got != c.want {
			t.Errorf("%s Matches = %v, want %v", c.expr, got, c.want)
		}
	}
}

func TestKeywordsExtraction(t *testing.T) {
	e := And(Keyword("a"), Or(Keyword("b"), AndNot(Keyword("c"), Keyword("d"))))
	kws := e.Keywords(nil)
	want := []string{"a", "b", "c", "d"}
	if !reflect.DeepEqual(kws, want) {
		t.Fatalf("Keywords = %v, want %v", kws, want)
	}
}

func TestContainsFold(t *testing.T) {
	cases := []struct {
		s, sub string
		want   bool
	}{
		{"Hello World", "world", true},
		{"Hello", "", true},
		{"", "x", false},
		{"abc", "abcd", false},
		{"MiXeD", "mixed", true},
	}
	for _, c := range cases {
		if got := containsFold(c.s, c.sub); got != c.want {
			t.Errorf("containsFold(%q,%q) = %v", c.s, c.sub, got)
		}
	}
}

func TestFileEntryAccessors(t *testing.T) {
	e := sampleEntry(1)
	if n, ok := e.Name(); !ok || n != "some file.mp3" {
		t.Fatalf("Name = %q,%v", n, ok)
	}
	if s, ok := e.Size(); !ok || s != 4*1024*1024 {
		t.Fatalf("Size = %d,%v", s, ok)
	}
	if ft, ok := e.Type(); !ok || ft != "Audio" {
		t.Fatalf("Type = %q,%v", ft, ok)
	}
	empty := FileEntry{}
	if _, ok := empty.Name(); ok {
		t.Fatal("empty entry reported a name")
	}
}

func TestClientIDLowHigh(t *testing.T) {
	if !ClientID(100).IsLowID() {
		t.Fatal("100 should be a low ID")
	}
	if ClientID(0x01020304).IsLowID() {
		t.Fatal("public IP should be a high ID")
	}
}

func TestOpcodeNames(t *testing.T) {
	if OpcodeName(OpGlobSearchReq) != "SearchReq" {
		t.Fatal("bad name for SearchReq")
	}
	if OpcodeName(0xEE) != "op0xEE" {
		t.Fatalf("unknown opcode name = %s", OpcodeName(0xEE))
	}
	if KnownOpcode(0xEE) || !KnownOpcode(OpOfferFiles) {
		t.Fatal("KnownOpcode misclassifies")
	}
}

func TestQuickGetSourcesRoundtrip(t *testing.T) {
	f := func(hashes [][16]byte) bool {
		if len(hashes) == 0 || len(hashes) > MaxHashesPer {
			return true
		}
		m := &GetSources{}
		for _, h := range hashes {
			m.Hashes = append(m.Hashes, FileID(h))
		}
		got, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFoundSourcesRoundtrip(t *testing.T) {
	f := func(hash [16]byte, ips []uint32) bool {
		if len(ips) > 200 {
			ips = ips[:200]
		}
		m := &FoundSources{Hash: FileID(hash)}
		for i, ip := range ips {
			m.Sources = append(m.Sources, Endpoint{ID: ClientID(ip), Port: uint16(i)})
		}
		got, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(got), normalize(m))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickDecodeNeverPanics(t *testing.T) {
	// Fuzz-lite: arbitrary bytes must yield a message or a classified
	// error, never a panic, and classified means exactly one class.
	f := func(raw []byte) bool {
		m, err := Decode(raw)
		if err == nil {
			return m != nil
		}
		s, sem := errors.Is(err, ErrStructural), errors.Is(err, ErrSemantic)
		return s != sem
	}
	cfg := &quick.Config{MaxCount: 2000}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	// And with a plausible header so we exercise payload decoding.
	g := func(op byte, payload []byte) bool {
		raw := append([]byte{ProtoEDonkey, op}, payload...)
		m, err := Decode(raw)
		if err == nil {
			return m != nil
		}
		s, sem := errors.Is(err, ErrStructural), errors.Is(err, ErrSemantic)
		return s != sem
	}
	if err := quick.Check(g, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeOfferFiles(b *testing.B) {
	m := &OfferFiles{Client: 1, Port: 4662}
	for i := 0; i < 20; i++ {
		m.Files = append(m.Files, sampleEntry(byte(i)))
	}
	buf := make([]byte, 0, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEncode(buf[:0], m)
	}
}

func BenchmarkDecodeOfferFiles(b *testing.B) {
	m := &OfferFiles{Client: 1, Port: 4662}
	for i := 0; i < 20; i++ {
		m.Files = append(m.Files, sampleEntry(byte(i)))
	}
	benchDecode(b, Encode(m))
}

// BenchmarkDecodeSearchRes decodes a full answer as the server builds it:
// MaxSearchResults-sized, 12 results of four tags each.
func BenchmarkDecodeSearchRes(b *testing.B) {
	benchDecode(b, Encode(searchResOf(12)))
}

func benchDecode(b *testing.B, raw []byte) {
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}
