package ed2k

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"testing/quick"
)

// FrameTCPPacked serialises a message as a packed (zlib) frame, as an
// eMule client sends it; the program only reads such frames.
func FrameTCPPacked(m Message) []byte {
	payload := m.appendPayload(nil)
	var z bytes.Buffer
	zw := zlib.NewWriter(&z)
	zw.Write(payload)
	zw.Close()
	out := make([]byte, 0, 6+z.Len())
	out = append(out, ProtoPacked)
	out = binary.LittleEndian.AppendUint32(out, uint32(1+z.Len()))
	out = append(out, m.Opcode())
	return append(out, z.Bytes()...)
}

func TestFrameTCPRoundtrip(t *testing.T) {
	msgs := []Message{
		&LoginRequest{Hash: FileID{1, 2}, Client: 77, Port: 4662, Nick: "reader"},
		&IDChange{Client: 0x00ABCDEF},
		&OfferFiles{Client: 7, Port: 4662, Files: []FileEntry{sampleEntry(4)}},
		&SearchReq{Expr: Keyword("bach")},
		&StatReq{Challenge: 9},
	}
	var stream []byte
	for _, m := range msgs {
		stream = append(stream, FrameTCP(m)...)
	}
	got, consumed, err := ParseTCPStream(stream)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(stream) {
		t.Fatalf("consumed %d of %d", consumed, len(stream))
	}
	if len(got) != len(msgs) {
		t.Fatalf("parsed %d messages, want %d", len(got), len(msgs))
	}
	for i := range msgs {
		if !reflect.DeepEqual(normalize(got[i]), normalize(msgs[i])) {
			t.Errorf("message %d:\n got %#v\nwant %#v", i, got[i], msgs[i])
		}
	}
}

func TestFrameTCPPackedRoundtrip(t *testing.T) {
	m := &OfferFiles{Client: 9, Port: 1, Files: []FileEntry{sampleEntry(1), sampleEntry(2)}}
	packed := FrameTCPPacked(m)
	plain := FrameTCP(m)
	if len(packed) >= len(plain)+32 {
		t.Fatalf("packing grew the frame unreasonably: %d vs %d", len(packed), len(plain))
	}
	got, consumed, err := ParseTCPStream(packed)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(packed) || len(got) != 1 {
		t.Fatalf("consumed=%d msgs=%d", consumed, len(got))
	}
	if !reflect.DeepEqual(normalize(got[0]), normalize(Message(m))) {
		t.Fatalf("packed roundtrip: %#v", got[0])
	}
}

func TestParseTCPStreamIncremental(t *testing.T) {
	m1 := FrameTCP(&StatReq{Challenge: 1})
	m2 := FrameTCP(&StatReq{Challenge: 2})
	stream := append(append([]byte(nil), m1...), m2...)
	// Cut mid-second-frame: first parses, consumed points at its start.
	cut := len(m1) + 3
	msgs, consumed, err := ParseTCPStream(stream[:cut])
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || consumed != len(m1) {
		t.Fatalf("partial: msgs=%d consumed=%d", len(msgs), consumed)
	}
	// Resume from consumed with the full tail.
	msgs, consumed, err = ParseTCPStream(stream[consumed:])
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || consumed != len(m2) {
		t.Fatalf("resume: msgs=%d consumed=%d", len(msgs), consumed)
	}
}

func TestParseTCPStreamErrors(t *testing.T) {
	badMarker := []byte{0xAA, 1, 0, 0, 0, 0x96}
	if _, _, err := ParseTCPStream(badMarker); !errors.Is(err, ErrStructural) {
		t.Fatalf("bad marker: %v", err)
	}
	zeroLen := []byte{ProtoEDonkey, 0, 0, 0, 0, 0x96}
	if _, _, err := ParseTCPStream(zeroLen); !errors.Is(err, ErrStructural) {
		t.Fatalf("zero length: %v", err)
	}
	hugeLen := []byte{ProtoEDonkey, 0xFF, 0xFF, 0xFF, 0x7F, 0x96}
	if _, _, err := ParseTCPStream(hugeLen); !errors.Is(err, ErrStructural) {
		t.Fatalf("huge length: %v", err)
	}
	badOp := FrameTCP(&StatReq{Challenge: 1})
	badOp[5] = 0x77
	if _, _, err := ParseTCPStream(badOp); !errors.Is(err, ErrStructural) {
		t.Fatalf("bad opcode: %v", err)
	}
	// Packed frame with garbage zlib body.
	garbagePacked := []byte{ProtoPacked, 4, 0, 0, 0, OpGlobStatReq, 1, 2, 3}
	if _, _, err := ParseTCPStream(garbagePacked); !errors.Is(err, ErrSemantic) {
		t.Fatalf("garbage packed: %v", err)
	}
	// Trailing bytes inside a TCP-only message body.
	login := FrameTCP(&LoginRequest{Nick: "x"})
	login = append(login[:len(login)-0], 0xEE)
	// extend the declared length to cover the junk byte
	login[1]++
	if _, _, err := ParseTCPStream(login); !errors.Is(err, ErrSemantic) {
		t.Fatalf("login trailing: %v", err)
	}
}

func TestQuickParseTCPStreamNeverPanics(t *testing.T) {
	f := func(raw []byte) bool {
		msgs, consumed, err := ParseTCPStream(raw)
		if consumed < 0 || consumed > len(raw) {
			return false
		}
		if err == nil {
			return true
		}
		_ = msgs
		return errors.Is(err, ErrStructural) != errors.Is(err, ErrSemantic)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestQuickFrameStreamRoundtrip(t *testing.T) {
	f := func(challenges []uint32, packEvery byte) bool {
		every := int(packEvery)%5 + 1
		var stream []byte
		for i, ch := range challenges {
			m := &StatReq{Challenge: ch}
			if i%every == 0 {
				stream = append(stream, FrameTCPPacked(m)...)
			} else {
				stream = append(stream, FrameTCP(m)...)
			}
		}
		msgs, consumed, err := ParseTCPStream(stream)
		if err != nil || consumed != len(stream) || len(msgs) != len(challenges) {
			return false
		}
		for i, m := range msgs {
			if m.(*StatReq).Challenge != challenges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAppendFrameTCPProperty pins the in-place encoder: behind any
// non-empty prefix it must leave the prefix alone and append exactly the
// frame the wire format defines — built here from Encode, independently
// of the length back-patching — and k frames appended into one buffer
// must read back as the same k messages.
func TestAppendFrameTCPProperty(t *testing.T) {
	corpus := append(fuzzSeedMessages(),
		&LoginRequest{Hash: FileID{1, 2}, Client: 77, Port: 4662, Nick: "reader"},
		&IDChange{Client: 0x00ABCDEF},
		&SearchRes{},
	)
	wireFrame := func(m Message) []byte {
		body := Encode(m)[2:]
		f := []byte{ProtoEDonkey, 0, 0, 0, 0, m.Opcode()}
		binary.LittleEndian.PutUint32(f[1:], uint32(1+len(body)))
		return append(f, body...)
	}
	rng := rand.New(rand.NewSource(14))
	var stream []byte
	for round := 0; round < 50; round++ {
		for _, m := range corpus {
			prefix := make([]byte, 1+rng.Intn(300))
			rng.Read(prefix)
			// Spare capacity past the prefix is what the daemon's reused
			// buffer looks like; stale bytes there must not leak through.
			dst := append(make([]byte, 0, len(prefix)+rng.Intn(64)), prefix...)
			got := AppendFrameTCP(dst, m)
			want := wireFrame(m)
			if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
				t.Fatalf("%s behind a %d-byte prefix:\n got % X\nwant % X",
					OpcodeName(m.Opcode()), len(prefix), got[len(prefix):], want)
			}
			if !bytes.Equal(FrameTCP(m), want) {
				t.Fatalf("%s: FrameTCP differs from the wire format", OpcodeName(m.Opcode()))
			}
			if round == 0 {
				stream = AppendFrameTCP(stream, m)
			}
		}
	}
	sr := NewStreamReader(bytes.NewReader(stream))
	for i, want := range corpus {
		got, err := sr.Next()
		if err != nil {
			t.Fatalf("frame %d of the batched stream: %v", i, err)
		}
		if !msgEqual(got, want) {
			t.Fatalf("frame %d: got %#v, want %#v", i, got, want)
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("after %d frames: %v, want io.EOF", len(corpus), err)
	}
}

// streamOf concatenates framed messages into one byte stream.
func streamOf(msgs ...Message) []byte {
	var stream []byte
	for _, m := range msgs {
		stream = append(stream, FrameTCP(m)...)
	}
	return stream
}

func TestStreamReaderPartialReads(t *testing.T) {
	msgs := []Message{
		&LoginRequest{Hash: FileID{1}, Client: 5, Port: 4662, Nick: "slow"},
		&StatReq{Challenge: 11},
		&OfferFiles{Client: 5, Port: 4662, Files: []FileEntry{sampleEntry(3)}},
		&GetSources{Hashes: []FileID{{9}, {8}}},
	}
	// One byte per Read: every frame arrives maximally fragmented.
	sr := NewStreamReader(iotest.OneByteReader(bytes.NewReader(streamOf(msgs...))))
	for i, want := range msgs {
		got, err := sr.Next()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(want)) {
			t.Errorf("message %d:\n got %#v\nwant %#v", i, got, want)
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("after stream end: %v, want io.EOF", err)
	}
	// Errors (even EOF) are sticky.
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("second read after end: %v", err)
	}
}

func TestStreamReaderBurstAndHalfFrames(t *testing.T) {
	stream := streamOf(&StatReq{Challenge: 1}, &StatReq{Challenge: 2}, &StatReq{Challenge: 3})
	// Deliver in two reads cutting mid-second-frame.
	cut := len(stream)/3 + 2
	sr := NewStreamReader(io.MultiReader(
		bytes.NewReader(stream[:cut]), bytes.NewReader(stream[cut:])))
	for want := uint32(1); want <= 3; want++ {
		m, err := sr.Next()
		if err != nil {
			t.Fatal(err)
		}
		if m.(*StatReq).Challenge != want {
			t.Fatalf("challenge = %d, want %d", m.(*StatReq).Challenge, want)
		}
	}
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("end: %v", err)
	}
}

func TestStreamReaderGarbageHeader(t *testing.T) {
	// A valid frame followed by junk: the first message parses, then the
	// stream dies with a structural error — which is sticky.
	stream := append(streamOf(&StatReq{Challenge: 7}), 0xAB, 0xCD, 0xEF, 0x01, 0x02, 0x03)
	sr := NewStreamReader(bytes.NewReader(stream))
	if m, err := sr.Next(); err != nil || m.(*StatReq).Challenge != 7 {
		t.Fatalf("first message: %v %v", m, err)
	}
	if _, err := sr.Next(); !errors.Is(err, ErrStructural) {
		t.Fatalf("garbage header: %v, want structural", err)
	}
	if _, err := sr.Next(); !errors.Is(err, ErrStructural) {
		t.Fatalf("error not sticky: %v", err)
	}
}

func TestStreamReaderOversizedFrame(t *testing.T) {
	// A header claiming a frame over MaxTCPFrame must be rejected from
	// the header alone — before any buffering of the giant body.
	huge := []byte{ProtoEDonkey, 0, 0, 0, 0, 0x96}
	binary.LittleEndian.PutUint32(huge[1:], MaxTCPFrame+1)
	sr := NewStreamReader(bytes.NewReader(huge))
	if _, err := sr.Next(); !errors.Is(err, ErrStructural) {
		t.Fatalf("oversized claim: %v, want structural", err)
	}

	// A large admissible frame, delivered fragmented, still parses (the
	// reader grows its buffer up to the bound, no further).
	big := &OfferFiles{Client: 1, Port: 2}
	longName := "very long filename "
	for len(longName) < 400 {
		longName += longName
	}
	for len(FrameTCP(big)) < 1<<16 && len(big.Files) < MaxFilesPerMsg {
		e := sampleEntry(byte(len(big.Files)))
		e.Tags[0] = StringTag(FTFileName, longName)
		big.Files = append(big.Files, e)
	}
	frame := FrameTCP(big)
	sr = NewStreamReader(iotest.HalfReader(bytes.NewReader(frame)))
	m, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(m.(*OfferFiles).Files); got != len(big.Files) {
		t.Fatalf("big offer: %d files, want %d", got, len(big.Files))
	}
}

// TestSegmentLossBreaksTCPFlow is the paper's footnote 2: it analysed
// the UDP dialect only, because packet loss breaks TCP flow
// reconstruction. A flow of offers and source asks is cut into
// 1,460-byte segments and one is lost at a seeded position: every
// message that ends before the gap still reads back, but a gap inside a
// frame desynchronises the stream, which stops with an error and gives
// back nothing that starts after it. Sent as datagrams, the same loss
// costs exactly the one lost message.
func TestSegmentLossBreaksTCPFlow(t *testing.T) {
	const mss = 1460 // the TCP payload of one Ethernet frame
	var (
		msgs   []Message
		stream []byte
		ends   []int // ends[i] is the stream offset just past message i
	)
	for i := range 60 {
		var m Message
		if i%3 == 2 {
			hashes := make([]FileID, 1+i%4)
			for j := range hashes {
				hashes[j] = FileID{byte(i), byte(j)}
			}
			m = &GetSources{Hashes: hashes}
		} else {
			files := make([]FileEntry, 1+i%23)
			for j := range files {
				files[j] = sampleEntry(byte(i + j))
			}
			m = &OfferFiles{Client: ClientID(i), Port: 4662, Files: files}
		}
		msgs = append(msgs, m)
		stream = AppendFrameTCP(stream, m)
		ends = append(ends, len(stream))
	}
	var segments [][]byte
	for off := 0; off < len(stream); off += mss {
		segments = append(segments, stream[off:min(off+mss, len(stream))])
	}

	rng := rand.New(rand.NewSource(2008))
	inside := 0 // seeded losses whose gap starts inside a frame
	for _, lost := range rng.Perm(len(segments))[:8] {
		gap := lost * mss
		before := 0 // messages whose frame ends at or before the gap
		for before < len(ends) && ends[before] <= gap {
			before++
		}
		onBoundary := gap == 0 || before > 0 && ends[before-1] == gap
		var rest []io.Reader
		for i, seg := range segments {
			if i != lost {
				rest = append(rest, bytes.NewReader(seg))
			}
		}
		sr := NewStreamReader(io.MultiReader(rest...))
		got := 0
		var err error
		for {
			var m Message
			if m, err = sr.Next(); err != nil {
				break
			}
			if got < before && !msgEqual(m, msgs[got]) {
				t.Errorf("segment %d lost: message %d, before the gap, reads back changed", lost, got)
			}
			got++
		}
		if got < before {
			t.Errorf("segment %d lost: %d of the %d messages before the gap read back (%v)", lost, got, before, err)
		}
		if onBoundary {
			continue
		}
		inside++
		if got != before {
			t.Errorf("segment %d lost inside a frame: %d messages read back, only the %d before the gap were whole", lost, got, before)
		}
		if err == io.EOF {
			t.Errorf("segment %d lost inside a frame: the stream ended cleanly", lost)
		}
	}
	if inside == 0 {
		t.Fatal("no seeded loss started inside a frame")
	}

	lost := rng.Intn(len(msgs))
	for i, m := range msgs {
		if i == lost {
			continue
		}
		got, err := Decode(Encode(m))
		if err != nil || !msgEqual(got, m) {
			t.Errorf("datagram %d lost: datagram %d decodes to %v, %v", lost, i, got, err)
		}
	}
}

func TestStreamReaderMidFrameEOF(t *testing.T) {
	frame := FrameTCP(&StatReq{Challenge: 9})
	sr := NewStreamReader(bytes.NewReader(frame[:len(frame)-2]))
	if _, err := sr.Next(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated stream: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestStreamReaderPackedFrames(t *testing.T) {
	m := &OfferFiles{Client: 3, Port: 4, Files: []FileEntry{sampleEntry(1), sampleEntry(2)}}
	stream := append(FrameTCPPacked(m), FrameTCP(&StatReq{Challenge: 4})...)
	sr := NewStreamReader(iotest.OneByteReader(bytes.NewReader(stream)))
	got, err := sr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(got), normalize(Message(m))) {
		t.Fatalf("packed via reader: %#v", got)
	}
	if m2, err := sr.Next(); err != nil || m2.(*StatReq).Challenge != 4 {
		t.Fatalf("after packed: %v %v", m2, err)
	}
}

// TestStreamReaderShrinksAfterLargeFrame: a frame larger than
// shrinkAbove grows the read buffer, and packed the inflate buffer, only
// until it has been read. Once the next frame is read the session holds
// no more than shrinkAbove of either, whatever its largest frame was.
func TestStreamReaderShrinksAfterLargeFrame(t *testing.T) {
	big := &OfferFiles{Client: 1, Port: 2}
	name := strings.Repeat("a long file name ", 120)
	for len(big.Files) < MaxFilesPerMsg {
		e := sampleEntry(byte(len(big.Files)))
		e.Tags[0] = StringTag(FTFileName, name)
		big.Files = append(big.Files, e)
	}
	plain := FrameTCP(big)
	if len(plain) < 512<<10 {
		t.Fatalf("large frame is %d bytes, want at least 512 KiB", len(plain))
	}
	for _, c := range []struct {
		name  string
		frame []byte
	}{{"plain", plain}, {"packed", FrameTCPPacked(big)}} {
		// The small frame arrives in a read of its own, after the large
		// one has been handed out.
		sr := NewStreamReader(io.MultiReader(bytes.NewReader(c.frame),
			bytes.NewReader(FrameTCP(&StatReq{Challenge: 5}))))
		m, err := sr.Next()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := len(m.(*OfferFiles).Files); got != len(big.Files) {
			t.Fatalf("%s: %d files, want %d", c.name, got, len(big.Files))
		}
		if m, err := sr.Next(); err != nil || m.(*StatReq).Challenge != 5 {
			t.Fatalf("%s: after the large frame: %v %v", c.name, m, err)
		}
		if held := cap(sr.buf) + cap(sr.zbuf); held > shrinkAbove {
			t.Errorf("%s: reader holds %d bytes of buffers after a %d-byte frame, want at most %d",
				c.name, held, len(plain), shrinkAbove)
		}
	}
}

// loopReader serves data over and over, as much of it as fits each Read.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// BenchmarkStreamReader reads pipelined rounds of frames through one
// reader, as the two ends of a serve session read them: the numeric
// requests that make up most of a client's traffic, and the answers a
// client reads, one string-carrying SearchRes among them. An op is one
// round. CI's alloc gate wants 0 allocs/op on requests and at most 1,
// the SearchRes string, on answers.
func BenchmarkStreamReader(b *testing.B) {
	for _, mix := range []struct {
		name string
		msgs []Message
	}{
		{"requests", []Message{
			&GetSources{Hashes: []FileID{{1}}},
			&StatReq{Challenge: 7},
			&GetSources{Hashes: []FileID{{1}, {2}, {3}, {4}}},
		}},
		{"answers", []Message{
			&FoundSources{Hash: FileID{1}, Sources: []Endpoint{{ID: 1, Port: 4662}}},
			&FoundSources{Hash: FileID{2}, Sources: []Endpoint{{ID: 1, Port: 4662}, {ID: 2, Port: 4662}, {ID: 3, Port: 4662}}},
			&StatRes{Challenge: 7, Users: 10, Files: 20},
			&OfferAck{Accepted: 3},
			searchResOf(12),
		}},
	} {
		b.Run(mix.name, func(b *testing.B) {
			round := streamOf(mix.msgs...)
			sr := NewStreamReader(&loopReader{data: round})
			b.ReportAllocs()
			b.SetBytes(int64(len(round)))
			for i := 0; i < b.N; i++ {
				for range mix.msgs {
					if _, err := sr.Next(); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
