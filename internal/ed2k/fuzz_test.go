package ed2k

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// msgEqual compares two decoded messages by opcode and canonical
// re-encoding. Pooled decoding recycles slice capacity, so a recycled
// message may hold empty-but-non-nil slices where a fresh one holds nil
// — indistinguishable to every consumer, but not to reflect.DeepEqual.
func msgEqual(a, b Message) bool {
	return a.Opcode() == b.Opcode() && bytes.Equal(Encode(a), Encode(b))
}

// fuzzSeedMessages covers every message type the decoder pools plus the
// header-only ones, so the corpus starts from valid encodings of each
// opcode rather than random bytes.
func fuzzSeedMessages() []Message {
	return []Message{
		&ServerList{Servers: []ServerAddr{{IP: 0x01020304, Port: 4661}, {IP: 5, Port: 6}}},
		&OfferFiles{Files: []FileEntry{fileEntryWith("song.mp3", 3<<20)}},
		&OfferAck{Accepted: 7},
		&GetSources{Hashes: []FileID{{1, 2, 3}, {4, 5, 6}}},
		&FoundSources{Hash: FileID{9}, Sources: []Endpoint{{ID: 1, Port: 2}, {ID: 3, Port: 4}}},
		&SearchReq{Expr: And(Keyword("mozart"), SizeAtLeast(1<<20))},
		&SearchRes{Results: []FileEntry{fileEntryWith("concerto.avi", 700<<20)}},
		&StatReq{Challenge: 0xDEADBEEF},
		&StatRes{Challenge: 0xDEADBEEF, Users: 10, Files: 20},
		GetServerList{},
		ServerDescReq{},
		&ServerDescRes{Name: "big&server", Desc: "ten <weeks>"},
	}
}

func fileEntryWith(name string, size uint32) FileEntry {
	return FileEntry{
		ID:     FileID{1, 2, 3, 4, 5},
		Client: 7,
		Port:   4662,
		Tags: []Tag{
			StringTag(FTFileName, name),
			UintTag(FTFileSize, size),
		},
	}
}

// FuzzDecode differentially tests the allocating and pooled decoders:
// they must agree on success, value, and error class for every input —
// and a pooled object recycled through Release must decode the same
// input identically (no state may leak between uses). Every accepted
// input is canonical: re-encoding the decoded message gives back raw,
// for every kind. And the fresh decoder's per-message slabs are cut so
// that growing one entry's Tags or one tag's Name leaves every other
// entry's and tag's encoding as it was.
func FuzzDecode(f *testing.F) {
	for _, m := range fuzzSeedMessages() {
		f.Add(Encode(m))
	}
	f.Add(Encode(searchResOf(3))) // entries that share slabs
	f.Add(Encode(&SearchReq{Expr: balancedExpr(15)}))
	f.Add([]byte{})
	f.Add([]byte{ProtoEDonkey})
	f.Add(Encode(&StatReq{Challenge: 1})[:3]) // truncated body
	f.Add([]byte{0x00, 0x96, 1, 2, 3, 4})     // bad marker
	f.Fuzz(func(t *testing.T, raw []byte) {
		m1, err1 := Decode(raw)
		m2, err2 := DecodePooled(raw)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("decoder split: Decode err=%v, DecodePooled err=%v", err1, err2)
		}
		if err1 != nil {
			if errors.Is(err1, ErrStructural) != errors.Is(err2, ErrStructural) {
				t.Fatalf("error class split: %v vs %v", err1, err2)
			}
			return
		}
		if !msgEqual(m1, m2) {
			t.Fatalf("decoded values differ:\nfresh  %#v\npooled %#v", m1, m2)
		}
		Release(m2)
		// Recycle: the pooled slot just returned must decode this input
		// to the same value again, proving Release left no stale state.
		m3, err3 := DecodePooled(raw)
		if err3 != nil {
			t.Fatalf("recycled decode failed: %v", err3)
		}
		if !msgEqual(m1, m3) {
			t.Fatalf("recycled decode differs:\nfresh    %#v\nrecycled %#v", m1, m3)
		}
		Release(m3)
		if enc := Encode(m1); !bytes.Equal(enc, raw) {
			t.Fatalf("%s is not canonical:\nraw       % x\nre-encode % x", OpcodeName(m1.Opcode()), raw, enc)
		}
		switch m := m1.(type) {
		case *OfferFiles:
			checkEntriesIndependent(t, m.Files)
		case *SearchRes:
			checkEntriesIndependent(t, m.Results)
		}
	})
}

// checkEntriesIndependent grows each entry's Tags, and each tag's Name,
// one at a time, and checks after every step that no other entry's
// encoding, and no other tag of the same entry, changed with it.
func checkEntriesIndependent(t *testing.T, entries []FileEntry) {
	t.Helper()
	enc := make([][]byte, len(entries))
	for i := range entries {
		enc[i] = appendFileEntry(nil, &entries[i])
	}
	others := func(step string, i int) {
		for j := range entries {
			if got := appendFileEntry(nil, &entries[j]); j != i && !bytes.Equal(got, enc[j]) {
				t.Fatalf("%s of entry %d changed entry %d", step, i, j)
			}
		}
		enc[i] = appendFileEntry(nil, &entries[i])
	}
	for i := range entries {
		e := &entries[i]
		for k := range e.Tags {
			before := appendTag(nil, e.Tags[(k+1)%len(e.Tags)])
			e.Tags[k].Name = append(e.Tags[k].Name, 0xEE)
			if len(e.Tags) > 1 && !bytes.Equal(appendTag(nil, e.Tags[(k+1)%len(e.Tags)]), before) {
				t.Fatalf("growing tag %d's name of entry %d changed its next tag", k, i)
			}
			others("growing a tag name", i)
		}
		e.Tags = append(e.Tags, UintTag(FTSources, 1))
		others("growing Tags", i)
	}
}

// chunkReader hands out the stream in fixed-size reads, exercising
// every frame segmentation the fuzzer picks.
type chunkReader struct {
	data  []byte
	chunk int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := min(c.chunk, min(len(p), len(c.data)))
	if n == 0 {
		n = 1
	}
	n = copy(p[:n], c.data[:n])
	c.data = c.data[n:]
	return n, nil
}

// FuzzStreamReader differentially tests the incremental TCP frame
// reader against the one-shot ParseTCPStream on the same bytes: the
// message sequence must be identical under any segmentation, and the
// two must agree on whether the stream ends cleanly, mid-frame, or in
// garbage. A StreamReader message is borrowed until the next call, so
// each is compared before the reader is asked for another.
func FuzzStreamReader(f *testing.F) {
	var stream []byte
	for _, m := range fuzzSeedMessages() {
		stream = append(stream, FrameTCP(m)...)
	}
	f.Add(stream, 1)
	f.Add(stream, 4096)
	f.Add(FrameTCPPacked(&SearchRes{Results: []FileEntry{fileEntryWith("x.iso", 1<<30)}}), 3)
	f.Add(append(FrameTCP(&LoginRequest{Port: 4662, Nick: "peer"}), FrameTCP(&IDChange{Client: 5})...), 7)
	f.Add(stream[:len(stream)-2], 5) // ends mid-frame
	// A pipelined burst as the daemon batches it: many frames appended
	// into one buffer, cut at a size that splits headers and bodies.
	var burst []byte
	for i := 0; i < 40; i++ {
		burst = AppendFrameTCP(burst, &StatReq{Challenge: uint32(i)})
		burst = AppendFrameTCP(burst, &GetSources{Hashes: []FileID{{byte(i)}}})
	}
	f.Add(burst, 97)
	f.Add([]byte{0x42, 0, 0, 0, 0, 0}, 2)
	f.Fuzz(func(t *testing.T, data []byte, chunk int) {
		if chunk < 1 {
			chunk = 1
		}
		if chunk > 1<<16 {
			chunk = 1 << 16
		}
		want, consumed, werr := ParseTCPStream(data)

		sr := NewStreamReader(&chunkReader{data: data, chunk: chunk})
		got := 0
		var gerr error
		for {
			m, err := sr.Next()
			if err != nil {
				gerr = err
				break
			}
			if got == len(want) {
				t.Fatalf("StreamReader produced more than ParseTCPStream's %d messages", len(want))
			}
			if !msgEqual(m, want[got]) {
				t.Fatalf("message %d differs:\nstream %#v\nparse  %#v", got, m, want[got])
			}
			got++
		}
		switch {
		case werr != nil:
			// Garbage frame: the incremental reader must also die on it
			// (possibly with io.ErrUnexpectedEOF if the bad frame's
			// length claim runs past the buffered bytes).
			if gerr == io.EOF && got == len(want) {
				t.Fatalf("ParseTCPStream failed (%v), StreamReader ended cleanly", werr)
			}
		case consumed == len(data):
			if gerr != io.EOF {
				t.Fatalf("clean stream: StreamReader err %v, want EOF", gerr)
			}
			if got != len(want) {
				t.Fatalf("clean stream: %d messages, want %d", got, len(want))
			}
		default:
			if gerr != io.ErrUnexpectedEOF {
				t.Fatalf("stream ends mid-frame: StreamReader err %v, want ErrUnexpectedEOF", gerr)
			}
			if got != len(want) {
				t.Fatalf("mid-frame stream: %d messages, want %d", got, len(want))
			}
		}
	})
}
