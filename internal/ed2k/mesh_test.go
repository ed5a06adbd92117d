package ed2k

import (
	"errors"
	"reflect"
	"testing"
)

func TestMeshAnnounceRoundtrip(t *testing.T) {
	m := &MeshAnnounce{Peers: []MeshPeer{
		{IP: 0x7F000001, UDPPort: 4665, TCPPort: 4661, Users: 12, Files: 3400, Name: "mesh-0"},
		{IP: 0x0A000001, UDPPort: 5665, TCPPort: 5661, Users: 0, Files: 0, Name: ""},
	}}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestMeshForwardRoundtrip(t *testing.T) {
	q := &GetSources{Hashes: []FileID{{1, 2, 3}, {4, 5, 6}}}
	m := &MeshForward{ReqID: 0xDEADBEEF, Query: q}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", got, m)
	}

	s := &MeshForward{ReqID: 7, Query: &SearchReq{Expr: Keyword("beethoven")}}
	got, err = Decode(Encode(s))
	if err != nil {
		t.Fatalf("Decode search forward: %v", err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("search roundtrip mismatch:\n got %+v\nwant %+v", got, s)
	}
}

func TestMeshForwardResRoundtrip(t *testing.T) {
	m := &MeshForwardRes{ReqID: 42, Answers: []Message{
		&FoundSources{Hash: FileID{9}, Sources: []Endpoint{{ID: 123, Port: 4662}}},
		&SearchRes{Results: nil},
	}}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	gm := got.(*MeshForwardRes)
	if gm.ReqID != m.ReqID || len(gm.Answers) != 2 {
		t.Fatalf("got %+v", gm)
	}
	if !reflect.DeepEqual(gm.Answers[0], m.Answers[0]) {
		t.Fatalf("answer 0 mismatch: %+v", gm.Answers[0])
	}

	// The empty answer list is legal: it is the "peer responded, no
	// hits" signal that releases the asking side before its timeout.
	empty := &MeshForwardRes{ReqID: 1}
	got, err = Decode(Encode(empty))
	if err != nil {
		t.Fatalf("Decode empty: %v", err)
	}
	if gm := got.(*MeshForwardRes); gm.ReqID != 1 || len(gm.Answers) != 0 {
		t.Fatalf("empty roundtrip: %+v", gm)
	}
}

func TestMeshNestingRejected(t *testing.T) {
	// A mesh message nested inside a forward would allow multi-hop loops;
	// the decoder rejects it as semantic junk.
	inner := Encode(&MeshForward{ReqID: 1, Query: &GetSources{Hashes: []FileID{{1}}}})
	raw := []byte{ProtoEDonkey, OpMeshForward}
	raw = appendU32(raw, 99)
	raw = append(raw, inner...)
	if _, err := Decode(raw); !errors.Is(err, ErrSemantic) {
		t.Fatalf("nested mesh forward: got %v, want ErrSemantic", err)
	}

	// Answers are restricted too: a forwarded *query* inside a result
	// batch is rejected.
	raw = []byte{ProtoEDonkey, OpMeshForwardRes}
	raw = appendU32(raw, 99)
	raw = append(raw, 1)
	q := Encode(&GetSources{Hashes: []FileID{{1}}})
	raw = appendU16(raw, uint16(len(q)))
	raw = append(raw, q...)
	if _, err := Decode(raw); !errors.Is(err, ErrSemantic) {
		t.Fatalf("query in forward res: got %v, want ErrSemantic", err)
	}
}

func TestMeshStructuralLimits(t *testing.T) {
	short := [][]byte{
		{ProtoEDonkey, OpMeshAnnounce},
		{ProtoEDonkey, OpMeshAnnounce, 1, 2, 3},
		{ProtoEDonkey, OpMeshForward, 0, 0, 0, 0, 0xE3},
		{ProtoEDonkey, OpMeshForwardRes, 0, 0, 0, 0},
	}
	for _, raw := range short {
		if err := ValidateStructure(raw); !errors.Is(err, ErrStructural) {
			t.Fatalf("ValidateStructure(% x): got %v, want ErrStructural", raw, err)
		}
	}

	// Peer-count and answer-count claims beyond the limits are semantic.
	over := &MeshAnnounce{}
	for i := 0; i <= MaxMeshPeers; i++ {
		over.Peers = append(over.Peers, MeshPeer{Name: "x"})
	}
	if _, err := Decode(Encode(over)); !errors.Is(err, ErrSemantic) {
		t.Fatalf("oversized announce: got %v, want ErrSemantic", err)
	}
}

func TestMeshOpcodesAreKnown(t *testing.T) {
	for _, op := range []byte{OpMeshAnnounce, OpMeshForward, OpMeshForwardRes} {
		if !KnownOpcode(op) {
			t.Fatalf("KnownOpcode(%s) = false", OpcodeName(op))
		}
	}
}
