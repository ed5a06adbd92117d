package ed2k

import (
	"encoding/binary"
	"strings"
)

// Server-to-server mesh extension. The paper measured one deployed
// server; the follow-up study (Allali, Latapy & Magnien, "Measurement of
// eDonkey Activity with Distributed Honeypots") observes the network
// through many cooperating servers. These three opcodes are the minimal
// peering dialect that turns N independent daemons into one measurement
// fabric: periodic announcements gossip the server list (address, name,
// user/file counts — the fields real server.met lists carried), and a
// single-hop forward/answer pair lets a server resolve GetSources and
// search misses against its peers. The opcodes live in the same 0xE3
// datagram space as the client protocol but are deliberately not part of
// the captured dialect: daemons consume them before the mirror tap, so
// datasets only ever contain client↔server traffic.
const (
	OpMeshAnnounce   = 0xA4 // gossip: sender + known peers
	OpMeshForward    = 0xA5 // peer query: forwarded GetSources/SearchReq
	OpMeshForwardRes = 0xA6 // peer answer: FoundSources/SearchRes batch
)

// Mesh wire limits.
const (
	// MaxMeshPeers bounds entries in one announcement (sender included).
	MaxMeshPeers = 32
	// MaxForwardAnswers bounds answers in one MeshForwardRes.
	MaxForwardAnswers = 16
)

// MeshPeer is one server in an announcement: where to reach it and the
// coarse index gauges a client-side server list displays.
type MeshPeer struct {
	IP      uint32
	UDPPort uint16
	TCPPort uint16
	Users   uint32
	Files   uint32
	Name    string
}

// meshPeerFixedSize is the encoded size of a MeshPeer minus the name
// bytes: ip + udp + tcp + users + files + name length prefix.
const meshPeerFixedSize = 4 + 2 + 2 + 4 + 4 + 2

// MeshAnnounce is the periodic peer gossip. Peers[0] is the sender
// itself; the rest are servers the sender knows, so a late joiner
// reaches the full mesh transitively.
type MeshAnnounce struct {
	Peers []MeshPeer
}

// Opcode implements Message.
func (*MeshAnnounce) Opcode() byte { return OpMeshAnnounce }

func (m *MeshAnnounce) appendPayload(b []byte) []byte {
	b = append(b, byte(len(m.Peers)))
	for i := range m.Peers {
		p := &m.Peers[i]
		b = appendU32(b, p.IP)
		b = appendU16(b, p.UDPPort)
		b = appendU16(b, p.TCPPort)
		b = appendU32(b, p.Users)
		b = appendU32(b, p.Files)
		b = appendStr(b, p.Name)
	}
	return b
}

// MeshForward carries one client query a peer could not fully answer
// locally. Query is restricted to GetSources and SearchReq; forwarded
// queries are answered from the receiver's local index only (never
// re-forwarded), which keeps the mesh loop-free by construction.
type MeshForward struct {
	ReqID uint32
	Query Message
}

// Opcode implements Message.
func (*MeshForward) Opcode() byte { return OpMeshForward }

func (m *MeshForward) appendPayload(b []byte) []byte {
	b = appendU32(b, m.ReqID)
	return AppendEncode(b, m.Query)
}

// MeshForwardRes answers a MeshForward: zero or more FoundSources /
// SearchRes messages from the peer's local index. An empty answer list
// is still sent — it is what lets the asking server stop waiting before
// its per-request timeout when every peer has responded.
type MeshForwardRes struct {
	ReqID   uint32
	Answers []Message
}

// Opcode implements Message.
func (*MeshForwardRes) Opcode() byte { return OpMeshForwardRes }

// appendPayload encodes each nested answer in place behind a reserved
// u16 length, patched once the answer's size is known (the way
// AppendFrameTCP patches a frame's).
func (m *MeshForwardRes) appendPayload(b []byte) []byte {
	b = appendU32(b, m.ReqID)
	b = append(b, byte(len(m.Answers)))
	for _, a := range m.Answers {
		head := len(b)
		b = AppendEncode(append(b, 0, 0), a)
		binary.LittleEndian.PutUint16(b[head:], uint16(len(b)-head-2))
	}
	return b
}

var (
	_ Message = (*MeshAnnounce)(nil)
	_ Message = (*MeshForward)(nil)
	_ Message = (*MeshForwardRes)(nil)
)

func decodeMeshAnnounce(r *buffer) (Message, error) {
	count, err := r.u8()
	if err != nil {
		return nil, err
	}
	if count == 0 || int(count) > MaxMeshPeers {
		return nil, semanticf("MeshAnnounce claims %d peers", count)
	}
	m := &MeshAnnounce{Peers: make([]MeshPeer, 0, count)}
	// Every peer's name is a substring of one string, copied from the
	// payload once the message has been read.
	var (
		offs  [MaxMeshPeers]uint32
		total int
	)
	for i := 0; i < int(count); i++ {
		var p MeshPeer
		if p.IP, err = r.u32(); err != nil {
			return nil, err
		}
		if p.UDPPort, err = r.u16(); err != nil {
			return nil, err
		}
		if p.TCPPort, err = r.u16(); err != nil {
			return nil, err
		}
		if p.Users, err = r.u32(); err != nil {
			return nil, err
		}
		if p.Files, err = r.u32(); err != nil {
			return nil, err
		}
		var n int
		if offs[i], n, err = r.strField(); err != nil {
			return nil, err
		}
		total += n
		m.Peers = append(m.Peers, p)
	}
	var names strings.Builder
	names.Grow(total)
	for i := range m.Peers {
		start := names.Len()
		names.Write(strAt(r.b, offs[i]))
		m.Peers[i].Name = names.String()[start:]
	}
	return m, nil
}

func decodeMeshForward(r *buffer) (Message, error) {
	id, err := r.u32()
	if err != nil {
		return nil, err
	}
	raw, err := r.bytes(r.remaining())
	if err != nil {
		return nil, err
	}
	q, err := decodeInner(raw, OpGlobGetSources, OpGlobSearchReq)
	if err != nil {
		return nil, err
	}
	return &MeshForward{ReqID: id, Query: q}, nil
}

func decodeMeshForwardRes(r *buffer) (Message, error) {
	id, err := r.u32()
	if err != nil {
		return nil, err
	}
	count, err := r.u8()
	if err != nil {
		return nil, err
	}
	if int(count) > MaxForwardAnswers {
		return nil, semanticf("MeshForwardRes claims %d answers", count)
	}
	m := &MeshForwardRes{ReqID: id, Answers: make([]Message, 0, count)}
	for i := 0; i < int(count); i++ {
		n, err := r.u16()
		if err != nil {
			return nil, err
		}
		raw, err := r.bytes(int(n))
		if err != nil {
			return nil, err
		}
		a, err := decodeInner(raw, OpGlobFoundSrcs, OpGlobSearchRes)
		if err != nil {
			return nil, err
		}
		m.Answers = append(m.Answers, a)
	}
	return m, nil
}

// decodeInner decodes one nested datagram, restricted to the allowed
// opcodes (no mesh-in-mesh nesting — the recursion is depth one). Any
// failure of the nested decode, structural included, is a semantic error
// of the outer message: its own structure already validated.
func decodeInner(raw []byte, allowed ...byte) (Message, error) {
	if len(raw) < 2 {
		return nil, semanticf("nested message of %d bytes", len(raw))
	}
	ok := false
	for _, op := range allowed {
		if raw[1] == op {
			ok = true
			break
		}
	}
	if !ok {
		return nil, semanticf("nested %s not allowed here", OpcodeName(raw[1]))
	}
	m, err := Decode(raw)
	if err != nil {
		return nil, semanticf("nested %s: %v", OpcodeName(raw[1]), err)
	}
	return m, nil
}
