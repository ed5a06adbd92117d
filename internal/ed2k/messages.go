package ed2k

import "fmt"

// Message is one application-level eDonkey message (a client query or a
// server answer).
type Message interface {
	// Opcode returns the wire opcode identifying the message kind.
	Opcode() byte
	// appendPayload encodes the opcode-specific payload.
	appendPayload(b []byte) []byte
}

// Encode serialises a message to a complete UDP payload:
// [0xE3][opcode][payload].
func Encode(m Message) []byte {
	b := make([]byte, 0, 64)
	b = append(b, ProtoEDonkey, m.Opcode())
	return m.appendPayload(b)
}

// AppendEncode is like Encode but appends to dst, for allocation-free
// encoding in hot loops.
func AppendEncode(dst []byte, m Message) []byte {
	dst = append(dst, ProtoEDonkey, m.Opcode())
	return m.appendPayload(dst)
}

// GetServerList asks the server for other servers it knows.
type GetServerList struct{}

// Opcode implements Message.
func (GetServerList) Opcode() byte                  { return OpGetServerList }
func (GetServerList) appendPayload(b []byte) []byte { return b }

// ServerAddr is one (ip, port) pair in a ServerList answer.
type ServerAddr struct {
	IP   uint32
	Port uint16
}

// ServerList is the answer to GetServerList.
type ServerList struct {
	Servers []ServerAddr
}

// Opcode implements Message.
func (*ServerList) Opcode() byte { return OpServerList }

func (m *ServerList) appendPayload(b []byte) []byte {
	b = append(b, byte(len(m.Servers)))
	for _, s := range m.Servers {
		b = appendU32(b, s.IP)
		b = appendU16(b, s.Port)
	}
	return b
}

// OfferFiles announces the files a client provides. In real eDonkey this
// travels on the TCP session; see the package comment for why it is UDP
// here.
type OfferFiles struct {
	Client ClientID
	Port   uint16
	Files  []FileEntry
}

// Opcode implements Message.
func (*OfferFiles) Opcode() byte { return OpOfferFiles }

func (m *OfferFiles) appendPayload(b []byte) []byte {
	b = appendU32(b, uint32(m.Client))
	b = appendU16(b, m.Port)
	b = appendU32(b, uint32(len(m.Files)))
	for i := range m.Files {
		b = appendFileEntry(b, &m.Files[i])
	}
	return b
}

// OfferAck is the server's acknowledgement of an OfferFiles announcement.
type OfferAck struct {
	Accepted uint32
}

// Opcode implements Message.
func (*OfferAck) Opcode() byte { return OpOfferAck }

func (m *OfferAck) appendPayload(b []byte) []byte {
	return appendU32(b, m.Accepted)
}

// SearchReq is a metadata file search.
type SearchReq struct {
	Expr *SearchExpr
}

// Opcode implements Message.
func (*SearchReq) Opcode() byte { return OpGlobSearchReq }

func (m *SearchReq) appendPayload(b []byte) []byte {
	return appendExpr(b, m.Expr)
}

// SearchRes is the answer to SearchReq: matching files with metadata.
type SearchRes struct {
	Results []FileEntry
}

// Opcode implements Message.
func (*SearchRes) Opcode() byte { return OpGlobSearchRes }

func (m *SearchRes) appendPayload(b []byte) []byte {
	b = appendU32(b, uint32(len(m.Results)))
	for i := range m.Results {
		b = appendFileEntry(b, &m.Results[i])
	}
	return b
}

// MaxDatagram is the most payload one IPv4 UDP datagram carries: 65,535
// bytes less the 20-byte IPv4 and 8-byte UDP headers.
const MaxDatagram = 65535 - 20 - 8

// FitDatagram returns m when its UDP encoding takes at most room bytes or
// when it is no SearchRes; a longer SearchRes becomes a new one holding
// the longest prefix of its results that fits. A search answer is the
// only answer a server sends that can outgrow a datagram: each result
// carries its file's tags, as many bytes of them as a server keeps (one
// TCP frame's worth for a full answer), while the protocol's count limits
// keep every other answer far below 64 KiB.
func FitDatagram(m Message, room int) Message {
	res, ok := m.(*SearchRes)
	if !ok {
		return m
	}
	size := 2 + 4 // protocol byte, opcode, result count
	for i := range res.Results {
		if size += entryLen(&res.Results[i]); size > room {
			return &SearchRes{Results: res.Results[:i]}
		}
	}
	return m
}

// GetSources asks for providers of one or more fileIDs.
type GetSources struct {
	Hashes []FileID
}

// Opcode implements Message.
func (*GetSources) Opcode() byte { return OpGlobGetSources }

func (m *GetSources) appendPayload(b []byte) []byte {
	for _, h := range m.Hashes {
		b = append(b, h[:]...)
	}
	return b
}

// FoundSources is the answer to GetSources for a single fileID.
type FoundSources struct {
	Hash    FileID
	Sources []Endpoint
}

// Opcode implements Message.
func (*FoundSources) Opcode() byte { return OpGlobFoundSrcs }

func (m *FoundSources) appendPayload(b []byte) []byte {
	b = append(b, m.Hash[:]...)
	b = append(b, byte(len(m.Sources)))
	for _, s := range m.Sources {
		b = appendU32(b, uint32(s.ID))
		b = appendU16(b, s.Port)
	}
	return b
}

// StatReq pings the server for its status; the challenge is echoed back.
type StatReq struct {
	Challenge uint32
}

// Opcode implements Message.
func (*StatReq) Opcode() byte { return OpGlobStatReq }

func (m *StatReq) appendPayload(b []byte) []byte {
	return appendU32(b, m.Challenge)
}

// StatRes reports the server's user and file counters.
type StatRes struct {
	Challenge uint32
	Users     uint32
	Files     uint32
}

// Opcode implements Message.
func (*StatRes) Opcode() byte { return OpGlobStatRes }

func (m *StatRes) appendPayload(b []byte) []byte {
	b = appendU32(b, m.Challenge)
	b = appendU32(b, m.Users)
	return appendU32(b, m.Files)
}

// ServerDescReq asks for the server's name and description.
type ServerDescReq struct{}

// Opcode implements Message.
func (ServerDescReq) Opcode() byte                  { return OpServerDescReq }
func (ServerDescReq) appendPayload(b []byte) []byte { return b }

// ServerDescRes carries the server's name and description strings.
type ServerDescRes struct {
	Name string
	Desc string
}

// Opcode implements Message.
func (*ServerDescRes) Opcode() byte { return OpServerDescRes }

func (m *ServerDescRes) appendPayload(b []byte) []byte {
	b = appendStr(b, m.Name)
	return appendStr(b, m.Desc)
}

// Compile-time interface checks.
var (
	_ Message = GetServerList{}
	_ Message = (*ServerList)(nil)
	_ Message = (*OfferFiles)(nil)
	_ Message = (*OfferAck)(nil)
	_ Message = (*SearchReq)(nil)
	_ Message = (*SearchRes)(nil)
	_ Message = (*GetSources)(nil)
	_ Message = (*FoundSources)(nil)
	_ Message = (*StatReq)(nil)
	_ Message = (*StatRes)(nil)
	_ Message = ServerDescReq{}
	_ Message = (*ServerDescRes)(nil)
)

// String summaries for debugging.

func (m *OfferFiles) String() string {
	return fmt.Sprintf("OfferFiles{client=%d files=%d}", m.Client, len(m.Files))
}

func (m *GetSources) String() string {
	return fmt.Sprintf("GetSources{%d hashes}", len(m.Hashes))
}

func (m *SearchReq) String() string {
	return fmt.Sprintf("SearchReq{%s}", m.Expr)
}
