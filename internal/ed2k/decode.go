package ed2k

import (
	"strings"
	"sync"
)

// This file implements the two-phase decoder described in §2.3 of the
// paper: "a structural validation of messages (based on their expected
// length, for example), then, if successful, an attempt at effective
// decoding."
//
// Two entry points share one decode core:
//
//   - Decode allocates a fresh message per call. Results are independent
//     of both the input bytes and any pool; use it when messages outlive
//     the call site (daemon handlers, tests, tools). A message costs a
//     fixed number of allocations whatever it carries: the counts on the
//     wire, or one counting walk over the payload, size one slab per
//     kind of storage — the struct, its entry or source or hash array,
//     one tag array, one tag-name array, one string holding every string
//     value, one node array for a search tree — and the decode fills
//     them. Every entry's Tags and every tag's Name is a sub-slice whose
//     capacity is clipped to its length, so appending to one never
//     writes into its neighbour; but one retained entry, tag or string
//     keeps its whole message's slab alive, so a caller that keeps a
//     piece of a message for long copies it (server.handleOffer does).
//   - DecodePooled draws the high-volume message kinds from per-type
//     sync.Pools and must be paired with Release. Decoded messages never
//     alias the input, so the raw payload (typically a borrowed frame
//     buffer) may be reused the moment DecodePooled returns. This is the
//     capture pipeline's entry point: steady state is zero allocations
//     per message, and one per message that carries string values (Go
//     strings cannot be recycled; all of a message's values are
//     substrings of one). Search expressions and the rare kinds are not
//     pooled and cost what Decode's do.

// ValidateStructure performs the cheap first phase on a raw UDP payload.
// It checks the protocol marker, that the opcode is known, and that the
// payload length is plausible for the opcode (minimum lengths, exact
// lengths for fixed-size messages, divisibility for arrays of fixed-size
// records). It never inspects variable-length interior structure; that is
// the decode phase's job.
func ValidateStructure(raw []byte) error {
	if len(raw) < 2 {
		return structuralf("datagram of %d bytes", len(raw))
	}
	if raw[0] != ProtoEDonkey {
		return structuralf("bad protocol marker 0x%02X", raw[0])
	}
	return validateBody(raw[1], len(raw)-2)
}

// validateBody is the opcode/length plausibility check on a bare message
// body of n bytes; the TCP framing layer reuses it without the two-byte
// datagram prefix.
func validateBody(op byte, n int) error {
	switch op {
	case OpGetServerList, OpServerDescReq:
		if n != 0 {
			return structuralf("%s with %d payload bytes", OpcodeName(op), n)
		}
	case OpServerList:
		if n < 1 || (n-1)%6 != 0 {
			return structuralf("ServerList payload %d not 1+6k", n)
		}
	case OpOfferFiles:
		// clientID + port + count = 10 bytes minimum.
		if n < 10 {
			return structuralf("OfferFiles payload %d < 10", n)
		}
	case OpOfferAck:
		if n != 4 {
			return structuralf("OfferAck payload %d != 4", n)
		}
	case OpGlobSearchReq:
		if n < 2 {
			return structuralf("SearchReq payload %d < 2", n)
		}
	case OpGlobSearchRes:
		if n < 4 {
			return structuralf("SearchRes payload %d < 4", n)
		}
	case OpGlobGetSources:
		if n < 16 || n%16 != 0 || n/16 > MaxHashesPer {
			return structuralf("GetSources payload %d not k*16 in range", n)
		}
	case OpGlobFoundSrcs:
		if n < 17 || (n-17)%6 != 0 {
			return structuralf("FoundSources payload %d not 17+6k", n)
		}
	case OpGlobStatReq:
		if n != 4 {
			return structuralf("StatReq payload %d != 4", n)
		}
	case OpGlobStatRes:
		if n != 12 {
			return structuralf("StatRes payload %d != 12", n)
		}
	case OpServerDescRes:
		if n < 4 {
			return structuralf("ServerDescRes payload %d < 4", n)
		}
	default:
		return structuralf("unknown opcode 0x%02X", op)
	}
	return nil
}

// Decode runs both phases and returns a freshly allocated message.
// Errors satisfy errors.Is with ErrStructural or ErrSemantic so callers
// can reproduce the paper's failure-class accounting.
func Decode(raw []byte) (Message, error) {
	if err := ValidateStructure(raw); err != nil {
		return nil, err
	}
	return decodeBody(raw[1], raw[2:], false)
}

// DecodePooled is Decode drawing high-volume message kinds from per-type
// pools: the caller must hand the message to Release once done with it,
// and must not retain it (or any slice inside it) afterwards. The input
// bytes are never aliased by the result, so raw may be recycled
// immediately.
func DecodePooled(raw []byte) (Message, error) {
	if err := ValidateStructure(raw); err != nil {
		return nil, err
	}
	return decodeBody(raw[1], raw[2:], true)
}

// msgPool is a typed sync.Pool of message structs. Decoders reset every
// field they fill, so a pooled struct needs no cleaning on get; slice
// capacity surviving in the struct is what makes reuse allocation-free.
type msgPool[T any] struct{ p sync.Pool }

func (mp *msgPool[T]) get(pooled bool) *T {
	if pooled {
		if v := mp.p.Get(); v != nil {
			return v.(*T)
		}
	}
	return new(T)
}

func (mp *msgPool[T]) put(v *T) { mp.p.Put(v) }

// Pools for the message kinds the capture hot path sees in volume.
// SearchReq (expression tree) and ServerDescRes (strings) allocate
// fresh: they are rare, and their strings could not be recycled anyway.
var (
	serverListPool   msgPool[ServerList]
	offerFilesPool   msgPool[OfferFiles]
	offerAckPool     msgPool[OfferAck]
	searchResPool    msgPool[SearchRes]
	getSourcesPool   msgPool[GetSources]
	foundSourcesPool msgPool[FoundSources]
	statReqPool      msgPool[StatReq]
	statResPool      msgPool[StatRes]
)

// Release returns a message obtained from DecodePooled to its pool.
// It accepts any message (kinds that are not pooled are simply dropped),
// and tolerates nil, so callers can release unconditionally.
func Release(m Message) {
	switch v := m.(type) {
	case *ServerList:
		serverListPool.put(v)
	case *OfferFiles:
		offerFilesPool.put(v)
	case *OfferAck:
		offerAckPool.put(v)
	case *SearchRes:
		searchResPool.put(v)
	case *GetSources:
		getSourcesPool.put(v)
	case *FoundSources:
		foundSourcesPool.put(v)
	case *StatReq:
		statReqPool.put(v)
	case *StatRes:
		statResPool.put(v)
	}
}

// decodeBody decodes one structurally validated message body. pooled
// selects whether high-volume kinds come from the per-type pools.
func decodeBody(op byte, payload []byte, pooled bool) (Message, error) {
	r := buffer{b: payload}
	var (
		m   Message
		err error
	)
	switch op {
	case OpGetServerList:
		m = GetServerList{}
	case OpServerList:
		v := serverListPool.get(pooled)
		err = decodeServerList(&r, v)
		m = v
	case OpOfferFiles:
		v := offerFilesPool.get(pooled)
		err = decodeOfferFiles(&r, v, pooled)
		m = v
	case OpOfferAck:
		v := offerAckPool.get(pooled)
		v.Accepted, err = r.u32()
		m = v
	case OpGlobSearchReq:
		m, err = decodeSearchReq(&r)
	case OpGlobSearchRes:
		v := searchResPool.get(pooled)
		err = decodeSearchRes(&r, v, pooled)
		m = v
	case OpGlobGetSources:
		v := getSourcesPool.get(pooled)
		err = decodeGetSources(&r, v)
		m = v
	case OpGlobFoundSrcs:
		v := foundSourcesPool.get(pooled)
		err = decodeFoundSources(&r, v)
		m = v
	case OpGlobStatReq:
		v := statReqPool.get(pooled)
		v.Challenge, err = r.u32()
		m = v
	case OpGlobStatRes:
		v := statResPool.get(pooled)
		err = decodeStatRes(&r, v)
		m = v
	case OpServerDescReq:
		m = ServerDescReq{}
	case OpServerDescRes:
		m, err = decodeServerDescRes(&r)
	}
	if err == nil && r.remaining() != 0 {
		err = semanticf("%d trailing bytes after %s", r.remaining(), OpcodeName(op))
	}
	if err != nil {
		if pooled && m != nil {
			Release(m)
		}
		return nil, err
	}
	return m, nil
}

func decodeServerList(r *buffer, m *ServerList) error {
	count, err := r.u8()
	if err != nil {
		return err
	}
	m.Servers = sized(m.Servers, int(count))
	for i := 0; i < int(count); i++ {
		ip, err := r.u32()
		if err != nil {
			return err
		}
		port, err := r.u16()
		if err != nil {
			return err
		}
		m.Servers = append(m.Servers, ServerAddr{IP: ip, Port: port})
	}
	return nil
}

func decodeOfferFiles(r *buffer, m *OfferFiles, pooled bool) error {
	cid, err := r.u32()
	if err != nil {
		return err
	}
	m.Client = ClientID(cid)
	m.Port, err = r.u16()
	if err != nil {
		return err
	}
	count, err := r.u32()
	if err != nil {
		return err
	}
	if count > MaxFilesPerMsg {
		return semanticf("OfferFiles claims %d files", count)
	}
	m.Files, err = decodeEntries(r, m.Files, count, pooled)
	return err
}

func decodeSearchRes(r *buffer, m *SearchRes, pooled bool) error {
	count, err := r.u32()
	if err != nil {
		return err
	}
	if count > MaxFilesPerMsg {
		return semanticf("SearchRes claims %d results", count)
	}
	m.Results, err = decodeEntries(r, m.Results, count, pooled)
	return err
}

func decodeGetSources(r *buffer, m *GetSources) error {
	m.Hashes = sized(m.Hashes, r.remaining()/16)
	for r.remaining() > 0 {
		h, err := r.fileID()
		if err != nil {
			return err
		}
		m.Hashes = append(m.Hashes, h)
	}
	return nil
}

func decodeFoundSources(r *buffer, m *FoundSources) error {
	h, err := r.fileID()
	if err != nil {
		return err
	}
	m.Hash = h
	count, err := r.u8()
	if err != nil {
		return err
	}
	// Structure guaranteed (n-17)%6 == 0 but not that the count field
	// agrees with the actual record count: that is a semantic check.
	if r.remaining() != int(count)*6 {
		return semanticf("FoundSources count %d disagrees with %d bytes",
			count, r.remaining())
	}
	m.Sources = sized(m.Sources, int(count))
	for i := 0; i < int(count); i++ {
		ip, err := r.u32()
		if err != nil {
			return err
		}
		port, err := r.u16()
		if err != nil {
			return err
		}
		m.Sources = append(m.Sources, Endpoint{ID: ClientID(ip), Port: port})
	}
	return nil
}

func decodeStatRes(r *buffer, m *StatRes) error {
	var err error
	if m.Challenge, err = r.u32(); err != nil {
		return err
	}
	if m.Users, err = r.u32(); err != nil {
		return err
	}
	m.Files, err = r.u32()
	return err
}

// decodeServerDescRes takes both strings from one allocation.
func decodeServerDescRes(r *buffer) (Message, error) {
	name, err := r.strBytes()
	if err != nil {
		return nil, err
	}
	desc, err := r.strBytes()
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	b.Grow(len(name) + len(desc))
	b.Write(name)
	b.Write(desc)
	both := b.String()
	return &ServerDescRes{Name: both[:len(name)], Desc: both[len(name):]}, nil
}
