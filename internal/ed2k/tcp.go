package ed2k

import (
	"bytes"
	"compress/zlib"
	"encoding/binary"
	"io"
)

// TCP-side framing. The eDonkey TCP session carries a stream of frames:
//
//	[proto u8][length u32 LE][opcode u8][payload]
//
// where length covers opcode + payload. The paper captured this stream
// too but analysed UDP only, because packet losses break TCP stream
// reconstruction (its footnote 2). The proto byte is 0xE3 for plain
// frames and 0xD4 for frames whose payload is zlib-compressed
// ("packed"), an eMule extension many clients used.

// ProtoPacked marks a zlib-compressed frame.
const ProtoPacked = 0xD4

// TCP-only opcodes.
const (
	OpLoginRequest = 0x01 // client hash, ID, port, nick
	OpIDChange     = 0x40 // server-assigned clientID
)

// LoginRequest opens a TCP session: the client identifies itself.
type LoginRequest struct {
	Hash   FileID // the client's user hash (md4-sized)
	Client ClientID
	Port   uint16
	Nick   string
}

// Opcode implements Message.
func (*LoginRequest) Opcode() byte { return OpLoginRequest }

func (m *LoginRequest) appendPayload(b []byte) []byte {
	b = append(b, m.Hash[:]...)
	b = appendU32(b, uint32(m.Client))
	b = appendU16(b, m.Port)
	return appendStr(b, m.Nick)
}

// IDChange is the server's answer to a login: the assigned clientID.
type IDChange struct {
	Client ClientID
}

// Opcode implements Message.
func (*IDChange) Opcode() byte { return OpIDChange }

func (m *IDChange) appendPayload(b []byte) []byte {
	return appendU32(b, uint32(m.Client))
}

func decodeLoginRequest(r *buffer) (Message, error) {
	h, err := r.fileID()
	if err != nil {
		return nil, err
	}
	cid, err := r.u32()
	if err != nil {
		return nil, err
	}
	port, err := r.u16()
	if err != nil {
		return nil, err
	}
	nick, err := r.str()
	if err != nil {
		return nil, err
	}
	return &LoginRequest{Hash: h, Client: ClientID(cid), Port: port, Nick: nick}, nil
}

func decodeIDChange(r *buffer) (Message, error) {
	cid, err := r.u32()
	if err != nil {
		return nil, err
	}
	return &IDChange{Client: ClientID(cid)}, nil
}

// tcpOpcodeKnown extends the opcode set with TCP-only messages.
func tcpOpcodeKnown(op byte) bool {
	return KnownOpcode(op) || op == OpLoginRequest || op == OpIDChange
}

// AppendFrameTCP appends a message to dst as one TCP stream frame and
// returns the extended slice. The payload is encoded in place behind a
// reserved header whose length field is patched once the size is known,
// so a caller batching frames into one buffer allocates nothing.
func AppendFrameTCP(dst []byte, m Message) []byte {
	head := len(dst)
	dst = append(dst, ProtoEDonkey, 0, 0, 0, 0, m.Opcode())
	dst = m.appendPayload(dst)
	binary.LittleEndian.PutUint32(dst[head+1:], uint32(len(dst)-head-5))
	return dst
}

// FrameTCP serialises a message as one TCP stream frame.
func FrameTCP(m Message) []byte { return AppendFrameTCP(nil, m) }

// MaxTCPFrame bounds a frame length; longer claims are structural junk.
const MaxTCPFrame = 1 << 20

// ParseTCPStream extracts complete frames from the head of stream,
// returning the decoded messages, the number of bytes consumed, and an
// error on undecodable frames. Incomplete trailing frames simply stop the
// scan (consumed marks where to resume once more bytes arrive).
func ParseTCPStream(stream []byte) (msgs []Message, consumed int, err error) {
	off := 0
	for {
		if len(stream)-off < 6 {
			return msgs, off, nil
		}
		proto := stream[off]
		if proto != ProtoEDonkey && proto != ProtoPacked {
			return msgs, off, structuralf("bad TCP frame marker 0x%02X", proto)
		}
		length := binary.LittleEndian.Uint32(stream[off+1:])
		if length == 0 || length > MaxTCPFrame {
			return msgs, off, structuralf("TCP frame length %d", length)
		}
		if len(stream)-off-5 < int(length) {
			return msgs, off, nil // incomplete frame: wait for more bytes
		}
		op := stream[off+5]
		if !tcpOpcodeKnown(op) {
			return msgs, off, structuralf("unknown TCP opcode 0x%02X", op)
		}
		payload := stream[off+6 : off+5+int(length)]
		if proto == ProtoPacked {
			zr, zerr := zlib.NewReader(bytes.NewReader(payload))
			if zerr != nil {
				return msgs, off, semanticf("packed frame: %v", zerr)
			}
			inflated, zerr := io.ReadAll(io.LimitReader(zr, MaxTCPFrame))
			zr.Close()
			if zerr != nil {
				return msgs, off, semanticf("packed frame inflate: %v", zerr)
			}
			payload = inflated
		}
		m, derr := decodeTCPBody(op, payload, false)
		if derr != nil {
			return msgs, off, derr
		}
		msgs = append(msgs, m)
		off += 5 + int(length)
	}
}

// StreamReader incrementally parses ed2k TCP frames from an io.Reader —
// the read side of one server⇄client session. It tolerates arbitrary
// segmentation (a frame may arrive one byte at a time, or many frames in
// one read) and bounds buffering at MaxTCPFrame, so a peer claiming a
// gigantic frame cannot balloon server memory. Errors are sticky: a
// stream that produced garbage once is dead, exactly how a real server
// treats a desynchronised TCP session.
//
// Frames are decoded in place: the decoder reads payload bytes directly
// out of the reader's buffer (and packed frames out of a reusable
// inflate buffer), never re-copying the body. The message Next returns
// is borrowed: it comes from DecodePooled's per-type pools, and the next
// call on the same reader hands it back to them (Release), so it and
// every slice inside it are valid until then and no longer. A caller
// that keeps anything of a message past its next Next copies it, as
// server.handleOffer copies the tags it indexes. In steady state a
// frame of a numeric kind costs no allocation and one of the pooled
// string-carrying kinds one, the string its values share; the kinds
// DecodePooled does not pool cost what a fresh Decode's do.
type StreamReader struct {
	r     io.Reader
	buf   []byte
	start int // parse resumes here
	end   int // valid bytes end here
	err   error
	last  Message // lent by the previous Next; released by this one

	// Packed-frame machinery, built lazily on the first 0xD4 frame and
	// reused for the rest of the session.
	zsrc bytes.Reader
	zr   io.ReadCloser
	zbuf []byte
}

// Read buffers start at readBufSize bytes. One grown past shrinkAbove
// for a large frame goes back to readBufSize once drained, so a session
// is not left holding the largest frame it ever read; ordinary traffic
// stays below the threshold and never re-allocates.
const (
	readBufSize = 4 << 10
	shrinkAbove = 64 << 10
)

// NewStreamReader returns a frame reader over r.
func NewStreamReader(r io.Reader) *StreamReader {
	return &StreamReader{r: r, buf: make([]byte, readBufSize)}
}

// Next returns the next complete message from the stream, valid until
// the following call (see StreamReader). It returns io.EOF on a clean
// end-of-stream (between frames) and io.ErrUnexpectedEOF when the
// stream ends mid-frame.
func (sr *StreamReader) Next() (Message, error) {
	Release(sr.last)
	sr.last = nil
	for {
		if sr.err != nil {
			return nil, sr.err
		}
		if m, ok, perr := sr.parseFrame(); perr != nil {
			sr.err = perr
			return nil, sr.err
		} else if ok {
			sr.last = m
			return m, nil
		}
		// No complete frame buffered: make room, then read more. A
		// buffer grown for a large frame that has since drained to less
		// than a small buffer's worth goes back to the small size
		// (messages never alias either buffer).
		if len(sr.zbuf) > shrinkAbove {
			sr.zbuf = nil
		}
		if len(sr.buf) > shrinkAbove && sr.end-sr.start < readBufSize {
			small := make([]byte, readBufSize)
			sr.end = copy(small, sr.buf[sr.start:sr.end])
			sr.start, sr.buf = 0, small
		} else if sr.start > 0 && (sr.end == len(sr.buf) || sr.start == sr.end) {
			sr.end = copy(sr.buf, sr.buf[sr.start:sr.end])
			sr.start = 0
		}
		if sr.end == len(sr.buf) {
			if len(sr.buf) >= MaxTCPFrame+6 {
				// parseFrame rejects length claims above MaxTCPFrame
				// before this can trigger; defence in depth.
				sr.err = structuralf("TCP frame exceeds %d bytes", MaxTCPFrame)
				return nil, sr.err
			}
			grown := make([]byte, min(2*len(sr.buf), MaxTCPFrame+6))
			sr.end = copy(grown, sr.buf[:sr.end])
			sr.buf = grown
		}
		n, rerr := sr.r.Read(sr.buf[sr.end:])
		sr.end += n
		if n > 0 {
			continue // parse what arrived before surfacing any read error
		}
		if rerr == nil {
			continue
		}
		if rerr == io.EOF && sr.start != sr.end {
			rerr = io.ErrUnexpectedEOF // stream died mid-frame
		}
		sr.err = rerr
		return nil, sr.err
	}
}

// parseFrame attempts to decode one complete frame at the head of the
// buffer. ok is false when more bytes are needed.
func (sr *StreamReader) parseFrame() (m Message, ok bool, err error) {
	b := sr.buf[sr.start:sr.end]
	if len(b) < 6 {
		return nil, false, nil
	}
	proto := b[0]
	if proto != ProtoEDonkey && proto != ProtoPacked {
		return nil, false, structuralf("bad TCP frame marker 0x%02X", proto)
	}
	length := binary.LittleEndian.Uint32(b[1:])
	if length == 0 || length > MaxTCPFrame {
		return nil, false, structuralf("TCP frame length %d", length)
	}
	if len(b)-5 < int(length) {
		return nil, false, nil // incomplete frame: wait for more bytes
	}
	op := b[5]
	if !tcpOpcodeKnown(op) {
		return nil, false, structuralf("unknown TCP opcode 0x%02X", op)
	}
	payload := b[6 : 5+int(length)]
	if proto == ProtoPacked {
		payload, err = sr.inflate(payload)
		if err != nil {
			return nil, false, err
		}
	}
	m, err = decodeTCPBody(op, payload, true)
	if err != nil {
		return nil, false, err
	}
	sr.start += 5 + int(length)
	return m, true, nil
}

// inflate decompresses one packed frame body into the reader's reusable
// inflate buffer, resetting the session's single zlib reader in place.
func (sr *StreamReader) inflate(payload []byte) ([]byte, error) {
	sr.zsrc.Reset(payload)
	if sr.zr == nil {
		zr, err := zlib.NewReader(&sr.zsrc)
		if err != nil {
			return nil, semanticf("packed frame: %v", err)
		}
		sr.zr = zr
	} else if err := sr.zr.(zlib.Resetter).Reset(&sr.zsrc, nil); err != nil {
		return nil, semanticf("packed frame: %v", err)
	}
	if sr.zbuf == nil {
		sr.zbuf = make([]byte, readBufSize)
	}
	total := 0
	for {
		if total == len(sr.zbuf) {
			if total > MaxTCPFrame {
				return nil, semanticf("packed frame inflates past %d bytes", MaxTCPFrame)
			}
			// One byte of headroom past the limit lets an exactly-
			// MaxTCPFrame body still observe its EOF.
			grown := make([]byte, min(2*len(sr.zbuf), MaxTCPFrame+1))
			copy(grown, sr.zbuf[:total])
			sr.zbuf = grown
		}
		n, err := sr.zr.Read(sr.zbuf[total:])
		total += n
		if err == io.EOF {
			return sr.zbuf[:total], nil
		}
		if err != nil {
			return nil, semanticf("packed frame inflate: %v", err)
		}
	}
}

// decodeTCPBody decodes one frame body (already inflated). The payload
// is read in place — never copied — and the returned message does not
// alias it. pooled selects, as for decodeBody, whether high-volume kinds
// come from the per-type pools.
func decodeTCPBody(op byte, payload []byte, pooled bool) (Message, error) {
	switch op {
	case OpLoginRequest:
		r := &buffer{b: payload}
		m, err := decodeLoginRequest(r)
		if err != nil {
			return nil, err
		}
		if r.remaining() != 0 {
			return nil, semanticf("%d trailing bytes after LoginRequest", r.remaining())
		}
		return m, nil
	case OpIDChange:
		r := &buffer{b: payload}
		m, err := decodeIDChange(r)
		if err != nil {
			return nil, err
		}
		if r.remaining() != 0 {
			return nil, semanticf("%d trailing bytes after IDChange", r.remaining())
		}
		return m, nil
	default:
		// Shared opcodes reuse the UDP decoder directly on the body.
		if err := validateBody(op, len(payload)); err != nil {
			return nil, err
		}
		return decodeBody(op, payload, pooled)
	}
}
