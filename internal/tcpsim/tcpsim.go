// Package tcpsim models the TCP side of the eDonkey server's traffic and
// the stream-reconstruction problem that made the paper analyse UDP only.
//
// Footnote 2 of the paper: "Even without packet losses, tcp conversation
// reconstruction is not an easy task, as the server receives about 5000
// syn packets per minute", and §2.2: losses "make tcp flows
// reconstruction very difficult, as packets are missing inside flows".
// This package provides exactly the pieces needed to quantify that
// argument (the conclusion lists TCP measurement as future work):
//
//   - a simplified TCP segment codec (seq/ack/flags/checksum) carried in
//     IPv4 packets like the UDP traffic;
//   - a flow generator producing eDonkey TCP sessions (SYN handshake,
//     login, framed messages, FIN);
//   - a FlowReassembler as a capture machine would implement it: flows
//     keyed by 4-tuple, segments buffered by sequence number, eDonkey
//     frames extracted from contiguous prefixes, with gap detection and
//     flow-abandon accounting under packet loss.
//
// The associated benchmark (BenchmarkTCPReconstruction) reproduces the
// paper's justification: a loss rate that is negligible for UDP datagram
// decoding destroys a much larger fraction of TCP *messages*, because a
// single missing segment stalls an entire flow.
package tcpsim

import (
	"encoding/binary"
	"fmt"

	"edtrace/internal/ed2k"
	"edtrace/internal/simtime"
)

// HeaderLen is the simplified TCP header length (no options).
const HeaderLen = 16

// Flag bits.
const (
	FlagSYN = 1 << 0
	FlagACK = 1 << 1
	FlagFIN = 1 << 2
)

// Segment is a decoded TCP segment.
type Segment struct {
	SrcPort uint16
	DstPort uint16
	Seq     uint32
	Ack     uint32
	Flags   uint8
	Payload []byte
}

// checksum is the RFC 1071 ones-complement sum used by IP and TCP.
func checksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}

// Encode serialises a segment with its checksum over a pseudo-header.
func Encode(src, dst uint32, s Segment) []byte {
	out := make([]byte, HeaderLen+len(s.Payload))
	binary.BigEndian.PutUint16(out[0:], s.SrcPort)
	binary.BigEndian.PutUint16(out[2:], s.DstPort)
	binary.BigEndian.PutUint32(out[4:], s.Seq)
	binary.BigEndian.PutUint32(out[8:], s.Ack)
	out[12] = s.Flags
	// out[13] reserved; out[14:16] checksum.
	copy(out[HeaderLen:], s.Payload)

	pseudo := make([]byte, 12+len(out))
	binary.BigEndian.PutUint32(pseudo[0:], src)
	binary.BigEndian.PutUint32(pseudo[4:], dst)
	pseudo[9] = 6 // protocol TCP
	binary.BigEndian.PutUint16(pseudo[10:], uint16(len(out)))
	copy(pseudo[12:], out)
	binary.BigEndian.PutUint16(out[14:], checksum(pseudo))
	return out
}

// Decode parses and verifies a segment.
func Decode(src, dst uint32, raw []byte) (Segment, error) {
	var s Segment
	if len(raw) < HeaderLen {
		return s, fmt.Errorf("tcpsim: %d-byte segment", len(raw))
	}
	pseudo := make([]byte, 12+len(raw))
	binary.BigEndian.PutUint32(pseudo[0:], src)
	binary.BigEndian.PutUint32(pseudo[4:], dst)
	pseudo[9] = 6
	binary.BigEndian.PutUint16(pseudo[10:], uint16(len(raw)))
	copy(pseudo[12:], raw)
	if checksum(pseudo) != 0 {
		return s, fmt.Errorf("tcpsim: bad checksum")
	}
	s.SrcPort = binary.BigEndian.Uint16(raw[0:])
	s.DstPort = binary.BigEndian.Uint16(raw[2:])
	s.Seq = binary.BigEndian.Uint32(raw[4:])
	s.Ack = binary.BigEndian.Uint32(raw[8:])
	s.Flags = raw[12]
	s.Payload = raw[HeaderLen:]
	return s, nil
}

// FlowKey identifies one direction of a TCP conversation.
type FlowKey struct {
	Src, Dst         uint32
	SrcPort, DstPort uint16
}

// flowState tracks one directional byte stream under reassembly.
type flowState struct {
	isn      uint32            // initial sequence number (from SYN)
	nextSeq  uint32            // next contiguous byte expected
	segments map[uint32][]byte // out-of-order segments by seq
	buf      []byte            // contiguous undecoded stream bytes
	started  simtime.Time
	lastSeen simtime.Time
	finSeen  bool
	dead     bool
}

// Stats counts reconstruction outcomes.
type Stats struct {
	SYNs           uint64 // flows opened
	Segments       uint64
	Messages       uint64 // eDonkey messages extracted
	CompletedFlows uint64 // flows that reached FIN with an empty buffer
	AbortedFlows   uint64 // flows dropped on gap timeout or decode error
	GapStalls      uint64 // times a flow waited on a missing segment
	DecodeErrors   uint64
}

// FlowReassembler reconstructs eDonkey TCP streams from captured
// segments, the way the paper's capture machine would have had to.
type FlowReassembler struct {
	// GapTimeout abandons a flow stalled on a missing segment.
	GapTimeout simtime.Time
	// OnMessage receives every extracted message with its flow key.
	OnMessage func(key FlowKey, m ed2k.Message)

	flows map[FlowKey]*flowState
	stats Stats
}

// NewFlowReassembler returns a reassembler with a 60-second gap timeout.
func NewFlowReassembler() *FlowReassembler {
	return &FlowReassembler{
		GapTimeout: 60 * simtime.Second,
		flows:      make(map[FlowKey]*flowState),
	}
}

// Stats returns a copy of the counters.
func (f *FlowReassembler) Stats() Stats { return f.stats }

// ActiveFlows reports flows currently tracked.
func (f *FlowReassembler) ActiveFlows() int { return len(f.flows) }

// Push offers one captured segment at virtual time now.
func (f *FlowReassembler) Push(now simtime.Time, src, dst uint32, s Segment) {
	key := FlowKey{src, dst, s.SrcPort, s.DstPort}
	st := f.flows[key]
	if s.Flags&FlagSYN != 0 {
		f.stats.SYNs++
		f.flows[key] = &flowState{
			isn:      s.Seq,
			nextSeq:  s.Seq + 1, // SYN consumes one sequence number
			segments: make(map[uint32][]byte),
			started:  now,
			lastSeen: now,
		}
		return
	}
	if st == nil || st.dead {
		return // never saw the SYN (e.g. lost): stream cannot be anchored
	}
	st.lastSeen = now
	f.stats.Segments++
	if len(s.Payload) > 0 {
		if _, dup := st.segments[s.Seq]; !dup && seqGE(s.Seq, st.nextSeq) {
			st.segments[s.Seq] = append([]byte(nil), s.Payload...)
		}
		f.drain(key, st)
	}
	if s.Flags&FlagFIN != 0 {
		st.finSeen = true
		f.finish(key, st)
	}
}

// seqGE compares sequence numbers with wraparound.
func seqGE(a, b uint32) bool { return int32(a-b) >= 0 }

// drain moves contiguous segments into the stream buffer and extracts
// complete eDonkey frames.
func (f *FlowReassembler) drain(key FlowKey, st *flowState) {
	for {
		seg, ok := st.segments[st.nextSeq]
		if !ok {
			if len(st.segments) > 0 {
				f.stats.GapStalls++
			}
			break
		}
		delete(st.segments, st.nextSeq)
		st.nextSeq += uint32(len(seg))
		st.buf = append(st.buf, seg...)
	}
	msgs, consumed, err := ed2k.ParseTCPStream(st.buf)
	for _, m := range msgs {
		f.stats.Messages++
		if f.OnMessage != nil {
			f.OnMessage(key, m)
		}
	}
	st.buf = st.buf[consumed:]
	if err != nil {
		f.stats.DecodeErrors++
		f.abort(key, st)
	}
}

func (f *FlowReassembler) finish(key FlowKey, st *flowState) {
	if len(st.buf) == 0 && len(st.segments) == 0 {
		f.stats.CompletedFlows++
	} else {
		f.stats.AbortedFlows++
	}
	delete(f.flows, key)
}

func (f *FlowReassembler) abort(key FlowKey, st *flowState) {
	st.dead = true
	f.stats.AbortedFlows++
	delete(f.flows, key)
}

// Expire abandons flows stalled longer than GapTimeout; run it
// periodically like the UDP fragment reaper.
func (f *FlowReassembler) Expire(now simtime.Time) {
	for key, st := range f.flows {
		if now-st.lastSeen > f.GapTimeout {
			if len(st.segments) > 0 || len(st.buf) > 0 {
				f.stats.AbortedFlows++
			} else {
				// Idle empty flow: treat a clean silent close as complete.
				f.stats.CompletedFlows++
			}
			delete(f.flows, key)
		}
	}
}
