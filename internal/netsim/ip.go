// Package netsim models the network path between eDonkey clients and the
// captured server: IPv4 and UDP encoding (with real header checksums),
// datagram fragmentation and reassembly, and simulated links with finite
// bandwidth feeding the capture tap.
//
// The paper captures raw ethernet traffic and reconstructs it "at IP
// level" (§2.3: 14 124 818 158 UDP packets, of which 2 981 fragments and
// 169 not well-formed). Reproducing those code paths requires real binary
// headers — not Go structs passed by pointer — so packets here are byte
// slices a capture tap can copy, truncate, lose, or corrupt exactly like
// libpcap sees them.
package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// IPv4HeaderLen is the length of the fixed IPv4 header (no options).
const IPv4HeaderLen = 20

// ProtoUDP is the IPv4 protocol number for UDP.
const ProtoUDP = 17

// Flag bits in the IPv4 fragmentation field.
const (
	flagDF = 0x4000 // don't fragment
	flagMF = 0x2000 // more fragments
)

// ErrMalformed is returned for packets that cannot be parsed as IPv4/UDP.
var ErrMalformed = errors.New("netsim: malformed packet")

// IPv4Header is the decoded fixed part of an IPv4 header.
type IPv4Header struct {
	TotalLen  uint16
	ID        uint16
	FragOff   uint16 // in 8-byte units
	MoreFrags bool
	DontFrag  bool
	TTL       uint8
	Protocol  uint8
	Src       uint32
	Dst       uint32
	HeaderOK  bool // checksum verified
}

// checksumAdd accumulates the 16-bit big-endian words of b into sum
// (RFC 791 ones-complement arithmetic, unfolded). It reads b a 64-bit word
// at a time into two 32-bit lanes, each taking two of the word's four
// 16-bit words, and adds the lanes into sum: the same total, wrapping at
// 2³² alike, as adding the 16-bit words one by one.
func checksumAdd(sum uint32, b []byte) uint32 {
	for len(b) >= 8 {
		// A lane takes at most 2·0xFFFF a word: 1<<15 words keep it below
		// 2³², clear of the other lane.
		chunk := b[:min(len(b)&^7, 8<<15)]
		b = b[len(chunk):]
		var lanes uint64
		for i := 0; i < len(chunk); i += 8 {
			x := binary.BigEndian.Uint64(chunk[i:])
			lanes += x&0x0000_FFFF_0000_FFFF + x>>16&0x0000_FFFF_0000_FFFF
		}
		sum += uint32(lanes>>32) + uint32(lanes)
	}
	for ; len(b) >= 2; b = b[2:] {
		sum += uint32(binary.BigEndian.Uint16(b))
	}
	if len(b) == 1 {
		sum += uint32(b[0]) << 8
	}
	return sum
}

// checksumFold folds the carries and complements, finishing a checksum.
func checksumFold(sum uint32) uint16 {
	for sum>>16 != 0 {
		sum = (sum & 0xFFFF) + (sum >> 16)
	}
	return ^uint16(sum)
}

// ipChecksum computes the RFC 791 ones-complement checksum over b.
func ipChecksum(b []byte) uint16 {
	return checksumFold(checksumAdd(0, b))
}

// pseudoHeaderSum accumulates the IPv4 pseudo-header (src, dst, protocol,
// UDP length) without materialising it — the allocation-free equivalent
// of summing the 12 bytes RFC 768 describes.
func pseudoHeaderSum(src, dst uint32, udpLen uint16) uint32 {
	return (src >> 16) + (src & 0xFFFF) +
		(dst >> 16) + (dst & 0xFFFF) +
		uint32(ProtoUDP) + uint32(udpLen)
}

// EncodeIPv4 builds an IPv4 packet around payload. The header checksum is
// computed; the caller chooses identification and fragment fields.
func EncodeIPv4(h IPv4Header, payload []byte) []byte {
	pkt := make([]byte, IPv4HeaderLen+len(payload))
	pkt[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(pkt[2:], uint16(IPv4HeaderLen+len(payload)))
	binary.BigEndian.PutUint16(pkt[4:], h.ID)
	frag := h.FragOff & 0x1FFF
	if h.MoreFrags {
		frag |= flagMF
	}
	if h.DontFrag {
		frag |= flagDF
	}
	binary.BigEndian.PutUint16(pkt[6:], frag)
	ttl := h.TTL
	if ttl == 0 {
		ttl = 64
	}
	pkt[8] = ttl
	pkt[9] = h.Protocol
	binary.BigEndian.PutUint32(pkt[12:], h.Src)
	binary.BigEndian.PutUint32(pkt[16:], h.Dst)
	binary.BigEndian.PutUint16(pkt[10:], ipChecksum(pkt[:IPv4HeaderLen]))
	copy(pkt[IPv4HeaderLen:], payload)
	return pkt
}

// DecodeIPv4 parses pkt, verifying version, lengths and the header
// checksum. It returns the header and the payload (aliasing pkt).
func DecodeIPv4(pkt []byte) (IPv4Header, []byte, error) {
	var h IPv4Header
	if len(pkt) < IPv4HeaderLen {
		return h, nil, fmt.Errorf("%w: %d-byte IP packet", ErrMalformed, len(pkt))
	}
	if pkt[0]>>4 != 4 {
		return h, nil, fmt.Errorf("%w: IP version %d", ErrMalformed, pkt[0]>>4)
	}
	ihl := int(pkt[0]&0x0F) * 4
	if ihl < IPv4HeaderLen || len(pkt) < ihl {
		return h, nil, fmt.Errorf("%w: IHL %d", ErrMalformed, ihl)
	}
	h.TotalLen = binary.BigEndian.Uint16(pkt[2:])
	if int(h.TotalLen) > len(pkt) || int(h.TotalLen) < ihl {
		return h, nil, fmt.Errorf("%w: total length %d of %d", ErrMalformed, h.TotalLen, len(pkt))
	}
	h.ID = binary.BigEndian.Uint16(pkt[4:])
	frag := binary.BigEndian.Uint16(pkt[6:])
	h.FragOff = frag & 0x1FFF
	h.MoreFrags = frag&flagMF != 0
	h.DontFrag = frag&flagDF != 0
	h.TTL = pkt[8]
	h.Protocol = pkt[9]
	h.Src = binary.BigEndian.Uint32(pkt[12:])
	h.Dst = binary.BigEndian.Uint32(pkt[16:])
	h.HeaderOK = ipChecksum(pkt[:ihl]) == 0
	if !h.HeaderOK {
		return h, nil, fmt.Errorf("%w: IP header checksum", ErrMalformed)
	}
	return h, pkt[ihl:h.TotalLen], nil
}

// UDPHeaderLen is the length of a UDP header.
const UDPHeaderLen = 8

// UDPHeader is a decoded UDP header.
type UDPHeader struct {
	SrcPort uint16
	DstPort uint16
	Length  uint16
}

// EncodeUDP builds a UDP datagram with the checksum computed over the
// IPv4 pseudo-header (src, dst, protocol, length).
func EncodeUDP(src, dst uint32, srcPort, dstPort uint16, payload []byte) []byte {
	dg := make([]byte, UDPHeaderLen+len(payload))
	binary.BigEndian.PutUint16(dg[0:], srcPort)
	binary.BigEndian.PutUint16(dg[2:], dstPort)
	binary.BigEndian.PutUint16(dg[4:], uint16(len(dg)))
	copy(dg[UDPHeaderLen:], payload)
	binary.BigEndian.PutUint16(dg[6:], udpChecksum(src, dst, dg))
	return dg
}

func udpChecksum(src, dst uint32, dg []byte) uint16 {
	sum := checksumFold(checksumAdd(pseudoHeaderSum(src, dst, uint16(len(dg))), dg))
	if sum == 0 {
		sum = 0xFFFF // per RFC 768, transmitted zero means "no checksum"
	}
	return sum
}

// DecodeUDP parses a UDP datagram carried by an IPv4 packet with the
// given addresses, verifying length and checksum.
func DecodeUDP(src, dst uint32, dg []byte) (UDPHeader, []byte, error) {
	var h UDPHeader
	if len(dg) < UDPHeaderLen {
		return h, nil, fmt.Errorf("%w: %d-byte UDP datagram", ErrMalformed, len(dg))
	}
	h.SrcPort = binary.BigEndian.Uint16(dg[0:])
	h.DstPort = binary.BigEndian.Uint16(dg[2:])
	h.Length = binary.BigEndian.Uint16(dg[4:])
	if int(h.Length) != len(dg) {
		return h, nil, fmt.Errorf("%w: UDP length %d of %d", ErrMalformed, h.Length, len(dg))
	}
	if binary.BigEndian.Uint16(dg[6:]) != 0 { // zero = checksum disabled
		// Verify: checksum over pseudo-header + datagram must be 0.
		// Accumulated without materialising the pseudo-header, so the
		// per-datagram decode path allocates nothing.
		if checksumFold(checksumAdd(pseudoHeaderSum(src, dst, uint16(len(dg))), dg)) != 0 {
			return h, nil, fmt.Errorf("%w: UDP checksum", ErrMalformed)
		}
	}
	return h, dg[UDPHeaderLen:], nil
}
