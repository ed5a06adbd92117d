package netsim

import (
	"encoding/binary"

	"edtrace/internal/simtime"
)

// EthernetHeaderLen is the length of an ethernet II header; the capture
// records ethernet frames like libpcap does on a wired interface.
const EthernetHeaderLen = 14

// EtherTypeIPv4 is the ethertype carried in our frames.
const EtherTypeIPv4 = 0x0800

// EncodeEthernet wraps an IP packet in an ethernet II frame with synthetic
// locally-administered MAC addresses derived from the IP addresses.
func EncodeEthernet(src, dst uint32, ipPacket []byte) []byte {
	f := make([]byte, EthernetHeaderLen+len(ipPacket))
	macFor(f[0:6], dst)
	macFor(f[6:12], src)
	f[12] = EtherTypeIPv4 >> 8
	f[13] = EtherTypeIPv4 & 0xFF
	copy(f[EthernetHeaderLen:], ipPacket)
	return f
}

func macFor(dst []byte, ip uint32) {
	dst[0] = 0x02 // locally administered, unicast
	dst[1] = 0x00
	dst[2] = byte(ip >> 24)
	dst[3] = byte(ip >> 16)
	dst[4] = byte(ip >> 8)
	dst[5] = byte(ip)
}

// UDPFrameHeaderLen is what a frame built by AppendUDPFrame adds to its
// payload: the ethernet, IPv4 and UDP headers.
const UDPFrameHeaderLen = EthernetHeaderLen + IPv4HeaderLen + UDPHeaderLen

// MaxUDPPayload is the largest payload one UDP datagram over IPv4 can
// carry: the IPv4 total length is 16 bits and covers both headers.
const MaxUDPPayload = 0xFFFF - IPv4HeaderLen - UDPHeaderLen

// AppendUDPFrame appends a complete ethernet/IPv4/UDP frame carrying
// payload to buf and returns the extended slice. It is byte-for-byte
// identical to EncodeEthernet(EncodeIPv4(EncodeUDP(...))) but writes
// every layer into one buffer.
func AppendUDPFrame(buf []byte, src, dst uint32, srcPort, dstPort uint16, payload []byte) []byte {
	return appendUDPFrame(buf, 0, src, dst, srcPort, dstPort, payload, true)
}

// AppendUDPFrameNoChecksum is AppendUDPFrame with the UDP checksum left
// 0, which RFC 768 defines as "no checksum" (DecodeUDP skips it): for a
// frame built around a datagram the process already holds, where the
// sum would check nothing. The IPv4 header checksum is computed.
func AppendUDPFrameNoChecksum(buf []byte, src, dst uint32, srcPort, dstPort uint16, payload []byte) []byte {
	return appendUDPFrame(buf, 0, src, dst, srcPort, dstPort, payload, false)
}

// appendUDPFrame is AppendUDPFrame with IP identification id, and the
// UDP checksum computed only when sum is set.
func appendUDPFrame(buf []byte, id uint16, src, dst uint32, srcPort, dstPort uint16, payload []byte, sum bool) []byte {
	udpLen := UDPHeaderLen + len(payload)
	off := len(buf)
	buf = append(buf, make([]byte, EthernetHeaderLen+IPv4HeaderLen+udpLen)...)

	eth := buf[off:]
	macFor(eth[0:6], dst)
	macFor(eth[6:12], src)
	eth[12] = EtherTypeIPv4 >> 8
	eth[13] = EtherTypeIPv4 & 0xFF

	ip := eth[EthernetHeaderLen:]
	ip[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(ip[2:], uint16(IPv4HeaderLen+udpLen))
	binary.BigEndian.PutUint16(ip[4:], id)
	ip[8] = 64 // TTL
	ip[9] = ProtoUDP
	binary.BigEndian.PutUint32(ip[12:], src)
	binary.BigEndian.PutUint32(ip[16:], dst)
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip[:IPv4HeaderLen]))

	dg := ip[IPv4HeaderLen:]
	binary.BigEndian.PutUint16(dg[0:], srcPort)
	binary.BigEndian.PutUint16(dg[2:], dstPort)
	binary.BigEndian.PutUint16(dg[4:], uint16(udpLen))
	copy(dg[UDPHeaderLen:], payload)
	if sum {
		binary.BigEndian.PutUint16(dg[6:], udpChecksum(src, dst, dg))
	}
	return buf
}

// DecodeEthernet strips the frame header, returning the IP packet.
func DecodeEthernet(frame []byte) ([]byte, error) {
	if len(frame) < EthernetHeaderLen {
		return nil, ErrMalformed
	}
	if int(frame[12])<<8|int(frame[13]) != EtherTypeIPv4 {
		return nil, ErrMalformed
	}
	return frame[EthernetHeaderLen:], nil
}

// Tap receives a copy of every frame crossing a link — the software
// equivalent of the port mirror feeding the paper's capture machine.
type Tap interface {
	Frame(now simtime.Time, frame []byte)
}

// Link models the server's access link: frames arrive after a serialization
// delay determined by bandwidth plus fixed propagation latency, in FIFO
// order. A tap, when attached, sees every frame at its arrival instant.
//
// A frame's arrival is the end of its serialization, which starts when
// the frame before it has left (busyTill only grows), plus the latency.
// With the bandwidth and the latency fixed, no frame arrives before one
// sent earlier, so the frames in flight are a FIFO: each Send schedules
// the one pre-bound deliverNext at its frame's arrival, and deliverNext
// takes the oldest frame. The event keeps the (instant, sequence) it
// had when each frame carried its own callback, so ties with other
// events break as they always did.
type Link struct {
	sched *simtime.Scheduler
	// bitsPerSec (zero: infinite) and latency are set by NewLink only:
	// changing either while frames are in flight could reorder arrivals,
	// and deliverNext relies on their order.
	bitsPerSec float64
	latency    simtime.Time
	// Deliver is invoked for every frame reaching the far end.
	Deliver func(now simtime.Time, frame []byte)

	tap      Tap
	busyTill simtime.Time

	inFlight    [][]byte // inFlight[head:] are the frames sent, not arrived
	head        int
	deliverNext func()

	// Carried counts frames transported; Bytes counts frame bytes.
	Carried uint64
	Bytes   uint64
}

// NewLink returns a link scheduling deliveries on sched.
func NewLink(sched *simtime.Scheduler, bitsPerSec float64, latency simtime.Time) *Link {
	l := &Link{sched: sched, bitsPerSec: bitsPerSec, latency: latency}
	l.deliverNext = l.deliver
	return l
}

// AttachTap mirrors all subsequent frames to t.
func (l *Link) AttachTap(t Tap) { l.tap = t }

// Send queues one frame for transmission. The frame slice must not be
// mutated afterwards; the link does not copy it.
func (l *Link) Send(frame []byte) {
	start := max(l.sched.Now(), l.busyTill) // FIFO serialization
	var txTime simtime.Time
	if l.bitsPerSec > 0 {
		bits := float64(len(frame) * 8)
		txTime = simtime.Time(bits / l.bitsPerSec * float64(simtime.Second))
	}
	l.busyTill = start + txTime
	l.Carried++
	l.Bytes += uint64(len(frame))
	l.inFlight = append(l.inFlight, frame)
	l.sched.At(l.busyTill+l.latency, l.deliverNext)
}

// deliver hands the oldest frame in flight to the tap and the far end.
// Its slot is cleared; the rest of the FIFO moves to the front once the
// delivered part is half of it.
func (l *Link) deliver() {
	frame := l.inFlight[l.head]
	l.inFlight[l.head] = nil
	l.head++
	if 2*l.head >= len(l.inFlight) {
		n := copy(l.inFlight, l.inFlight[l.head:])
		clear(l.inFlight[l.head:])
		l.inFlight, l.head = l.inFlight[:n], 0
	}
	now := l.sched.Now()
	if l.tap != nil {
		l.tap.Frame(now, frame)
	}
	if l.Deliver != nil {
		l.Deliver(now, frame)
	}
}

// SendUDP is a convenience building the full ethernet/IP/UDP stack around
// an application payload and fragmenting at mtu. ipID disambiguates
// fragments of different datagrams from the same host. A datagram that
// fits the MTU is built in one allocation, the frame itself.
func (l *Link) SendUDP(src, dst uint32, srcPort, dstPort uint16, ipID uint16, payload []byte, mtu int) {
	size := IPv4HeaderLen + UDPHeaderLen + len(payload)
	if size <= mtu {
		frame := make([]byte, 0, EthernetHeaderLen+size)
		l.Send(appendUDPFrame(frame, ipID, src, dst, srcPort, dstPort, payload, true))
		return
	}
	dg := EncodeUDP(src, dst, srcPort, dstPort, payload)
	h := IPv4Header{ID: ipID, Protocol: ProtoUDP, Src: src, Dst: dst}
	for _, pkt := range FragmentIPv4(h, dg, mtu) {
		l.Send(EncodeEthernet(src, dst, pkt))
	}
}
