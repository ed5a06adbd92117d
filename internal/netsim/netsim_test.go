package netsim

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"edtrace/internal/simtime"
)

func TestIPv4Roundtrip(t *testing.T) {
	payload := []byte("hello ip")
	h := IPv4Header{ID: 42, Protocol: ProtoUDP, Src: 0x0A000001, Dst: 0x0A000002, TTL: 17}
	pkt := EncodeIPv4(h, payload)
	got, body, err := DecodeIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != 42 || got.Protocol != ProtoUDP || got.Src != h.Src || got.Dst != h.Dst {
		t.Fatalf("header mismatch: %+v", got)
	}
	if got.TTL != 17 || !got.HeaderOK {
		t.Fatalf("TTL/checksum: %+v", got)
	}
	if !bytes.Equal(body, payload) {
		t.Fatalf("payload mismatch")
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	pkt := EncodeIPv4(IPv4Header{Protocol: ProtoUDP, Src: 1, Dst: 2}, []byte("x"))
	pkt[13] ^= 0xFF // flip a byte inside the source address
	if _, _, err := DecodeIPv4(pkt); !errors.Is(err, ErrMalformed) {
		t.Fatalf("corrupted header accepted: %v", err)
	}
}

func TestIPv4MalformedCases(t *testing.T) {
	short := []byte{0x45, 0}
	if _, _, err := DecodeIPv4(short); !errors.Is(err, ErrMalformed) {
		t.Fatal("short packet accepted")
	}
	pkt := EncodeIPv4(IPv4Header{Protocol: ProtoUDP}, []byte("abc"))
	pkt[0] = 0x65 // IPv6 version nibble
	if _, _, err := DecodeIPv4(pkt); !errors.Is(err, ErrMalformed) {
		t.Fatal("bad version accepted")
	}
	pkt = EncodeIPv4(IPv4Header{Protocol: ProtoUDP}, []byte("abc"))
	pkt[2], pkt[3] = 0xFF, 0xFF // total length beyond buffer
	if _, _, err := DecodeIPv4(pkt); !errors.Is(err, ErrMalformed) {
		t.Fatal("overlong total length accepted")
	}
}

func TestUDPRoundtripAndChecksum(t *testing.T) {
	src, dst := uint32(0xC0A80001), uint32(0xC0A80002)
	payload := []byte("edonkey message")
	dg := EncodeUDP(src, dst, 4661, 4665, payload)
	h, body, err := DecodeUDP(src, dst, dg)
	if err != nil {
		t.Fatal(err)
	}
	if h.SrcPort != 4661 || h.DstPort != 4665 {
		t.Fatalf("ports: %+v", h)
	}
	if !bytes.Equal(body, payload) {
		t.Fatal("payload mismatch")
	}
	// Corruption in the payload must break the checksum.
	dg[len(dg)-1] ^= 0x55
	if _, _, err := DecodeUDP(src, dst, dg); !errors.Is(err, ErrMalformed) {
		t.Fatal("corrupted UDP accepted")
	}
	// Wrong pseudo-header (different src) must break it too.
	dg[len(dg)-1] ^= 0x55
	if _, _, err := DecodeUDP(src+1, dst, dg); !errors.Is(err, ErrMalformed) {
		t.Fatal("wrong pseudo-header accepted")
	}
}

func TestUDPLengthMismatch(t *testing.T) {
	dg := EncodeUDP(1, 2, 3, 4, []byte("abc"))
	if _, _, err := DecodeUDP(1, 2, dg[:len(dg)-1]); !errors.Is(err, ErrMalformed) {
		t.Fatal("truncated UDP accepted")
	}
}

func TestQuickUDPRoundtrip(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, payload []byte) bool {
		if len(payload) > 2000 {
			payload = payload[:2000]
		}
		dg := EncodeUDP(src, dst, sp, dp, payload)
		h, body, err := DecodeUDP(src, dst, dg)
		return err == nil && h.SrcPort == sp && h.DstPort == dp && bytes.Equal(body, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFragmentationRoundtrip(t *testing.T) {
	payload := make([]byte, 4000)
	for i := range payload {
		payload[i] = byte(i)
	}
	h := IPv4Header{ID: 7, Protocol: ProtoUDP, Src: 1, Dst: 2}
	frags := FragmentIPv4(h, payload, 1500)
	if len(frags) < 3 {
		t.Fatalf("expected >=3 fragments, got %d", len(frags))
	}
	r := NewReassembler()
	var full []byte
	done := false
	for _, pkt := range frags {
		fh, body, err := DecodeIPv4(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if out, ok := r.Push(0, fh, body); ok {
			full, done = out, true
		}
	}
	if !done {
		t.Fatal("reassembly incomplete")
	}
	if !bytes.Equal(full, payload) {
		t.Fatal("reassembled payload differs")
	}
	if r.Fragments != uint64(len(frags)) || r.Reassembled != 1 {
		t.Fatalf("stats: %+v", r)
	}
}

func TestFragmentationOutOfOrderAndDuplicate(t *testing.T) {
	payload := make([]byte, 3000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	h := IPv4Header{ID: 9, Protocol: ProtoUDP, Src: 3, Dst: 4}
	frags := FragmentIPv4(h, payload, 1500)
	// Reverse order and duplicate the first-sent (now last) fragment.
	r := NewReassembler()
	var got []byte
	ok := false
	push := func(pkt []byte) {
		fh, body, err := DecodeIPv4(pkt)
		if err != nil {
			t.Fatal(err)
		}
		if out, done := r.Push(0, fh, body); done {
			got, ok = out, true
		}
	}
	for i := len(frags) - 1; i >= 0; i-- {
		push(frags[i])
	}
	if !ok || !bytes.Equal(got, payload) {
		t.Fatal("out-of-order reassembly failed")
	}
	// Duplicates after completion start a fresh partial state; it must
	// not produce a datagram.
	r2 := NewReassembler()
	push2 := func(pkt []byte) bool {
		fh, body, _ := DecodeIPv4(pkt)
		_, done := r2.Push(0, fh, body)
		return done
	}
	if push2(frags[0]) || push2(frags[0]) {
		t.Fatal("duplicate fragment completed a datagram")
	}
}

func TestReassemblerExpiry(t *testing.T) {
	payload := make([]byte, 3000)
	h := IPv4Header{ID: 11, Protocol: ProtoUDP, Src: 1, Dst: 2}
	frags := FragmentIPv4(h, payload, 1500)
	r := NewReassembler()
	fh, body, _ := DecodeIPv4(frags[0])
	r.Push(0, fh, body)
	if r.PendingCount() != 1 {
		t.Fatal("no pending reassembly")
	}
	r.Expire(10 * simtime.Second) // before timeout
	if r.PendingCount() != 1 {
		t.Fatal("expired too early")
	}
	r.Expire(61 * simtime.Second)
	if r.PendingCount() != 0 || r.Expired != 1 {
		t.Fatalf("expiry failed: pending=%d expired=%d", r.PendingCount(), r.Expired)
	}
}

func TestUnfragmentedPassThrough(t *testing.T) {
	r := NewReassembler()
	h := IPv4Header{Protocol: ProtoUDP}
	out, ok := r.Push(0, h, []byte("solo"))
	if !ok || string(out) != "solo" {
		t.Fatal("unfragmented packet mangled")
	}
	if r.Fragments != 0 {
		t.Fatal("unfragmented packet counted as fragment")
	}
}

func TestQuickFragmentRoundtrip(t *testing.T) {
	f := func(seed []byte, mtuRaw uint16) bool {
		payload := append([]byte(nil), seed...)
		for len(payload) < 100 {
			payload = append(payload, byte(len(payload)))
		}
		mtu := 100 + int(mtuRaw)%1400
		h := IPv4Header{ID: 1, Protocol: ProtoUDP, Src: 1, Dst: 2}
		frags := FragmentIPv4(h, payload, mtu)
		r := NewReassembler()
		for _, pkt := range frags {
			fh, body, err := DecodeIPv4(pkt)
			if err != nil {
				return false
			}
			if out, ok := r.Push(0, fh, body); ok {
				return bytes.Equal(out, payload)
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEthernetRoundtrip(t *testing.T) {
	ip := EncodeIPv4(IPv4Header{Protocol: ProtoUDP, Src: 1, Dst: 2}, []byte("x"))
	frame := EncodeEthernet(1, 2, ip)
	if len(frame) != EthernetHeaderLen+len(ip) {
		t.Fatal("bad frame length")
	}
	got, err := DecodeEthernet(frame)
	if err != nil || !bytes.Equal(got, ip) {
		t.Fatal("ethernet roundtrip failed")
	}
	if _, err := DecodeEthernet(frame[:10]); err == nil {
		t.Fatal("short frame accepted")
	}
	frame[12] = 0x86 // not IPv4
	if _, err := DecodeEthernet(frame); err == nil {
		t.Fatal("non-IPv4 ethertype accepted")
	}
}

type collectTap struct {
	times  []simtime.Time
	frames [][]byte
}

func (c *collectTap) Frame(now simtime.Time, f []byte) {
	c.times = append(c.times, now)
	c.frames = append(c.frames, f)
}

func TestLinkSerializationAndTap(t *testing.T) {
	sched := simtime.NewScheduler()
	// 8000 bits/s = 1000 bytes/s: a 1000-byte frame takes 1s to serialize.
	link := NewLink(sched, 8000, 10*simtime.Millisecond)
	tap := &collectTap{}
	link.AttachTap(tap)
	var delivered []simtime.Time
	link.Deliver = func(now simtime.Time, f []byte) { delivered = append(delivered, now) }

	frame := make([]byte, 1000)
	link.Send(frame)
	link.Send(frame) // queued behind the first
	sched.RunUntil(simtime.Minute)

	if len(delivered) != 2 || len(tap.times) != 2 {
		t.Fatalf("delivered %d, tapped %d", len(delivered), len(tap.times))
	}
	want0 := simtime.Second + 10*simtime.Millisecond
	want1 := 2*simtime.Second + 10*simtime.Millisecond
	if delivered[0] != want0 || delivered[1] != want1 {
		t.Fatalf("arrival times %v, want [%v %v]", delivered, want0, want1)
	}
	if link.Carried != 2 || link.Bytes != 2000 {
		t.Fatalf("stats: %d frames %d bytes", link.Carried, link.Bytes)
	}
}

func TestLinkSendUDPEndToEnd(t *testing.T) {
	sched := simtime.NewScheduler()
	link := NewLink(sched, 0, 0) // infinite bandwidth
	reasm := NewReassembler()
	var got []byte
	link.Deliver = func(now simtime.Time, frame []byte) {
		ip, err := DecodeEthernet(frame)
		if err != nil {
			t.Fatal(err)
		}
		h, body, err := DecodeIPv4(ip)
		if err != nil {
			t.Fatal(err)
		}
		full, ok := reasm.Push(now, h, body)
		if !ok {
			return
		}
		_, payload, err := DecodeUDP(h.Src, h.Dst, full)
		if err != nil {
			t.Fatal(err)
		}
		got = payload
	}
	payload := make([]byte, 5000) // will fragment at mtu 1500
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	link.SendUDP(0x01010101, 0x02020202, 4662, 4661, 99, payload, 1500)
	sched.RunUntil(simtime.Minute)
	if !bytes.Equal(got, payload) {
		t.Fatal("UDP payload did not survive the full stack")
	}
	if reasm.Fragments == 0 {
		t.Fatal("expected fragmentation")
	}
}
