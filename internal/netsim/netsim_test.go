package netsim

import (
	"bytes"
	"context"
	"encoding/binary"
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

// TestAppendUDPFrameNoChecksum: up to the largest payload a datagram
// carries, the frame is AppendUDPFrame's with the UDP checksum 0, and
// it decodes whole: the IPv4 header checksum holds, and DecodeUDP skips
// a zero UDP checksum.
func TestAppendUDPFrameNoChecksum(t *testing.T) {
	const src, dst = 0x0A000001, 0xC0A80001
	const sumAt = EthernetHeaderLen + IPv4HeaderLen + 6
	payload := make([]byte, MaxUDPPayload)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	for _, n := range []int{0, 1, 2, 1471, 1473, MaxUDPPayload} {
		want := AppendUDPFrame(nil, src, dst, 4672, 4665, payload[:n])
		want[sumAt], want[sumAt+1] = 0, 0
		got := AppendUDPFrameNoChecksum(nil, src, dst, 4672, 4665, payload[:n])
		if !bytes.Equal(got, want) || len(got) != UDPFrameHeaderLen+n {
			t.Fatalf("payload %d: not AppendUDPFrame's frame with a zero UDP checksum", n)
		}
		ip, err := DecodeEthernet(got)
		if err != nil {
			t.Fatal(err)
		}
		h, dg, err := DecodeIPv4(ip)
		if err != nil {
			t.Fatalf("payload %d: %v", n, err)
		}
		if _, body, err := DecodeUDP(h.Src, h.Dst, dg); err != nil || !bytes.Equal(body, payload[:n]) {
			t.Fatalf("payload %d: DecodeUDP: %v", n, err)
		}
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
	sched.RunUntil(context.Background(), simtime.Minute)

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

	// Frames of mixed sizes, sent in bursts that queue behind each other
	// and after gaps that leave the link idle, arrive in send order, each
	// at the end of its own serialization plus the latency.
	sched = simtime.NewScheduler()
	link = NewLink(sched, 8000, 10*simtime.Millisecond)
	type arrival struct {
		at    simtime.Time
		frame []byte
	}
	var got []arrival
	link.Deliver = func(now simtime.Time, f []byte) { got = append(got, arrival{now, f}) }
	var want []arrival
	var busyTill simtime.Time
	sizes := []int{1, 1500, 60, 999, 8, 400, 1514, 42}
	for i, size := range sizes {
		at := simtime.Time(i/3) * 3 * simtime.Second // three a burst
		f := bytes.Repeat([]byte{byte(i)}, size)
		sched.At(at, func() { link.Send(f) })
		busyTill = max(at, busyTill) + simtime.Time(size)*simtime.Millisecond
		want = append(want, arrival{busyTill + 10*simtime.Millisecond, f})
	}
	sched.RunUntil(context.Background(), simtime.Minute)
	if len(got) != len(want) {
		t.Fatalf("%d frames arrived, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].at != want[i].at || &got[i].frame[0] != &want[i].frame[0] {
			t.Fatalf("arrival %d: frame %d at %v, want frame %d at %v",
				i, got[i].frame[0], got[i].at, want[i].frame[0], want[i].at)
		}
	}
}

// TestSendUDPMatchesLayeredEncoding: for every payload length up to
// past the MTU, SendUDP puts on the wire exactly the frames of the
// layered path, EncodeEthernet over FragmentIPv4 over EncodeUDP.
func TestSendUDPMatchesLayeredEncoding(t *testing.T) {
	const mtu = 1500
	const src, dst, sport, dport, id = 0x0A000001, 0xC0A80001, 4672, 4665, 0xBEEF
	sched := simtime.NewScheduler()
	link := NewLink(sched, 0, 0)
	tap := &collectTap{}
	link.AttachTap(tap)
	payload := make([]byte, mtu+64)
	for i := range payload {
		payload[i] = byte(i*7 + 3)
	}
	for n := 0; n <= len(payload); n++ {
		tap.frames = tap.frames[:0]
		link.SendUDP(src, dst, sport, dport, id, payload[:n], mtu)
		sched.RunUntil(context.Background(), sched.Now())
		h := IPv4Header{ID: id, Protocol: ProtoUDP, Src: src, Dst: dst}
		want := FragmentIPv4(h, EncodeUDP(src, dst, sport, dport, payload[:n]), mtu)
		if len(tap.frames) != len(want) {
			t.Fatalf("payload %d: %d frames, want %d", n, len(tap.frames), len(want))
		}
		for i, pkt := range want {
			if !bytes.Equal(tap.frames[i], EncodeEthernet(src, dst, pkt)) {
				t.Fatalf("payload %d: frame %d differs from the layered encoding", n, i)
			}
		}
	}
}

// FuzzReassembler fragments a datagram at a fuzzed MTU and pushes the
// fragments in a fuzzed order, with duplicates: each byte of order
// picks the next fragment to push. Push must never panic, and must
// yield the original datagram exactly when the distinct fragments
// pushed since its last yield cover all of it, and nothing otherwise.
func FuzzReassembler(f *testing.F) {
	f.Add([]byte("a datagram that fits"), uint16(1500), []byte{0, 0})
	f.Add(bytes.Repeat([]byte("jumbo offer "), 300), uint16(1500), []byte{2, 1, 1, 0, 2})
	f.Add(bytes.Repeat([]byte{0xE3, 0x15}, 100), uint16(28), []byte{24, 3, 3, 7, 0, 1, 2})
	f.Fuzz(func(t *testing.T, dg []byte, mtu uint16, order []byte) {
		if len(dg) > 1<<14 || len(order) > 1<<10 {
			return
		}
		h := IPv4Header{ID: 77, Protocol: ProtoUDP, Src: 1, Dst: 2}
		pkts := FragmentIPv4(h, dg, max(int(mtu), IPv4HeaderLen+8))
		r := NewReassembler()
		seen := make([]bool, len(pkts))
		left := len(pkts)
		for _, b := range order {
			i := int(b) % len(pkts)
			fh, body, err := DecodeIPv4(pkts[i])
			if err != nil {
				t.Fatalf("fragment %d does not decode: %v", i, err)
			}
			out, ok := r.Push(0, fh, body)
			if !seen[i] {
				seen[i] = true
				left--
			}
			if complete := left == 0; ok != complete {
				t.Fatalf("push of fragment %d of %d: yield %v, want %v", i, len(pkts), ok, complete)
			}
			if ok {
				if !bytes.Equal(out, dg) {
					t.Fatalf("yielded %d bytes that are not the %d-byte datagram", len(out), len(dg))
				}
				clear(seen)
				left = len(pkts)
			}
		}
	})
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
	sched.RunUntil(context.Background(), simtime.Minute)
	if !bytes.Equal(got, payload) {
		t.Fatal("UDP payload did not survive the full stack")
	}
	if reasm.Fragments == 0 {
		t.Fatal("expected fragmentation")
	}
}

// checksumAddRef is checksumAdd as it was before it read 64-bit words: one
// 16-bit big-endian word a step.
func checksumAddRef(sum uint32, b []byte) uint32 {
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i:]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	return sum
}

// FuzzChecksumMatchesReference: for every starting sum and every input,
// odd lengths included, checksumAdd returns the reference's sum, and so
// checksumFold of it the reference's checksum.
//
//	go test -run '^$' -fuzz '^FuzzChecksumMatchesReference$' -fuzztime 15s ./internal/netsim/
func FuzzChecksumMatchesReference(f *testing.F) {
	f.Add(uint32(0), []byte{})
	f.Add(uint32(0), []byte{0x45, 0, 0, 0x1c, 0xab, 0xcd, 0, 0, 0x40, 0x11, 0, 0, 0xc0, 0xa8, 0, 1, 0xc0, 0xa8, 0, 2})
	f.Add(uint32(0xffff_ffff), []byte{0, 1})
	f.Add(uint32(0xffff_0000), bytes.Repeat([]byte{0xff}, 61))
	f.Fuzz(func(t *testing.T, sum uint32, b []byte) {
		got, want := checksumAdd(sum, b), checksumAddRef(sum, b)
		if got != want || checksumFold(got) != checksumFold(want) {
			t.Fatalf("checksumAdd(%#x, %d bytes) = %#x, want %#x", sum, len(b), got, want)
		}
	})
}

// TestChecksumLongInput: past the 256 KiB a 32-bit lane takes before it is
// added into the sum, checksumAdd still matches the reference, all bytes
// 0xff and every starting sum's wrap alike.
func TestChecksumLongInput(t *testing.T) {
	for _, n := range []int{8 << 15, 8<<15 + 1, 8<<15 + 8, 3<<18 + 7} {
		b := bytes.Repeat([]byte{0xff}, n)
		for _, sum := range []uint32{0, 1, 0xffff, 0xffff_ffff} {
			if got, want := checksumAdd(sum, b), checksumAddRef(sum, b); got != want {
				t.Fatalf("%d bytes from %#x: %#x, want %#x", n, sum, got, want)
			}
		}
	}
}
