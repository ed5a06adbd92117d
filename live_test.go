package edtrace

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"edtrace/internal/ed2k"
	"edtrace/internal/netsim"
	"edtrace/internal/obs"
	"edtrace/internal/pcap"
	"edtrace/internal/simtime"
)

// udpChecksumAt is the offset of the UDP checksum in a frame built by
// netsim.AppendUDPFrame.
const udpChecksumAt = netsim.EthernetHeaderLen + netsim.IPv4HeaderLen + 6

// liveFrame is the frame Mirror must build for payload: AppendUDPFrame's,
// with the UDP checksum 0.
func liveFrame(src, dst uint32, payload []byte) []byte {
	f := netsim.AppendUDPFrame(nil, src, dst, liveClientPort, liveServerPort, payload)
	f[udpChecksumAt], f[udpChecksumAt+1] = 0, 0
	return f
}

// TestLiveSourceDropsOversizeMessages: a valid message larger than any
// UDP datagram can carry (an OfferFiles of 256 files with 254-byte
// names, 78,092 bytes) is a drop of its own reason — in the report,
// Figure 2 and the metrics — and no frame: the IPv4 and UDP lengths of
// one would wrap, and the pipeline would count it captured and
// malformed. A payload of exactly the largest size is captured whole.
func TestLiveSourceDropsOversizeMessages(t *testing.T) {
	const serverIP, clientIP = uint32(0x0A000001), uint32(0x01020304)
	offer := &ed2k.OfferFiles{Client: ed2k.ClientID(clientIP), Port: 4662}
	for i := range ed2k.MaxFilesPerMsg {
		var id ed2k.FileID
		id[0], id[1] = byte(i), byte(i>>8)
		offer.Files = append(offer.Files, ed2k.FileEntry{
			ID: id, Client: ed2k.ClientID(clientIP), Port: 4662,
			Tags: []ed2k.Tag{
				ed2k.StringTag(ed2k.FTFileName, strings.Repeat(string(rune('a'+i%26)), 254)),
				ed2k.UintTag(ed2k.FTFileSize, 700<<20),
				ed2k.StringTag(ed2k.FTFileType, "Video"),
			},
		})
	}
	payload := ed2k.Encode(offer)
	if len(payload) != 78092 {
		t.Fatalf("the offer encodes to %d bytes, want 78,092", len(payload))
	}
	if _, err := ed2k.Decode(payload); err != nil {
		t.Fatalf("ed2k.Decode refuses the offer: %v", err)
	}
	if msgs, _, err := ed2k.ParseTCPStream(ed2k.FrameTCP(offer)); err != nil || len(msgs) != 1 {
		t.Fatalf("ParseTCPStream: %d messages, %v", len(msgs), err)
	}

	src := NewLiveSource(0)
	reg := obs.NewRegistry()
	src.Mirror(clientIP, serverIP, ed2k.Encode(&ed2k.StatReq{Challenge: 1}))
	src.Mirror(clientIP, serverIP, payload)
	src.Mirror(clientIP, serverIP, make([]byte, netsim.MaxUDPPayload))
	src.Mirror(clientIP, serverIP, make([]byte, netsim.MaxUDPPayload+1))
	src.Close()
	res, err := NewSession(src, WithServerIP(serverIP), WithMetrics(reg)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.EthernetCaptured != 2 || rep.EthernetDropped != 2 || res.Fig2.TotalLost != 2 {
		t.Fatalf("captured %d, dropped %d, Fig 2 lost %d; want 2, 2, 2",
			rep.EthernetCaptured, rep.EthernetDropped, res.Fig2.TotalLost)
	}
	if rep.Pipeline.UDPMalformed != 0 {
		t.Fatalf("%d datagrams malformed, want 0", rep.Pipeline.UDPMalformed)
	}
	checkConservation(t, reg, 4)
	if got := droppedBy(reg, "oversize"); got != 2 {
		t.Fatalf("%d oversize drops, want 2", got)
	}
}

// TestLiveQueueReleasesLargeFrames: what the live queue holds follows
// what is queued. A burst of the largest frames (some sharing a block,
// some each in a buffer of its own), with the queue kept at most half
// full, is let go once a round of ordinary frames has passed through
// every batch: the heap comes back to within liveHeapBound of its level
// before the burst.
func TestLiveQueueReleasesLargeFrames(t *testing.T) {
	defer noLeak(t)()
	const serverIP, clientIP = uint32(0x0A000001), uint32(0x01020304)
	const capacity = 1024
	// One block a batch is under 1 MiB for this queue; the burst's
	// frames, were they kept, would be ~40 MB.
	const liveHeapBound = 4 << 20
	src := NewLiveSource(capacity)
	var processed atomic.Uint64
	done := make(chan error, 1)
	go func() {
		_, err := NewSession(src, WithServerIP(serverIP),
			WithProgress(func(p Progress) { processed.Store(p.Frames) }),
			WithProgressEvery(batchSize),
		).Run(context.Background())
		done <- err
	}()
	var mirrored uint64
	mirror := func(payload []byte) {
		for mirrored >= processed.Load()+capacity/2 {
			runtime.Gosched()
		}
		src.Mirror(clientIP, serverIP, payload)
		mirrored++
	}
	// heap waits for the consumer to take every full batch, then reads
	// the live heap.
	heap := func() uint64 {
		for processed.Load() < (mirrored-1)/batchSize*batchSize {
			runtime.Gosched()
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	small := ed2k.Encode(&ed2k.StatReq{Challenge: 1})
	round := func() {
		for range 20000 {
			mirror(small)
		}
	}

	round()
	before := heap()
	shared, own := make([]byte, 60<<10), make([]byte, netsim.MaxUDPPayload)
	for i := range 2048 {
		if i%2 == 0 {
			mirror(shared)
		} else {
			mirror(own)
		}
	}
	round()
	after := heap()
	src.Close()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if after > before+liveHeapBound {
		t.Fatalf("live heap %.1f MB before the burst, %.1f MB after it and a round of ordinary frames; bound +%d MB",
			float64(before)/1e6, float64(after)/1e6, liveHeapBound>>20)
	}
}

// TestLiveStampsWholeMicroseconds: Mirror stamps every frame it queues in
// whole microseconds, the pcap tee's resolution, so the tee replays each
// frame at the very time the live capture took it.
func TestLiveStampsWholeMicroseconds(t *testing.T) {
	src := NewLiveSource(0)
	q := src.q
	payload := ed2k.Encode(&ed2k.StatReq{Challenge: 1})
	var items []frameItem
	for range 3 * batchSize {
		src.Mirror(0x01020304, 0x0A000001, payload)
		select {
		case b := <-q.batches:
			items = append(items, b.items...)
		default:
		}
	}
	items = append(items, q.open.items...)
	if len(items) != 3*batchSize {
		t.Fatalf("%d frames queued, want %d", len(items), 3*batchSize)
	}
	for i, it := range items {
		if it.t%simtime.Microsecond != 0 {
			t.Fatalf("frame %d stamped %d ns, not a whole microsecond", i, int64(it.t))
		}
	}
}

// TestLiveTeeReplayParity: a live capture's dataset holds exactly the
// records the replay of its pcap tee through PcapSource stores. The tee
// carries the frames as Mirror built them, UDP checksum 0 included, and
// the replay takes every one of them as well formed.
func TestLiveTeeReplayParity(t *testing.T) {
	const serverIP = uint32(0x0A000001)
	dir := t.TempDir()
	liveDir, replayDir := filepath.Join(dir, "live"), filepath.Join(dir, "replay")
	tee := filepath.Join(dir, "tee.pcap")

	src := NewLiveSource(0)
	for i := range 600 {
		client := 0x01000000 + uint32(i%37)
		var id ed2k.FileID
		id[0], id[1] = byte(i), byte(i%7)
		var query, answer ed2k.Message
		switch i % 3 {
		case 0:
			query = &ed2k.StatReq{Challenge: uint32(i)}
			answer = &ed2k.StatRes{Challenge: uint32(i), Users: uint32(i), Files: 3}
		case 1:
			query = &ed2k.GetSources{Hashes: []ed2k.FileID{id}}
			answer = &ed2k.FoundSources{Hash: id, Sources: []ed2k.Endpoint{{ID: ed2k.ClientID(client), Port: 4662}}}
		default:
			query = &ed2k.OfferFiles{Client: ed2k.ClientID(client), Port: 4662, Files: []ed2k.FileEntry{{
				ID: id, Client: ed2k.ClientID(client), Port: 4662,
				Tags: []ed2k.Tag{ed2k.StringTag(ed2k.FTFileName, "a file"), ed2k.UintTag(ed2k.FTFileSize, uint32(i))},
			}}}
		}
		src.Mirror(client, serverIP, ed2k.Encode(query))
		if answer != nil {
			src.Mirror(serverIP, client, ed2k.Encode(answer))
		}
	}
	src.Close()
	liveRes, err := NewSession(src, WithServerIP(serverIP), WithDataset(liveDir, true), WithPcapTee(tee)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	replayRes, err := NewSession(NewPcapSource(tee), WithServerIP(serverIP), WithDataset(replayDir, true)).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if lp, rp := liveRes.Report.Pipeline, replayRes.Report.Pipeline; lp != rp || lp.Records == 0 || lp.UDPMalformed != 0 {
		t.Fatalf("pipelines differ or malformed:\nlive   %+v\nreplay %+v", lp, rp)
	}
	if l, r := datasetRecordsDigest(t, liveDir), datasetRecordsDigest(t, replayDir); l != r {
		t.Fatalf("records digest: live %s, tee replay %s", l, r)
	}

	f, err := os.Open(tee)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := pcap.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; ; n++ {
		rec, err := rd.Next()
		if err == io.EOF {
			if n != int(liveRes.Report.EthernetCaptured) {
				t.Fatalf("the tee holds %d frames, the capture %d", n, liveRes.Report.EthernetCaptured)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rec.Data[udpChecksumAt] != 0 || rec.Data[udpChecksumAt+1] != 0 {
			t.Fatalf("tee frame %d carries a UDP checksum", n)
		}
	}
}

// FuzzLiveQueue mirrors payloads of fuzzed lengths — empty, ordinary,
// about a block, past the largest datagram — into a live queue of
// fuzzed capacity, and drains it as the Session does: a batch at a
// time, holding consumed batches until they are recycled. Each op is
// three bytes: the first picks mirror (0, 1), take a batch (2) or
// recycle the oldest taken one (3), and for a mirror the length's range
// (bit 2: around a block's end and the datagram limit, bit 3: under 600
// bytes); the other two are the length. Every frame not dropped must
// come out once, in order, byte-equal to liveFrame's, and still be so
// when its batch is recycled: no later Mirror may write over a frame a
// batch holds. Drops are the oversize payloads and a full queue's.
func FuzzLiveQueue(f *testing.F) {
	f.Add(uint16(1024), []byte{8, 0, 100, 8, 1, 0, 2, 0, 0, 3, 0, 0})
	f.Add(uint16(4), []byte{4, 0, 0, 4, 0, 64, 4, 0, 127, 0, 255, 255, 2, 0, 0, 8, 0, 3})
	f.Fuzz(func(t *testing.T, capacity uint16, ops []byte) {
		if len(ops) > 3*1024 {
			return
		}
		const serverIP = uint32(0x0A000001)
		src := NewLiveSource(1 + int(capacity)%600)
		q := src.q
		type sent struct {
			src uint32
			n   int
		}
		var want []sent // the frames queued, in Mirror order
		next := 0       // want[next] is the next frame a batch yields
		type taken struct {
			b     *frameBatch
			first int // want index of b's first frame
		}
		var held []taken
		var oversize uint64
		payload := make([]byte, netsim.MaxUDPPayload+128)
		fill := func(k, n int) []byte {
			p := payload[:n]
			for j := range p {
				p[j] = byte(k + j*7)
			}
			return p
		}
		check := func(b *frameBatch, first int) {
			t.Helper()
			for i, it := range b.items {
				if i > 0 && it.t < b.items[i-1].t {
					t.Fatalf("frame %d stamped before the one queued ahead of it", first+i)
				}
				w := want[first+i]
				if !bytes.Equal(it.data, liveFrame(w.src, serverIP, fill(first+i, w.n))) {
					t.Fatalf("frame %d (%d-byte payload) differs from the frame mirrored", first+i, w.n)
				}
			}
		}
		take := func(b *frameBatch) int {
			t.Helper()
			first := next
			if next += len(b.items); next > len(want) {
				t.Fatalf("%d frames out of %d queued", next, len(want))
			}
			check(b, first)
			return first
		}
		for i := 0; i+2 < len(ops); i += 3 {
			op := ops[i]
			switch op % 4 {
			case 0, 1:
				n := int(ops[i+1])<<8 | int(ops[i+2])
				switch {
				case op&4 != 0:
					n = liveBlockSize - netsim.UDPFrameHeaderLen - 64 + n%128
				case op&8 != 0:
					n %= 600
				}
				k, srcIP := len(want), 0x01000000+uint32(i)
				full := q.ledger.Dropped(pcap.QueueFull)
				src.Mirror(srcIP, serverIP, fill(k, n))
				switch {
				case n > netsim.MaxUDPPayload:
					oversize++
				case q.ledger.Dropped(pcap.QueueFull) == full:
					want = append(want, sent{srcIP, n})
				}
			case 2:
				select {
				case b := <-q.batches:
					held = append(held, taken{b, take(b)})
				default:
				}
			case 3:
				if len(held) > 0 {
					check(held[0].b, held[0].first)
					q.recycle(held[0].b)
					held = held[1:]
				}
			}
		}
		for _, h := range held {
			check(h.b, h.first)
		}
		for len(q.batches) > 0 {
			take(<-q.batches)
		}
		take(q.open)
		if next != len(want) {
			t.Fatalf("%d of %d queued frames came out", next, len(want))
		}
		if got := q.ledger.Dropped(pcap.Oversize); got != oversize {
			t.Fatalf("%d oversize drops, want %d", got, oversize)
		}
	})
}
