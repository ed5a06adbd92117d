package edtrace

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"edtrace/internal/core"
	"edtrace/internal/simtime"
)

// goldenSimFrames is the SHA-256 over every (t, len, frame) a small
// SimSource emits, computed at commit 95bb4c7 with the traffic model's
// default four flash crowds (the stream commit 4e071f7 pinned with one
// crowd was unchanged up to there). The determinism tests compare two
// runs of one binary; this compares the binary with its ancestors.
const goldenSimFrames = "d5704e16a9f6eb1fbd810b33131811c00d942d97fa091b231d14e7444aebffb2"

func TestGoldenSimSourceFrames(t *testing.T) {
	sim := core.DefaultSimConfig()
	sim.Workload.Seed = 7
	sim.Workload.NumClients = 300
	sim.Workload.NumFiles = 3000
	sim.Workload.VocabWords = 300
	sim.Traffic.Duration = simtime.Hour
	sim.FrameMangleRate = 1e-3 // mangling on: the wire-corruption draws are part of the stream

	h := sha256.New()
	var frames int
	var hdr [12]byte
	err := NewSimSource(sim).Frames(context.Background(), func(now simtime.Time, frame []byte) error {
		binary.LittleEndian.PutUint64(hdr[0:], uint64(now))
		binary.LittleEndian.PutUint32(hdr[8:], uint32(len(frame)))
		h.Write(hdr[:])
		h.Write(frame)
		frames++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if frames == 0 {
		t.Fatal("no frames emitted")
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSimFrames {
		t.Errorf("SimSource frame stream digest = %s over %d frames, want %s", got, frames, goldenSimFrames)
	}
}

// lossySim is tinySim with a capture machine too small for its peaks:
// a 4 KiB kernel buffer drained 2 frames per poll (40 frames/s), so
// flash crowds overflow it and Figure 2 has losses to show.
func lossySim() core.SimConfig {
	sim := tinySim()
	sim.KernelBufferBytes = 4 << 10
	sim.ServicePerPoll = 2
	return sim
}

// goldenLossy pins the capture account of lossySim: the report's totals,
// a SHA-256 over its per-second (captured, dropped) series, and what
// Figure 2 derives from that series. Any change to where frames are
// counted must leave every figure as it is.
var goldenLossy = struct {
	captured, dropped, lost uint64
	seconds, burstSeconds   int
	seriesDigest            string
}{27966, 130, 130, 10721, 43, "447802bd7d60c0f5b9416a6e8a9ee28f67a1fc320d5c69005c19d76877882738"}

func TestGoldenLossyCaptureAccount(t *testing.T) {
	res := runSim(t, lossySim())
	rep := res.Report
	h := sha256.New()
	var b [16]byte
	for _, s := range rep.LossPerSecond {
		binary.LittleEndian.PutUint64(b[0:], s.Captured)
		binary.LittleEndian.PutUint64(b[8:], s.Dropped)
		h.Write(b[:])
	}
	g := goldenLossy
	if rep.EthernetCaptured != g.captured || rep.EthernetDropped != g.dropped {
		t.Errorf("ethernet: %d captured, %d lost; want %d, %d", rep.EthernetCaptured, rep.EthernetDropped, g.captured, g.dropped)
	}
	if len(rep.LossPerSecond) != g.seconds {
		t.Errorf("LossPerSecond spans %d seconds, want %d", len(rep.LossPerSecond), g.seconds)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != g.seriesDigest {
		t.Errorf("LossPerSecond digest = %s, want %s", got, g.seriesDigest)
	}
	if res.Fig2.TotalLost != g.lost || res.Fig2.BurstSeconds() != g.burstSeconds {
		t.Errorf("Fig 2: %d lost in %d burst seconds, want %d in %d", res.Fig2.TotalLost, res.Fig2.BurstSeconds(), g.lost, g.burstSeconds)
	}
}
