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
