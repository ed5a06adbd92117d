package edtrace

import (
	"compress/gzip"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"edtrace/internal/core"
	"edtrace/internal/simtime"
)

// goldenSimFrames is the SHA-256 over every (t, len, frame) a small
// SimSource emits (19,224 frames), computed when the swarm began to play
// the default workload spec's sessions instead of pre-scheduling every
// client's activity; the stream pinned at commit 95bb4c7, with four
// hard-coded flash crowds, ended there. The determinism tests compare
// two runs of one binary; this compares the binary with its ancestors.
const goldenSimFrames = "c202339c1e76a08ecbe3f44b484278b7bb3aea3a73ba2c8a3e4884ff61b38a9e"

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
// bursts of traffic overflow it and Figure 2 has losses to show.
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
}{25696, 80, 80, 10800, 26, "7b2f47a721951b43c3790353f91e547c482865d145b463c8f6804aa3810e3fea"}

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

// goldenDataset pins the whole chain on one tinySim capture: a SHA-256
// over the records its dataset stores (every chunk's XML in order, after
// decompression when the chunks are gzipped) and one over the rendered
// figures. The records are the anonymiser's output, so any change to how
// clientIDs or fileIDs are assigned moves the first; the dataset writer's
// workers and the gzip setting must not move either. The records digest
// was re-pinned when the simulated server began to sweep its index on
// the daemon's schedule: its answers then name only live providers.
var goldenDataset = struct{ records, figures string }{
	"2bdc37874db33f0d02af37d5f2c46d5f964197e0b946e6406656fdf7bc1f5db0",
	"552cc040c4efdede8318194f7d733aa30c59d015b2fa5bacd7c87863c044f4fa",
}

func TestGoldenDatasetRecords(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, gz := range []bool{false, true} {
			t.Run(fmt.Sprintf("procs=%d/gz=%v", procs, gz), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				dir := t.TempDir()
				res := runSim(t, tinySim(), WithFigures(), WithDataset(dir, gz))
				if got := datasetRecordsDigest(t, dir); got != goldenDataset.records {
					t.Errorf("records digest = %s over %d records, want %s", got, res.Report.Pipeline.Records, goldenDataset.records)
				}
				sum := sha256.Sum256([]byte(res.Figures.Render()))
				if got := hex.EncodeToString(sum[:]); got != goldenDataset.figures {
					t.Errorf("Figures.Render digest = %s, want %s", got, goldenDataset.figures)
				}
			})
		}
	}
}

// datasetRecordsDigest hashes the decompressed contents of dir's chunk
// files in name order, which is the order they were written.
func datasetRecordsDigest(t *testing.T, dir string) string {
	t.Helper()
	chunks, err := filepath.Glob(filepath.Join(dir, "chunk-*.xml*"))
	if err != nil || len(chunks) == 0 {
		t.Fatalf("no chunks in %s (%v)", dir, err)
	}
	h := sha256.New()
	for _, name := range chunks {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		var r io.Reader = f
		if strings.HasSuffix(name, ".gz") {
			zr, err := gzip.NewReader(f)
			if err != nil {
				t.Fatal(err)
			}
			r = zr
		}
		_, err = io.Copy(h, r)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
