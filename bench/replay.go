package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"time"

	"edtrace"
	"edtrace/internal/analysis"
	"edtrace/internal/core"
	"edtrace/internal/dataset"
	"edtrace/internal/pcap"
	"edtrace/internal/simtime"
	"edtrace/internal/xmlenc"
)

// simConfig is the synthetic capture both batch workloads start from:
// the repository's calibrated world at a size the set-up can afford.
func simConfig(seed uint64, sz sizes) core.SimConfig {
	sim := core.DefaultSimConfig()
	sim.Workload.Seed = seed
	sim.Workload.NumClients = sz.SimClients
	sim.Workload.NumFiles = sz.SimFiles
	sim.Traffic.Duration = sz.SimDuration
	sim.FrameMangleRate = sz.SimMangle
	// No scanner and no heavy profile: their ask counts are so heavy
	// tailed that a handful of members would decide the size and the mix
	// of a 10^5-frame capture, and two seeds would not be the same
	// workload (113k to 242k frames, 64k to 110k frames/s across six
	// seeds with them; within 5% without).
	sim.Workload.ScannerFraction = 0
	sim.Workload.HeavyFraction = 0
	return sim
}

// recordHash identifies a record by the bytes the dataset stores for it.
func recordHash(buf []byte, r *xmlenc.Record) ([]byte, uint64) {
	buf = xmlenc.AppendRecord(buf[:0], r)
	h := fnv.New64a()
	h.Write(buf)
	return buf, h.Sum64()
}

// hashSink collects one hash per record and feeds a figure collector:
// the reference the replayed dataset and its online figures must equal.
type hashSink struct {
	buf    []byte
	hashes []uint64
	col    *analysis.Collector
}

func (s *hashSink) Write(r *xmlenc.Record) error {
	var h uint64
	s.buf, h = recordHash(s.buf, r)
	s.hashes = append(s.hashes, h)
	return s.col.Write(r)
}

// replayInputs is what capture_replay derives from the seed: a pcap
// file on disk and the reference computed from the same frames.
type replayInputs struct {
	pcapPath string
	frames   uint64
	ref      []uint64 // one hash per reference record, in order
	figures  string   // reference Figures.Render()
	stats    core.PipelineStats
}

// replayPaths names the files the set-up child leaves in tmp.
func replayPaths(tmp string) (pcapPath, refPath string) {
	return filepath.Join(tmp, "capture.pcap"), filepath.Join(tmp, "reference.bin")
}

// childReplaySim is the first half of the set-up: simulate the capture
// into a pcap file (fragmented, malformed and undecodable traffic
// included).
func childReplaySim(req *childReq) (*childRes, error) {
	pcapPath, _ := replayPaths(req.Tmp)
	res, err := edtrace.NewSession(edtrace.NewSimSource(simConfig(req.Seed, req.Sizes)),
		edtrace.WithPcapTee(pcapPath)).Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("simulated capture: %w", err)
	}
	return &childRes{Frames: res.Report.Pipeline.Frames}, nil
}

// childReplayReference is the second half, in a process of its own (see
// child.go): the reference pipeline — a serial core.Pipeline that shares
// nothing with the Session — over the stored frames, one hash per
// record written to disk, its figures and counters returned.
func childReplayReference(req *childReq) (*childRes, error) {
	sim := simConfig(req.Seed, req.Sizes)
	pcapPath, refPath := replayPaths(req.Tmp)
	sink := &hashSink{col: analysis.NewCollector()}
	pipe := core.NewPipeline(sim.ServerIP, sim.FileBytePair, sink)
	res := &childRes{}
	err := forEachFrame(pcapPath, func(t simtime.Time, frame []byte) error {
		res.Frames++
		return pipe.ProcessFrame(t, frame)
	}, pipe.ExpireReassembly)
	if err != nil {
		return nil, fmt.Errorf("reference pipeline: %w", err)
	}
	ref := make([]byte, 0, 8*len(sink.hashes))
	for _, h := range sink.hashes {
		ref = binary.LittleEndian.AppendUint64(ref, h)
	}
	if err := os.WriteFile(refPath, ref, 0o644); err != nil {
		return nil, err
	}
	res.Records = uint64(len(sink.hashes))
	res.Figures = sink.col.Finalize().Render()
	res.Stats = pipe.Stats()
	return res, nil
}

// setupReplay spawns the two set-up children and loads what they left
// behind.
func setupReplay(seed uint64, sz sizes, tmp string) (*replayInputs, error) {
	simRes, _, err := spawn(childReq{Op: "replay-sim", Seed: seed, Sizes: sz, Tmp: tmp})
	if err != nil {
		return nil, err
	}
	res, _, err := spawn(childReq{Op: "replay-reference", Seed: seed, Sizes: sz, Tmp: tmp})
	if err != nil {
		return nil, err
	}
	if simRes.Frames != res.Frames {
		return nil, fmt.Errorf("bench: simulator teed %d frames, pcap file holds %d", simRes.Frames, res.Frames)
	}
	in := &replayInputs{frames: res.Frames, figures: res.Figures, stats: res.Stats}
	var refPath string
	in.pcapPath, refPath = replayPaths(tmp)
	ref, err := os.ReadFile(refPath)
	if err != nil {
		return nil, err
	}
	for ; len(ref) >= 8; ref = ref[8:] {
		in.ref = append(in.ref, binary.LittleEndian.Uint64(ref))
	}
	if uint64(len(in.ref)) != res.Records {
		return nil, fmt.Errorf("bench: reference file holds %d hashes, child reported %d", len(in.ref), res.Records)
	}
	if in.stats.Fragments == 0 || in.stats.EthMalformed+in.stats.IPMalformed+in.stats.UDPMalformed == 0 ||
		in.stats.FailStruct+in.stats.FailSemantic == 0 {
		return nil, fmt.Errorf("bench: capture lacks fragments, malformed frames or undecodable messages: %+v", in.stats)
	}
	return in, nil
}

// forEachFrame streams a pcap file, ageing out fragment groups once per
// captured minute exactly as Session.Run does, so the reference sees
// reassembly behave the same way.
func forEachFrame(path string, fn func(simtime.Time, []byte) error, expire func(simtime.Time)) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := pcap.NewReader(f)
	if err != nil {
		return err
	}
	var lastExpire simtime.Time
	for {
		rec, err := r.Next()
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return err
		}
		t := rec.Time()
		if err := fn(t, rec.Data); err != nil {
			return err
		}
		if expire != nil && t-lastExpire > simtime.Minute {
			expire(t)
			lastExpire = t
		}
	}
}

// replayDir is where a job writes its dataset.
func replayDir(tmp string) string { return filepath.Join(tmp, "dataset") }

// childReplayJob is the timed unit, run in a child process: one batch
// job from the stored capture to a closed, compressed dataset and
// finished figures.
func childReplayJob(req *childReq) (*childRes, error) {
	sim := simConfig(req.Seed, req.Sizes)
	pcapPath, _ := replayPaths(req.Tmp)
	dir := replayDir(req.Tmp)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	opts := []edtrace.Option{
		edtrace.WithServerIP(sim.ServerIP),
		edtrace.WithDataset(dir, true),
		edtrace.WithFigures(),
	}
	out := &childRes{}
	var obs *sessionObserver
	switch {
	case req.Heap:
		// The only progress callback fires at the end of the stream — on
		// the pipeline goroutine, while the anonymiser tables, the
		// collector and the open dataset writer are all still reachable —
		// to read the live heap at its largest.
		opts = append(opts, edtrace.WithProgressEvery(1<<62),
			edtrace.WithProgress(func(edtrace.Progress) { out.HeapMB = liveHeapMB() }))
	case req.Traced:
		obs = newSessionObserver()
		opts = append(opts, obs.options()...)
	}
	cpu0, t0 := cpuTime(), time.Now()
	res, err := edtrace.NewSession(edtrace.NewPcapSource(pcapPath), opts...).Run(context.Background())
	out.WallNS, out.CPUNS = time.Since(t0).Nanoseconds(), (cpuTime() - cpu0).Nanoseconds()
	if err != nil {
		return nil, err
	}
	if obs != nil {
		out.QueueMax, out.Spans = obs.finish(t0)
	}
	out.Frames = res.Report.Pipeline.Frames
	out.Records = res.Report.Pipeline.Records
	out.Stats = res.Report.Pipeline
	out.Figures = res.Figures.Render()
	return out, nil
}

func replayJob(seed uint64, sz sizes, tmp string, traced, heap bool) (*childRes, error) {
	res, _, err := spawn(childReq{Op: "replay-job", Seed: seed, Sizes: sz, Tmp: tmp, Traced: traced, Heap: heap})
	return res, err
}

// datasetChecksum fingerprints a dataset directory: chunk bytes and
// manifest. Same frames in, same bytes out — so one fully verified job
// vouches for every job whose checksum equals its own.
func datasetChecksum(dir string) (uint32, error) {
	man, err := dataset.Open(dir)
	if err != nil {
		return 0, err
	}
	h := crc32.NewIEEE()
	for _, name := range append([]string{"manifest.json"}, man.Chunks...) {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			return 0, err
		}
		_, err = io.Copy(h, f)
		f.Close()
		if err != nil {
			return 0, err
		}
	}
	return h.Sum32(), nil
}

// verifyReplay reads the dataset back and compares it, record for
// record, with the reference.
func verifyReplay(r *runResult, in *replayInputs, dir string, res *childRes) error {
	v, err := dataset.Verify(dir)
	if err != nil {
		return fmt.Errorf("dataset.Verify: %w", err)
	}
	r.check(v.OK(), 1, "dataset.Verify: %v", v.Violations)
	var buf []byte
	var i, bad uint64
	err = dataset.ForEach(dir, func(rec *xmlenc.Record) error {
		var h uint64
		buf, h = recordHash(buf, rec)
		if i >= uint64(len(in.ref)) || in.ref[i] != h {
			bad++
		}
		i++
		return nil
	})
	if err != nil {
		return fmt.Errorf("dataset.ForEach: %w", err)
	}
	if n := uint64(len(in.ref)); i < n {
		bad += n - i
	}
	r.count(max(i, uint64(len(in.ref))), bad, "%d of %d records differ from the serial reference pipeline", bad, len(in.ref))
	r.check(res.Figures == in.figures, 1, "online figures differ from the reference collector's")
	r.check(res.Stats == in.stats, 1, "pipeline counters differ from the reference: %+v vs %+v", res.Stats, in.stats)
	return nil
}

// batchStats turns the timed jobs of a batch workload into its
// end-to-end metrics. Each job is the same fixed work, so the median
// job is the estimate and a stalled job moves nothing.
func batchStats(r *runResult, items uint64, rate, cpuUS, rawRate, rawCPU []float64) {
	r.m["throughput_per_s"] = median(rate)
	r.m["cpu_us_per_item"] = median(cpuUS)
	r.notes["jobs"] = len(rate)
	r.notes["items_per_job"] = items
	r.notes["raw_throughput_per_s"] = median(rawRate)
	r.notes["raw_cpu_us_per_item"] = median(rawCPU)
	r.notes["machine_slowdown"] = median(rawRate) / median(rate)
}

// runReplay is the capture_replay workload. With a tracer it is the
// traced run: untraced and traced jobs alternate for the overhead
// figure, then the capture ladder is measured rung by rung.
func runReplay(seed uint64, seconds float64, sz sizes, tmp string, tr *tracer) (*runResult, error) {
	r := newRunResult()
	in, setupS, rawSetupS, err := repeatSetup(sz.SetupReps, sz.RefTasks,
		func() (*replayInputs, error) { return setupReplay(seed, sz, tmp) },
		func(*replayInputs) {})
	if err != nil {
		return nil, err
	}
	r.m["setup_s"] = setupS
	r.notes["raw_setup_s"] = rawSetupS
	r.notes["frames"] = in.frames
	r.notes["records"] = len(in.ref)
	r.notes["fragments"] = in.stats.Fragments
	r.notes["undecoded"] = in.stats.FailStruct + in.stats.FailSemantic
	dir := replayDir(tmp)

	if tr != nil {
		return r, replayTraced(r, in, seed, seconds, sz, tmp, tr)
	}

	var last *childRes
	var sums []uint32
	rate, cpuUS, rawRate, rawCPU, err := timedJobs(seconds, in.frames, sz.RefTasks, func() (time.Duration, time.Duration, error) {
		res, err := replayJob(seed, sz, tmp, false, false)
		if err != nil {
			return 0, 0, err
		}
		sum, err := datasetChecksum(dir)
		if err != nil {
			return 0, 0, err
		}
		sums, last = append(sums, sum), res
		return time.Duration(res.WallNS), time.Duration(res.CPUNS), nil
	})
	if err != nil {
		return nil, err
	}
	batchStats(r, in.frames, rate, cpuUS, rawRate, rawCPU)

	// The last job's dataset is still on disk: verify it in full, then
	// let it vouch for the earlier jobs through their checksums.
	if err := verifyReplay(r, in, dir, last); err != nil {
		return nil, err
	}
	for i, sum := range sums[:len(sums)-1] {
		bad := uint64(0)
		if sum != sums[len(sums)-1] {
			bad = uint64(len(in.ref))
		}
		r.count(uint64(len(in.ref)), bad, "job %d wrote a different dataset than the verified one", i)
	}
	bytes, err := datasetBytes(dir)
	if err != nil {
		return nil, err
	}
	r.notes["dataset_bytes"] = bytes
	r.notes["dataset_bytes_per_record"] = float64(bytes) / float64(len(in.ref))

	// One more job, untimed, reads the live heap at end of stream.
	heap, err := replayJob(seed, sz, tmp, false, true)
	if err != nil {
		return nil, err
	}
	r.m["live_heap_mb"] = heap.HeapMB
	return r, nil
}
