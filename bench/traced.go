package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"edtrace/internal/analysis"
	"edtrace/internal/dataset"
	"edtrace/internal/ed2k"
	"edtrace/internal/edserverd"
	"edtrace/internal/netsim"
	"edtrace/internal/simtime"
	"edtrace/internal/xmlenc"
)

// The traced runs. Each repeats its workload's end-to-end pass twice —
// once plain, once with the outside observers on — for the tracing
// overhead, then drives the workload's own inputs through the layers it
// uses, one rung at a time, and reports what the rungs leave unexplained
// as a named residual. Layers a workload does not use are not measured
// and read 0 in its result.

// e2eShare is the part of a traced run's seconds given to the
// end-to-end passes; the ladder's rungs have budgets of their own.
const e2eShare = 0.6

// overheadPct is how much slower (positive) the traced pass ran.
func overheadPct(plain, traced float64, higherIsBetter bool) float64 {
	if plain <= 0 || traced <= 0 {
		return 0
	}
	if higherIsBetter {
		return (plain/traced - 1) * 100
	}
	return (traced/plain - 1) * 100
}

// runServeTraced is the traced run of serve and serve_capture.
func runServeTraced(seed uint64, seconds float64, sz sizes, withCapture bool, tmp string, tr *tracer) (*runResult, error) {
	r := newRunResult()
	env, err := setupServe(seed, sz)
	if err != nil {
		return nil, err
	}
	defer env.close()
	e2e := time.Duration(seconds * e2eShare * float64(time.Second))
	share := func(f float64) time.Duration { return time.Duration(float64(e2e) * f) }

	// serve_capture first runs the peak phase untapped, then attaches the
	// capture: the CPU per message it adds is the tap's cost to clients.
	var tap *capture
	var untapped phaseResult
	pacedShare, peakShare := 0.5, 0.5
	if withCapture {
		pacedShare, peakShare = 0.4, 0.4
		untapped = env.peak(sz, share(0.2), nil)
		r.countPhase(&untapped)
		tap = attachCapture(env.d, filepath.Join(tmp, "dataset"))
	}
	// The floor under the paced round trip — the same generator, schedule
	// and bytes against a server that frames and answers from a table —
	// is taken on both sides of the paced phase and averaged.
	echoBefore, err := echoFloor(env.in, len(env.conns), seed, sz, 2*sz.RungBudget)
	if err != nil {
		return nil, err
	}
	paced := env.paced(seed, sz, share(pacedShare), tr)
	r.countPhase(&paced)
	echoAfter, err := echoFloor(env.in, len(env.conns), seed, sz, 2*sz.RungBudget)
	if err != nil {
		return nil, err
	}
	echoP50 := (echoBefore + echoAfter) / 2
	// The peak phase alternates plain and traced slices, so a slow spell
	// of the machine falls on both; the overhead compares their medians
	// over quarter-second windows.
	const slices = 8
	var plain, peak phaseResult
	var plainRates, tracedRates []float64
	for i := 0; i < slices; i++ {
		if i%2 == 0 {
			p := env.peak(sz, share(peakShare/slices), nil)
			plainRates = append(plainRates, p.windowRates()...)
			plain.merge(&p)
		} else {
			p := env.peak(sz, share(peakShare/slices), tr)
			tracedRates = append(tracedRates, p.windowRates()...)
			peak.merge(&p)
		}
	}
	r.countPhase(&plain)
	r.countPhase(&peak)
	r.m["trace.overhead_pct"] = overheadPct(median(plainRates), median(tracedRates), true)
	if withCapture {
		r.m["edserverd.tap_cost_ns"] = (usPer(plain.cpu, plain.done) - usPer(untapped.cpu, untapped.done)) * 1e3
	}

	// Client-side spans of the paced phase: the round trip from the
	// instant each request was due, and how the generator kept its
	// schedule. These are reported per layer and carry no bound: on a
	// shared two-CPU VM they move by a factor of two between runs.
	rttP50 := quantile(paced.rttUS, 0.50)
	r.m["edserverd.rtt_p50_us"] = rttP50
	r.m["edserverd.rtt_p99_us"] = quantile(paced.rttUS, 0.99)
	r.m["edserverd.rtt_p999_us"] = quantile(paced.rttUS, 0.999)
	r.m["edserverd.paced_cpu_us_per_msg"] = usPer(paced.cpu, paced.done)
	r.m["gen.late_p99_us"] = quantile(paced.lateUS, 0.99)
	r.m["gen.late_sends"] = float64(paced.lateSends)
	r.m["gen.achieved_rate"] = float64(paced.sent) / paced.elapsed.Seconds()
	r.m["edserverd.handle_p50_us"] = float64(env.d.Metrics().
		Histogram("edserverd_handle_seconds", "", nil).Snapshot().P50.Nanoseconds()) / 1e3
	r.notes["paced_samples"] = len(paced.rttUS)
	r.notes["paced_seconds"] = paced.elapsed.Seconds()
	r.notes["peak_round_trips"] = peak.done
	r.notes["peak_msgs_per_s"] = peakRate(&peak)

	if tap != nil {
		mirrored := uint64(0)
		for _, p := range []*phaseResult{&plain, &paced, &peak} {
			mirrored += p.sent + p.answers
		}
		if err := verifyCapture(r, tap, mirrored); err != nil {
			return nil, err
		}
		r.m["edtrace.capture_loss_ratio"] = r.notes["capture_loss_ratio"].(float64)
		r.m["edtrace.mirrored_frames"] = float64(r.notes["mirrored_frames"].(uint64))
		r.m["edtrace.dropped_frames"] = float64(r.notes["dropped_frames"].(uint64))
		r.m["edtrace.timestamp_inversions"] = float64(r.notes["timestamp_inversions"].(int))
		r.m["dataset.bytes_per_record"] = r.notes["dataset_bytes_per_record"].(float64)
	}

	r.m["env.loopback_echo_ns"] = echoP50 * 1e3
	l := newLadder(tr, sz.RungBudget, r.m)
	var end func()
	l.parent, end = tr.begin("ladder.daemon", 0, 0)
	sum, err := daemonRungs(l, env.in)
	end()
	if err != nil {
		return nil, err
	}
	r.m["edserverd.residual_ns"] = rttP50*1e3 - (echoP50*1e3 + sum)

	if withCapture {
		spawned := time.Now()
		res, _, err := spawn(childReq{Op: "capture-ladder", Seed: seed, Sizes: sz, Tmp: tmp,
			ServerKey: env.d.ServerKey()})
		if err != nil {
			return nil, err
		}
		mergeChild(r, tr, res, spawned)
	}
	return r, nil
}

// echoFloor runs a paced phase against the echo server and returns the
// median round trip in µs.
func echoFloor(in *serveInputs, nconn int, seed uint64, sz sizes, dur time.Duration) (float64, error) {
	conns, stop, err := dialEcho(in, nconn)
	if err != nil {
		return 0, err
	}
	defer stop()
	perConn := max(int(sz.RatePerSec*dur.Seconds()/float64(nconn)), 1)
	res := runPaced(conns, in.pool, perConn, sz.RatePerSec/float64(nconn), seed, sz, nil, 0)
	if res.failed > 0 {
		return 0, fmt.Errorf("bench: echo run failed %d of %d round trips", res.failed, res.failed+res.done)
	}
	return quantile(res.rttUS, 0.5), nil
}

// mergeChild folds a ladder child's metrics and spans into the run.
func mergeChild(r *runResult, tr *tracer, res *childRes, spawned time.Time) {
	for k, v := range res.Metrics {
		r.m[k] = v
	}
	off := tr.since(spawned)
	for i := range res.Spans {
		res.Spans[i].Start += off
		res.Spans[i].End += off
	}
	tr.merge(res.Spans, 0)
}

// childCaptureLadder is serve_capture's capture-side ladder, in a child
// process (it builds pipelines of its own): the pool's queries and
// reference answers as the tap would mirror them, through Mirror and
// through the per-frame pipeline.
func childCaptureLadder(req *childReq) (*childRes, error) {
	in, err := buildServeInputs(req.Seed, req.Sizes)
	if err != nil {
		return nil, err
	}
	clientKey := edserverd.AddrKey(nil, 40000)
	var msgs []mirrored
	var frames []frameAt
	add := func(src, dst uint32, payload []byte) {
		msgs = append(msgs, mirrored{src, dst, payload})
		frames = append(frames, frameAt{
			t:    simtime.Time(len(frames)) * simtime.Microsecond,
			data: netsim.AppendUDPFrame(nil, src, dst, 4672, 4665, payload),
		})
	}
	for i := range in.pool {
		add(clientKey, req.ServerKey, ed2k.Encode(in.pool[i].msg))
		for _, a := range in.pool[i].ref {
			add(req.ServerKey, clientKey, ed2k.Encode(a))
		}
	}
	tr := newTracer()
	out := &childRes{Metrics: metrics{}}
	l := newLadder(tr, req.Sizes.RungBudget, out.Metrics)
	if err := mirrorRung(l, msgs, req.ServerKey); err != nil {
		return nil, err
	}
	// Of the capture rungs only the per-frame pipeline is measured here,
	// as the CPU the capture takes from the daemon's clients; the dataset
	// side is capture_replay's to explain.
	if _, _, _, err := processRung(l, frames, req.ServerKey, [2]int{5, 11}); err != nil {
		return nil, err
	}
	out.Spans = tr.spans
	return out, nil
}

// replayTraced is the traced part of capture_replay.
func replayTraced(r *runResult, in *replayInputs, seed uint64, seconds float64, sz sizes, tmp string, tr *tracer) error {
	// Plain and observed jobs alternate, so a slow spell of the machine
	// falls on both kinds.
	var plain, observed []float64
	var cpus []time.Duration
	var queueMax float64
	deadline := time.Now().Add(time.Duration(seconds * e2eShare * float64(time.Second)))
	for i := 0; len(observed) == 0 || time.Now().Before(deadline); i++ {
		traced := i%2 == 1
		t0 := time.Now()
		id, end := tr.begin("replay.job", 0, int64(i))
		res, err := replayJob(seed, sz, tmp, traced, false)
		end()
		if err != nil {
			return err
		}
		bad := uint64(0)
		if res.Stats != in.stats || res.Figures != in.figures {
			bad = res.Records
		}
		r.count(res.Records, bad, "job %d: counters or figures differ from the reference", i)
		wallNS := float64(res.WallNS)
		if traced {
			observed = append(observed, wallNS)
			queueMax = max(queueMax, res.QueueMax)
			off := tr.since(t0)
			for k := range res.Spans {
				res.Spans[k].Start += off
				res.Spans[k].End += off
			}
			tr.merge(res.Spans, id)
		} else {
			plain = append(plain, wallNS)
			cpus = append(cpus, time.Duration(res.CPUNS))
		}
	}
	anchor := median(plain) / float64(in.frames) // ns per frame, plain jobs
	r.m["trace.overhead_pct"] = overheadPct(median(plain), median(observed), false)
	r.m["edtrace.queue_depth_max"] = queueMax
	r.notes["frames_per_s"] = 1e9 / anchor
	r.notes["plain_jobs"] = len(plain)
	r.notes["observed_jobs"] = len(observed)
	bytes, err := datasetBytes(replayDir(tmp))
	if err != nil {
		return err
	}
	r.m["dataset.bytes_per_record"] = float64(bytes) / float64(len(in.ref))

	t0 := time.Now()
	res, _, err := spawn(childReq{Op: "replay-ladder", Seed: seed, Sizes: sz, Tmp: tmp})
	if err != nil {
		return err
	}
	mergeChild(r, tr, res, t0)
	sum := res.Sum

	// The queue hop: fresh processes, median of the differences.
	var hops []float64
	for i := 0; i < sz.HopRuns; i++ {
		// Whichever pass runs second finds the file cache and the CPU
		// warm, so the children alternate the order.
		res, _, err := spawn(childReq{Op: "replay-hop", Seed: seed, Sizes: sz, Tmp: tmp, SessionFirst: i%2 == 1})
		if err != nil {
			return err
		}
		hops = append(hops, res.Metrics["session_ns"]-res.Metrics["direct_ns"])
	}
	hop := median(hops)
	r.m["edtrace.session_hop_ns"] = hop
	r.m["capture.residual_ns"] = anchor - (sum + hop)
	return nil
}

// loadFrames reads a whole pcap file into memory.
func loadFrames(path string) ([]frameAt, error) {
	var frames []frameAt
	err := forEachFrame(path, func(t simtime.Time, data []byte) error {
		frames = append(frames, frameAt{t, data})
		return nil
	}, nil)
	return frames, err
}

// childReplayLadder is capture_replay's ladder over the stored capture.
func childReplayLadder(req *childReq) (*childRes, error) {
	sim := simConfig(req.Seed, req.Sizes)
	pcapPath, _ := replayPaths(req.Tmp)
	tr := newTracer()
	out := &childRes{Metrics: metrics{}}
	l := newLadder(tr, req.Sizes.RungBudget, out.Metrics)

	// pcap.read_ns: the source side of the replay, file to frames.
	var frames []frameAt
	var readErr error
	st, err := os.Stat(pcapPath)
	if err != nil {
		return nil, err
	}
	frames, err = loadFrames(pcapPath)
	if err != nil {
		return nil, err
	}
	read := l.rung("pcap.read", len(frames), func() {
		if err := forEachFrame(pcapPath, func(simtime.Time, []byte) error { return nil }, nil); err != nil {
			readErr = err
		}
	})
	if readErr != nil {
		return nil, readErr
	}
	out.Metrics["pcap.read_ns"] = read
	out.Bytes = st.Size()

	sum, err := captureRungs(l, frames, sim.ServerIP, sim.FileBytePair, req.Tmp)
	if err != nil {
		return nil, err
	}
	out.Sum = read + sum
	out.Spans = tr.spans
	return out, nil
}

// childReplayHop is one cold direct pass and one cold Session pass.
func childReplayHop(req *childReq) (*childRes, error) {
	sim := simConfig(req.Seed, req.Sizes)
	pcapPath, _ := replayPaths(req.Tmp)
	frames, err := loadFrames(pcapPath)
	if err != nil {
		return nil, err
	}
	direct, session, err := sessionHop(frames, sim.ServerIP, sim.FileBytePair, req.SessionFirst)
	if err != nil {
		return nil, err
	}
	return &childRes{Metrics: metrics{"direct_ns": direct, "session_ns": session}}, nil
}

// analyzeTraced is the traced part of analyze.
func analyzeTraced(r *runResult, in *analyzeInputs, seconds float64, sz sizes, tr *tracer) error {
	// The observed job times one record in 64 inside each per-record
	// callback, so the spans show where a record's time goes without
	// doubling the cost of the cheap ones.
	const sampleEvery = 64
	var plain, observed []float64
	deadline := time.Now().Add(time.Duration(seconds * e2eShare * float64(time.Second)))
	for i := 0; len(observed) == 0 || time.Now().Before(deadline); i++ {
		traced := i%2 == 1
		var local []span
		var wrap func(string, func(*xmlenc.Record) error) func(*xmlenc.Record) error
		if traced {
			wrap = func(name string, fn func(*xmlenc.Record) error) func(*xmlenc.Record) error {
				n := 0
				return func(rec *xmlenc.Record) error {
					n++
					if n%sampleEvery != 0 {
						return fn(rec)
					}
					t0 := time.Now()
					err := fn(rec)
					local = append(local, span{Name: name, Start: tr.since(t0), End: tr.since(time.Now()), Req: int64(n)})
					return err
				}
			}
		}
		t0 := time.Now()
		id, end := tr.begin("analyze.job", 0, int64(i))
		figures, _, v, _, err := analyzeJob(in, wrap)
		wall := time.Since(t0)
		end()
		if err != nil {
			return err
		}
		checkAnalysis(r, in, figures, v)
		tr.merge(local, id)
		if traced {
			observed = append(observed, float64(wall.Nanoseconds()))
		} else {
			plain = append(plain, float64(wall.Nanoseconds()))
		}
	}
	anchor := median(plain) / float64(in.records) // ns per record, plain jobs
	r.m["trace.overhead_pct"] = overheadPct(median(plain), median(observed), false)
	r.m["dataset.bytes_per_record"] = float64(in.bytes) / float64(in.records)
	r.notes["records_per_s"] = 1e9 / anchor
	r.notes["plain_jobs"] = len(plain)
	r.notes["observed_jobs"] = len(observed)

	l := newLadder(tr, sz.RungBudget, r.m)
	var end func()
	l.parent, end = tr.begin("ladder.analyze", 0, 0)
	sum, err := analyzeRungs(l, in)
	end()
	if err != nil {
		return err
	}
	r.m["analyze.residual_ns"] = anchor - sum
	return nil
}

// analyzeRungs measures the read side on the dataset: the verifying
// pass, the plain read, the XML decoder from memory, the figure
// collector, the window set, and Finalize+Render. It returns the sum, in
// ns per record, of what one analyzeJob does: one verifying pass, two
// reading passes, collect, window, and the final computation.
func analyzeRungs(l *ladder, in *analyzeInputs) (float64, error) {
	n := int(in.records)
	var rungErr error
	note := func(err error) {
		if err != nil && rungErr == nil {
			rungErr = err
		}
	}

	verify := l.rung("dataset.verify", n, func() {
		_, err := dataset.Verify(in.dir)
		note(err)
	})
	l.m["dataset.verify_ns"] = verify

	var records []*xmlenc.Record
	maxT := 0.0
	read := l.rung("dataset.read", n, func() {
		note(dataset.ForEach(in.dir, func(*xmlenc.Record) error { return nil }))
	})
	l.m["dataset.read_ns"] = read
	note(dataset.ForEach(in.dir, func(r *xmlenc.Record) error {
		records = append(records, r.Clone())
		maxT = max(maxT, r.T)
		return nil
	}))
	if rungErr != nil {
		return 0, rungErr
	}

	// xmlenc.decode_ns: Decoder.Next over the inflated chunks, in memory —
	// dataset.read_ns without the file and the gzip.
	man, err := dataset.Open(in.dir)
	if err != nil {
		return 0, err
	}
	var chunks [][]byte
	for _, name := range man.Chunks {
		f, err := os.Open(filepath.Join(in.dir, name))
		if err != nil {
			return 0, err
		}
		zr, err := gzip.NewReader(f)
		if err != nil {
			f.Close()
			return 0, err
		}
		data, err := io.ReadAll(zr)
		f.Close()
		if err != nil {
			return 0, err
		}
		chunks = append(chunks, data)
	}
	l.m["xmlenc.decode_ns"] = l.rung("xmlenc.decode", n, func() {
		for _, data := range chunks {
			dec, err := xmlenc.NewDecoder(bytes.NewReader(data))
			if err != nil {
				note(err)
				return
			}
			for {
				if _, err := dec.Next(); err != nil {
					if err != io.EOF {
						note(err)
					}
					break
				}
			}
		}
	})

	var col *analysis.Collector
	collect := l.rung("analysis.collect", n, func() {
		col = analysis.NewCollector()
		for _, r := range records {
			note(col.Write(r))
		}
	})
	l.m["analysis.collect_ns"] = collect

	var ws *analysis.WindowSet
	window := l.rung("analysis.window", n, func() {
		ws, err = analysis.NewWindowSet(maxT+1e-9, analyzeWindows)
		if err != nil {
			note(err)
			return
		}
		for _, r := range records {
			note(ws.Write(r))
		}
	})
	l.m["analysis.window_ns"] = window
	if rungErr != nil {
		return 0, rungErr
	}

	var rendered int
	finalize := l.rung("analysis.finalize", 1, func() {
		rendered = len(col.Finalize().Render()) + len(ws.Finalize().Render())
	})
	l.m["analysis.finalize_ms"] = finalize / 1e6
	runtime.KeepAlive(rendered)
	return verify + 2*read + collect + window + finalize/float64(n), rungErr
}
