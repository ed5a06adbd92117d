package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"time"

	"edtrace"
	"edtrace/internal/analysis"
	"edtrace/internal/dataset"
	"edtrace/internal/xmlenc"
)

// analyzeWindows is edanalyze's -windows argument in this workload.
const analyzeWindows = 4

// analyzeInputs is what the analyze workload derives from the seed: a
// compressed dataset on disk, written by a Session with the same
// options capture_replay uses, and the figures that Session computed
// online — the reference the offline pass must reproduce.
type analyzeInputs struct {
	dir     string
	records uint64
	bytes   int64
	figures string
}

// childAnalyzeSetup is the set-up, run in a child process: the simulated
// capture written straight to a compressed dataset, figures online.
func childAnalyzeSetup(req *childReq) (*childRes, error) {
	dir := replayDir(req.Tmp)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	res, err := edtrace.NewSession(edtrace.NewSimSource(simConfig(req.Seed, req.Sizes)),
		edtrace.WithDataset(dir, true), edtrace.WithFigures()).Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("simulated capture: %w", err)
	}
	out := &childRes{Records: res.Report.Pipeline.Records, Figures: res.Figures.Render()}
	out.Bytes, err = datasetBytes(dir)
	return out, err
}

func setupAnalyze(seed uint64, sz sizes, tmp string) (*analyzeInputs, error) {
	res, _, err := spawn(childReq{Op: "analyze-setup", Seed: seed, Sizes: sz, Tmp: tmp})
	if err != nil {
		return nil, err
	}
	return &analyzeInputs{dir: replayDir(tmp), records: res.Records, bytes: res.Bytes, figures: res.Figures}, nil
}

// analysisState keeps one job's collectors reachable so the live heap can be
// read while they still hold their tables.
type analysisState struct {
	col *analysis.Collector
	ws  *analysis.WindowSet
}

// analyzeJob is the timed unit: what `edanalyze -in dir -verify
// -windows 4` does, from opening the manifest to the rendered figures
// and bias report. wrap, when set, decorates the two per-record
// callbacks (the traced run times a sample of them).
func analyzeJob(in *analyzeInputs, wrap func(name string, fn func(*xmlenc.Record) error) func(*xmlenc.Record) error) (figures, bias string, v *dataset.VerifyReport, st analysisState, err error) {
	if wrap == nil {
		wrap = func(_ string, fn func(*xmlenc.Record) error) func(*xmlenc.Record) error { return fn }
	}
	if v, err = dataset.Verify(in.dir); err != nil {
		return "", "", nil, st, err
	}
	st.col = analysis.NewCollector()
	maxT := 0.0
	collect := wrap("analysis.collect", st.col.Write)
	if err = dataset.ForEach(in.dir, func(r *xmlenc.Record) error {
		if r.T > maxT {
			maxT = r.T
		}
		return collect(r)
	}); err != nil {
		return "", "", nil, st, err
	}
	figs := st.col.Finalize()
	// As in edanalyze: records at exactly maxT must land inside the full
	// window.
	if st.ws, err = analysis.NewWindowSet(maxT+1e-9, analyzeWindows); err != nil {
		return "", "", nil, st, err
	}
	if err = dataset.ForEach(in.dir, wrap("analysis.window", st.ws.Write)); err != nil {
		return "", "", nil, st, err
	}
	bias = st.ws.Finalize().Render()
	return figs.Render(), bias, v, st, nil
}

// checkAnalysis applies the oracle to one job's output.
func checkAnalysis(r *runResult, in *analyzeInputs, figures string, v *dataset.VerifyReport) {
	bad := uint64(0)
	if !v.OK() || v.Records != in.records || figures != in.figures {
		bad = in.records // a wrong figure set makes every record of the pass suspect
	}
	r.count(in.records, bad, "offline pass: verify ok=%v records %d/%d figures equal=%v",
		v.OK(), v.Records, in.records, figures == in.figures)
}

// runAnalyze is the analyze workload; with a tracer, the traced run.
func runAnalyze(seed uint64, seconds float64, sz sizes, tmp string, tr *tracer) (*runResult, error) {
	r := newRunResult()
	in, setupS, rawSetupS, err := repeatSetup(sz.SetupReps, sz.RefTasks,
		func() (*analyzeInputs, error) { return setupAnalyze(seed, sz, tmp) },
		func(*analyzeInputs) {})
	if err != nil {
		return nil, err
	}
	r.m["setup_s"] = setupS
	r.notes["raw_setup_s"] = rawSetupS
	r.notes["records"] = in.records
	r.notes["dataset_bytes"] = in.bytes
	r.notes["dataset_bytes_per_record"] = float64(in.bytes) / float64(in.records)

	if tr != nil {
		return r, analyzeTraced(r, in, seconds, sz, tr)
	}

	var st analysisState
	rate, cpuUS, rawRate, rawCPU, err := timedJobs(seconds, in.records, sz.RefTasks, func() (time.Duration, time.Duration, error) {
		cpu0, t0 := cpuTime(), time.Now()
		figures, _, v, s, err := analyzeJob(in, nil)
		wall, cpu := time.Since(t0), cpuTime()-cpu0
		if err != nil {
			return 0, 0, err
		}
		st = s
		checkAnalysis(r, in, figures, v)
		return wall, cpu, nil
	})
	if err != nil {
		return nil, err
	}
	batchStats(r, in.records, rate, cpuUS, rawRate, rawCPU)
	// The last job's collector and window set still hold every pair and
	// size they gathered.
	r.m["live_heap_mb"] = liveHeapMB()
	runtime.KeepAlive(st)
	return r, nil
}
