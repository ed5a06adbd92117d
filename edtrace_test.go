package edtrace

import (
	"context"
	"runtime"
	"testing"

	"edtrace/internal/analysis"
	"edtrace/internal/core"
	"edtrace/internal/dataset"
	"edtrace/internal/simtime"
	"edtrace/internal/xmlenc"
)

func tinySim() core.SimConfig {
	sim := core.DefaultSimConfig()
	sim.Workload.NumClients = 300
	sim.Workload.NumFiles = 3000
	sim.Workload.VocabWords = 300
	sim.Traffic.Duration = 3 * simtime.Hour
	return sim
}

func runSim(t *testing.T, sim core.SimConfig, opts ...Option) *Result {
	t.Helper()
	res, err := NewSession(NewSimSource(sim), opts...).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSessionCollectsFigures(t *testing.T) {
	res := runSim(t, tinySim(), WithFigures())
	if res.Figures == nil {
		t.Fatal("figures not collected")
	}
	if res.Figures.Fig4.N() == 0 || res.Figures.Fig7.N() == 0 {
		t.Fatal("figure histograms empty")
	}
	if res.Fig2 == nil || res.Fig3 == nil {
		t.Fatal("capture figures missing")
	}
	if res.Fig3.SizeHist.N() == 0 {
		t.Fatal("bucket histogram empty")
	}
	if res.Report.Pipeline.Records == 0 {
		t.Fatal("no records")
	}
}

func TestSessionWritesDatasetAndOfflineAnalysisMatches(t *testing.T) {
	dir := t.TempDir()
	res := runSim(t, tinySim(), WithFigures(), WithDataset(dir, true))

	man, err := dataset.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if man.Records != res.Report.Pipeline.Records {
		t.Fatalf("manifest %d records, report %d", man.Records, res.Report.Pipeline.Records)
	}
	if man.DistinctClients != res.Report.DistinctClients {
		t.Fatal("manifest counters not set")
	}

	// Offline analysis of the stored dataset must reproduce the online
	// figures exactly.
	c := analysis.NewCollector()
	if err := dataset.ForEach(dir, c.Write); err != nil {
		t.Fatal(err)
	}
	figs := c.Finalize()
	for name, pair := range map[string][2]uint64{
		"fig4": {figs.Fig4.N(), res.Figures.Fig4.N()},
		"fig5": {figs.Fig5.N(), res.Figures.Fig5.N()},
		"fig6": {figs.Fig6.N(), res.Figures.Fig6.N()},
		"fig7": {figs.Fig7.N(), res.Figures.Fig7.N()},
		"fig8": {figs.Fig8.N(), res.Figures.Fig8.N()},
	} {
		if pair[0] != pair[1] {
			t.Errorf("%s: offline %d != online %d", name, pair[0], pair[1])
		}
	}
	if figs.Fig4.Max() != res.Figures.Fig4.Max() {
		t.Error("fig4 max differs offline vs online")
	}
}

func TestProducedDatasetPassesVerification(t *testing.T) {
	// The pipeline's own output must satisfy every invariant the spec
	// promises consumers (dense IDs, monotone t, hex hashes, known ops).
	dir := t.TempDir()
	runSim(t, tinySim(), WithDataset(dir, false))
	rep, err := dataset.Verify(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("our own dataset violates the spec:\n%v", rep.Violations)
	}
	if rep.Records == 0 {
		t.Fatal("empty dataset")
	}
}

// TestSessionHeapFollowsClients is the end-to-end pin on the clientID
// table's page size: a capture of a thousand clients spread over the IPv4
// space, storing its dataset and computing its figures, holds tens of
// megabytes when it ends. With a page large enough that every client
// materialises megabytes of untouched cells it holds gigabytes.
func TestSessionHeapFollowsClients(t *testing.T) {
	sim := tinySim()
	sim.Workload.NumClients = 1100
	sim.Workload.NumFiles = 1000
	// Many clients, little traffic from each: the table's size follows
	// the first, the test's run time the second.
	sim.Workload.HeavyFraction, sim.Workload.ScannerFraction = 0, 0
	sim.Traffic.Duration = simtime.Hour
	var heapInuse uint64
	res := runSim(t, sim, WithFigures(), WithDataset(t.TempDir(), true),
		WithProgressEvery(1<<62), // only the end-of-stream call
		WithProgress(func(Progress) {
			runtime.GC()
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			heapInuse = ms.HeapInuse
		}))
	if res.Report.DistinctClients < 1000 {
		t.Fatalf("only %d distinct clients seen, want >= 1000", res.Report.DistinctClients)
	}
	if limit := uint64(200 << 20); heapInuse == 0 || heapInuse > limit {
		t.Fatalf("%d MB of heap in use after %d clients, want 1..%d MB",
			heapInuse>>20, res.Report.DistinctClients, limit>>20)
	}
}

func TestDatasetForEachMissingDir(t *testing.T) {
	c := analysis.NewCollector()
	if err := dataset.ForEach("/nonexistent/nowhere", c.Write); err == nil {
		t.Fatal("missing dataset accepted")
	}
}

// hourSink folds records onto the 24 hours of a day.
type hourSink struct{ msgs [24]float64 }

func (h *hourSink) Write(r *xmlenc.Record) error {
	h.msgs[int(r.T/3600)%24]++
	return nil
}

func TestTemporalAnalysisRecoversDiurnalProfile(t *testing.T) {
	// The capture's records must carry the workload's day/night swing:
	// folding a one-day run onto 24 hours has to show more activity in
	// the injected peak half-day than in the trough half-day (about 1.9
	// times as much at the traffic model's amplitude of 0.45).
	var hours hourSink
	sim := tinySim()
	sim.Traffic.Duration = simtime.Day
	runSim(t, sim, WithSink(&hours))
	var peak, trough float64
	for h := 0; h < 12; h++ {
		peak += hours.msgs[h] // sin(2πt/day) is positive in the first half-day
		trough += hours.msgs[h+12]
	}
	if peak <= trough*1.2 {
		t.Fatalf("diurnal swing not recovered: peak half %f vs trough half %f", peak, trough)
	}
}

type countSink struct{ n int }

func (c *countSink) Write(*xmlenc.Record) error { c.n++; return nil }

func TestSessionPreservesCallerSink(t *testing.T) {
	// A caller-provided sink must keep receiving records even when the
	// figure collector is also active.
	sink := &countSink{}
	res := runSim(t, tinySim(), WithSink(sink), WithFigures())
	if sink.n == 0 {
		t.Fatal("caller sink starved")
	}
	if uint64(sink.n) != res.Report.Pipeline.Records {
		t.Fatalf("sink saw %d records, pipeline reports %d", sink.n, res.Report.Pipeline.Records)
	}
	if res.Figures == nil || res.Figures.Fig4.N() == 0 {
		t.Fatal("collector starved while caller sink active")
	}
}
