// Command bench is the repository's one benchmark: four workloads over
// the whole message journey (client socket → edserverd → index → answer,
// and tap → Session → decode → anonymise → xmlenc → gzip → disk →
// edanalyze figures), measured end to end and, in a separate traced run,
// layer by layer from outside the packages. BENCHMARK.json at the
// repository root declares the workloads and every metric; README.md in
// this directory defines them.
//
// Two ways to run it, both through bench/run.sh:
//
//	bench/run.sh --workload serve --seed 7 --seconds 15 --trace 0
//	    one run of one workload; the last line of standard output is
//	    the JSON result object (the contract BENCHMARK.json's command
//	    is driven by).
//	bench/run.sh [-seed N] [-seconds S] [-sets K]
//	    every workload untraced and traced, the budget tables, and
//	    bench/out/*.json; -sets 2 repeats everything and fails when two
//	    sets disagree by more than a metric's bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// outDir receives every file a run writes; it is ignored by git.
const outDir = "bench/out"

func main() {
	var (
		workload = flag.String("workload", "", "run this one workload and print the JSON result line (default: run all)")
		seed     = flag.Uint64("seed", 1, "seed every input is derived from")
		seconds  = flag.Float64("seconds", 0, "measuring time per run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		sets     = flag.Int("sets", 1, "without -workload: run everything this many times and compare the sets")
	)
	if len(os.Args) == 3 && os.Args[1] == childFlag {
		os.Exit(childMain(os.Args[2]))
	}
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fatal(err)
	}
	if *workload == "" {
		if err := runAll(spec, *seed, *seconds, *sets); err != nil {
			fatal(err)
		}
		return
	}
	if !spec.hasWorkload(*workload) {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	res, err := runOne(spec, *workload, *seed, *seconds, *trace != 0, fullSizes())
	if err != nil {
		fatal(err)
	}
	line, err := res.contractLine(spec, *trace != 0)
	if err != nil {
		fatal(err)
	}
	printMetrics(os.Stderr, spec, res, *trace != 0)
	fmt.Println(line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runOne runs one workload once, untraced or traced, inside a scratch
// directory of its own under bench/out that is removed afterwards, and
// records the run in bench/out/<workload>.json (or trace-<workload>.json
// for the spans of a traced run).
func runOne(spec *benchSpec, workload string, seed uint64, seconds float64, traced bool, sz sizes) (*runResult, error) {
	tmp, err := os.MkdirTemp(outDir, "tmp-"+workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	started := time.Now()
	var res *runResult
	switch workload {
	case "serve", "serve_capture":
		if traced {
			res, err = runServeTraced(seed, seconds, sz, workload == "serve_capture", tmp, tr)
		} else {
			res, err = runServe(seed, seconds, sz, workload == "serve_capture", tmp)
		}
	case "capture_replay":
		res, err = runReplay(seed, seconds, sz, tmp, tr)
	case "analyze":
		res, err = runAnalyze(seed, seconds, sz, tmp, tr)
	default:
		err = fmt.Errorf("workload %q has no implementation", workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	res.notes["workload"] = workload
	res.notes["seed"] = seed
	res.notes["seconds"] = seconds
	res.notes["traced"] = traced
	res.notes["wall_seconds"] = time.Since(started).Seconds()
	res.notes["go_version"] = runtime.Version()
	res.notes["nproc"] = runtime.NumCPU()
	res.notes["gomaxprocs"] = runtime.GOMAXPROCS(0)
	res.notes["commit"] = vcsRevision()
	res.notes["transport"] = "loopback TCP, not a link"

	name := workload + ".json"
	if traced {
		name = "layers-" + workload + ".json"
		if err := tr.write(filepath.Join(outDir, "trace-"+workload+".json")); err != nil {
			return nil, err
		}
	}
	if err := res.writeFile(filepath.Join(outDir, name)); err != nil {
		return nil, err
	}
	return res, nil
}

// vcsRevision is the commit the binary was built from, when the build
// ran inside a git checkout (the driver's checkouts are not).
func vcsRevision() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func (r *runResult) writeFile(path string) error {
	data, err := json.MarshalIndent(struct {
		Attempted uint64         `json:"attempted"`
		Failed    uint64         `json:"failed"`
		Metrics   metrics        `json:"metrics"`
		Notes     map[string]any `json:"notes"`
	}{r.attempted, r.failed, r.m, r.notes}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// contractLine renders the one JSON object the benchmark contract asks
// for on the last line of standard output.
func (r *runResult) contractLine(spec *benchSpec, traced bool) (string, error) {
	defs, others, required := spec.EndToEnd, spec.PerLayer, true
	if traced {
		defs, others, required = spec.PerLayer, spec.EndToEnd, false
	}
	vals, err := project(r.m, defs, others, required)
	if err != nil {
		return "", err
	}
	attempted := r.attempted
	if attempted == 0 {
		attempted = 1 // the contract wants at least 1; a run that checked nothing is reported failed below
	}
	data, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, attempted, r.failed, vals})
	return string(data), err
}

// printMetrics lists every metric of the run by name with its unit.
func printMetrics(w *os.File, spec *benchSpec, r *runResult, traced bool) {
	defs := spec.EndToEnd
	if traced {
		defs = spec.PerLayer
	}
	fmt.Fprintf(w, "%s seed=%v seconds=%v traced=%v: attempted %d, failed %d\n",
		r.notes["workload"], r.notes["seed"], r.notes["seconds"], traced, r.attempted, r.failed)
	for _, d := range defs {
		if v, ok := r.m[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
	if f, ok := r.notes["failures"].([]string); ok {
		fmt.Fprintf(w, "  failures: %s\n", strings.Join(f, "; "))
	}
}
