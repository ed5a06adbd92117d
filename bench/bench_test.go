package main

import (
	"os"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// workload spawns a child process of itself.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == childFlag {
		os.Exit(childMain(os.Args[2]))
	}
	os.Exit(m.Run())
}

// layerUse lists, for a few rungs, the workloads whose traced run may
// report them: the benchmark's claim that each workload exercises its
// own layers and no others.
var layerUse = map[string]map[string]bool{
	"server.handle_ns":      {"serve": true, "serve_capture": true},
	"ed2k.stream_next_ns":   {"serve": true, "serve_capture": true},
	"edtrace.mirror_ns":     {"serve_capture": true},
	"core.process_frame_ns": {"serve_capture": true, "capture_replay": true},
	"dataset.write_gzip_ns": {"capture_replay": true},
	"dataset.read_ns":       {"analyze": true},
	"analysis.collect_ns":   {"analyze": true},
}

// TestSpecMatchesHarness runs every workload of BENCHMARK.json at tiny
// size with the oracles on — untraced, and traced unless -short — and
// checks the contract the driver relies on: no failed operation, every
// declared end-to-end metric measured and non-zero, no metric emitted
// that BENCHMARK.json does not declare, and every traced run reporting
// work only in the layers its workload uses.
func TestSpecMatchesHarness(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	// Results land in the real bench/out (ignored by git), relative to
	// the repository root like everything the harness writes.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		t.Fatal(err)
	}
	const seconds = 0.15
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			if traced && testing.Short() {
				continue
			}
			res, err := runOne(spec, w.Name, 7, seconds, traced, tinySizes())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d operations failed: %v",
					w.Name, traced, res.failed, res.attempted, res.notes["failures"])
			}
			if _, err := res.contractLine(spec, traced); err != nil {
				t.Errorf("%s traced=%v: %v", w.Name, traced, err)
			}
			if traced {
				for rung, on := range layerUse {
					if got := res.m[rung] != 0; got != on[w.Name] {
						t.Errorf("%s: %s = %v, want measured=%v", w.Name, rung, res.m[rung], on[w.Name])
					}
				}
				continue
			}
			for _, d := range spec.EndToEnd {
				if res.m[d.Name] <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, d.Name, res.m[d.Name])
				}
			}
		}
	}
}
