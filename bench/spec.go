package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it. The JSON file is
// the single source of the names, units and bounds: the harness reads it
// at start-up, refuses to emit a metric it does not declare, and fills a
// declared per-layer metric a workload never touched with 0 — which is
// how "this layer did no work on this workload" is reported.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root: the working
// directory when run through bench/run.sh, its parent under `go test`.
func loadSpec() (*benchSpec, error) {
	var lastErr error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(p)
		if err != nil {
			lastErr = err
			continue
		}
		var s benchSpec
		if err := json.Unmarshal(data, &s); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if len(s.Workloads) == 0 || len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
			return nil, fmt.Errorf("%s: workloads, end_to_end and per_layer must be non-empty", p)
		}
		return &s, nil
	}
	return nil, lastErr
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metrics is what one run measured, by metric name.
type metrics map[string]float64

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// project renders m against the declared list. An undeclared name in m
// is a harness bug (a typo would otherwise vanish silently). A declared
// end-to-end metric that is missing is an error; a missing per-layer
// metric is reported as 0.
func project(m metrics, defs []metricDef, others []metricDef, required bool) (map[string]metricValue, error) {
	known := make(map[string]bool, len(defs)+len(others))
	for _, d := range defs {
		known[d.Name] = true
	}
	for _, d := range others {
		known[d.Name] = true
	}
	var unknown []string
	for name := range m {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("metrics not declared in BENCHMARK.json: %v", unknown)
	}
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok && required {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, nil
}
