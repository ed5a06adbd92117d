package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// paperMsgsPerS is the paper's ten-week average load on its server, the
// reference row of the daemon budget.
const paperMsgsPerS = 1570.0

// setResult is one full pass over every workload, untraced and traced.
type setResult struct {
	plain  map[string]*runResult
	layers map[string]*runResult
}

// runAll is bench/run.sh without -workload: every workload untraced and
// traced, every metric printed by name with its unit, the budget tables,
// and — with sets > 1 — the repeatability check.
func runAll(spec *benchSpec, seed uint64, seconds float64, sets int) error {
	var all []*setResult
	failed := false
	for s := 0; s < sets; s++ {
		set := &setResult{plain: map[string]*runResult{}, layers: map[string]*runResult{}}
		for _, w := range spec.Workloads {
			for _, traced := range []bool{false, true} {
				res, err := runOne(spec, w.Name, seed, seconds, traced, fullSizes())
				if err != nil {
					return err
				}
				// The contract line doubles as the check that every declared
				// metric was produced and none is undeclared.
				if _, err := res.contractLine(spec, traced); err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				printMetrics(os.Stdout, spec, res, traced)
				if res.failed > 0 {
					failed = true
				}
				if traced {
					set.layers[w.Name] = res
				} else {
					set.plain[w.Name] = res
				}
			}
		}
		b := budget(set)
		fmt.Print(b.render())
		if err := writeJSON(filepath.Join(outDir, "budget.json"), b); err != nil {
			return err
		}
		all = append(all, set)
	}
	if sets > 1 && !compareSets(spec, all) {
		return fmt.Errorf("two sets of runs of the same commit differ by more than a metric's bound")
	}
	if failed {
		return fmt.Errorf("fail ratio above 0: see the failures listed above")
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// budgetRow is one rung: its cost per item, its share of the anchor, and
// whether it is part of the sum or detail of the row above it.
type budgetRow struct {
	Name   string  `json:"name"`
	NS     float64 `json:"ns_per_item"`
	Share  float64 `json:"share_of_anchor"`
	Detail bool    `json:"detail,omitempty"`
}

type budgetLadder struct {
	Side     string      `json:"side"`
	Workload string      `json:"workload"`
	Item     string      `json:"item"`
	Anchor   budgetRow   `json:"anchor"`
	Rows     []budgetRow `json:"rows"`
}

type budgetTable struct {
	Ladders []budgetLadder `json:"ladders"`
	// Reference is the paper's average load and how far the measured
	// peak is above it.
	Reference struct {
		PaperMsgsPerS float64 `json:"paper_msgs_per_s"`
		PeakMsgsPerS  float64 `json:"peak_msgs_per_s"`
		Headroom      float64 `json:"peak_over_paper"`
	} `json:"reference"`
}

// budget lays the traced runs out as ladders: on each side the rungs on
// the path plus the named residual equal the anchor.
func budget(set *setResult) *budgetTable {
	b := &budgetTable{}
	row := func(l *budgetLadder, name string, ns float64, detail bool) {
		l.Rows = append(l.Rows, budgetRow{Name: name, NS: ns, Share: ns / l.Anchor.NS, Detail: detail})
	}
	if r := set.layers["serve"]; r != nil {
		m := r.m
		l := budgetLadder{Side: "daemon", Workload: "serve", Item: "request, paced phase",
			Anchor: budgetRow{Name: "edserverd.rtt_p50_us", NS: m["edserverd.rtt_p50_us"] * 1e3, Share: 1}}
		row(&l, "env.loopback_echo_ns", m["env.loopback_echo_ns"], false)
		row(&l, "ed2k.stream_next_ns", m["ed2k.stream_next_ns"], false)
		row(&l, "ed2k.decode_ns", m["ed2k.decode_ns"], true)
		row(&l, "server.handle_ns", m["server.handle_ns"], false)
		row(&l, "ed2k.encode_ns", m["ed2k.encode_ns"], false)
		row(&l, "edserverd.residual_ns", m["edserverd.residual_ns"], false)
		row(&l, "policy.decide_ns (not on the path)", m["policy.decide_ns"], true)
		b.Ladders = append(b.Ladders, l)
	}
	if r := set.layers["capture_replay"]; r != nil {
		m := r.m
		perFrame := 1.0
		if fr, ok := r.notes["frames"].(uint64); ok && fr > 0 {
			perFrame = float64(r.notes["records"].(int)) / float64(fr)
		}
		anchor := 1e9 / r.notes["frames_per_s"].(float64)
		l := budgetLadder{Side: "capture", Workload: "capture_replay", Item: "frame",
			Anchor: budgetRow{Name: "1e9 / frames_per_s", NS: anchor, Share: 1}}
		row(&l, "pcap.read_ns", m["pcap.read_ns"], false)
		row(&l, "core.process_frame_ns", m["core.process_frame_ns"], false)
		row(&l, "netsim.parse_ns", m["netsim.parse_ns"], true)
		row(&l, "core.decode_frame_ns", m["core.decode_frame_ns"], true)
		row(&l, "anonymize.client_ns (per lookup)", m["anonymize.client_ns"], true)
		row(&l, "anonymize.file_ns (per lookup)", m["anonymize.file_ns"], true)
		row(&l, "edtrace.session_hop_ns", m["edtrace.session_hop_ns"], false)
		row(&l, "edtrace.figures_sink_ns x records/frame", m["edtrace.figures_sink_ns"]*perFrame, false)
		row(&l, "dataset.write_gzip_ns x records/frame", m["dataset.write_gzip_ns"]*perFrame, false)
		row(&l, "dataset.write_raw_ns x records/frame", m["dataset.write_raw_ns"]*perFrame, true)
		row(&l, "xmlenc.append_ns x records/frame", m["xmlenc.append_ns"]*perFrame, true)
		row(&l, "capture.residual_ns", m["capture.residual_ns"], false)
		b.Ladders = append(b.Ladders, l)
	}
	if r := set.layers["analyze"]; r != nil {
		m := r.m
		anchor := 1e9 / r.notes["records_per_s"].(float64)
		l := budgetLadder{Side: "analysis", Workload: "analyze", Item: "record",
			Anchor: budgetRow{Name: "1e9 / records_per_s", NS: anchor, Share: 1}}
		row(&l, "dataset.verify_ns", m["dataset.verify_ns"], false)
		row(&l, "dataset.read_ns x 2 passes", 2*m["dataset.read_ns"], false)
		row(&l, "xmlenc.decode_ns", m["xmlenc.decode_ns"], true)
		row(&l, "analysis.collect_ns", m["analysis.collect_ns"], false)
		row(&l, "analysis.window_ns", m["analysis.window_ns"], false)
		row(&l, "analysis.finalize_ms / records", m["analysis.finalize_ms"]*1e6/float64(r.notes["records"].(uint64)), false)
		row(&l, "analyze.residual_ns", m["analyze.residual_ns"], false)
		b.Ladders = append(b.Ladders, l)
	}
	b.Reference.PaperMsgsPerS = paperMsgsPerS
	if r := set.plain["serve"]; r != nil {
		b.Reference.PeakMsgsPerS = r.m["throughput_per_s"]
		b.Reference.Headroom = r.m["throughput_per_s"] / paperMsgsPerS
	}
	return b
}

func (b *budgetTable) render() string {
	out := "\nbudget: rungs on the path + residual = anchor (indented rows are detail of the row above)\n"
	for _, l := range b.Ladders {
		out += fmt.Sprintf("\n%s side, workload %s, per %s\n", l.Side, l.Workload, l.Item)
		out += fmt.Sprintf("  %-44s %12.0f ns %6.1f%%\n", "anchor: "+l.Anchor.Name, l.Anchor.NS, 100.0)
		sum := 0.0
		for _, r := range l.Rows {
			name := r.Name
			if r.Detail {
				name = "  " + name
			} else {
				sum += r.NS
			}
			out += fmt.Sprintf("  %-44s %12.0f ns %6.1f%%\n", name, r.NS, 100*r.Share)
		}
		out += fmt.Sprintf("  %-44s %12.0f ns %6.1f%%\n", "sum of rungs on the path + residual", sum, 100*sum/l.Anchor.NS)
	}
	out += fmt.Sprintf("\nreference: the paper's server averaged %.0f msgs/s; serve peaks at %.0f msgs/s (%.0fx)\n\n",
		b.Reference.PaperMsgsPerS, b.Reference.PeakMsgsPerS, b.Reference.Headroom)
	return out
}

// compareSets prints, for every end-to-end metric and workload, the
// values of the first two sets, their relative difference and the
// bound, and reports whether every difference is within its bound.
func compareSets(spec *benchSpec, sets []*setResult) bool {
	ok := true
	fmt.Printf("repeatability: set 1 vs set 2 of the same commit\n")
	fmt.Printf("  %-16s %-20s %14s %14s %8s %8s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, w := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			a, b := sets[0].plain[w.Name].m[d.Name], sets[1].plain[w.Name].m[d.Name]
			diff := math.Abs(a-b) / math.Min(a, b)
			verdict := ""
			if diff > d.Bound {
				verdict = "  EXCEEDS"
				ok = false
			}
			fmt.Printf("  %-16s %-20s %14.4f %14.4f %7.1f%% %7.1f%%%s\n", w.Name, d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	return ok
}
