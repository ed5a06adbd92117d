package workload

import (
	"os"
	"strings"
	"testing"
)

// extractJSONBlocks returns every ```json fenced code block in md,
// in document order.
func extractJSONBlocks(md string) []string {
	var blocks []string
	lines := strings.Split(md, "\n")
	var cur []string
	in := false
	for _, ln := range lines {
		switch {
		case !in && strings.TrimSpace(ln) == "```json":
			in, cur = true, nil
		case in && strings.TrimSpace(ln) == "```":
			in = false
			blocks = append(blocks, strings.Join(cur, "\n"))
		case in:
			cur = append(cur, ln)
		}
	}
	return blocks
}

// TestDocsExamplesExecute runs every JSON example in
// docs/workload-spec.md verbatim through ParseSpec, NewEngine, and a
// full drain of the event stream. If the documented format and the
// shipped code drift apart, this test breaks.
func TestDocsExamplesExecute(t *testing.T) {
	md, err := os.ReadFile("../../docs/workload-spec.md")
	if err != nil {
		t.Fatalf("read spec doc: %v", err)
	}
	blocks := extractJSONBlocks(string(md))
	if len(blocks) < 2 {
		t.Fatalf("expected at least 2 ```json examples in docs/workload-spec.md, found %d", len(blocks))
	}
	for i, b := range blocks {
		spec, err := ParseSpec([]byte(b))
		if err != nil {
			t.Fatalf("example %d does not parse: %v\n%s", i+1, err, b)
		}
		eng, err := NewEngine(spec, spec.WorldConfig())
		if err != nil {
			t.Fatalf("example %d (%q) rejected by engine: %v", i+1, spec.Name, err)
		}
		events, starts := 0, 0
		last := spec.Total()
		for {
			ev, ok := eng.Next()
			if !ok {
				break
			}
			events++
			if ev.Kind == EvSessionStart {
				starts++
			}
			last = ev.At
		}
		if starts == 0 {
			t.Errorf("example %d (%q): no sessions generated", i+1, spec.Name)
		}
		if last != spec.Total() {
			t.Errorf("example %d (%q): stream ends at %d, want total %d", i+1, spec.Name, last, spec.Total())
		}
		t.Logf("example %d (%q): %d events, %d sessions", i+1, spec.Name, events, starts)
	}
}

// TestShippedSpecsLoad loads the larger specs shipped under
// examples/specs/ through the same path edload uses.
func TestShippedSpecsLoad(t *testing.T) {
	for _, path := range []string{
		"../../examples/specs/tenweeks.json",
		"../../examples/specs/smokeday.json",
	} {
		spec, err := LoadSpec(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if _, err := NewEngine(spec, spec.WorldConfig()); err != nil {
			t.Fatalf("%s: engine rejects shipped spec: %v", path, err)
		}
	}
}
