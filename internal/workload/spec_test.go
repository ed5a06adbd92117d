package workload

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"edtrace/internal/simtime"
)

// overflowSpec is a valid spec but for its two phases' durations.
func overflowSpec(a, b string) string {
	return `{"name": "overflow", "arrivals": {"process": "poisson"},
	"phases": [{"name": "a", "duration": "` + a + `", "rate": 1},
	           {"name": "b", "duration": "` + b + `", "rate": 1}],
	"churn": {"session_duration": {"dist": "fixed", "mean": "1h"}}}`
}

// TestSpecRejectsOverflowingDurations: a span past 2⁶³ ns, alone or as
// the sum of the phases, is an error that prints the span it read — not
// a negative Total that leaves the engine without an event.
func TestSpecRejectsOverflowingDurations(t *testing.T) {
	if _, err := ParseSpec([]byte(overflowSpec("9000w", "9000w"))); err == nil {
		t.Error(`two "9000w" phases accepted`)
	} else if !strings.Contains(err.Error(), "phases[1]") {
		t.Errorf("phase sum overflow: %v", err)
	}
	for _, d := range []string{"20000w", "15251w", "9223372036854775808ms", "15250w1w"} {
		_, err := ParseDuration(d)
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("ParseDuration(%q) = %v, want an out-of-range error", d, err)
		}
	}
	if _, err := ParseSpec([]byte(overflowSpec("20000w", "1h"))); err == nil || strings.Contains(err.Error(), "--") {
		t.Errorf(`a "20000w" phase: %v`, err)
	}
	if s := Duration(math.MinInt64).String(); strings.HasPrefix(s, "--") || s[0] != '-' {
		t.Errorf("the most negative duration prints as %q", s)
	}
	// The largest span still parses, and the sum of phases that fits.
	max, err := ParseDuration(Duration(math.MaxInt64).String())
	if err != nil || max != math.MaxInt64 {
		t.Errorf("the largest span reads back as %v, %v", int64(max), err)
	}
	if s, err := ParseSpec([]byte(overflowSpec("7000w", "7000w"))); err != nil || s.Total() != 14000*simtime.Week {
		t.Errorf(`two "7000w" phases: %v`, err)
	}
}

// TestDurationStringRoundTrips: String writes every span exactly, a
// residue below the second as fractional milliseconds.
func TestDurationStringRoundTrips(t *testing.T) {
	for _, d := range []Duration{1, 999_999, 1_500_000, Duration(simtime.Week + 3*simtime.Second + 7),
		Duration(10 * simtime.Week), -Duration(simtime.Hour + 1)} {
		got, err := ParseDuration(strings.TrimPrefix(d.String(), "-"))
		if d < 0 {
			got = -got
		}
		if err != nil || got != d {
			t.Errorf("%d prints as %q, which reads back as %d (%v)", int64(d), d.String(), int64(got), err)
		}
	}
}

// trailingSpec is a valid spec followed by a second JSON value.
var trailingSpec = overflowSpec("1h", "1h") + ` {"bogus":1}`

// TestSpecRejectsTrailingContent: anything but white space after the
// spec's JSON value is an error, as an unknown field is.
func TestSpecRejectsTrailingContent(t *testing.T) {
	for _, in := range []string{trailingSpec, overflowSpec("1h", "1h") + "}", overflowSpec("1h", "1h") + " 0"} {
		if _, err := ParseSpec([]byte(in)); err == nil {
			t.Errorf("a spec followed by %q accepted", in[len(overflowSpec("1h", "1h")):])
		}
	}
	if _, err := ParseSpec([]byte(" " + overflowSpec("1h", "1h") + "\n\t ")); err != nil {
		t.Errorf("a spec in white space rejected: %v", err)
	}
}

// FuzzParseSpec: whatever ParseSpec accepts spans a positive time, and
// writing it back as JSON and parsing that gives the same spec (an empty
// releases list comes back as none, which means the same).
func FuzzParseSpec(f *testing.F) {
	md, err := os.ReadFile("../../docs/workload-spec.md")
	if err != nil {
		f.Fatal(err)
	}
	for _, b := range extractJSONBlocks(string(md)) {
		f.Add([]byte(b))
	}
	for _, path := range []string{"../../examples/specs/tenweeks.json", "../../examples/specs/smokeday.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(overflowSpec("9000w", "9000w")))
	f.Add([]byte(overflowSpec("1.0005s", "0.25ms")))
	f.Add([]byte(strings.Replace(overflowSpec("1w", "1m"), `"churn"`, `"releases": [], "churn"`, 1)))
	f.Add([]byte(trailingSpec))
	f.Add([]byte(overflowSpec("1h", "1h") + "}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		if s.Total() <= 0 {
			t.Fatalf("accepted spec spans %d ns", int64(s.Total()))
		}
		out, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("written back as %s, the spec no longer parses: %v", out, err)
		}
		if len(s.Releases) == 0 {
			s.Releases = nil // an empty list is written as none
		}
		if !reflect.DeepEqual(s, again) {
			t.Fatalf("round trip changed the spec:\n%+v\n%+v", s, again)
		}
	})
}
