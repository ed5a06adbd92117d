package policy

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"
)

// trailingConfigs are configs that would be valid if they ended after
// their first JSON value.
var trailingConfigs = []string{
	`{"shed":{"inflight_high":5}} {"bogus":1}`,
	`{"shed":{"inflight_high":5}}}`,
	`{"shed":{"inflight_high":5}} x`,
	`{"shed":{"inflight_high":5}} null`,
}

// TestConfigRejectsTrailingContent: anything but white space after the
// config's JSON value is an error, as an unknown field is.
func TestConfigRejectsTrailingContent(t *testing.T) {
	for _, in := range trailingConfigs {
		if _, err := ParseConfig([]byte(in)); err == nil {
			t.Errorf("%q accepted", in)
		}
	}
	if _, err := ParseConfig([]byte("\n {\"shed\":{\"inflight_high\":5}} \r\n\t")); err != nil {
		t.Errorf("a config in white space rejected: %v", err)
	}
}

// FuzzParseConfig: whatever ParseConfig accepts passes Validate, builds an
// engine, and writing it back as JSON and parsing that gives the same
// config.
//
//	go test -run '^$' -fuzz '^FuzzParseConfig$' -fuzztime 15s ./internal/policy/
func FuzzParseConfig(f *testing.F) {
	shipped, err := os.ReadFile("../../examples/policy.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(shipped)
	f.Add(append(shipped, ` {"bogus":1}`...))
	for _, in := range trailingConfigs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ParseConfig(data)
		if err != nil {
			return
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("accepted config fails Validate: %v", err)
		}
		if _, err := New(*c, nil); err != nil {
			t.Fatalf("accepted config builds no engine: %v", err)
		}
		out, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		again, err := ParseConfig(out)
		if err != nil {
			t.Fatalf("written back as %s, the config no longer parses: %v", out, err)
		}
		if !reflect.DeepEqual(c, again) {
			t.Fatalf("round trip changed the config:\n%s\nreads back as %+v", out, again)
		}
	})
}
