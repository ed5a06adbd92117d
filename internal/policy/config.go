// The traffic-policy config format: a JSON document selecting and
// parameterising the admission, rate-limit and load-shedding policies
// the daemon consults at its choke points. The format is documented
// field by field in docs/policy.md; the examples there are executed
// verbatim by a test, in the same strict-parse style as the workload
// spec (docs/workload-spec.md) — an unknown field or a unitless
// duration is an error, never a silent default.

package policy

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// Duration is a wall-clock span in the config's JSON surface. It
// unmarshals from Go duration strings ("250ms", "2s", "1m30s"); bare
// numbers are rejected so every threshold carries its unit.
type Duration time.Duration

// Std converts to the standard library type.
func (d Duration) Std() time.Duration { return time.Duration(d) }

// String renders the standard compact form.
func (d Duration) String() string { return time.Duration(d).String() }

// MarshalJSON renders the canonical string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

// UnmarshalJSON parses the value+unit string form.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("policy: duration must be a string like \"250ms\" or \"2s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("policy: bad duration %q: %v", s, err)
	}
	*d = Duration(v)
	return nil
}

// AdmissionSpec is the connection-accept choke point: a token bucket
// per source IP plus a global concurrent-connection cap. A rate of 0
// disables that limiter.
type AdmissionSpec struct {
	// PerIPRate is the sustained new-connection rate allowed per source
	// IP, in connections per second (0 = unlimited).
	PerIPRate float64 `json:"per_ip_rate,omitempty"`
	// PerIPBurst is the bucket depth (0 = max(per_ip_rate, 1)).
	PerIPBurst float64 `json:"per_ip_burst,omitempty"`
	// MaxConnections caps concurrently open TCP connections; arrivals
	// beyond it are shed at accept (0 = unlimited).
	MaxConnections int `json:"max_connections,omitempty"`
	// MaxTrackedIPs bounds the per-IP admission table (default 65536);
	// beyond it the stalest entries are evicted.
	MaxTrackedIPs int `json:"max_tracked_ips,omitempty"`
}

// MessageSpec is the per-message choke point: token buckets on the
// query classes an abusive client floods. TCP connections each get
// their own bucket set; UDP clients share one set per source IP. A
// rate of 0 disables that limiter.
type MessageSpec struct {
	// SearchesPerSec / SearchBurst rate-limit SearchReq per client.
	// Throttled searches get an empty SearchRes without touching the
	// index, after ThrottleDelay of backpressure.
	SearchesPerSec float64 `json:"searches_per_sec,omitempty"`
	SearchBurst    float64 `json:"search_burst,omitempty"`
	// OffersPerSec / OfferBurst rate-limit OfferFiles per client —
	// the index-spam (pollution flood) defence. Throttled offers get
	// OfferAck{Accepted: 0} and never reach the index.
	OffersPerSec float64 `json:"offers_per_sec,omitempty"`
	OfferBurst   float64 `json:"offer_burst,omitempty"`
	// AskHashesPerSec / AskBurst budget GetSources amplification in
	// asked-for hashes per second per client; a query over budget is
	// truncated to the granted hashes (bounded in-flight asks).
	AskHashesPerSec float64 `json:"ask_hashes_per_sec,omitempty"`
	AskBurst        float64 `json:"ask_burst,omitempty"`
	// LowIDFactor scales every message rate for low-ID (NAT'd)
	// clients, deprioritizing them under load. Default 0.5; must be in
	// (0, 1].
	LowIDFactor *float64 `json:"low_id_factor,omitempty"`
	// ThrottleDelay is the backpressure pause before a throttled or
	// shed answer is sent: the abuser's lockstep loop slows to
	// 1/delay round trips per second (default 100ms).
	ThrottleDelay Duration `json:"throttle_delay,omitempty"`
}

// ShedSpec is the saturation detector: when a configured signal
// crosses its threshold, load shedding flips on — new connections are
// rejected and searches get empty answers — and stays on for at least
// Hold after the last crossing.
type ShedSpec struct {
	// InflightHigh triggers shedding when the daemon's in-flight
	// request gauge reaches it (0 = leg disabled).
	InflightHigh int `json:"inflight_high,omitempty"`
	// P99High triggers shedding when the windowed p99 of the handle
	// latency histogram reaches it (0 = leg disabled).
	P99High Duration `json:"p99_high,omitempty"`
	// MinWindow is the minimum observations in a check window for the
	// latency leg to count (default 32): a p99 over three samples is
	// noise, not saturation.
	MinWindow int `json:"min_window,omitempty"`
	// CheckInterval is the detector's sampling period (default 250ms).
	CheckInterval Duration `json:"check_interval,omitempty"`
	// Hold keeps shedding on for at least this long after the last
	// threshold crossing (default 2s) — hysteresis against flapping.
	Hold Duration `json:"hold,omitempty"`
}

// Config selects the active policies. Absent sections are fully
// disabled: the zero Config admits everything.
type Config struct {
	Admission *AdmissionSpec `json:"admission,omitempty"`
	Messages  *MessageSpec   `json:"messages,omitempty"`
	Shed      *ShedSpec      `json:"shed,omitempty"`
}

// Validate rejects incoherent configs with field-named errors.
func (c *Config) Validate() error {
	if a := c.Admission; a != nil {
		if a.PerIPRate < 0 {
			return fmt.Errorf("policy: admission.per_ip_rate = %v", a.PerIPRate)
		}
		if a.PerIPBurst < 0 {
			return fmt.Errorf("policy: admission.per_ip_burst = %v", a.PerIPBurst)
		}
		if a.MaxConnections < 0 {
			return fmt.Errorf("policy: admission.max_connections = %d", a.MaxConnections)
		}
		if a.MaxTrackedIPs < 0 {
			return fmt.Errorf("policy: admission.max_tracked_ips = %d", a.MaxTrackedIPs)
		}
		if a.PerIPRate == 0 && a.MaxConnections == 0 {
			return fmt.Errorf("policy: admission section enables no limiter (set per_ip_rate or max_connections)")
		}
	}
	if m := c.Messages; m != nil {
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"searches_per_sec", m.SearchesPerSec}, {"search_burst", m.SearchBurst},
			{"offers_per_sec", m.OffersPerSec}, {"offer_burst", m.OfferBurst},
			{"ask_hashes_per_sec", m.AskHashesPerSec}, {"ask_burst", m.AskBurst},
		} {
			if f.v < 0 {
				return fmt.Errorf("policy: messages.%s = %v", f.name, f.v)
			}
		}
		if f := m.LowIDFactor; f != nil && (*f <= 0 || *f > 1) {
			return fmt.Errorf("policy: messages.low_id_factor = %v (want (0, 1])", *f)
		}
		if m.ThrottleDelay < 0 {
			return fmt.Errorf("policy: messages.throttle_delay = %v", m.ThrottleDelay)
		}
		if m.SearchesPerSec == 0 && m.OffersPerSec == 0 && m.AskHashesPerSec == 0 {
			return fmt.Errorf("policy: messages section enables no limiter (set a *_per_sec rate)")
		}
	}
	if s := c.Shed; s != nil {
		if s.InflightHigh < 0 {
			return fmt.Errorf("policy: shed.inflight_high = %d", s.InflightHigh)
		}
		if s.P99High < 0 || s.MinWindow < 0 || s.CheckInterval < 0 || s.Hold < 0 {
			return fmt.Errorf("policy: shed thresholds must be non-negative")
		}
		if s.InflightHigh == 0 && s.P99High == 0 {
			return fmt.Errorf("policy: shed section enables no signal (set inflight_high or p99_high)")
		}
	}
	return nil
}

// ParseConfig decodes and validates a JSON config. Unknown fields are
// errors: a typo'd knob must not silently fall back to a default. So is
// anything but white space after the config's one JSON value.
func ParseConfig(data []byte) (*Config, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var c Config
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("policy config: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("policy config: content after the JSON value")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// LoadConfig reads and parses a config file.
func LoadConfig(path string) (*Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("policy config: %w", err)
	}
	c, err := ParseConfig(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// lowIDFactor returns the configured (or default) low-ID rate scale.
func (m *MessageSpec) lowIDFactor() float64 {
	if m.LowIDFactor != nil {
		return *m.LowIDFactor
	}
	return 0.5
}

// throttleDelay returns the configured (or default) backpressure pause.
func (m *MessageSpec) throttleDelay() time.Duration {
	if m.ThrottleDelay > 0 {
		return m.ThrottleDelay.Std()
	}
	return 100 * time.Millisecond
}
