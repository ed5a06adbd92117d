// The declarative workload-spec format: a JSON document describing a
// long, non-stationary load profile — multi-phase rate schedules,
// diurnal and weekly curves, client churn and content-release flash
// crowds — that the Engine turns into a deterministic event stream.
// The format is documented field by field in docs/workload-spec.md;
// every example spec in that document is executed verbatim by a test.

package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"edtrace/internal/simtime"
)

// Duration is a simulated time span in the spec's JSON surface.
// It unmarshals from strings made of value+unit pairs — "90s", "45m",
// "12h", "2d", "1w", or compounds like "1w2d12h" — with units
// w (weeks), d (days), h, m, s, ms. Bare numbers are rejected: every
// span in a spec carries its unit.
type Duration simtime.Time

// Sim converts to the simulated-clock type.
func (d Duration) Sim() simtime.Time { return simtime.Time(d) }

// String renders the span compactly (largest units first) and exactly:
// a residue below a second is written as fractional milliseconds, so
// ParseDuration(d.String()) == d.
func (d Duration) String() string {
	if d == 0 {
		return "0s"
	}
	neg, t := "", uint64(d)
	if d < 0 {
		neg, t = "-", -t // as uint64, so the most negative value negates too
	}
	var b strings.Builder
	for _, u := range []struct {
		span simtime.Time
		name string
	}{
		{simtime.Week, "w"}, {simtime.Day, "d"}, {simtime.Hour, "h"},
		{simtime.Minute, "m"}, {simtime.Second, "s"},
	} {
		if n := t / uint64(u.span); n > 0 {
			fmt.Fprintf(&b, "%d%s", n, u.name)
			t -= n * uint64(u.span)
		}
	}
	if t > 0 {
		b.WriteString(strconv.FormatFloat(float64(t)/float64(simtime.Millisecond), 'f', -1, 64) + "ms")
	}
	return neg + b.String()
}

// MarshalJSON renders the canonical string form.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

// UnmarshalJSON parses the value+unit string form.
func (d *Duration) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("workload: duration must be a string like \"12h\" or \"1w2d\": %w", err)
	}
	v, err := ParseDuration(s)
	if err != nil {
		return err
	}
	*d = v
	return nil
}

// ParseDuration parses "90s", "36h", "2d", "10w", "1w2d12h", ...
func ParseDuration(s string) (Duration, error) {
	units := []struct {
		suffix string
		span   simtime.Time
	}{
		// Longest suffixes first so "ms" is not read as "m"+junk.
		{"ms", simtime.Millisecond},
		{"w", simtime.Week}, {"d", simtime.Day}, {"h", simtime.Hour},
		{"m", simtime.Minute}, {"s", simtime.Second},
	}
	orig, total, matched := s, simtime.Time(0), false
	for s != "" {
		i := 0
		for i < len(s) && (s[i] == '.' || (s[i] >= '0' && s[i] <= '9')) {
			i++
		}
		if i == 0 {
			return 0, fmt.Errorf("workload: bad duration %q", orig)
		}
		num, err := strconv.ParseFloat(s[:i], 64)
		if err != nil {
			return 0, fmt.Errorf("workload: bad duration %q: %v", orig, err)
		}
		s = s[i:]
		found := false
		for _, u := range units {
			if strings.HasPrefix(s, u.suffix) {
				v := math.Round(num * float64(u.span))
				if v >= math.MaxInt64 || total > math.MaxInt64-simtime.Time(v) {
					return 0, fmt.Errorf("workload: duration %q out of range", orig)
				}
				total += simtime.Time(v)
				s = s[len(u.suffix):]
				found, matched = true, true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("workload: bad duration %q (units: w d h m s ms)", orig)
		}
	}
	if !matched {
		return 0, fmt.Errorf("workload: empty duration")
	}
	return Duration(total), nil
}

// Spec is the declarative workload description: what ten weeks of load
// look like, independent of how fast they replay. The Engine expands a
// Spec plus its seed into one deterministic event stream; the
// time-compression factor affects only wall-clock pacing at replay,
// never the stream itself.
type Spec struct {
	// Name labels the run in logs and metrics.
	Name string `json:"name"`
	// Seed drives all randomness; same spec + seed ⇒ identical stream.
	Seed uint64 `json:"seed"`
	// Compress is the default sim/wall compression factor for replay
	// (10080 ⇒ a week per minute). <= 0 means 1 (real time). Replay
	// tools may override it; the event stream is invariant either way.
	Compress float64 `json:"compress,omitempty"`

	// World overrides the synthetic catalog/population defaults.
	World *WorldSpec `json:"world,omitempty"`
	// Arrivals selects the session interarrival process.
	Arrivals ArrivalSpec `json:"arrivals"`
	// Phases is the piecewise rate schedule; the spec's total duration
	// is the sum of phase durations.
	Phases []PhaseSpec `json:"phases"`
	// Diurnal modulates the rate over each 24 h cycle (nil = flat).
	Diurnal *DiurnalSpec `json:"diurnal,omitempty"`
	// Weekly modulates the rate per day of week (nil = flat).
	Weekly *WeeklySpec `json:"weekly,omitempty"`
	// Churn shapes session lifetimes and the live population mix.
	Churn ChurnSpec `json:"churn"`
	// Releases are content-release events: new catalog files appear and
	// a flash crowd multiplies arrivals for a window.
	Releases []ReleaseSpec `json:"releases,omitempty"`
}

// WorldSpec overrides the synthetic world generation; zero fields keep
// the defaults of Spec.WorldConfig (a small load-test world).
type WorldSpec struct {
	// Files is the genuine catalog size.
	Files int `json:"files,omitempty"`
	// Clients is the population size sessions draw from.
	Clients int `json:"clients,omitempty"`
	// VocabWords sizes the filename/search vocabulary.
	VocabWords int `json:"vocab_words,omitempty"`
	// PolluterFraction overrides the polluter share (pointer so an
	// explicit 0 — no background pollution — is distinguishable).
	PolluterFraction *float64 `json:"polluter_fraction,omitempty"`
	// ForgedPerPolluter is each polluter's forged-variant count.
	ForgedPerPolluter int `json:"forged_per_polluter,omitempty"`
}

// ArrivalSpec selects the renewal process generating session arrivals.
type ArrivalSpec struct {
	// Process is "poisson", "gamma" or "weibull".
	Process string `json:"process"`
	// Shape is the gamma/weibull shape parameter k (ignored for
	// poisson; 0 defaults to 1, which reduces both to exponential
	// interarrivals). k < 1 is burstier than Poisson, k > 1 smoother.
	Shape float64 `json:"shape,omitempty"`
}

// PhaseSpec is one segment of the rate schedule.
type PhaseSpec struct {
	// Name labels per-phase counters in metrics and stats.
	Name string `json:"name"`
	// Duration is the phase's simulated length.
	Duration Duration `json:"duration"`
	// Rate is the mean session-arrival rate at the phase start, in
	// sessions per simulated minute, before diurnal/weekly/flash
	// modulation.
	Rate float64 `json:"rate"`
	// RateEnd, when > 0, ramps the rate linearly from Rate to RateEnd
	// across the phase; 0 keeps it flat.
	RateEnd float64 `json:"rate_end,omitempty"`
}

// DiurnalSpec is the day/night activity curve: a raised cosine with the
// given amplitude peaking at PeakHour.
type DiurnalSpec struct {
	// Amplitude in [0,1): rate swings in [1-A, 1+A] over each day.
	Amplitude float64 `json:"amplitude"`
	// PeakHour is the hour of day [0,24) of maximum activity.
	PeakHour float64 `json:"peak_hour"`
}

// WeeklySpec scales the rate per day of week.
type WeeklySpec struct {
	// DayFactors are multipliers for days 0..6 of each simulated week
	// (day 0 = the week's first day; the sim clock has no epoch).
	// Entries <= 0 mean 1.0.
	DayFactors [7]float64 `json:"day_factors"`
}

// ChurnSpec shapes session lifecycles: how long clients stay connected
// and who they are.
type ChurnSpec struct {
	// SessionDuration draws each session's length.
	SessionDuration DistSpec `json:"session_duration"`
	// LowIDFraction, when set (pointer: explicit 0 is meaningful),
	// overrides the population's NAT'd low-ID share for arriving
	// sessions.
	LowIDFraction *float64 `json:"low_id_fraction,omitempty"`
	// MaxActive caps concurrent sessions; arrivals past the cap are
	// suppressed (counted, not queued). 0 = unbounded.
	MaxActive int `json:"max_active,omitempty"`
}

// DistSpec is a one-dimensional duration distribution.
type DistSpec struct {
	// Dist is "lognormal", "exponential" or "fixed".
	Dist string `json:"dist"`
	// Mean is the distribution mean ("fixed" returns it exactly;
	// "lognormal" interprets it as the median, the conventional
	// parameterisation for session lengths).
	Mean Duration `json:"mean"`
	// Sigma is the log-normal shape (ignored otherwise; 0 → 0.6).
	Sigma float64 `json:"sigma,omitempty"`
}

// ReleaseSpec is one content-release event: Files new catalog entries
// (plus ForgedVariants polluted copies) appear at At, and the arrival
// rate multiplies by CrowdBoost for CrowdDuration — the flash crowd.
// Sessions arriving inside the crowd window are tagged with the release
// and steer their asks at the released files.
type ReleaseSpec struct {
	// At is the release instant (from simulation start).
	At Duration `json:"at"`
	// Name labels the release in logs.
	Name string `json:"name,omitempty"`
	// Files is the number of new genuine catalog files released.
	Files int `json:"files"`
	// ForgedVariants is how many forged (polluted) variants of the
	// released files appear alongside them, with the classic fixed-
	// prefix fileIDs; the flash crowd asks for them with the genuine
	// files, so they reach Fig 3's buckets (TestFig3ForgedRelease).
	ForgedVariants int `json:"forged_variants,omitempty"`
	// CrowdBoost multiplies the arrival rate during the crowd window
	// (1 = no crowd).
	CrowdBoost float64 `json:"crowd_boost"`
	// CrowdDuration is the flash-crowd window length.
	CrowdDuration Duration `json:"crowd_duration"`
}

// Total returns the spec's simulated span: the sum of phase durations.
func (s *Spec) Total() simtime.Time {
	var t simtime.Time
	for _, p := range s.Phases {
		t += p.Duration.Sim()
	}
	return t
}

// RateAt evaluates the composed rate curve at t, in session arrivals
// per simulated minute: phase schedule × diurnal curve × weekly curve
// × the product of active flash-crowd boosts.
func (s *Spec) RateAt(t simtime.Time) float64 {
	rate := s.phaseRate(t)
	if d := s.Diurnal; d != nil {
		hour := float64(t%simtime.Day) / float64(simtime.Hour)
		rate *= 1 + d.Amplitude*math.Cos(2*math.Pi*(hour-d.PeakHour)/24)
	}
	if w := s.Weekly; w != nil {
		if f := w.DayFactors[int(t/simtime.Day)%7]; f > 0 {
			rate *= f
		}
	}
	for i := range s.Releases {
		r := &s.Releases[i]
		if t >= r.At.Sim() && t < r.At.Sim()+r.CrowdDuration.Sim() {
			rate *= r.CrowdBoost
		}
	}
	return rate
}

// maxRate returns an upper bound on RateAt over the whole
// schedule: the thinning envelope. Crowd windows can overlap, so their
// contribution is the maximum product of boosts simultaneously active.
func (s *Spec) maxRate() float64 {
	phaseMax := 0.0
	for _, p := range s.Phases {
		phaseMax = max(phaseMax, p.Rate, p.RateEnd)
	}
	diurnalMax := 1.0
	if d := s.Diurnal; d != nil {
		diurnalMax = 1 + d.Amplitude
	}
	weeklyMax := 1.0
	if w := s.Weekly; w != nil {
		weeklyMax = max(weeklyMax, slices.Max(w.DayFactors[:]))
	}
	crowdMax := 1.0
	for i := range s.Releases {
		// Product of boosts active at this window's start: windows that
		// contain it are exactly the overlaps to account for.
		at := s.Releases[i].At.Sim()
		prod := 1.0
		for j := range s.Releases {
			r := &s.Releases[j]
			if at >= r.At.Sim() && at < r.At.Sim()+r.CrowdDuration.Sim() {
				prod *= r.CrowdBoost
			}
		}
		crowdMax = max(crowdMax, prod)
	}
	return phaseMax * diurnalMax * weeklyMax * crowdMax
}

// PhaseAt names the schedule phase containing t (the last phase for
// t at or past the horizon).
func (s *Spec) PhaseAt(t simtime.Time) string {
	i, _ := s.phase(t)
	return s.Phases[i].Name
}

// phase returns the index and the start of the phase containing t (the
// last phase for t at or past the horizon).
func (s *Spec) phase(t simtime.Time) (int, simtime.Time) {
	start := simtime.Time(0)
	for i := range s.Phases[:len(s.Phases)-1] {
		end := start + s.Phases[i].Duration.Sim()
		if t < end {
			return i, start
		}
		start = end
	}
	return len(s.Phases) - 1, start
}

// phaseRate is the piecewise-linear schedule value at t.
func (s *Spec) phaseRate(t simtime.Time) float64 {
	i, start := s.phase(t)
	p := &s.Phases[i]
	if p.RateEnd <= 0 {
		return p.Rate
	}
	frac := min(max(float64(t-start)/float64(p.Duration), 0), 1)
	return p.Rate + (p.RateEnd-p.Rate)*frac
}

// ExpectedSessions is the mean number of session arrivals over the
// schedule, the integral of RateAt (arrivals churn.max_active suppresses
// aside), taken by the midpoint rule over steps of about a minute.
func (s *Spec) ExpectedSessions() float64 {
	total := float64(s.Total())
	n := min(max(total/float64(simtime.Minute), 64), 1<<20)
	steps, sum := int(n), 0.0
	for i := 0; i < steps; i++ {
		sum += s.RateAt(simtime.Time((float64(i) + 0.5) * total / float64(steps)))
	}
	return sum * total / float64(steps) / float64(simtime.Minute)
}

// Validate reports spec errors early, with field-level messages.
func (s *Spec) Validate() error {
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload spec: at least one phase required")
	}
	switch s.Arrivals.Process {
	case "poisson", "gamma", "weibull":
	case "":
		return fmt.Errorf("workload spec: arrivals.process required (poisson, gamma or weibull)")
	default:
		return fmt.Errorf("workload spec: unknown arrivals.process %q", s.Arrivals.Process)
	}
	if s.Arrivals.Shape < 0 {
		return fmt.Errorf("workload spec: arrivals.shape = %v", s.Arrivals.Shape)
	}
	var total simtime.Time
	for i, p := range s.Phases {
		if p.Duration <= 0 {
			return fmt.Errorf("workload spec: phases[%d] (%s): duration = %v", i, p.Name, p.Duration)
		}
		if total > math.MaxInt64-p.Duration.Sim() {
			return fmt.Errorf("workload spec: phases[%d] (%s): the phases sum past %v", i, p.Name, Duration(math.MaxInt64))
		}
		total += p.Duration.Sim()
		if p.Rate < 0 || (p.Rate == 0 && p.RateEnd == 0) {
			return fmt.Errorf("workload spec: phases[%d] (%s): rate = %v", i, p.Name, p.Rate)
		}
		if p.RateEnd < 0 {
			return fmt.Errorf("workload spec: phases[%d] (%s): rate_end = %v", i, p.Name, p.RateEnd)
		}
	}
	if d := s.Diurnal; d != nil {
		if d.Amplitude < 0 || d.Amplitude >= 1 {
			return fmt.Errorf("workload spec: diurnal.amplitude = %v (want [0,1))", d.Amplitude)
		}
		if d.PeakHour < 0 || d.PeakHour >= 24 {
			return fmt.Errorf("workload spec: diurnal.peak_hour = %v (want [0,24))", d.PeakHour)
		}
	}
	if w := s.Weekly; w != nil {
		for i, f := range w.DayFactors {
			if f < 0 {
				return fmt.Errorf("workload spec: weekly.day_factors[%d] = %v", i, f)
			}
		}
	}
	switch s.Churn.SessionDuration.Dist {
	case "lognormal", "exponential", "fixed":
	case "":
		return fmt.Errorf("workload spec: churn.session_duration.dist required (lognormal, exponential or fixed)")
	default:
		return fmt.Errorf("workload spec: unknown churn.session_duration.dist %q", s.Churn.SessionDuration.Dist)
	}
	if s.Churn.SessionDuration.Mean <= 0 {
		return fmt.Errorf("workload spec: churn.session_duration.mean = %v", s.Churn.SessionDuration.Mean)
	}
	if f := s.Churn.LowIDFraction; f != nil && (*f < 0 || *f > 1) {
		return fmt.Errorf("workload spec: churn.low_id_fraction = %v", *f)
	}
	if s.Churn.MaxActive < 0 {
		return fmt.Errorf("workload spec: churn.max_active = %v", s.Churn.MaxActive)
	}
	for i, r := range s.Releases {
		if r.At < 0 || r.At.Sim() >= total {
			return fmt.Errorf("workload spec: releases[%d].at = %v outside the %v schedule", i, r.At, Duration(total))
		}
		if r.Files <= 0 {
			return fmt.Errorf("workload spec: releases[%d].files = %d", i, r.Files)
		}
		if r.ForgedVariants < 0 {
			return fmt.Errorf("workload spec: releases[%d].forged_variants = %d", i, r.ForgedVariants)
		}
		if r.CrowdBoost < 1 {
			return fmt.Errorf("workload spec: releases[%d].crowd_boost = %v (want >= 1)", i, r.CrowdBoost)
		}
		if r.CrowdDuration <= 0 || r.CrowdDuration.Sim() > math.MaxInt64-r.At.Sim() {
			return fmt.Errorf("workload spec: releases[%d].crowd_duration = %v", i, r.CrowdDuration)
		}
	}
	if wd := s.World; wd != nil {
		if wd.Files < 0 || wd.Clients < 0 || wd.VocabWords < 0 || wd.ForgedPerPolluter < 0 {
			return fmt.Errorf("workload spec: negative world sizes")
		}
		if f := wd.PolluterFraction; f != nil && (*f < 0 || *f > 0.5) {
			return fmt.Errorf("workload spec: world.polluter_fraction = %v", *f)
		}
	}
	return nil
}

// ParseSpec decodes and validates a JSON spec. Unknown fields are
// errors: a typo'd knob must not silently fall back to a default. So is
// anything but white space after the spec's one JSON value.
func ParseSpec(data []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("workload spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("workload spec: content after the JSON value")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadSpec reads and parses a spec file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload spec: %w", err)
	}
	s, err := ParseSpec(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// WorldConfig is the world the spec describes: its seed and its world
// overrides merged over SmallConfig with 500 clients. The Engine and
// `edsim -spec` both build their world from it.
func (s *Spec) WorldConfig() Config {
	cfg := SmallConfig(s.Seed, 500)
	if w := s.World; w != nil {
		if w.Files > 0 {
			cfg.NumFiles = w.Files
		}
		if w.Clients > 0 {
			cfg.NumClients = w.Clients
		}
		if w.VocabWords > 0 {
			cfg.VocabWords = w.VocabWords
		}
		if w.PolluterFraction != nil {
			cfg.PolluterFraction = *w.PolluterFraction
		}
		if w.ForgedPerPolluter > 0 {
			cfg.ForgedPerPolluter = w.ForgedPerPolluter
		}
	}
	return cfg
}
