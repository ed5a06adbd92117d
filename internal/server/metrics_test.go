package server

import (
	"strings"
	"testing"

	"edtrace/internal/ed2k"
	"edtrace/internal/obs"
	"edtrace/internal/simtime"
)

// TestMetricsExposition drives a small workload and checks that the
// registry's exposition carries the per-opcode counters, the per-shard
// index gauges, and (with timing on) the Handle latency histograms —
// and that Stats() reads the very same numbers.
func TestMetricsExposition(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewShardedWith("m", "metrics test", 4, reg)
	if s.Metrics() != reg {
		t.Fatal("Metrics() did not return the supplied registry")
	}

	var fid ed2k.FileID
	fid[0] = 7
	offer := &ed2k.OfferFiles{Client: 42, Port: 4662, Files: []ed2k.FileEntry{{
		ID: fid,
		Tags: []ed2k.Tag{
			ed2k.StringTag(ed2k.FTFileName, "metrics test track.mp3"),
			ed2k.UintTag(ed2k.FTFileSize, 1<<20),
		},
	}}}
	s.Handle(0, 42, 4662, offer)
	s.Handle(1, 43, 4662, &ed2k.GetSources{Hashes: []ed2k.FileID{fid}})
	s.Handle(2, 43, 4662, &ed2k.SearchReq{Expr: ed2k.Keyword("metrics")})

	var buf strings.Builder
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`edserver_received_total{op="OfferFiles"} 1`,
		`edserver_received_total{op="GetSources"} 1`,
		`edserver_answered_total{op="FoundSources"} 1`,
		`edserver_index_files 1`,
		`edserver_index_sources 1`,
		`edserver_index_users 2`,
		`edserver_handle_seconds_count{op="SearchReq"} 1`,
		`edserver_shard_files{shard="`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	st := s.Stats()
	if st.IndexedFiles != 1 || st.IndexedSources != 1 || st.Users != 2 {
		t.Fatalf("Stats gauges = %+v, want 1 file / 1 source / 2 users", st)
	}
	if st.Received["OfferFiles"] != 1 || st.Answered["OfferAck"] != 1 {
		t.Fatalf("Stats counters = %+v", st)
	}

	// Expiry must walk every gauge back down and count the reclaims.
	s.ExpireSources(simtime.Time(s.SourceTTL) + 10)
	if u, f := s.Counts(); u != 0 || f != 0 {
		t.Fatalf("after expiry Counts = %d users, %d files, want 0/0", u, f)
	}
	buf.Reset()
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	for _, want := range []string{
		`edserver_index_files 0`,
		`edserver_index_sources 0`,
		`edserver_index_users 0`,
		`edserver_index_keywords 0`,
		`edserver_reclaimed_sources_total 1`,
		`edserver_reclaimed_files_total 1`,
		`edserver_reclaimed_users_total 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("post-expiry exposition missing %q", want)
		}
	}
}

// TestMetricsTimingDefaults checks the timing gate: off for the
// simulator constructors (no registry), on when a registry is supplied.
func TestMetricsTimingDefaults(t *testing.T) {
	plain := New("p", "plain")
	plain.Handle(0, 1, 4662, &ed2k.StatReq{Challenge: 1})
	var buf strings.Builder
	plain.Metrics().WritePrometheus(&buf)
	if strings.Contains(buf.String(), "edserver_handle_seconds_count") {
		t.Error("Handle timing on by default without a registry")
	}

	reg := obs.NewRegistry()
	wired := NewShardedWith("w", "wired", 1, reg)
	wired.Handle(0, 1, 4662, &ed2k.StatReq{Challenge: 1})
	buf.Reset()
	reg.WritePrometheus(&buf)
	if !strings.Contains(buf.String(), `edserver_handle_seconds_count{op="StatReq"} 1`) {
		t.Errorf("Handle timing not recorded with a registry:\n%s", buf.String())
	}
}

// TestSweepShardHistogram: with timing on, one sweep of an n-shard server
// adds n observations of edserver_sweep_shard_seconds, one per shard
// whatever the sweep finds; without a registry it adds none.
func TestSweepShardHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewShardedWith("m", "sweep", 8, reg)
	s.Handle(0, 1, 4662, offer(1, entry(1, "sweep test.mp3", 1, "Audio")))
	for sweeps := 1; sweeps <= 2; sweeps++ {
		s.ExpireSources(simtime.Time(sweeps) * 3 * simtime.Hour)
		if got, want := s.m.sweep.Snapshot().Count, uint64(sweeps*s.NumShards()); got != want {
			t.Fatalf("after %d sweeps of %d shards: %d observations, want %d", sweeps, s.NumShards(), got, want)
		}
	}
	var buf strings.Builder
	reg.WritePrometheus(&buf)
	if want := "edserver_sweep_shard_seconds_count 16"; !strings.Contains(buf.String(), want) {
		t.Errorf("exposition missing %q", want)
	}

	plain := New("p", "plain")
	plain.ExpireSources(3 * simtime.Hour)
	if got := plain.m.sweep.Snapshot().Count; got != 0 {
		t.Errorf("a sweep without a registry made %d observations, want 0", got)
	}
}
