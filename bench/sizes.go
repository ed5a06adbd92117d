package main

import (
	"time"

	"edtrace/internal/simtime"
)

// sizes fixes how much work each workload does. BENCHMARK.json may hold
// only the keys its contract names, so the counts and rates live here;
// bench/README.md repeats them. Nothing below is read from the
// environment: two runs with the same seed and seconds do the same work.
type sizes struct {
	// serve / serve_capture
	CatalogFiles   int     // genuine files in the synthetic catalog
	CatalogClients int     // population whose offers preload the index
	VocabWords     int     // filename / search vocabulary
	MaxPlan        int     // messages kept from each client's plan
	PoolRequests   int     // distinct requests the generator cycles through
	RatePerSec     float64 // paced phase, open loop, total over all connections
	Outstanding    int     // peak phase, closed loop, per connection
	// PeakSegments and EchoSlice shape the closed-loop measurement: the
	// measuring time is cut into segments, and before the first and after
	// each the same generator runs the same loop against the bare echo
	// server for EchoSlice — the serve workloads' reference for how fast
	// the machine currently is (calib.go).
	PeakSegments int
	EchoSlice    time.Duration
	// Mix weights, in pool slots out of 100.
	MixGetSources, MixSearch, MixOffer, MixStat int

	// capture_replay / analyze
	SimClients  int
	SimFiles    int
	SimDuration simtime.Time
	// SimMangle is the share of frames corrupted on the simulated wire:
	// high enough that a capture of this size is sure to hold malformed
	// frames beside its IP fragments and undecodable messages.
	SimMangle float64

	// SetupReps is how many times set-up runs; setup_s is the median.
	SetupReps int
	// RefTasks is how many times one reference slice runs the batch
	// workloads' reference task (calib.go).
	RefTasks int
	// RungBudget is the measuring time of one ladder rung; HopRuns is how
	// many fresh processes measure the Session's queue hop.
	RungBudget time.Duration
	HopRuns    int
	// LateAnswer is the answer deadline; past it a request has failed.
	LateAnswer time.Duration
	// LateSend is the generator lateness counted in gen.late_sends.
	LateSend time.Duration
}

// fullSizes is what BENCHMARK.json's command runs. 8000 msgs/s is about
// five times the paper's ten-week average of 1570 msgs/s and about a
// quarter of the rate at which the open loop saturates on the two-CPU
// reference box (near 30 000/s, where every message still pays its own
// wake-ups), so the paced phase measures latency without a growing
// backlog.
func fullSizes() sizes {
	return sizes{
		CatalogFiles:   20_000,
		CatalogClients: 1_500,
		VocabWords:     1_000,
		MaxPlan:        48,
		PoolRequests:   8_192,
		RatePerSec:     8_000,
		Outstanding:    64,
		PeakSegments:   5,
		EchoSlice:      500 * time.Millisecond,
		MixGetSources:  60,
		MixSearch:      25,
		MixOffer:       5,
		MixStat:        10,

		SimClients:  3_000,
		SimFiles:    12_000,
		SimDuration: simtime.Hour,
		SimMangle:   5e-4,

		SetupReps:  3,
		RefTasks:   3,
		RungBudget: 250 * time.Millisecond,
		HopRuns:    3,
		LateAnswer: time.Second,
		LateSend:   10 * time.Millisecond,
	}
}

// tinySizes keeps every code path and every oracle but shrinks the
// inputs so the smoke test stays within a few seconds.
func tinySizes() sizes {
	s := fullSizes()
	s.CatalogFiles = 1_500
	s.CatalogClients = 120
	s.VocabWords = 200
	s.PoolRequests = 512
	s.RatePerSec = 2_000
	s.Outstanding = 16
	s.PeakSegments = 2
	s.EchoSlice = 50 * time.Millisecond
	s.SimClients = 300
	s.SimFiles = 1_200
	s.SimDuration = 20 * simtime.Minute
	s.SimMangle = 1e-2
	s.SetupReps = 1
	s.RefTasks = 1
	s.RungBudget = 5 * time.Millisecond
	s.HopRuns = 1
	return s
}
