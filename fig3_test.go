package edtrace

import (
	"slices"
	"testing"

	"edtrace/internal/core"
	"edtrace/internal/simtime"
	"edtrace/internal/workload"
)

// Fig 3 through the capture: §2.4 found forged fileIDs because indexing
// the anonymisation arrays by a fileID's first two bytes overfilled
// arrays 0 and 256, where the pollution tools' fixed prefixes 00 00 and
// 01 00 land, while bytes 5 and 11 spread the same fileIDs evenly. Both
// tests read the arrays a Session filled from the frames it captured,
// not the catalog the world was drawn from.

// fig3Outliers runs sim under each of the paper's two byte pairs and
// checks the outlier arrays Fig 3 reports: 0 and 256 under the first
// two bytes, none under bytes 5 and 11.
func fig3Outliers(t *testing.T, sim core.SimConfig) {
	t.Helper()
	for _, c := range []struct {
		pair [2]int
		want []int
	}{
		{[2]int{0, 1}, []int{0, 256}},
		{[2]int{5, 11}, nil},
	} {
		sim.FileBytePair = c.pair
		res := runSim(t, sim)
		t.Logf("bytes %v: %d fileIDs, largest array %d (index %d), mean %.2f, outliers %v",
			c.pair, res.Report.DistinctFiles, res.Fig3.MaxSize, res.Fig3.MaxIdx, res.Fig3.Mean, res.Fig3.Outliers)
		if !slices.Equal(res.Fig3.Outliers, c.want) {
			t.Errorf("bytes %v: Fig 3 outliers %v, want %v", c.pair, res.Fig3.Outliers, c.want)
		}
	}
}

// TestFig3BackgroundPolluters: the default world's polluters announce
// forged copies of popular files all along the capture.
func TestFig3BackgroundPolluters(t *testing.T) {
	sim := core.DefaultSimConfig()
	sim.Workload.NumClients = 1500
	sim.Workload.NumFiles = 12000
	sim.Traffic.Duration = simtime.Day
	fig3Outliers(t, sim)
}

// TestFig3ForgedRelease: a world with no background polluter, where a
// release's forged variants are the only forged fileIDs. They reach the
// capture only through the release's flash crowd, which asks for them
// with the genuine files.
func TestFig3ForgedRelease(t *testing.T) {
	noBackground := 0.0
	spec := &workload.Spec{
		Name: "pollution-burst",
		Seed: 12,
		World: &workload.WorldSpec{
			Files:            6000,
			Clients:          600,
			PolluterFraction: &noBackground,
		},
		Arrivals: workload.ArrivalSpec{Process: "poisson"},
		Phases: []workload.PhaseSpec{
			{Name: "background", Duration: workload.Duration(simtime.Day), Rate: 1},
		},
		Churn: workload.ChurnSpec{
			SessionDuration: workload.DistSpec{
				Dist: "lognormal", Mean: workload.Duration(45 * simtime.Minute),
			},
		},
		Releases: []workload.ReleaseSpec{{
			At:             workload.Duration(12 * simtime.Hour),
			Name:           "polluted-hit",
			Files:          40,
			ForgedVariants: 720, // 18 forged copies of each released file
			CrowdBoost:     4,
			CrowdDuration:  workload.Duration(8 * simtime.Hour),
		}},
	}
	sim := core.DefaultSimConfig()
	sim.Workload = spec.WorldConfig()
	sim.Traffic.Duration = spec.Total()
	sim.Spec = spec
	fig3Outliers(t, sim)
}
