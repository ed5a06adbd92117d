package edload

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"edtrace/internal/clients"
	"edtrace/internal/ed2k"
	"edtrace/internal/randx"
	"edtrace/internal/workload"
)

// The digests and counts below were computed at commit 4e071f7, before
// the planner and the runners were touched. They make "no wire byte
// moves" checkable across commits: the determinism tests elsewhere only
// compare two runs of the same binary.
const (
	goldenPlannerMessages        = "0a89ed3a2495887209027eb18c0ca08be0857e5fd93ad26955cfce555fdacc78"
	goldenPlannerSessionMessages = "97df5723a945a4fbbc5aba2c01255cde4ff6f493f48e83cdd36674d9399a4cba"
)

// goldenWorld is the first 50 clients of workload.SmallConfig(7, 50), with
// the per-client Rand split exactly as Run splits it.
func goldenWorld(t *testing.T) (*clients.Planner, *workload.Population, *workload.Catalog, *randx.Rand) {
	t.Helper()
	wl := workload.SmallConfig(7, 50)
	cat, err := workload.Generate(wl)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := workload.GeneratePopulation(wl, cat)
	if err != nil {
		t.Fatal(err)
	}
	return clients.NewPlanner(cat, clients.DefaultTraffic()), pop, cat, randx.New(wl.Seed, 0xED10AD)
}

func TestGoldenPlannerFrames(t *testing.T) {
	planner, pop, cat, root := goldenWorld(t)
	crowd := make([]ed2k.FileID, 5)
	for i := range crowd {
		crowd[i] = cat.Files[i*7].ID
	}
	plain, session := sha256.New(), sha256.New()
	for i := 0; i < 50; i++ {
		c := &pop.Clients[i]
		for _, m := range planner.Messages(c, root.Split(uint64(i)+1), 256) {
			plain.Write(ed2k.FrameTCP(m))
		}
		for _, m := range planner.SessionMessages(c, root.Split(uint64(i)+1001), 40, crowd) {
			session.Write(ed2k.FrameTCP(m))
		}
	}
	if got := hex.EncodeToString(plain.Sum(nil)); got != goldenPlannerMessages {
		t.Errorf("Planner.Messages frames digest = %s, want %s", got, goldenPlannerMessages)
	}
	if got := hex.EncodeToString(session.Sum(nil)); got != goldenPlannerSessionMessages {
		t.Errorf("Planner.SessionMessages frames digest = %s, want %s", got, goldenPlannerSessionMessages)
	}
}

// TestGoldenRunCounts: what Run sends is determined by the plans and the
// fence cadence alone (unlike Found, which depends on what the other
// sessions have announced by then), so these counts are constants.
func TestGoldenRunCounts(t *testing.T) {
	d := startDaemon(t)
	st, err := Run(context.Background(), loadConfig(d, 20, 60))
	if err != nil {
		t.Fatal(err)
	}
	got := [4]uint64{st.Sent, st.Offers, st.Searches, st.Asks}
	want := [4]uint64{196, 18, 61, 77}
	if got != want {
		t.Errorf("Run {Sent, Offers, Searches, Asks} = %v, want %v", got, want)
	}
}
