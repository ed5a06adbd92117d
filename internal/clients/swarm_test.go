package clients

import (
	"context"
	"errors"
	"testing"

	"edtrace/internal/ed2k"
	"edtrace/internal/simtime"
	"edtrace/internal/workload"
)

type sentMsg struct {
	at      simtime.Time
	src     uint32
	payload []byte
}

// testSpec is six hours of Poisson sessions, three a client on average,
// over nClients clients: the default traffic's shape without its
// diurnal curve.
func testSpec(nClients int) *workload.Spec {
	return &workload.Spec{
		Name:     "swarm-test",
		Seed:     1,
		Arrivals: workload.ArrivalSpec{Process: "poisson"},
		Phases: []workload.PhaseSpec{{Name: "capture", Duration: workload.Duration(6 * simtime.Hour),
			Rate: 3 * float64(nClients) / 360}},
		Churn: workload.ChurnSpec{SessionDuration: workload.DistSpec{
			Dist: "lognormal", Mean: workload.Duration(2 * simtime.Hour)}},
	}
}

// testWorld wires a swarm playing spec over a calibrated world of
// nClients clients; every message it sends is recorded with its instant.
func testWorld(t *testing.T, nClients int, spec *workload.Spec) (*Swarm, *simtime.Scheduler, *[]sentMsg) {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.NumFiles = 5000
	cfg.NumClients = nClients
	cfg.VocabWords = 300
	eng, err := workload.NewEngine(spec, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sch := simtime.NewScheduler()
	var sent []sentMsg
	swarm, err := NewSwarm(eng, DefaultTraffic(), sch, func(src uint32, sport uint16, payload []byte) {
		sent = append(sent, sentMsg{at: sch.Now(), src: src, payload: append([]byte(nil), payload...)})
	})
	if err != nil {
		t.Fatal(err)
	}
	return swarm, sch, &sent
}

// run plays the whole spec and drains what its sessions left pending.
func run(swarm *Swarm, sch *simtime.Scheduler) {
	swarm.Start()
	sch.RunUntil(context.Background(), swarm.eng.Total()+simtime.Hour)
}

func TestSwarmGeneratesDecodableTraffic(t *testing.T) {
	swarm, sch, sent := testWorld(t, 300, testSpec(300))
	run(swarm, sch)

	if len(*sent) == 0 {
		t.Fatal("swarm sent nothing")
	}
	st := swarm.Stats()
	if st.MessagesSent != uint64(len(*sent)) {
		t.Fatalf("stats count %d != sent %d", st.MessagesSent, len(*sent))
	}
	var decoded, structural, semantic int
	byOp := map[string]int{}
	for _, m := range *sent {
		msg, err := ed2k.Decode(m.payload)
		switch {
		case err == nil:
			decoded++
			byOp[ed2k.OpcodeName(msg.Opcode())]++
		case errors.Is(err, ed2k.ErrStructural):
			structural++
		case errors.Is(err, ed2k.ErrSemantic):
			semantic++
		default:
			t.Fatalf("unclassified decode error: %v", err)
		}
	}
	// Corruption accounting must match the decoder's verdicts: our
	// corruptors always break the message for this protocol subset.
	if uint64(structural) != st.CorruptStructure {
		t.Fatalf("structural: decoder saw %d, swarm injected %d", structural, st.CorruptStructure)
	}
	if uint64(semantic) != st.CorruptSemantic {
		t.Fatalf("semantic: decoder saw %d, swarm injected %d", semantic, st.CorruptSemantic)
	}
	for _, op := range []string{"OfferFiles", "GetSources", "SearchReq", "StatReq"} {
		if byOp[op] == 0 {
			t.Errorf("no %s messages generated", op)
		}
	}
}

func TestSwarmDeterminism(t *testing.T) {
	s1, sch1, sent1 := testWorld(t, 100, testSpec(100))
	run(s1, sch1)
	s2, sch2, sent2 := testWorld(t, 100, testSpec(100))
	run(s2, sch2)
	if len(*sent1) != len(*sent2) {
		t.Fatalf("runs differ: %d vs %d messages", len(*sent1), len(*sent2))
	}
	for i := range *sent1 {
		a, b := (*sent1)[i], (*sent2)[i]
		if a.at != b.at || a.src != b.src || string(a.payload) != string(b.payload) {
			t.Fatalf("message %d differs between identical runs", i)
		}
	}
}

func TestCorruptionRates(t *testing.T) {
	swarm, sch, _ := testWorld(t, 400, testSpec(400))
	run(swarm, sch)
	st := swarm.Stats()
	total := float64(st.MessagesSent)
	bad := float64(st.CorruptStructure + st.CorruptSemantic)
	// ~115k messages and ~1200 corruptions: the binomial spread of the
	// rate is ~3 %, of the structural share ~0.012.
	if rate := bad / total; rate < 0.8*badMessageRate || rate > 1.2*badMessageRate {
		t.Fatalf("corruption rate %.4f, want ~%.4f", rate, badMessageRate)
	}
	frac := float64(st.CorruptStructure) / bad
	if frac < 0.7 || frac > 0.86 {
		t.Fatalf("structural share %.3f, want ~0.78", frac)
	}
}

func TestAskDistinctnessPreservesCap(t *testing.T) {
	// Clients capped at 52 source-asks must ask for exactly 52 distinct
	// files over all their sessions (they are the mechanism behind Fig
	// 7's spike).
	swarm, sch, sent := testWorld(t, 500, testSpec(500))
	run(swarm, sch)

	askedBy := map[uint32]map[ed2k.FileID]bool{}
	for _, m := range *sent {
		msg, err := ed2k.Decode(m.payload)
		if err != nil {
			continue
		}
		gs, ok := msg.(*ed2k.GetSources)
		if !ok {
			continue
		}
		set := askedBy[m.src]
		if set == nil {
			set = map[ed2k.FileID]bool{}
			askedBy[m.src] = set
		}
		for _, h := range gs.Hashes {
			set[h] = true
		}
	}
	at52 := 0
	for _, set := range askedBy {
		if len(set) == 52 {
			at52++
		}
	}
	if at52 < 3 {
		t.Fatalf("only %d clients with exactly 52 distinct asks", at52)
	}
}

// TestFlashCrowdSpikesTraffic plays a spec with one release whose crowd
// multiplies arrivals by 5 for half an hour: session starts a minute
// inside the window must be at least 2.5 times those outside it, and
// the crowd's sessions, and only they, ask for the released files.
func TestFlashCrowdSpikesTraffic(t *testing.T) {
	const (
		at     = 3 * simtime.Hour
		window = 30 * simtime.Minute
	)
	spec := testSpec(400)
	spec.Releases = []workload.ReleaseSpec{{At: workload.Duration(at), Name: "hit", Files: 4,
		CrowdBoost: 5, CrowdDuration: workload.Duration(window)}}
	swarm, sch, sent := testWorld(t, 400, spec)

	// Session starts per minute, read off the swarm's own counter.
	var perMin []uint64
	var last uint64
	sch.Every(simtime.Minute, func(simtime.Time) {
		perMin = append(perMin, swarm.stats.Sessions-last)
		last = swarm.stats.Sessions
	})
	run(swarm, sch)

	var in, out, inMin, outMin float64
	for m, n := range perMin[:spec.Total()/simtime.Minute] {
		if t := simtime.Time(m) * simtime.Minute; t >= at && t < at+window {
			in, inMin = in+float64(n), inMin+1
		} else {
			out, outMin = out+float64(n), outMin+1
		}
	}
	if in/inMin < 2.5*out/outMin {
		t.Fatalf("%.1f session starts a minute in the crowd window, %.1f outside: want at least 2.5x", in/inMin, out/outMin)
	}
	if swarm.Stats().Releases != 1 {
		t.Fatalf("%d releases fired, want 1", swarm.Stats().Releases)
	}

	released := map[ed2k.FileID]bool{}
	for _, id := range swarm.eng.Releases()[0].IDs(swarm.cat) {
		released[id] = true
	}
	crowdAsks := 0
	for _, m := range *sent {
		msg, err := ed2k.Decode(m.payload)
		gs, ok := msg.(*ed2k.GetSources)
		if err != nil || !ok || !released[gs.Hashes[0]] {
			continue
		}
		crowdAsks++
		if m.at < at {
			t.Fatalf("released file asked for at %v, before its release at %v", m.at, at)
		}
	}
	// The engine tags every session arriving in the window with the
	// release, and each asks for it once: all of them but the few whose
	// ask was corrupted on the way.
	if float64(crowdAsks) > in || float64(crowdAsks) < 0.95*in {
		t.Fatalf("%d asks for released files from %.0f crowd sessions", crowdAsks, in)
	}
}

func TestTrafficValidate(t *testing.T) {
	bad := []func(*TrafficConfig){
		func(c *TrafficConfig) { c.Duration = 0 },
		func(c *TrafficConfig) { c.OfferBatch = 0 },
	}
	for i, mutate := range bad {
		tc := DefaultTraffic()
		mutate(&tc)
		if err := tc.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	tc := DefaultTraffic()
	if err := tc.Validate(); err != nil {
		t.Fatalf("default rejected: %v", err)
	}
}
