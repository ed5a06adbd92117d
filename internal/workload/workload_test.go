package workload

import (
	"math"
	"testing"

	"edtrace/internal/randx"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumFiles = 20000
	cfg.NumClients = 2000
	cfg.VocabWords = 500
	return cfg
}

// capRichConfig boosts heavy sharers so cap-pinning is statistically
// certain at test scale.
func capRichConfig() Config {
	cfg := testConfig()
	cfg.NumClients = 4000
	cfg.HeavyFraction = 0.20
	return cfg
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := testConfig()
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Files) != len(b.Files) {
		t.Fatal("catalog sizes differ across identical seeds")
	}
	for i := range a.Files {
		if a.Files[i].ID != b.Files[i].ID || a.Files[i].Name != b.Files[i].Name ||
			a.Files[i].Size != b.Files[i].Size {
			t.Fatalf("file %d differs across identical seeds", i)
		}
	}
	cfg2 := cfg
	cfg2.Seed = 999
	c, err := Generate(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a.Files[:100] {
		if a.Files[i].ID == c.Files[i].ID {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical fileIDs across different seeds", same)
	}
}

func TestCatalogStructure(t *testing.T) {
	cfg := testConfig()
	cat, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cat.GenuineCount != cfg.NumFiles {
		t.Fatalf("GenuineCount = %d", cat.GenuineCount)
	}
	nForged := int(float64(cfg.NumClients)*cfg.PolluterFraction) * cfg.ForgedPerPolluter
	if len(cat.Files) != cfg.NumFiles+nForged {
		t.Fatalf("total files = %d, want %d", len(cat.Files), cfg.NumFiles+nForged)
	}
	ids := make(map[[16]byte]bool, len(cat.Files))
	for i, f := range cat.Files {
		if f.Name == "" || f.Size == 0 || f.Weight <= 0 {
			t.Fatalf("file %d incomplete: %+v", i, f)
		}
		if (i >= cat.GenuineCount) != f.Forged {
			t.Fatalf("file %d forged flag misplaced", i)
		}
		ids[f.ID] = true
	}
	// Hash collisions across ~6 k MD4 draws are impossible in practice.
	if len(ids) != len(cat.Files) {
		t.Fatalf("duplicate fileIDs: %d distinct of %d", len(ids), len(cat.Files))
	}
}

func TestForgedPrefixes(t *testing.T) {
	cat, err := Generate(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	saw00, saw01 := false, false
	for _, f := range cat.Files[cat.GenuineCount:] {
		switch {
		case f.ID[0] == 0x00 && f.ID[1] == 0x00:
			saw00 = true
		case f.ID[0] == 0x01 && f.ID[1] == 0x00:
			saw01 = true
		default:
			t.Fatalf("forged fileID with prefix %02x%02x", f.ID[0], f.ID[1])
		}
		if !f.Forged {
			t.Fatal("forged file not flagged")
		}
	}
	if !saw00 || !saw01 {
		t.Fatal("both forged prefixes should occur")
	}
	// Genuine IDs hitting those prefixes by chance: ~2/65536 of them.
	hit := 0
	for _, f := range cat.Files[:cat.GenuineCount] {
		if f.ID[0] <= 1 && f.ID[1] == 0 {
			hit++
		}
	}
	if hit > cat.GenuineCount/1000 {
		t.Fatalf("genuine IDs suspiciously clustered: %d", hit)
	}
}

func TestSizeMixtureShape(t *testing.T) {
	r := randx.New(5, 5)
	const n = 200000
	var small, cd700, exact700 int
	for i := 0; i < n; i++ {
		kind, size := sizeMixture(r)
		if size == 0 {
			t.Fatal("zero size")
		}
		if kind == KindAudio && size < 50*mb {
			small++
		}
		if kind == KindCD700 {
			cd700++
			if size == 700*mb {
				exact700++
			}
			if math.Abs(float64(size)-700*mb) > 0.1*700*mb {
				t.Fatalf("700MB peak sample too far: %d", size)
			}
		}
	}
	if frac := float64(small) / n; frac < 0.4 || frac > 0.6 {
		t.Fatalf("audio fraction = %.3f", frac)
	}
	if frac := float64(cd700) / n; frac < 0.07 || frac > 0.13 {
		t.Fatalf("700MB fraction = %.3f", frac)
	}
	if exact700 == 0 {
		t.Fatal("no exact 700MB rips")
	}
}

func TestPopulationProfilesAndCaps(t *testing.T) {
	cfg := capRichConfig()
	cat, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	pop, err := GeneratePopulation(cfg, cat)
	if err != nil {
		t.Fatal(err)
	}
	if len(pop.Clients) != cfg.NumClients {
		t.Fatalf("population size %d", len(pop.Clients))
	}
	// Exact profile fractions.
	if pop.ByProfile[Polluter] != int(float64(cfg.NumClients)*cfg.PolluterFraction) {
		t.Fatalf("polluters = %d", pop.ByProfile[Polluter])
	}
	if pop.ByProfile[Casual] == 0 || pop.ByProfile[Regular] == 0 || pop.ByProfile[Heavy] == 0 {
		t.Fatalf("profile histogram: %v", pop.ByProfile)
	}

	at52, over52capped := 0, 0
	atCap2000 := 0
	for i := range pop.Clients {
		c := &pop.Clients[i]
		if c.CappedSearches {
			if c.AskCount > searchCap {
				over52capped++
			}
			if c.AskCount == searchCap {
				at52++
			}
		}
		if len(c.Shares) == 2000 {
			atCap2000++
		}
		if c.Profile == Polluter {
			for _, s := range c.Shares {
				if !cat.Files[s].Forged {
					t.Fatal("polluter sharing a genuine file")
				}
			}
		} else {
			for _, s := range c.Shares {
				if cat.Files[s].Forged {
					t.Fatal("non-polluter sharing a forged file")
				}
			}
		}
	}
	if over52capped != 0 {
		t.Fatalf("%d capped clients exceed the 52-search cap", over52capped)
	}
	if at52 < 10 {
		t.Fatalf("only %d clients pinned at exactly 52 — no Fig 7 peak", at52)
	}
	if atCap2000 < 3 {
		t.Fatalf("only %d clients pinned at the 2000-file share cap — no Fig 6 bump", atCap2000)
	}
}

func TestPopulationSharesAreDistinct(t *testing.T) {
	cfg := testConfig()
	cat, _ := Generate(cfg)
	pop, _ := GeneratePopulation(cfg, cat)
	for i := range pop.Clients {
		seen := map[int32]bool{}
		for _, s := range pop.Clients[i].Shares {
			if seen[s] {
				t.Fatalf("client %d shares file %d twice", i, s)
			}
			seen[s] = true
			if int(s) >= len(cat.Files) {
				t.Fatalf("client %d shares out-of-range file %d", i, s)
			}
		}
	}
}

func TestHeavyTailEmergesInProviders(t *testing.T) {
	// The mechanism check behind Fig 4: simulate provider counts by
	// sampling and verify the count spread spans orders of magnitude.
	cfg := testConfig()
	cat, _ := Generate(cfg)
	pop, _ := GeneratePopulation(cfg, cat)
	providers := make(map[int32]int)
	for i := range pop.Clients {
		for _, f := range pop.Clients[i].Shares {
			providers[f]++
		}
	}
	maxP := 0
	head := make([]int, 4) // counts at x = 1, 2, 3
	for _, n := range providers {
		if n > maxP {
			maxP = n
		}
		if n < len(head) {
			head[n]++
		}
	}
	// The ingredients of Fig 4's shape: a spread of at least two orders
	// of magnitude, x=1 carrying the largest mass, and a monotone head.
	if maxP < 100 {
		t.Fatalf("max providers per file = %d; popularity tail too light", maxP)
	}
	if head[1] < len(providers)/8 {
		t.Fatalf("only %d singleton files of %d; head too heavy", head[1], len(providers))
	}
	if !(head[1] > head[2] && head[2] > head[3]) {
		t.Fatalf("head not monotone: 1:%d 2:%d 3:%d", head[1], head[2], head[3])
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.NumFiles = 0 },
		func(c *Config) { c.NumClients = -1 },
		func(c *Config) { c.PolluterFraction = 0.9 },
		func(c *Config) { c.VocabWords = 3 },
		func(c *Config) { c.HeavyFraction = 0.9; c.ScannerFraction = 0.5 },
	}
	for i, mutate := range bad {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestSamplersRespectPopularity(t *testing.T) {
	cfg := testConfig()
	cat, _ := Generate(cfg)
	r := randx.New(9, 9)
	counts := make([]int, len(cat.Files))
	for i := 0; i < 200000; i++ {
		counts[cat.SampleShare(r)]++
	}
	// The most popular file must be sampled far more than the median.
	top := topIndices(cat.Files[:cat.GenuineCount], 1)[0]
	if counts[top] < 100 {
		t.Fatalf("top file sampled only %d times", counts[top])
	}
}

func TestVocabProperties(t *testing.T) {
	r := randx.New(1, 1)
	v := makeVocab(r, 1000)
	if len(v) != 1000 {
		t.Fatalf("vocab size %d", len(v))
	}
	seen := map[string]bool{}
	for _, w := range v {
		if w == "" || seen[w] {
			t.Fatalf("bad vocab word %q", w)
		}
		seen[w] = true
	}
}

func TestProfileString(t *testing.T) {
	for p, want := range map[Profile]string{
		Casual: "casual", Regular: "regular", Heavy: "heavy",
		Scanner: "scanner", Polluter: "polluter", Profile(99): "unknown",
	} {
		if p.String() != want {
			t.Errorf("Profile(%d).String() = %s", p, p.String())
		}
	}
}
