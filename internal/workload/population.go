package workload

import (
	"math"

	"edtrace/internal/randx"
)

// Profile classifies a client's behaviour regime (§3.2 observes several
// regimes in both the provided-files and asked-files distributions).
type Profile uint8

// Client profiles.
const (
	// Casual clients share and ask for a handful of files.
	Casual Profile = iota
	// Regular clients are the log-normal body of the population.
	Regular
	// Heavy clients share large collections — the ones that run into
	// client-software share caps.
	Heavy
	// Scanner clients "scan the network to identify many file sources"
	// (§3.2): few shares, enormous ask counts.
	Scanner
	// Polluter clients announce forged variants of popular files ([12]).
	Polluter
)

// String names the profile.
func (p Profile) String() string {
	switch p {
	case Casual:
		return "casual"
	case Regular:
		return "regular"
	case Heavy:
		return "heavy"
	case Scanner:
		return "scanner"
	case Polluter:
		return "polluter"
	}
	return "unknown"
}

// Client is one synthetic peer's behavioural plan.
type Client struct {
	// IP is the client's public address (its high clientID); low-ID
	// clients get an IP too (their NAT gateway) but announce a low ID.
	IP uint32
	// LowID marks clients behind NAT, given server-assigned IDs.
	LowID bool
	// Profile is the behavioural regime.
	Profile Profile
	// Shares are catalog file indices the client provides.
	Shares []int32
	// AskCount is how many source queries the client will issue
	// (distinct files asked for — Fig 7's variable).
	AskCount int
	// SearchCount is how many keyword searches the client will issue.
	SearchCount int
	// CappedSearches marks clients running the searchCap-limited
	// software (the mechanism behind Fig 7's peak at 52).
	CappedSearches bool
}

// Population is the generated client population.
type Population struct {
	Clients []Client
	// Counters for reporting.
	ByProfile [5]int
}

// freeRiderFraction of casual clients provide nothing at all, the
// classic P2P free-riding observation; they only search and fetch.
const freeRiderFraction = 0.50

// regularFraction of the population are Regular sharers, or all that
// the other profiles leave when they take more than 1-regularFraction.
const regularFraction = 0.25

// shareCaps are client-software sharing limits (§3.2's hypotheses): that
// fraction of the population cannot share more than cap files (the bump
// at a few thousands in Fig 6).
var shareCaps = [...]struct {
	cap      int
	fraction float64
}{{2000, 0.25}, {5000, 0.10}}

// searchCapFraction of clients run software that allows at most
// searchCap source queries: the singular peak at exactly 52 in Fig 7,
// one of §3.2's client-software hypotheses. Scanners are exempt.
const (
	searchCap         = 52
	searchCapFraction = 0.30
)

// GeneratePopulation derives the client population from the catalog.
// Forged files are distributed among polluters; everyone else samples
// genuine files by popularity.
func GeneratePopulation(cfg Config, cat *Catalog) (*Population, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	root := randx.New(cfg.Seed, 0xC2B2AE3D27D4EB4F)
	rProf := root.Split(1)
	rShare := root.Split(2)
	rAsk := root.Split(3)
	rNet := root.Split(4)

	pop := &Population{Clients: make([]Client, cfg.NumClients)}

	nPolluters := int(float64(cfg.NumClients) * cfg.PolluterFraction)
	forged := cat.Files[cat.GenuineCount:]
	forgedPer := 0
	if nPolluters > 0 {
		forgedPer = len(forged) / nPolluters
	}

	// Assign profiles deterministically by position in a shuffled order so
	// fractions are exact, not binomial.
	order := rProf.Perm(cfg.NumClients)
	cut1 := nPolluters
	cut2 := cut1 + int(float64(cfg.NumClients)*cfg.ScannerFraction)
	cut3 := cut2 + int(float64(cfg.NumClients)*cfg.HeavyFraction)
	cut4 := cut3 + int(float64(cfg.NumClients)*regularFraction)
	for rank, idx := range order {
		c := &pop.Clients[idx]
		switch {
		case rank < cut1:
			c.Profile = Polluter
		case rank < cut2:
			c.Profile = Scanner
		case rank < cut3:
			c.Profile = Heavy
		case rank < cut4:
			c.Profile = Regular
		default:
			c.Profile = Casual
		}
	}

	polluterSeen := 0
	for i := range pop.Clients {
		c := &pop.Clients[i]
		pop.ByProfile[c.Profile]++

		// Addressing: ~25% of clients are NAT'd low-IDs, per the split
		// historical servers reported.
		c.IP = 0x10000000 + rNet.Uint32()%0xD0000000
		c.LowID = rNet.Bool(0.25)

		// Intended share count by profile. Free-riding casual clients
		// provide nothing; the rest follow profile-specific laws whose
		// mixture gives Fig 6 its multi-regime shape.
		var intended int
		switch c.Profile {
		case Casual:
			if !rShare.Bool(freeRiderFraction) {
				intended = rShare.Geometric(0.25)
			}
		case Regular:
			intended = int(rShare.LogNormal(math.Log(15), 1.2))
		case Heavy:
			intended = int(rShare.LogNormal(math.Log(800), 1.1))
		case Scanner:
			intended = rShare.Geometric(0.5)
		case Polluter:
			intended = forgedPer
		}

		// Client-software share caps (Fig 6's bump at a few thousand).
		if c.Profile != Polluter {
			u := rShare.Float64()
			acc := 0.0
			for _, sc := range shareCaps {
				acc += sc.fraction
				if u < acc {
					if intended > sc.cap {
						intended = sc.cap
					}
					break
				}
			}
			if intended > 50_000 {
				intended = 50_000 // hard sanity bound
			}
		}

		// Materialise the share list.
		if c.Profile == Polluter {
			base := cat.GenuineCount + polluterSeen*forgedPer
			for k := 0; k < forgedPer && base+k < len(cat.Files); k++ {
				c.Shares = append(c.Shares, int32(base+k))
			}
			polluterSeen++
		} else if intended > 0 {
			seen := make(map[int32]struct{}, intended)
			// Mixture sampling without replacement (bounded retries:
			// persistent duplicates just yield slightly fewer shares,
			// like part-files vanishing from real shared folders).
			for tries := 0; len(c.Shares) < intended && tries < intended*4; tries++ {
				f := int32(cat.SampleShare(rShare))
				if _, dup := seen[f]; dup {
					continue
				}
				seen[f] = struct{}{}
				c.Shares = append(c.Shares, f)
			}
		}

		// Ask counts by profile (Fig 7's regimes).
		switch c.Profile {
		case Casual:
			c.AskCount = rAsk.Geometric(0.22)
		case Regular:
			c.AskCount = int(rAsk.LogNormal(math.Log(25), 1.1))
		case Heavy:
			c.AskCount = int(rAsk.LogNormal(math.Log(60), 1.0))
		case Scanner:
			c.AskCount = int(rAsk.Pareto(40, 0.65))
			if c.AskCount > 150_000 {
				c.AskCount = 150_000
			}
		case Polluter:
			c.AskCount = rAsk.Geometric(0.5)
		}

		// The 52-query software cap.
		if rAsk.Float64() < searchCapFraction && c.Profile != Scanner {
			c.CappedSearches = true
			if c.AskCount > searchCap {
				c.AskCount = searchCap
			}
		}

		// Keyword searches scale with asking activity — except scanners,
		// which enumerate fileIDs rather than searching by metadata.
		c.SearchCount = c.AskCount / 4
		if c.Profile == Scanner && c.SearchCount > 50 {
			c.SearchCount = 50
		}
		if c.SearchCount > 500 {
			c.SearchCount = 500
		}
		if c.AskCount > 0 && c.SearchCount == 0 {
			c.SearchCount = 1
		}
	}
	return pop, nil
}
