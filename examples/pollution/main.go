// Pollution detection: §2.4 of the paper discovers forged fileIDs by
// accident — anonymisation buckets indexed by the first two fileID bytes
// blow up because pollution tools stamp fixed prefixes. This example
// reproduces that discovery from a declarative workload spec: the
// polluter burst is a content-release event with forged variants
// (docs/workload-spec.md), not a hand-rolled loop — the adversarial
// case is just another spec. The engine materialises the release, its
// flash crowd concentrates demand on the released files, and the forged
// variants' fixed prefixes light up the anonymisation buckets exactly
// as the paper saw.
//
// With -live, the campaign becomes a real index-spam flood against two
// in-process edserverd daemons — one defenceless, one running an offer
// throttle (docs/policy.md). The same edload abuse profile spams both;
// a capture tap feeds every offered fileID through the anonymisation
// buckets, which light up on the spam tool's fixed prefix, and the
// daemons' index counts show what the policy kept out.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"edtrace/internal/anonymize"
	"edtrace/internal/ed2k"
	"edtrace/internal/edload"
	"edtrace/internal/edserverd"
	"edtrace/internal/policy"
	"edtrace/internal/simtime"
	"edtrace/internal/workload"
)

// polluterSpec is the adversarial workload: zero background pollution —
// every forged fileID comes from the release event's forged variants,
// a pollution campaign riding a fresh hit.
func polluterSpec() *workload.Spec {
	noBackground := 0.0
	return &workload.Spec{
		Name: "pollution-burst",
		Seed: 12,
		World: &workload.WorldSpec{
			Files:            60000,
			Clients:          6000,
			PolluterFraction: &noBackground,
		},
		Arrivals: workload.ArrivalSpec{Process: "poisson"},
		Phases: []workload.PhaseSpec{
			{Name: "background", Duration: workload.Duration(2 * simtime.Day), Rate: 1},
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
			ForgedVariants: 7200, // the campaign: 180 forged copies per release file
			CrowdBoost:     4,
			CrowdDuration:  workload.Duration(8 * simtime.Hour),
		}},
	}
}

// offerThrottle is the anti-spam policy for the live flood: one offer
// per second per session, small burst — a genuine client announcing its
// share is untouched, a spam tool re-announcing forged batches at wire
// speed is capped at its bucket.
func offerThrottle() *policy.Config {
	return &policy.Config{
		Messages: &policy.MessageSpec{
			OffersPerSec: 1, OfferBurst: 4,
			ThrottleDelay: policy.Duration(50 * time.Millisecond),
		},
	}
}

// spamTap feeds every fileID offered to a daemon through the paper's
// two anonymisation bucket layouts — the capture-side view in which the
// campaign is visible.
type spamTap struct {
	mu       sync.Mutex
	firstTwo *anonymize.FileBuckets
	chosen   *anonymize.FileBuckets
	offered  int
}

func (t *spamTap) tap(_, _ uint32, payload []byte) {
	msg, err := ed2k.Decode(payload)
	if err != nil {
		return
	}
	offer, ok := msg.(*ed2k.OfferFiles)
	if !ok {
		return
	}
	t.mu.Lock()
	for i := range offer.Files {
		t.firstTwo.Anonymize(offer.Files[i].ID)
		t.chosen.Anonymize(offer.Files[i].ID)
		t.offered++
	}
	t.mu.Unlock()
}

// runLive floods one daemon (policied or not) with the index-spam abuse
// profile and reports what landed in the index versus what the capture
// tap saw offered.
func runLive(dur time.Duration, pol *policy.Config) {
	label := "no policy"
	if pol != nil {
		label = "offer throttle (1/s, burst 4)"
	}
	tap := &spamTap{
		firstTwo: anonymize.NewFileBuckets(0, 1),
		chosen:   anonymize.NewFileBuckets(5, 11),
	}
	d, err := edserverd.Start(edserverd.Config{UDPAddr: "off", Policy: pol})
	if err != nil {
		log.Fatal(err)
	}
	d.SetTap(tap.tap)
	st, err := edload.RunAbuse(context.Background(), edload.AbuseConfig{
		Addr:     d.TCPAddr().String(),
		Profile:  edload.AbuseIndexSpam,
		Workers:  8,
		Duration: dur,
		Seed:     12,
	})
	if err != nil {
		log.Fatal(err)
	}
	_, indexed := d.IndexCounts()
	fmt.Printf("%-30s %d offers sent, %d forged fileIDs offered, %d accepted (%d distinct in the index)\n",
		label+":", st.Sent, tap.offered, st.AcceptedFiles, indexed)
	if pol != nil {
		admitted, throttled, shed := d.Policy().Totals()
		fmt.Printf("%-30s policy: %d admitted, %d throttled, %d shed\n", "", admitted, throttled, shed)
	}

	// The capture-side discovery, identical to the spec-driven mode: the
	// spam tool's fixed prefix blows up one first-two-bytes bucket.
	idx, maxSize := tap.firstTwo.MaxBucket()
	_, chosenMax := tap.chosen.MaxBucket()
	fmt.Printf("%-30s max bucket first-two-bytes: %d fileIDs at prefix %02X %02X; bytes (5,11): %d\n\n",
		"", maxSize, idx>>8, idx&0xFF, chosenMax)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	d.Shutdown(ctx)
}

func liveMode(dur time.Duration) {
	fmt.Println("=== live index-spam flood (edload -abuse index-spam) against two daemons ===")
	runLive(dur, nil)
	runLive(dur, offerThrottle())
	fmt.Println("(every spam fileID carries the campaign's fixed prefix BA AD — the")
	fmt.Println(" first-two-bytes anonymisation bucket lights up exactly like Fig. 3,")
	fmt.Println(" and the offer throttle bounds how much of it the index ever accepts)")
}

func main() {
	live := flag.Bool("live", false, "flood real in-process daemons with the index-spam abuse profile (with and without an offer-throttle policy)")
	liveDur := flag.Duration("live-duration", 2*time.Second, "duration of each live flood (with -live)")
	flag.Parse()

	if *live {
		liveMode(*liveDur)
		return
	}

	spec := polluterSpec()
	eng, err := workload.NewEngine(spec, spec.WorldConfig())
	if err != nil {
		log.Fatal(err)
	}
	cat := eng.Catalog()
	forged := 0
	for i := range cat.Files {
		if cat.Files[i].Forged {
			forged++
		}
	}
	rel := eng.Releases()[0]
	fmt.Printf("spec-driven catalog: %d genuine + %d forged fileIDs (%.2f%% pollution),\n",
		len(cat.Files)-forged, forged, 100*float64(forged)/float64(len(cat.Files)))
	fmt.Printf("all forged IDs injected by release %q (%d files, %d forged variants)\n\n",
		rel.Spec.Name, len(rel.Genuine), len(rel.Forged))

	// The flash crowd is the delivery mechanism: count sessions that the
	// engine steers at the released (and polluted) files.
	crowd := 0
	total := 0
	for {
		ev, ok := eng.Next()
		if !ok {
			break
		}
		if ev.Kind == workload.EvSessionStart {
			total++
			if ev.Release == 0 {
				crowd++
			}
		}
	}
	fmt.Printf("event stream: %d sessions, %d inside the flash crowd asking for the release\n\n",
		total, crowd)

	firstTwo := anonymize.NewFileBuckets(0, 1)
	chosen := anonymize.NewFileBuckets(5, 11)
	for _, f := range cat.Files {
		firstTwo.Anonymize(f.ID)
		chosen.Anonymize(f.ID)
	}

	report := func(name string, fb *anonymize.FileBuckets) {
		sizes := fb.BucketSizes()
		total, nonEmpty := 0, 0
		for _, s := range sizes {
			total += s
			if s > 0 {
				nonEmpty++
			}
		}
		mean := float64(total) / float64(len(sizes))
		idx, maxSize := fb.MaxBucket()
		fmt.Printf("%s: mean bucket %.2f, max bucket %d (index %d = bytes %02x %02x)\n",
			name, mean, maxSize, idx, idx>>8, idx&0xFF)
	}
	fmt.Println("=== Figure 3: anonymisation array sizes under two byte pairs ===")
	report("first two bytes (paper's first attempt)", firstTwo)
	report("bytes (5,11)    (paper's fix)          ", chosen)

	// Detection: any bucket k standard deviations above the mean under
	// first-two-byte indexing reveals a forged prefix.
	fmt.Println("\n=== pollution detection from bucket skew ===")
	sizes := firstTwo.BucketSizes()
	mean := 0.0
	for _, s := range sizes {
		mean += float64(s)
	}
	mean /= float64(len(sizes))
	for idx, s := range sizes {
		if float64(s) > 20*mean && s > 50 {
			fmt.Printf("suspicious prefix %02X %02X: %d fileIDs (%.0fx the mean) — forged\n",
				idx>>8, idx&0xFF, s, float64(s)/mean)
		}
	}
	fmt.Println("\n(the paper saw exactly this: arrays 0 and 256 held the forged",
		"fileIDs reported by Lee et al. [12])")
}
