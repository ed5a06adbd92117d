package edload

import (
	"context"
	"testing"
	"time"

	"edtrace/internal/edserverd"
	"edtrace/internal/policy"
)

func startPoliciedDaemon(t *testing.T, cfg edserverd.Config) *edserverd.Daemon {
	t.Helper()
	d, err := edserverd.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := d.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return d
}

func TestAbuseUnknownProfile(t *testing.T) {
	if _, err := RunAbuse(context.Background(), AbuseConfig{Profile: "teardrop"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// TestAbuseReconnectStormThrottled: against a per-IP admission policy,
// most of a reconnect storm is refused at accept.
func TestAbuseReconnectStormThrottled(t *testing.T) {
	d := startPoliciedDaemon(t, edserverd.Config{
		UDPAddr: "off",
		Policy: &policy.Config{
			Admission: &policy.AdmissionSpec{PerIPRate: 5, PerIPBurst: 5},
		},
	})
	st, err := RunAbuse(context.Background(), AbuseConfig{
		Addr: d.TCPAddr().String(), Profile: AbuseReconnectStorm,
		Workers: 4, Duration: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Attempts == 0 || st.Refused == 0 {
		t.Fatalf("storm saw no refusals: %+v", st)
	}
	if st.Accepted > 10 {
		t.Fatalf("admission let %d of %d storm connections in", st.Accepted, st.Attempts)
	}
	_, throttled, _ := d.Policy().Totals()
	if throttled == 0 {
		t.Fatal("daemon counted no admission throttles")
	}
}

// TestAbuseSearchStormThrottled: against a search-rate policy, the
// flood degrades to empty answers at the throttle cadence.
func TestAbuseSearchStormThrottled(t *testing.T) {
	d := startPoliciedDaemon(t, edserverd.Config{
		UDPAddr: "off",
		Policy: &policy.Config{
			Messages: &policy.MessageSpec{
				SearchesPerSec: 2, SearchBurst: 2,
				ThrottleDelay: policy.Duration(5 * time.Millisecond),
			},
		},
	})
	st, err := RunAbuse(context.Background(), AbuseConfig{
		Addr: d.TCPAddr().String(), Profile: AbuseSearchStorm,
		Workers: 4, Duration: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent == 0 || st.Empty == 0 {
		t.Fatalf("storm saw no throttled answers: %+v", st)
	}
	_, throttled, _ := d.Policy().Totals()
	if throttled == 0 {
		t.Fatal("daemon counted no search throttles")
	}
}

// TestAbuseSlowlorisReaped: against the idle deadline, every silent
// socket is eventually reaped and the swarm observes it.
func TestAbuseSlowlorisReaped(t *testing.T) {
	d := startPoliciedDaemon(t, edserverd.Config{
		UDPAddr:     "off",
		IdleTimeout: 150 * time.Millisecond,
	})
	st, err := RunAbuse(context.Background(), AbuseConfig{
		Addr: d.TCPAddr().String(), Profile: AbuseSlowloris,
		Workers: 4, Duration: 900 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Reaped == 0 {
		t.Fatalf("slowloris swarm was never reaped: %+v", st)
	}
	if ds := d.Stats(); ds.IdleReaped == 0 {
		t.Fatalf("daemon counted no idle reaps: %+v", ds)
	}
}

// TestAbuseIndexSpamThrottled: against an offer-rate policy, the forged
// flood is acked with Accepted 0 and the index stays near-clean.
func TestAbuseIndexSpamThrottled(t *testing.T) {
	d := startPoliciedDaemon(t, edserverd.Config{
		UDPAddr: "off",
		Policy: &policy.Config{
			Messages: &policy.MessageSpec{
				OffersPerSec: 1, OfferBurst: 2,
				ThrottleDelay: policy.Duration(5 * time.Millisecond),
			},
		},
	})
	st, err := RunAbuse(context.Background(), AbuseConfig{
		Addr: d.TCPAddr().String(), Profile: AbuseIndexSpam,
		Workers: 4, Duration: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Sent == 0 || st.Empty == 0 {
		t.Fatalf("spam flood saw no throttled acks: %+v", st)
	}
	// Each worker's burst lets a couple of offers through; the campaign
	// (hundreds of forged files) must not.
	indexed := d.Stats().Server.IndexedFiles
	if uint64(indexed) != st.AcceptedFiles {
		t.Fatalf("index holds %d files, acks granted %d", indexed, st.AcceptedFiles)
	}
	if st.AcceptedFiles*4 > st.Sent*uint64(8) {
		t.Fatalf("too much spam admitted: %d of %d offered files", st.AcceptedFiles, st.Sent*8)
	}
}
