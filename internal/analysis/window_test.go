package analysis

import (
	"strings"
	"testing"

	"edtrace/internal/stats"
	"edtrace/internal/xmlenc"
)

func TestWindowSetNestedRouting(t *testing.T) {
	ws, err := NewWindowSet(100, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		rec := &xmlenc.Record{
			T:      float64(i),
			Op:     "OfferFiles",
			Client: uint32(i),
			Files:  []xmlenc.FileInfo{{ID: uint32(i), SizeKB: 700 * 1024}},
		}
		if err := ws.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	rep := ws.Finalize()
	if len(rep.Windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(rep.Windows))
	}
	for i, want := range []uint64{100, 50, 25} {
		if got := rep.Windows[i].Records; got != want {
			t.Fatalf("window %d records = %d, want %d", i, got, want)
		}
		if n := rep.Windows[i].Figures.Fig6.N(); n != want {
			t.Fatalf("window %d Fig6 n = %d, want %d (one provider per record)", i, n, want)
		}
	}
	out := rep.Render()
	for _, want := range []string{"finite-measurement bias", "Fig 4", "Fig 8", "KS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestWindowSetRejectsBadTotal(t *testing.T) {
	if _, err := NewWindowSet(0, 3); err == nil {
		t.Fatal("zero total must be rejected")
	}
}

func TestKSDistance(t *testing.T) {
	a, b := stats.NewIntHist(), stats.NewIntHist()
	for i := uint64(1); i <= 10; i++ {
		a.Add(i)
		b.Add(i)
	}
	if d := ksDistance(a, b); d != 0 {
		t.Fatalf("identical distributions: KS = %v, want 0", d)
	}
	c := stats.NewIntHist()
	for i := uint64(100); i < 110; i++ {
		c.Add(i)
	}
	if d := ksDistance(a, c); d != 1 {
		t.Fatalf("disjoint distributions: KS = %v, want 1", d)
	}
	// Half the mass shifted: KS = 0.5.
	d1, d2 := stats.NewIntHist(), stats.NewIntHist()
	d1.AddN(1, 10)
	d2.AddN(1, 5)
	d2.AddN(100, 5)
	if d := ksDistance(d1, d2); d != 0.5 {
		t.Fatalf("half-shifted distributions: KS = %v, want 0.5", d)
	}
}

// TestWindowSetFullWindowTakesLastRecord: from 2²⁴ s on, the margin
// edanalyze adds to the capture's last t rounds away (2²⁵ + 1e-9 is 2²⁵
// in float64), so the full window must take every record whatever its t.
func TestWindowSetFullWindowTakesLastRecord(t *testing.T) {
	const last = 1 << 25
	ws, err := NewWindowSet(last+1e-9, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{0, last / 2, last} {
		if err := ws.Write(&xmlenc.Record{T: v, Op: "StatReq"}); err != nil {
			t.Fatal(err)
		}
	}
	rep := ws.Finalize()
	if got := rep.Windows[0].Records; got != 3 {
		t.Fatalf("full window records = %d, want 3", got)
	}
	if got := rep.Windows[1].Records; got != 1 {
		t.Fatalf("half window records = %d, want 1", got)
	}
}

func TestWindowSetRejectsBadCount(t *testing.T) {
	for _, n := range []int{-3, 0, 1, 9, 20} {
		if _, err := NewWindowSet(100, n); err == nil {
			t.Errorf("%d windows accepted", n)
		}
	}
	for _, n := range []int{2, 8} {
		if _, err := NewWindowSet(100, n); err != nil {
			t.Errorf("%d windows: %v", n, err)
		}
	}
}
