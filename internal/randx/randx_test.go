package randx

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(1, 2), New(1, 2)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give identical streams")
		}
	}
	c := New(1, 3)
	same := 0
	a = New(1, 2)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds should diverge; %d/1000 equal draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7, 7)
	a := r.Split(1)
	r2 := New(7, 7)
	a2 := r2.Split(1)
	for i := 0; i < 100; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatal("Split must be deterministic given parent state and label")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(42, 0)
	n, hits := 200000, 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %.4f", got)
	}
}

func TestParetoTail(t *testing.T) {
	r := New(11, 12)
	const alpha = 2.0
	n := 200000
	over2 := 0
	for i := 0; i < n; i++ {
		x := r.Pareto(1, alpha)
		if x < 1 {
			t.Fatalf("Pareto below xm: %v", x)
		}
		if x > 2 {
			over2++
		}
	}
	// P(X>2) = (1/2)^alpha = 0.25
	got := float64(over2) / float64(n)
	if math.Abs(got-0.25) > 0.01 {
		t.Fatalf("Pareto tail P(X>2) = %.4f, want 0.25", got)
	}
}

func TestParetoPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1, 1).Pareto(0, 1)
}

func TestLogNormalMedian(t *testing.T) {
	r := New(5, 5)
	n := 100000
	below := 0
	mu := math.Log(700.0)
	for i := 0; i < n; i++ {
		if r.LogNormal(mu, 0.5) < 700 {
			below++
		}
	}
	got := float64(below) / float64(n)
	if math.Abs(got-0.5) > 0.01 {
		t.Fatalf("log-normal median fraction = %.4f, want 0.5", got)
	}
}

func TestGeometricMean(t *testing.T) {
	r := New(8, 8)
	p := 0.2
	n := 100000
	sum := 0
	for i := 0; i < n; i++ {
		sum += r.Geometric(p)
	}
	mean := float64(sum) / float64(n)
	want := (1 - p) / p // = 4
	if math.Abs(mean-want) > 0.1 {
		t.Fatalf("Geometric mean = %.3f, want %.3f", mean, want)
	}
	if r.Geometric(1) != 0 {
		t.Fatal("Geometric(1) must be 0")
	}
}

func TestGammaMeanAndVariance(t *testing.T) {
	r := New(9, 17)
	for _, c := range []struct{ shape, scale float64 }{
		{0.5, 2}, {1, 1}, {2.5, 0.4}, {9, 3},
	} {
		n := 100000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			x := r.Gamma(c.shape, c.scale)
			if x < 0 {
				t.Fatalf("Gamma(%v,%v) negative: %v", c.shape, c.scale, x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / float64(n)
		wantMean := c.shape * c.scale
		if math.Abs(mean-wantMean) > 0.05*wantMean+0.02 {
			t.Fatalf("Gamma(%v,%v) mean = %.4f, want %.4f", c.shape, c.scale, mean, wantMean)
		}
		variance := sumSq/float64(n) - mean*mean
		wantVar := c.shape * c.scale * c.scale
		if math.Abs(variance-wantVar) > 0.15*wantVar+0.02 {
			t.Fatalf("Gamma(%v,%v) var = %.4f, want %.4f", c.shape, c.scale, variance, wantVar)
		}
	}
}

func TestWeibullMeanAndTail(t *testing.T) {
	r := New(13, 29)
	for _, shape := range []float64{0.5, 1, 2} {
		const scale = 3.0
		n := 100000
		var sum float64
		overScale := 0
		for i := 0; i < n; i++ {
			x := r.Weibull(shape, scale)
			if x < 0 {
				t.Fatalf("Weibull negative: %v", x)
			}
			sum += x
			if x > scale {
				overScale++
			}
		}
		mean := sum / float64(n)
		wantMean := scale * math.Gamma(1+1/shape)
		if math.Abs(mean-wantMean) > 0.05*wantMean {
			t.Fatalf("Weibull(%v,%v) mean = %.4f, want %.4f", shape, scale, mean, wantMean)
		}
		// P(X > scale) = 1/e for every shape.
		got := float64(overScale) / float64(n)
		if math.Abs(got-1/math.E) > 0.01 {
			t.Fatalf("Weibull(%v) P(X>scale) = %.4f, want %.4f", shape, got, 1/math.E)
		}
	}
}

func TestGammaWeibullPanicOnBadParams(t *testing.T) {
	for name, fn := range map[string]func(){
		"gamma-zero-shape":   func() { New(1, 1).Gamma(0, 1) },
		"gamma-neg-scale":    func() { New(1, 1).Gamma(1, -1) },
		"weibull-zero-shape": func() { New(1, 1).Weibull(0, 1) },
		"weibull-neg-scale":  func() { New(1, 1).Weibull(1, -2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestZipfRankFrequencies(t *testing.T) {
	r := New(100, 200)
	z := NewZipf(r, 1.5, 1, 1000)
	n := 300000
	counts := make([]int, 1001)
	for i := 0; i < n; i++ {
		v := z.Uint64()
		if v > 1000 {
			t.Fatalf("Zipf out of range: %d", v)
		}
		counts[v]++
	}
	// P(0)/P(1) should be (v+1)^s / v^s = 2^1.5 ~ 2.83.
	ratio := float64(counts[0]) / float64(counts[1])
	if math.Abs(ratio-2.83) > 0.3 {
		t.Fatalf("Zipf P(0)/P(1) = %.3f, want ~2.83", ratio)
	}
	// Monotone non-increasing over the first few ranks (statistically).
	for k := 0; k < 5; k++ {
		if counts[k] < counts[k+1]-int(3*math.Sqrt(float64(counts[k+1]))) {
			t.Fatalf("Zipf counts not decreasing at rank %d: %v", k, counts[:8])
		}
	}
}

func TestZipfPanicsOnInvalid(t *testing.T) {
	for _, c := range []struct{ s, v float64 }{{1.0, 1}, {2, 0.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(s=%v v=%v) should panic", c.s, c.v)
				}
			}()
			NewZipf(New(1, 1), c.s, c.v, 10)
		}()
	}
}

func TestAliasTableFrequencies(t *testing.T) {
	r := New(77, 1)
	weights := []float64{1, 2, 3, 4}
	tab := NewAliasTable(weights)
	n := 400000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[tab.Sample(r)]++
	}
	for i, w := range weights {
		want := w / 10 * float64(n)
		if math.Abs(float64(counts[i])-want) > 0.03*want+50 {
			t.Fatalf("alias freq[%d] = %d, want ~%.0f", i, counts[i], want)
		}
	}
}

func TestAliasTableQuickCoverage(t *testing.T) {
	// Property: sampling only ever returns indices with positive weight
	// ... except numerical residue can touch zero-weight cells via alias;
	// the hard property is that indices are always in range.
	f := func(ws []float64, seed uint64) bool {
		clean := make([]float64, 0, len(ws))
		for _, w := range ws {
			if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
				w = 1
			}
			clean = append(clean, w)
		}
		if len(clean) == 0 {
			return true
		}
		sum := 0.0
		for _, w := range clean {
			sum += w
		}
		if sum == 0 {
			clean[0] = 1
		}
		tab := NewAliasTable(clean)
		r := New(seed, 3)
		for i := 0; i < 100; i++ {
			got := tab.Sample(r)
			if got < 0 || got >= len(clean) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAliasTablePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty": func() { NewAliasTable(nil) },
		"zero":  func() { NewAliasTable([]float64{0, 0}) },
		"neg":   func() { NewAliasTable([]float64{1, -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestPermIsAPermutation(t *testing.T) {
	r := New(6, 6)
	p := r.Perm(100)
	seen := make([]bool, 100)
	for _, v := range p {
		if v < 0 || v >= 100 || seen[v] {
			t.Fatalf("Perm not a permutation: %v", p)
		}
		seen[v] = true
	}
}

// TestPermIntoIsPerm: a permutation drawn into a reused buffer is
// math/rand/v2's, draw for draw, and leaves the stream where Perm does.
func TestPermIntoIsPerm(t *testing.T) {
	var buf []int
	for _, n := range []int{0, 1, 2, 7, 100, 3, 7200, 50} {
		want, got := rand.New(rand.NewPCG(9, uint64(n))), New(9, uint64(n))
		buf = got.PermInto(buf, n)
		if p := want.Perm(n); !slices.Equal(buf, p) {
			t.Fatalf("n=%d: PermInto %v, math/rand/v2 Perm %v", n, buf, p)
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("n=%d: the streams part after the permutation", n)
		}
	}
	r := New(1, 2)
	if a := testing.AllocsPerRun(10, func() { buf = r.PermInto(buf, 100) }); a != 0 {
		t.Errorf("PermInto into a buffer that holds n: %v allocs", a)
	}
}

func BenchmarkAliasSample(b *testing.B) {
	r := New(1, 1)
	w := make([]float64, 1<<20)
	for i := range w {
		w[i] = r.Pareto(1, 1.2)
	}
	tab := NewAliasTable(w)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Sample(r)
	}
}

func BenchmarkZipf(b *testing.B) {
	r := New(1, 1)
	z := NewZipf(r, 1.4, 1, 1<<24)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Uint64()
	}
}
