package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if r := Pearson(xs, []float64{2, 4, 6, 8}); math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect positive r = %f", r)
	}
	if r := Pearson(xs, []float64{8, 6, 4, 2}); math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect negative r = %f", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1}, []float64{2})) {
		t.Fatal("n=1 should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 1, 1}, []float64{1, 2, 3})) {
		t.Fatal("zero variance should be NaN")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	// Any strictly monotone transform gives rho = 1.
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 8, 27, 64, 125}
	if r := Spearman(xs, ys); math.Abs(r-1) > 1e-12 {
		t.Fatalf("monotone rho = %f", r)
	}
}

func TestSpearmanTies(t *testing.T) {
	// With ties, average ranks are used; just confirm a sane value.
	r := Spearman([]float64{1, 1, 2, 2}, []float64{1, 2, 3, 4})
	if math.IsNaN(r) || r < 0.5 {
		t.Fatalf("tied rho = %f", r)
	}
}

func TestQuantile(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if q := Quantile(v, 0); q != 1 {
		t.Fatalf("q0 = %f", q)
	}
	if q := Quantile(v, 1); q != 4 {
		t.Fatalf("q1 = %f", q)
	}
	if q := Quantile(v, 0.5); q != 2.5 {
		t.Fatalf("median = %f", q)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
	// Input must not be mutated (sorted copy).
	if v[0] != 4 {
		t.Fatal("Quantile mutated input")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
	e := Summarize(nil)
	if e.N != 0 || !math.IsNaN(e.Mean) {
		t.Fatalf("empty summary = %+v", e)
	}
}

func TestQuickPearsonBounds(t *testing.T) {
	// Property: r ∈ [-1, 1] (or NaN) for random samples; symmetric.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 2
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
		}
		r := Pearson(xs, ys)
		if math.IsNaN(r) {
			return true
		}
		if r < -1-1e-9 || r > 1+1e-9 {
			return false
		}
		return math.Abs(r-Pearson(ys, xs)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSpearmanInvariantToMonotone(t *testing.T) {
	// Property: rho(x, y) == rho(x, exp(y)).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(30) + 3
		xs := make([]float64, n)
		ys := make([]float64, n)
		zs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = rng.NormFloat64()
			zs[i] = math.Exp(ys[i])
		}
		a, b := Spearman(xs, ys), Spearman(xs, zs)
		if math.IsNaN(a) && math.IsNaN(b) {
			return true
		}
		return math.Abs(a-b) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
