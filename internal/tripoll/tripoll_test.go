package tripoll

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"coordbot/internal/graph"
)

func triangleGraph() *graph.CIGraph {
	g := graph.NewCIGraph()
	g.AddEdgeWeight(10, 20, 5)
	g.AddEdgeWeight(20, 30, 7)
	g.AddEdgeWeight(10, 30, 3)
	g.AddPageCount(10, 10)
	g.AddPageCount(20, 10)
	g.AddPageCount(30, 10)
	return g
}

func TestSurveySingleTriangle(t *testing.T) {
	var got []Triangle
	SurveySequential(triangleGraph(), Options{}, func(tr Triangle) { got = append(got, tr) })
	if len(got) != 1 {
		t.Fatalf("found %d triangles, want 1", len(got))
	}
	tr := got[0]
	if tr.X != 10 || tr.Y != 20 || tr.Z != 30 {
		t.Fatalf("vertices = (%d,%d,%d)", tr.X, tr.Y, tr.Z)
	}
	if tr.WXY != 5 || tr.WXZ != 3 || tr.WYZ != 7 {
		t.Fatalf("weights = (%d,%d,%d), want (5,3,7)", tr.WXY, tr.WXZ, tr.WYZ)
	}
	if tr.MinWeight() != 3 {
		t.Fatalf("MinWeight = %d, want 3", tr.MinWeight())
	}
	// T = 3*3/(10+10+10) = 0.3
	if ts := tr.TScore(triangleGraph().PageCount); ts != 0.3 {
		t.Fatalf("TScore = %f, want 0.3", ts)
	}
}

func TestMinTriangleWeightThreshold(t *testing.T) {
	g := triangleGraph()
	if n := Count(g, Options{MinTriangleWeight: 3}); n != 1 {
		t.Fatalf("threshold 3: %d triangles, want 1", n)
	}
	if n := Count(g, Options{MinTriangleWeight: 4}); n != 0 {
		t.Fatalf("threshold 4: %d triangles, want 0", n)
	}
}

func TestMinTScoreThreshold(t *testing.T) {
	g := triangleGraph() // T = 0.3
	var n int
	SurveySequential(g, Options{MinTScore: 0.25}, func(Triangle) { n++ })
	if n != 1 {
		t.Fatalf("T>=0.25: %d, want 1", n)
	}
	n = 0
	SurveySequential(g, Options{MinTScore: 0.35}, func(Triangle) { n++ })
	if n != 0 {
		t.Fatalf("T>=0.35: %d, want 0", n)
	}
}

func TestTScoreZeroDenominator(t *testing.T) {
	g := graph.NewCIGraph()
	g.AddEdgeWeight(1, 2, 5)
	g.AddEdgeWeight(2, 3, 5)
	g.AddEdgeWeight(1, 3, 5)
	// no page counts registered
	var tr Triangle
	SurveySequential(g, Options{}, func(x Triangle) { tr = x })
	if s := tr.TScore(g.PageCount); s != 0 {
		t.Fatalf("TScore with zero denominator = %f, want 0", s)
	}
}

func TestKliqueTriangleCount(t *testing.T) {
	// K_n has C(n,3) triangles.
	g := graph.NewCIGraph()
	n := 9
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdgeWeight(graph.VertexID(i), graph.VertexID(j), uint32(1+i+j))
		}
	}
	want := int64(n * (n - 1) * (n - 2) / 6)
	if got := Count(g, Options{}); got != want {
		t.Fatalf("K%d triangles = %d, want %d", n, got, want)
	}
}

func TestSurveyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 40, 150)
		for _, thresh := range []uint32{0, 1, 2, 3} {
			want := CountNaive(g, thresh)
			got := Count(g, Options{MinTriangleWeight: thresh})
			if got != want {
				t.Fatalf("trial %d thresh %d: survey %d, naive %d", trial, thresh, got, want)
			}
		}
	}
}

// surveyWith is Survey with a pool of nw workers.
func surveyWith(g graph.CIView, opts Options, nw int) []Triangle {
	o := Orient(g.ThresholdView(EffectiveEdgeCut(opts)).BuildAdjacency())
	return o.surveyParallel(opts, g.PageCount, nw)
}

func TestParallelMatchesSequential(t *testing.T) {
	single := graph.NewCIGraph()
	single.AddEdgeWeight(1, 2, 5)
	single.AddEdgeWeight(2, 3, 5)
	single.AddEdgeWeight(1, 3, 5)
	graphs := []struct {
		name string
		g    *graph.CIGraph
	}{
		{"random", randomGraph(rand.New(rand.NewSource(5)), 80, 500)},
		{"single-triangle", single},
		{"empty", graph.NewCIGraph()},
	}
	for _, tc := range graphs {
		var seq []Triangle
		SurveySequential(tc.g, Options{MinTriangleWeight: 2}, func(tr Triangle) { seq = append(seq, tr) })
		SortTriangles(seq)
		// GOMAXPROCS = Survey's pool, 1 = inline on the caller, 1000 =
		// more workers than vertices (clamped).
		for _, ranks := range []int{runtime.GOMAXPROCS(0), 1, 4, 7, 1000} {
			par := surveyWith(tc.g, Options{MinTriangleWeight: 2}, ranks)
			if len(par) != len(seq) {
				t.Fatalf("%s ranks %d: %d triangles, want %d", tc.name, ranks, len(par), len(seq))
			}
			for i := range seq {
				if par[i] != seq[i] {
					t.Fatalf("%s ranks %d: triangle %d = %+v, want %+v", tc.name, ranks, i, par[i], seq[i])
				}
			}
		}
	}
}

func TestTopKByMinWeight(t *testing.T) {
	ts := []Triangle{
		{X: 1, Y: 2, Z: 3, WXY: 5, WXZ: 5, WYZ: 5},
		{X: 4, Y: 5, Z: 6, WXY: 9, WXZ: 8, WYZ: 7},
		{X: 7, Y: 8, Z: 9, WXY: 2, WXZ: 3, WYZ: 4},
	}
	top := TopKByMinWeight(ts, 2)
	if len(top) != 2 || top[0].X != 4 || top[1].X != 1 {
		t.Fatalf("TopK wrong: %+v", top)
	}
	// k beyond length returns all.
	if got := len(TopKByMinWeight(ts, 10)); got != 3 {
		t.Fatalf("TopK(10) len = %d", got)
	}
	// Input must not be mutated.
	if ts[0].X != 1 {
		t.Fatal("TopK mutated input")
	}
}

func TestEmptyGraph(t *testing.T) {
	if n := Count(graph.NewCIGraph(), Options{}); n != 0 {
		t.Fatalf("empty graph has %d triangles", n)
	}
	if out := surveyWith(graph.NewCIGraph(), Options{}, 2); len(out) != 0 {
		t.Fatalf("empty parallel survey returned %d", len(out))
	}
}

func TestQuickSurveyInvariants(t *testing.T) {
	// Properties on random graphs: every reported triangle's edges exist
	// with matching weights; min weight respects the cutoff; T in [0,1]
	// when page counts come from a projection-consistent table.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 30, 120)
		// Make P' consistent: P'_v >= max incident weight.
		adj := g.BuildAdjacency()
		for i := int32(0); i < int32(adj.NumVertices()); i++ {
			maxw := uint32(0)
			for _, w := range adj.Weights(i) {
				if w > maxw {
					maxw = w
				}
			}
			g.SetPageCount(adj.Orig[i], maxw+uint32(rng.Intn(3)))
		}
		ok := true
		SurveySequential(g, Options{MinTriangleWeight: 2}, func(tr Triangle) {
			if g.Weight(tr.X, tr.Y) != tr.WXY ||
				g.Weight(tr.X, tr.Z) != tr.WXZ ||
				g.Weight(tr.Y, tr.Z) != tr.WYZ {
				ok = false
			}
			if tr.MinWeight() < 2 {
				ok = false
			}
			if s := tr.TScore(g.PageCount); s < 0 || s > 1 {
				ok = false
			}
			if !(tr.X < tr.Y && tr.Y < tr.Z) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func randomGraph(rng *rand.Rand, nv, ne int) *graph.CIGraph {
	g := graph.NewCIGraph()
	for i := 0; i < ne; i++ {
		u := graph.VertexID(rng.Intn(nv))
		v := graph.VertexID(rng.Intn(nv))
		if u != v {
			g.AddEdgeWeight(u, v, uint32(rng.Intn(4)+1))
		}
	}
	return g
}
