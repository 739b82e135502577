package tripoll

import (
	"math/rand"
	"reflect"
	"testing"

	"coordbot/internal/graph"
)

// tieHeavyGraph builds a graph where almost every triangle shares the same
// MinWeight: a clique over n vertices with every edge at weight w, plus a
// few heavier edges so TopK has a non-trivial head. Map iteration order
// randomizes the internal edge order run to run, which is exactly what the
// deterministic sorts must absorb.
func tieHeavyGraph(n int, w uint32) *graph.CIGraph {
	g := graph.NewCIGraph()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdgeWeight(graph.VertexID(u), graph.VertexID(v), w)
		}
		g.AddPageCount(graph.VertexID(u), w+2)
	}
	// One heavier triangle so MinWeight ties don't collapse TopK entirely.
	g.AddEdgeWeight(0, 1, 3)
	g.AddEdgeWeight(0, 2, 3)
	g.AddEdgeWeight(1, 2, 3)
	return g
}

// TestSurveyDeterministicOnTies: two runs over a tie-heavy graph — where
// nearly every triangle has identical weights and the parallel survey's
// bag gathers in nondeterministic order — produce byte-identical output,
// as do two TopK cuts at a k that lands mid-tie.
func TestSurveyDeterministicOnTies(t *testing.T) {
	g := tieHeavyGraph(14, 7)
	opts := Options{MinTriangleWeight: 1}

	first := surveyWith(g, opts, 4)
	if len(first) == 0 {
		t.Fatal("no triangles surveyed")
	}
	for run := 0; run < 4; run++ {
		again := surveyWith(g, opts, 4)
		if !reflect.DeepEqual(first, again) {
			t.Fatalf("run %d: parallel survey order differs on tie-heavy graph", run)
		}
	}

	// The sequential reference, sorted the same way, agrees exactly.
	var seq []Triangle
	SurveySequential(g, opts, func(tr Triangle) { seq = append(seq, tr) })
	SortTriangles(seq)
	if !reflect.DeepEqual(first, seq) {
		t.Fatal("sorted sequential survey differs from parallel survey")
	}

	// TopK cuts mid-tie: every run must pick the same tied triangles.
	for _, k := range []int{1, 5, len(first) / 2, len(first) - 1} {
		top := TopKByMinWeight(first, k)
		for run := 0; run < 3; run++ {
			shuffled := make([]Triangle, len(first))
			copy(shuffled, first)
			rand.New(rand.NewSource(int64(run))).Shuffle(len(shuffled), func(i, j int) {
				shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
			})
			if !reflect.DeepEqual(top, TopKByMinWeight(shuffled, k)) {
				t.Fatalf("TopKByMinWeight(k=%d) depends on input order", k)
			}
		}
	}
}

// TestSortTrianglesTotalOrder: SortTriangles is a total order even on
// caller-built lists with duplicate (X,Y,Z) keys differing only in weights.
func TestSortTrianglesTotalOrder(t *testing.T) {
	ts := []Triangle{
		{X: 1, Y: 2, Z: 3, WXY: 9, WXZ: 1, WYZ: 1},
		{X: 1, Y: 2, Z: 3, WXY: 2, WXZ: 8, WYZ: 1},
		{X: 1, Y: 2, Z: 3, WXY: 2, WXZ: 3, WYZ: 7},
		{X: 1, Y: 2, Z: 3, WXY: 2, WXZ: 3, WYZ: 4},
		{X: 0, Y: 2, Z: 9, WXY: 5, WXZ: 5, WYZ: 5},
	}
	want := []Triangle{ts[4], ts[3], ts[2], ts[1], ts[0]}
	for run := 0; run < 5; run++ {
		shuffled := make([]Triangle, len(ts))
		copy(shuffled, ts)
		rand.New(rand.NewSource(int64(run))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		SortTriangles(shuffled)
		if !reflect.DeepEqual(shuffled, want) {
			t.Fatalf("run %d: SortTriangles not a total order: %v", run, shuffled)
		}
	}
}

// sortFixture returns a census-shaped triangle list in survey emission
// order: cliques of k authors each (every edge above the cut, weights
// varied) plus a sparse organic ring, as SurveyAll emits them. Members
// carry zero to three pendant edges, so their degrees — the survey's pivot
// order — differ and the emission order is not the sorted one.
func sortFixture(cliques, k int) []Triangle {
	g := graph.NewCIGraph()
	rng := rand.New(rand.NewSource(int64(cliques*1000 + k)))
	pendant := graph.VertexID(1 << 20)
	for m := 0; m < cliques*k; m++ {
		for p := rng.Intn(4); p > 0; p-- {
			g.AddEdgeWeight(graph.VertexID(m), pendant, 9)
			pendant++
		}
	}
	for c := 0; c < cliques; c++ {
		for i := 0; i < k; i++ {
			for j := i + 1; j < k; j++ {
				// Interleave the cliques' ids so their runs alternate.
				u, v := graph.VertexID(i*cliques+c), graph.VertexID(j*cliques+c)
				g.AddEdgeWeight(u, v, uint32(8+(i*7+j*3+c)%30))
			}
		}
	}
	base := graph.VertexID(cliques * k)
	for i := graph.VertexID(0); i < 150; i++ {
		g.AddEdgeWeight(base+i, base+(i+1)%150, 9)
		g.AddEdgeWeight(base+i, base+(i+2)%150, 9)
	}
	var out []Triangle
	SurveySequential(g, Options{MinTriangleWeight: 8}, func(tr Triangle) { out = append(out, tr) })
	return out
}

// TestSortTrianglesStableTotal pins SortTriangles' order at census scale,
// past the sort's insertion-sort blocks: a list holding duplicate (X, Y, Z)
// keys with different weights and exact duplicates sorts to one output
// from every permutation, ascending in the full six-field order.
func TestSortTrianglesStableTotal(t *testing.T) {
	ts := sortFixture(2, 12)
	n := len(ts)
	for i := 0; i < n; i += 3 {
		d := ts[i]
		d.WXZ += uint32(i % 5) // same triplet, maybe other weights
		ts = append(ts, d)
	}
	want := append([]Triangle(nil), ts...)
	SortTriangles(want)
	for i := 1; i < len(want); i++ {
		if triangleLess(want[i], want[i-1]) {
			t.Fatalf("output not ascending at %d: %+v before %+v", i, want[i-1], want[i])
		}
	}
	for run := 0; run < 8; run++ {
		got := append([]Triangle(nil), ts...)
		rand.New(rand.NewSource(int64(run))).Shuffle(len(got), func(i, j int) {
			got[i], got[j] = got[j], got[i]
		})
		SortTriangles(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: SortTriangles depends on input order", run)
		}
	}
}

// BenchmarkSortTriangles sorts survey-churn's first census: three
// 28-cliques and a little organic background (~10k triangles) in the order
// the survey emits them.
func BenchmarkSortTriangles(b *testing.B) {
	src := sortFixture(3, 28)
	buf := make([]Triangle, len(src))
	b.Run("10k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			copy(buf, src)
			SortTriangles(buf)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(src)), "ns/triangle")
	})
}
