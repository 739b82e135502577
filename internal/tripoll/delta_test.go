package tripoll

import (
	"math/rand"
	"testing"

	"coordbot/internal/graph"
)

func trianglesEqual(a, b []Triangle) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSurveyDirtyMatchesFilteredFull is the delta survey's correctness
// property: on random graphs with random dirty sets, SurveyDirty emits
// exactly the full survey's triangles that touch a dirty vertex — no
// duplicates, no misses — across weight and T-score thresholds.
func TestSurveyDirtyMatchesFilteredFull(t *testing.T) {
	const nv = 40
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, nv, 320)
		for v := 0; v < nv; v++ {
			g.AddPageCount(graph.VertexID(v), uint32(rng.Intn(6)+1))
		}
		for _, opts := range []Options{
			{MinTriangleWeight: 1},
			{MinTriangleWeight: 2},
			{MinTriangleWeight: 1, MinTScore: 0.4},
		} {
			var full []Triangle
			SurveySequential(g, opts, func(tr Triangle) { full = append(full, tr) })
			SortTriangles(full)

			dirty := make(map[graph.VertexID]bool)
			for v := 0; v < nv; v++ {
				if rng.Intn(3) == 0 {
					dirty[graph.VertexID(v)] = true
				}
			}
			var want []Triangle
			for _, tr := range full {
				if dirty[tr.X] || dirty[tr.Y] || dirty[tr.Z] {
					want = append(want, tr)
				}
			}
			o := Orient(g.ThresholdView(EffectiveEdgeCut(opts)).BuildAdjacency())
			surveyDirty := func(dirty map[graph.VertexID]bool) []Triangle {
				var got []Triangle
				o.SurveyDirty(opts, dirty, g.PageCount, func(tr Triangle) { got = append(got, tr) })
				return got
			}
			got := surveyDirty(dirty)
			SortTriangles(got)
			if !trianglesEqual(got, want) {
				t.Fatalf("seed=%d opts=%+v: dirty survey %d triangles, filtered full survey %d",
					seed, opts, len(got), len(want))
			}

			// All-dirty reproduces the full survey; empty dirty yields nothing.
			all := make(map[graph.VertexID]bool, nv)
			for v := 0; v < nv; v++ {
				all[graph.VertexID(v)] = true
			}
			got = surveyDirty(all)
			SortTriangles(got)
			if !trianglesEqual(got, full) {
				t.Fatalf("seed=%d opts=%+v: all-dirty survey != full survey (%d vs %d)",
					seed, opts, len(got), len(full))
			}
			if got = surveyDirty(nil); len(got) != 0 {
				t.Fatalf("seed=%d: empty dirty set surveyed %d triangles", seed, len(got))
			}
			// False entries count as clean, not dirty.
			falsy := map[graph.VertexID]bool{0: false, 1: false}
			if got = surveyDirty(falsy); len(got) != 0 {
				t.Fatalf("seed=%d: false-valued dirty entries surveyed %d triangles", seed, len(got))
			}
		}
	}
}

// TestMergeSortedEqualsSort: merging random disjoint splits of a sorted
// census reproduces the census — the delta path's cached+fresh combine.
func TestMergeSortedEqualsSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 30, 260)
	var full []Triangle
	SurveySequential(g, Options{MinTriangleWeight: 1}, func(tr Triangle) { full = append(full, tr) })
	SortTriangles(full)
	if len(full) == 0 {
		t.Fatal("degenerate fixture: no triangles")
	}
	for trial := 0; trial < 20; trial++ {
		var a, b []Triangle
		for _, tr := range full {
			if rng.Intn(2) == 0 {
				a = append(a, tr)
			} else {
				b = append(b, tr)
			}
		}
		if got := MergeSorted(a, b); !trianglesEqual(got, full) {
			t.Fatalf("trial %d: merged %d triangles != census %d", trial, len(got), len(full))
		}
	}
	if got := MergeSorted(nil, full); !trianglesEqual(got, full) {
		t.Fatal("merge with empty left side lost triangles")
	}
	if got := MergeSorted(full, nil); !trianglesEqual(got, full) {
		t.Fatal("merge with empty right side lost triangles")
	}
}
