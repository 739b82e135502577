package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPackEdgeCanonical(t *testing.T) {
	if PackEdge(3, 7) != PackEdge(7, 3) {
		t.Fatal("PackEdge not symmetric")
	}
	u, v := UnpackEdge(PackEdge(7, 3))
	if u != 3 || v != 7 {
		t.Fatalf("UnpackEdge = (%d,%d), want (3,7)", u, v)
	}
}

func TestPackEdgeSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	PackEdge(4, 4)
}

func TestCIGraphWeights(t *testing.T) {
	g := NewCIGraph()
	g.AddEdgeWeight(1, 2, 1)
	g.AddEdgeWeight(2, 1, 2) // symmetric accumulation
	g.AddEdgeWeight(2, 3, 5)
	if got := g.Weight(1, 2); got != 3 {
		t.Errorf("Weight(1,2) = %d, want 3", got)
	}
	if got := g.Weight(2, 1); got != 3 {
		t.Errorf("Weight(2,1) = %d, want 3", got)
	}
	if got := g.Weight(1, 3); got != 0 {
		t.Errorf("Weight(1,3) = %d, want 0", got)
	}
	if got := g.Weight(1, 1); got != 0 {
		t.Errorf("self weight = %d, want 0", got)
	}
	if g.NumEdges() != 2 || g.NumVertices() != 3 {
		t.Errorf("edges=%d vertices=%d, want 2, 3", g.NumEdges(), g.NumVertices())
	}
	if g.MaxWeight() != 5 {
		t.Errorf("MaxWeight = %d, want 5", g.MaxWeight())
	}
}

func TestCIGraphThreshold(t *testing.T) {
	g := NewCIGraph()
	g.AddEdgeWeight(1, 2, 3)
	g.AddEdgeWeight(2, 3, 10)
	g.AddPageCount(1, 4)
	th := g.Threshold(5)
	if th.NumEdges() != 1 || th.Weight(2, 3) != 10 {
		t.Fatalf("threshold kept wrong edges: %v", th.Edges())
	}
	if th.PageCount(1) != 4 {
		t.Fatal("threshold must preserve page counts")
	}
}

func TestCIGraphSubEdgeWeight(t *testing.T) {
	g := NewCIGraph()
	g.AddEdgeWeight(1, 2, 3)
	g.SubEdgeWeight(2, 1, 1) // symmetric withdrawal
	if got := g.Weight(1, 2); got != 2 {
		t.Fatalf("Weight(1,2) = %d after -1, want 2", got)
	}
	g.SubEdgeWeight(1, 2, 2)
	if g.NumEdges() != 0 {
		t.Fatal("edge at zero weight must be deleted, not retained")
	}
	// A decremented-to-zero graph equals a fresh one (the sliding-window
	// equivalence property depends on this).
	if !g.Equal(NewCIGraph()) {
		t.Fatal("fully withdrawn graph != empty graph")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	g.SubEdgeWeight(1, 2, 1)
}

func TestCIGraphSubPageCount(t *testing.T) {
	g := NewCIGraph()
	g.AddPageCount(7, 2)
	g.SubPageCount(7, 1)
	if g.PageCount(7) != 1 {
		t.Fatal("page count decrement wrong")
	}
	g.SubPageCount(7, 1)
	if len(g.PageCounts()) != 0 {
		t.Fatal("page count at zero must be deleted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	g.SubPageCount(7, 1)
}

func TestCIGraphMerge(t *testing.T) {
	a, b := NewCIGraph(), NewCIGraph()
	a.AddEdgeWeight(1, 2, 3)
	a.AddPageCount(1, 2)
	b.AddEdgeWeight(1, 2, 4)
	b.AddEdgeWeight(5, 6, 1)
	b.AddPageCount(1, 1)
	a.Merge(b)
	if a.Weight(1, 2) != 7 || a.Weight(5, 6) != 1 {
		t.Fatalf("merge weights wrong: %v", a.Edges())
	}
	if a.PageCount(1) != 3 {
		t.Fatalf("merge page counts wrong: %d", a.PageCount(1))
	}
}

func TestCIGraphEqual(t *testing.T) {
	a, b := NewCIGraph(), NewCIGraph()
	a.AddEdgeWeight(1, 2, 3)
	b.AddEdgeWeight(2, 1, 3)
	if !a.Equal(b) {
		t.Fatal("equal graphs reported unequal")
	}
	b.AddPageCount(9, 1)
	if a.Equal(b) {
		t.Fatal("unequal graphs reported equal")
	}
}

func TestAdjacencyCSR(t *testing.T) {
	g := NewCIGraph()
	// Triangle 10-20-30 plus pendant 40.
	g.AddEdgeWeight(10, 20, 1)
	g.AddEdgeWeight(20, 30, 2)
	g.AddEdgeWeight(10, 30, 3)
	g.AddEdgeWeight(30, 40, 4)
	adj := g.BuildAdjacency()
	if adj.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", adj.NumVertices())
	}
	d30 := adj.Dense[30]
	if adj.Degree(d30) != 3 {
		t.Fatalf("deg(30) = %d, want 3", adj.Degree(d30))
	}
	nbr := adj.Neighbors(d30)
	for i := 1; i < len(nbr); i++ {
		if nbr[i-1] >= nbr[i] {
			t.Fatal("neighbors not sorted")
		}
	}
	if w := adj.EdgeWeight(adj.Dense[10], adj.Dense[30]); w != 3 {
		t.Fatalf("EdgeWeight(10,30) = %d, want 3", w)
	}
	if w := adj.EdgeWeight(adj.Dense[10], adj.Dense[40]); w != 0 {
		t.Fatalf("EdgeWeight(10,40) = %d, want 0", w)
	}
}

func TestQuickAdjacencyMatchesMap(t *testing.T) {
	// Property: CSR EdgeWeight agrees with the map representation for
	// random graphs, in both directions.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewCIGraph()
		for i := 0; i < 60; i++ {
			u, v := VertexID(rng.Intn(20)), VertexID(rng.Intn(20))
			if u == v {
				continue
			}
			g.AddEdgeWeight(u, v, uint32(rng.Intn(5)+1))
		}
		if g.NumEdges() == 0 {
			return true
		}
		adj := g.BuildAdjacency()
		for u := VertexID(0); u < 20; u++ {
			for v := VertexID(0); v < 20; v++ {
				if u == v {
					continue
				}
				du, okU := adj.Dense[u]
				dv, okV := adj.Dense[v]
				want := g.Weight(u, v)
				if !okU || !okV {
					if want != 0 {
						return false
					}
					continue
				}
				if adj.EdgeWeight(du, dv) != want || adj.EdgeWeight(dv, du) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
