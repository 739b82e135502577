package tripoll

import (
	"testing"

	"coordbot/internal/graph"
)

// The survey's one edge cut is the triangle cutoff (at least 1): edges
// below it are pruned before enumeration, which drops exactly the
// triangles whose weakest edge misses the cutoff.
func TestEffectiveEdgeCut(t *testing.T) {
	g := graph.NewCIGraph()
	g.AddEdgeWeight(1, 2, 3)
	g.AddEdgeWeight(2, 3, 9)
	g.AddEdgeWeight(1, 3, 9)
	if n := Count(g, Options{MinTriangleWeight: 2}); n != 1 {
		t.Fatalf("count at cutoff 2 = %d, want 1", n)
	}
	if n := Count(g, Options{MinTriangleWeight: 5}); n != 0 {
		t.Fatalf("count at cutoff 5 = %d, want 0", n)
	}
	if c := EffectiveEdgeCut(Options{}); c != 1 {
		t.Fatalf("default cut = %d, want 1", c)
	}
	if c := EffectiveEdgeCut(Options{MinTriangleWeight: 7}); c != 7 {
		t.Fatalf("cut = %d, want 7", c)
	}
}

// The exported orientation machinery keeps its invariants: out-edges point
// up the (degree, id) order and closing-weight lookups agree with the map.
func TestOrientedInvariants(t *testing.T) {
	g := graph.NewCIGraph()
	for _, e := range [][3]uint32{{1, 2, 5}, {2, 3, 7}, {1, 3, 9}, {3, 4, 2}, {1, 4, 4}} {
		g.AddEdgeWeight(graph.VertexID(e[0]), graph.VertexID(e[1]), e[2])
	}
	adj := g.BuildAdjacency()
	o := Orient(adj)
	total := 0
	for v := int32(0); v < int32(adj.NumVertices()); v++ {
		out, wt := o.Out(v)
		if len(out) != len(wt) {
			t.Fatal("out/weight length mismatch")
		}
		total += len(out)
		for i, u := range out {
			if !o.Less(v, u) {
				t.Fatalf("out-edge %d→%d violates orientation", v, u)
			}
			if adj.EdgeWeight(v, u) != wt[i] {
				t.Fatalf("oriented weight mismatch on %d→%d", v, u)
			}
			if cw, ok := o.ClosingWeight(v, u); !ok || cw != wt[i] {
				t.Fatalf("ClosingWeight(%d,%d) = %d,%v", v, u, cw, ok)
			}
		}
	}
	if total != g.NumEdges() {
		t.Fatalf("oriented edges = %d, want %d (each edge once)", total, g.NumEdges())
	}
}
