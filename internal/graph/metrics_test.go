package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func pathGraph(n int) *CIGraph {
	g := NewCIGraph()
	for i := VertexID(0); int(i) < n-1; i++ {
		g.AddEdgeWeight(i, i+1, uint32(i+1))
	}
	return g
}

func TestBFSDistancesPath(t *testing.T) {
	adj := pathGraph(5).BuildAdjacency()
	d := BFSDistances(adj, adj.Dense[0])
	for v := VertexID(0); v < 5; v++ {
		if d[adj.Dense[v]] != int32(v) {
			t.Fatalf("dist to %d = %d", v, d[adj.Dense[v]])
		}
	}
}

func TestBFSDistancesUnreachable(t *testing.T) {
	g := NewCIGraph()
	g.AddEdgeWeight(0, 1, 1)
	g.AddEdgeWeight(5, 6, 1)
	adj := g.BuildAdjacency()
	d := BFSDistances(adj, adj.Dense[0])
	if d[adj.Dense[5]] != -1 {
		t.Fatal("disconnected vertex reachable")
	}
}

func TestDiameter(t *testing.T) {
	if d := Diameter(pathGraph(6).BuildAdjacency()); d != 5 {
		t.Fatalf("path diameter = %d, want 5", d)
	}
	// Clique diameter 1.
	g := NewCIGraph()
	for i := VertexID(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			g.AddEdgeWeight(i, j, 1)
		}
	}
	if d := Diameter(g.BuildAdjacency()); d != 1 {
		t.Fatalf("K4 diameter = %d, want 1", d)
	}
	if d := Diameter(NewCIGraph().BuildAdjacency()); d != 0 {
		t.Fatalf("empty diameter = %d", d)
	}
}

func TestComponentDiameter(t *testing.T) {
	c := &Component{
		Authors: []VertexID{1, 2, 3},
		Edges:   []WeightedEdge{{U: 1, V: 2, W: 1}, {U: 2, V: 3, W: 1}},
	}
	if d := ComponentDiameter(c); d != 2 {
		t.Fatalf("diameter = %d, want 2", d)
	}
}

func TestQuickDiameterBounds(t *testing.T) {
	// For connected graphs: diameter <= n-1, and diameter >= 1 when an
	// edge exists.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 2
		g := NewCIGraph()
		// Spanning path keeps it connected, plus random extras.
		for i := 0; i < n-1; i++ {
			g.AddEdgeWeight(VertexID(i), VertexID(i+1), uint32(rng.Intn(5)+1))
		}
		for i := 0; i < n; i++ {
			u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
			if u != v {
				g.AddEdgeWeight(u, v, 1)
			}
		}
		d := Diameter(g.BuildAdjacency())
		return d >= 1 && d <= n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWeightedModularityHandComputed checks Q against a small graph worked
// out by hand: two unit-weight triangles {1,2,3} and {4,5,6} joined by the
// bridge 3–4. m = 7; each triangle community has w_in = 3 and summed
// degree 7, so Q = 2·(3/7 − (7/14)²) = 6/7 − 1/2 = 5/14.
func TestWeightedModularityHandComputed(t *testing.T) {
	g := NewCIGraph()
	for _, e := range [][2]VertexID{{1, 2}, {1, 3}, {2, 3}, {4, 5}, {4, 6}, {5, 6}, {3, 4}} {
		g.AddEdgeWeight(e[0], e[1], 1)
	}
	comm := map[VertexID]int{1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1}
	got := WeightedModularity(g, comm)
	want := 5.0 / 14.0
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("Q = %v, want %v", got, want)
	}
	if len(comm) != 6 {
		t.Fatalf("caller's comm map mutated: %v", comm)
	}

	// The trivial all-in-one partition always has Q = 0.
	one := map[VertexID]int{1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0}
	if q := WeightedModularity(g, one); q != 0 {
		t.Fatalf("all-in-one Q = %v, want 0", q)
	}
}

// TestWeightedModularitySingletonFallback: vertices missing from the map
// count as singletons — the same value as listing them explicitly.
func TestWeightedModularitySingletonFallback(t *testing.T) {
	g := NewCIGraph()
	g.AddEdgeWeight(1, 2, 5) // one weight-5 edge, split apart
	implicit := WeightedModularity(g, map[VertexID]int{})
	explicit := WeightedModularity(g, map[VertexID]int{1: 0, 2: 1})
	// Q = 0 − (5/10)² − (5/10)² = −1/2 either way.
	if implicit != explicit || implicit != -0.5 {
		t.Fatalf("implicit %v explicit %v, want -0.5", implicit, explicit)
	}
}

// TestWeightedModularityEmpty: an edgeless view reports 0.
func TestWeightedModularityEmpty(t *testing.T) {
	if q := WeightedModularity(NewCIGraph(), nil); q != 0 {
		t.Fatalf("empty Q = %v", q)
	}
}
