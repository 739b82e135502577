package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Sets() != 5 || uf.Len() != 5 {
		t.Fatal("fresh union-find wrong")
	}
	if !uf.Union(0, 1) {
		t.Fatal("first union should merge")
	}
	if uf.Union(1, 0) {
		t.Fatal("repeat union should not merge")
	}
	uf.Union(2, 3)
	uf.Union(0, 3)
	if uf.Sets() != 2 {
		t.Fatalf("sets = %d, want 2", uf.Sets())
	}
	if !uf.Same(1, 2) || uf.Same(0, 4) {
		t.Fatal("Same() wrong")
	}
}

func TestQuickUnionFindPartition(t *testing.T) {
	// Property: representatives partition the elements — every element has
	// exactly one root, and Sets() equals the number of distinct roots.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		uf := NewUnionFind(n)
		for i := 0; i < n; i++ {
			uf.Union(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		roots := make(map[int32]bool)
		for i := 0; i < n; i++ {
			roots[uf.Find(int32(i))] = true
		}
		return len(roots) == uf.Sets()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := NewCIGraph()
	// Component A: triangle 1-2-3; component B: edge 10-11.
	g.AddEdgeWeight(1, 2, 25)
	g.AddEdgeWeight(2, 3, 30)
	g.AddEdgeWeight(1, 3, 33)
	g.AddEdgeWeight(10, 11, 5)
	comps := ConnectedComponents(g)
	if len(comps) != 2 {
		t.Fatalf("got %d components, want 2", len(comps))
	}
	if comps[0].Size() != 3 || comps[1].Size() != 2 {
		t.Fatalf("sizes = %d,%d; want 3,2 (largest first)", comps[0].Size(), comps[1].Size())
	}
	if comps[0].MinWeight() != 25 || comps[0].MaxWeight() != 33 {
		t.Fatalf("component A weight range = [%d,%d], want [25,33]",
			comps[0].MinWeight(), comps[0].MaxWeight())
	}
	if comps[0].Density() != 1.0 {
		t.Fatalf("triangle density = %f, want 1", comps[0].Density())
	}
	if len(comps[0].Edges) != 3 || len(comps[1].Edges) != 1 {
		t.Fatal("induced edges mis-assigned")
	}
}

func TestQuickComponentsPartitionVertices(t *testing.T) {
	// Property: components partition the non-isolated vertex set, and the
	// induced edge lists partition the edge set.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewCIGraph()
		for i := 0; i < 40; i++ {
			u, v := VertexID(rng.Intn(30)), VertexID(rng.Intn(30))
			if u != v {
				g.AddEdgeWeight(u, v, 1)
			}
		}
		comps := ConnectedComponents(g)
		seen := make(map[VertexID]bool)
		edges := 0
		for _, c := range comps {
			for _, a := range c.Authors {
				if seen[a] {
					return false // vertex in two components
				}
				seen[a] = true
			}
			edges += len(c.Edges)
			// Every induced edge's endpoints are inside the component.
			members := make(map[VertexID]bool, len(c.Authors))
			for _, a := range c.Authors {
				members[a] = true
			}
			for _, e := range c.Edges {
				if !members[e.U] || !members[e.V] {
					return false
				}
			}
		}
		return len(seen) == g.NumVertices() && edges == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKCore(t *testing.T) {
	g := NewCIGraph()
	// 4-clique 1-2-3-4 with a tail 4-5.
	for _, e := range [][2]VertexID{{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}, {3, 4}, {4, 5}} {
		g.AddEdgeWeight(e[0], e[1], 1)
	}
	core3 := KCore(g, 3)
	if len(core3) != 4 {
		t.Fatalf("3-core has %d vertices, want 4", len(core3))
	}
	if core3[5] {
		t.Fatal("tail vertex in 3-core")
	}
	if len(KCore(g, 4)) != 0 {
		t.Fatal("4-core should be empty")
	}
	if d := Degeneracy(g); d != 3 {
		t.Fatalf("degeneracy = %d, want 3", d)
	}
}

func TestMaxCliqueSize(t *testing.T) {
	g := NewCIGraph()
	// 8-clique (the paper's reshare core) plus noise edges.
	for i := VertexID(0); i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			g.AddEdgeWeight(i, j, 50)
		}
	}
	g.AddEdgeWeight(0, 100, 1)
	g.AddEdgeWeight(100, 101, 1)
	if k := MaxCliqueSize(g); k != 8 {
		t.Fatalf("clique number = %d, want 8", k)
	}
}

func TestMaxCliqueEmptyAndSingle(t *testing.T) {
	if k := MaxCliqueSize(NewCIGraph()); k != 0 {
		t.Fatalf("empty graph clique = %d", k)
	}
	g := NewCIGraph()
	g.AddEdgeWeight(1, 2, 1)
	if k := MaxCliqueSize(g); k != 2 {
		t.Fatalf("single edge clique = %d, want 2", k)
	}
}

func TestQuickDegeneracyBoundsClique(t *testing.T) {
	// Property: clique number <= degeneracy + 1 on random graphs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := NewCIGraph()
		for i := 0; i < 50; i++ {
			u, v := VertexID(rng.Intn(15)), VertexID(rng.Intn(15))
			if u != v {
				g.AddEdgeWeight(u, v, 1)
			}
		}
		if g.NumEdges() == 0 {
			return true
		}
		return MaxCliqueSize(g) <= Degeneracy(g)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
