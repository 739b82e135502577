package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestUnionFindBasics(t *testing.T) {
	uf := NewUnionFind(5)
	if uf.Find(4) != 4 {
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
	if uf.Find(1) != uf.Find(2) || uf.Find(0) == uf.Find(4) {
		t.Fatal("Find() wrong")
	}
}

func TestQuickUnionFindPartition(t *testing.T) {
	// Property: representatives partition the elements — every element has
	// exactly one root, and each merging Union removes exactly one root.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		uf := NewUnionFind(n)
		sets := n
		for i := 0; i < n; i++ {
			if uf.Union(int32(rng.Intn(n)), int32(rng.Intn(n))) {
				sets--
			}
		}
		roots := make(map[int32]bool)
		for i := 0; i < n; i++ {
			roots[uf.Find(int32(i))] = true
		}
		return len(roots) == sets
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
