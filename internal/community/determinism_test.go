package community

import (
	"math/rand"
	"reflect"
	"testing"

	"coordbot/internal/graph"
)

// buildStores writes the same random weighted graph — a few planted
// cliques plus background noise edges — into a map-backed CIGraph and a
// sharded store, so tests can check Detect is a pure function of the
// graph's logical content, not its physical layout or iteration order.
func buildStores(seed int64) (*graph.CIGraph, *graph.ShardedCI) {
	rng := rand.New(rand.NewSource(seed))
	plain := graph.NewCIGraph()
	sharded := graph.NewShardedCI(16, 0)
	add := func(u, v graph.VertexID, w uint32) {
		plain.AddEdgeWeight(u, v, w)
		key := graph.PackEdge(u, v)
		sharded.AddShardBatch(sharded.EdgeShard(key), 0, []graph.EdgeDelta{{Key: key, W: w}}, nil)
	}
	// Three planted cliques of 6 vertices each.
	for c := 0; c < 3; c++ {
		base := graph.VertexID(c * 6)
		for i := 0; i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				add(base+graph.VertexID(i), base+graph.VertexID(j), 20+uint32(rng.Intn(5)))
			}
		}
	}
	// Sparse noise across the whole ID range, including weak bridges
	// between the cliques.
	for e := 0; e < 120; e++ {
		u := graph.VertexID(rng.Intn(60))
		v := graph.VertexID(rng.Intn(60))
		if u == v {
			continue
		}
		add(u, v, 1+uint32(rng.Intn(3)))
	}
	for u := graph.VertexID(0); u < 60; u++ {
		p := 10 + uint32(rng.Intn(40))
		plain.SetPageCount(u, p)
		sharded.AddShardBatch(sharded.VertexShard(u), 0, nil, []graph.PageDelta{{V: u, N: p}})
	}
	return plain, sharded
}

// TestDetectDeterministicAcrossRunsAndStores: the same seed must yield a
// structurally identical partition on repeated runs AND regardless of
// which CIView implementation backs the graph (map-backed vs the sharded
// store's snapshot). This is what makes the daemon's warm
// start and the batch pipeline comparable at all.
func TestDetectDeterministicAcrossRunsAndStores(t *testing.T) {
	plain, sharded := buildStores(42)
	snap := sharded.Snapshot()
	if !plain.Equal(snap) {
		t.Fatal("fixture bug: stores hold different graphs")
	}
	for _, algo := range []Algorithm{Leiden, LabelProp} {
		cfg := Config{Algorithm: algo, Seed: 7, MinSize: 1}
		p1 := Detect(plain, cfg)
		p2 := Detect(plain, cfg)
		if !reflect.DeepEqual(p1.Communities, p2.Communities) {
			t.Fatalf("%s: repeated runs with the same seed differ", algo)
		}
		p3 := Detect(snap, cfg)
		if !reflect.DeepEqual(p1.Communities, p3.Communities) {
			t.Fatalf("%s: snapshot partition differs from map-backed (%d vs %d communities)",
				algo, len(p3.Communities), len(p1.Communities))
		}
		if len(p1.Communities) < 3 {
			t.Fatalf("%s: expected at least the 3 planted cliques, got %d communities",
				algo, len(p1.Communities))
		}
	}
}

// TestDetectSeedSensitivity: changing the seed may legitimately change
// the partition, but never its coverage — every vertex of the view stays
// assigned to exactly one community.
func TestDetectSeedSensitivity(t *testing.T) {
	plain, _ := buildStores(43)
	for seed := int64(1); seed <= 5; seed++ {
		p := Detect(plain, Config{Seed: seed})
		adj := plain.BuildAdjacency()
		if len(p.Comm) != adj.NumVertices() {
			t.Fatalf("seed %d: %d assigned of %d vertices", seed, len(p.Comm), adj.NumVertices())
		}
		seen := make(map[graph.VertexID]bool)
		for _, members := range p.Communities {
			for _, m := range members {
				if seen[m] {
					t.Fatalf("seed %d: vertex %d in two communities", seed, m)
				}
				seen[m] = true
			}
		}
	}
}
