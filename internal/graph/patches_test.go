package graph

import (
	"math/rand"
	"testing"
)

// edgeMapOf flattens a snapshot's shard maps into one map for oracle
// comparisons.
func edgeMapOf(s *CISnapshot) map[uint64]uint32 {
	out := make(map[uint64]uint32, s.NumEdges())
	s.ForEachEdge(func(u, v VertexID, w uint32) bool {
		out[PackEdge(u, v)] = w
		return true
	})
	return out
}

// applyPatches replays a patch list onto a mirror edge map, verifying each
// patch's Old weight against the mirror first.
func applyPatches(t *testing.T, mirror map[uint64]uint32, ps []EdgePatch) {
	t.Helper()
	for _, p := range ps {
		key := PackEdge(p.U, p.V)
		if got := mirror[key]; got != p.Old {
			t.Fatalf("patch {%d,%d} Old=%d, mirror has %d", p.U, p.V, p.Old, got)
		}
		if p.New == 0 {
			delete(mirror, key)
		} else {
			mirror[key] = p.New
		}
	}
}

// TestEdgePatchesMatchesMapDiff: across randomized mutation rounds, the
// patch list between consecutive snapshots replays a mirror of the old
// snapshot into exactly the new one, with every Old weight matching and
// each edge appearing at most once, in (U, V) order.
func TestEdgePatchesMatchesMapDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := NewShardedCI(16, 0)
	prev := g.Snapshot()
	mirror := edgeMapOf(prev)
	for round := 0; round < 30; round++ {
		for k := 0; k < 40; k++ {
			u := VertexID(rng.Intn(25))
			v := VertexID(rng.Intn(25))
			if u == v {
				continue
			}
			if w := g.Snapshot().Weight(u, v); w > 0 && rng.Intn(3) == 0 {
				subEdge(g, u, v, 1+uint32(rng.Intn(int(w))))
			} else {
				g.AddEdgeWeightSig(u, v, 1+uint32(rng.Intn(3)), 0)
			}
			if rng.Intn(4) == 0 {
				g.AddPageCount(u, 1) // page-only churn must not produce patches
			}
		}
		cur := g.Snapshot()
		patches, dirtyShards, ok := cur.EdgePatches(prev)
		if !ok {
			t.Fatalf("round %d: snapshots of the same store not comparable", round)
		}
		if len(patches) > 0 && dirtyShards == 0 {
			t.Fatalf("round %d: %d patches from 0 dirty shards", round, len(patches))
		}
		seen := make(map[uint64]bool)
		for i, p := range patches {
			if p.U >= p.V {
				t.Fatalf("round %d: patch %d not canonical: U=%d V=%d", round, i, p.U, p.V)
			}
			if p.Old == p.New {
				t.Fatalf("round %d: no-op patch {%d,%d} %d→%d", round, i, p.U, p.Old, p.New)
			}
			key := PackEdge(p.U, p.V)
			if seen[key] {
				t.Fatalf("round %d: edge {%d,%d} patched twice", round, p.U, p.V)
			}
			seen[key] = true
			if i > 0 {
				q := patches[i-1]
				if q.U > p.U || (q.U == p.U && q.V >= p.V) {
					t.Fatalf("round %d: patches out of (U,V) order at %d", round, i)
				}
			}
		}
		applyPatches(t, mirror, patches)
		want := edgeMapOf(cur)
		if len(mirror) != len(want) {
			t.Fatalf("round %d: mirror has %d edges, snapshot %d", round, len(mirror), len(want))
		}
		for key, w := range want {
			if mirror[key] != w {
				u, v := UnpackEdge(key)
				t.Fatalf("round %d: edge {%d,%d} mirror=%d snapshot=%d", round, u, v, mirror[key], w)
			}
		}
		prev = cur
	}
}

// TestEdgePatchesIdleAndIncomparable: an unchanged store diffs to zero
// patches; snapshots of different stores or geometries refuse to compare.
func TestEdgePatchesIdleAndIncomparable(t *testing.T) {
	g := NewShardedCI(8, 0)
	g.AddEdgeWeightSig(1, 2, 5, 0)
	s1 := g.Snapshot()
	s2 := g.Snapshot()
	patches, dirtyShards, ok := s2.EdgePatches(s1)
	if !ok || len(patches) != 0 || dirtyShards != 0 {
		t.Fatalf("idle diff: patches=%d dirty=%d ok=%v", len(patches), dirtyShards, ok)
	}
	if _, _, ok := s2.EdgePatches(nil); ok {
		t.Fatal("nil prev compared")
	}
	other := NewShardedCI(8, 0)
	other.AddEdgeWeightSig(1, 2, 5, 0)
	if _, _, ok := s2.EdgePatches(other.Snapshot()); ok {
		t.Fatal("snapshots of different stores compared")
	}
}

// TestEdgePatchesOnThresholdChain: patches between consecutive pruned
// snapshots (ThresholdView / ThresholdDelta products) equal the diff of
// the materialized pruned graphs — including edges crossing the weight
// cut in either direction.
func TestEdgePatchesOnThresholdChain(t *testing.T) {
	const minW = 3
	rng := rand.New(rand.NewSource(7))
	g := NewShardedCI(16, 0)
	for k := 0; k < 60; k++ {
		g.AddEdgeWeightSig(VertexID(rng.Intn(20)), VertexID(rng.Intn(20)+20), 1+uint32(rng.Intn(4)), 0)
	}
	prev := g.Snapshot()
	prevPruned := prev.ThresholdView(minW).(*CISnapshot)
	for round := 0; round < 20; round++ {
		for k := 0; k < 15; k++ {
			u := VertexID(rng.Intn(20))
			v := VertexID(rng.Intn(20) + 20)
			if w := g.Snapshot().Weight(u, v); w > 1 && rng.Intn(2) == 0 {
				subEdge(g, u, v, 1) // may drop the edge below the cut
			} else {
				g.AddEdgeWeightSig(u, v, 1, 0) // may lift the edge above the cut
			}
		}
		cur := g.Snapshot()
		pruned := cur.ThresholdDelta(prev, prevPruned, minW)
		patches, _, ok := pruned.EdgePatches(prevPruned)
		if !ok {
			t.Fatalf("round %d: pruned snapshots not comparable", round)
		}
		mirror := edgeMapOf(prevPruned)
		applyPatches(t, mirror, patches)
		want := edgeMapOf(pruned)
		if len(mirror) != len(want) {
			t.Fatalf("round %d: pruned mirror %d edges, want %d", round, len(mirror), len(want))
		}
		for key, w := range want {
			if mirror[key] != w {
				u, v := UnpackEdge(key)
				t.Fatalf("round %d: pruned edge {%d,%d} mirror=%d want=%d", round, u, v, mirror[key], w)
			}
		}
		prev, prevPruned = cur, pruned
	}
}
