// Edge patches: the explicit-delta form of a snapshot diff.
//
// DirtyVertices (sharded.go) answers "which vertices moved" — enough to
// re-enumerate a dirty frontier, but not to maintain derived structures
// incrementally. EdgePatches answers the stronger question "which edges
// moved, and from what weight to what": the old→new weight transition of
// every edge that changed between two snapshots of the same store. That
// is exactly the input a persistent oriented adjacency (internal/tripoll)
// needs to patch itself instead of rebuilding from scratch.
//
// Like DirtyVertices, the diff leans on the copy-on-write invariant: a
// shard whose version is unchanged shares its maps by reference between
// the snapshots (or, for threshold products, filters the same frozen map),
// so only dirtied shards are walked — O(dirty shards), not O(edges).
package graph

import (
	"cmp"
	"slices"
)

// EdgePatch records one edge's weight transition: Old is the weight before
// the change, New the weight after, with 0 meaning absent — so Old == 0 is
// an insertion, New == 0 a deletion, and both non-zero a reweight. U < V.
type EdgePatch struct {
	U, V VertexID
	Old  uint32
	New  uint32
}

// SortEdgePatches orders patches by (U, V). Each edge appears at most once
// in a snapshot diff, so the order is total and the output deterministic
// regardless of map iteration order.
func SortEdgePatches(ps []EdgePatch) {
	slices.SortFunc(ps, func(a, b EdgePatch) int {
		if c := cmp.Compare(a.U, b.U); c != 0 {
			return c
		}
		return cmp.Compare(a.V, b.V)
	})
}

// EdgePatches diffs s against an earlier snapshot prev of the same store
// and returns the explicit edge transitions between them, sorted by
// (U, V), plus the number of shards whose version advanced. Shards with
// an equal version are skipped without diffing: by the COW invariant
// their maps are shared (or, for ThresholdDelta products, filtered from
// the same frozen shard) and hence equal. ok is false when the snapshots
// are not comparable (nil prev, a different store, or different shard
// geometry); callers must then fall back to a full rebuild.
//
// The diff composes with thresholding: applied to two ThresholdDelta /
// ThresholdView products of consecutive raw snapshots, it yields the
// pruned graph's transitions — including edges crossing the weight cut in
// either direction — because pruned snapshots carry the raw snapshot's
// version vector.
func (s *CISnapshot) EdgePatches(prev *CISnapshot) (patches []EdgePatch, dirtyShards int, ok bool) {
	if prev == nil || prev.storeID != s.storeID || prev.mask != s.mask ||
		len(prev.edges) != len(s.edges) {
		return nil, 0, false
	}
	for i := range s.edges {
		if s.versions[i] == prev.versions[i] {
			continue
		}
		dirtyShards++
		cur, old := s.edges[i], prev.edges[i]
		cur.ForEach(func(key uint64, w uint32) bool {
			if ow := old.Get(key); ow != w {
				u, v := UnpackEdge(key)
				patches = append(patches, EdgePatch{U: u, V: v, Old: ow, New: w})
			}
			return true
		})
		old.ForEach(func(key uint64, ow uint32) bool {
			if !cur.Has(key) {
				u, v := UnpackEdge(key)
				patches = append(patches, EdgePatch{U: u, V: v, Old: ow, New: 0})
			}
			return true
		})
	}
	SortEdgePatches(patches)
	return patches, dirtyShards, true
}
