package hypergraph

import (
	"sort"

	"coordbot/internal/graph"
)

// Group-level hyperedge metrics — the paper's §4.2 observation that
// "triplets ... will allow us to build groups after the fact" and that
// extending the hypergraph analysis to larger groups "is not a challenge
// to implement". A Group is any set of >= 2 authors; its hyperedge weight
// is the number of pages every member commented on.

// Group is a sorted set of distinct authors.
type Group []graph.VertexID

// NewGroup returns the canonical (sorted, deduplicated) group.
func NewGroup(members ...graph.VertexID) Group {
	g := make(Group, len(members))
	copy(g, members)
	sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
	w := 0
	for i, m := range g {
		if i == 0 || m != g[w-1] {
			g[w] = m
			w++
		}
	}
	return g[:w]
}

// GroupWeight computes w_S: the number of distinct pages on which every
// member of the group commented, by k-way merge of the sorted page lists.
// Groups smaller than 2 return 0.
func GroupWeight(b *graph.BTM, g Group) int {
	return len(GroupCommonPages(b, g))
}

// GroupCommonPages returns the sorted pages shared by all group members.
func GroupCommonPages(b *graph.BTM, g Group) []graph.VertexID {
	if len(g) < 2 {
		return nil
	}
	lists := make([][]graph.VertexID, len(g))
	for i, m := range g {
		lists[i] = b.AuthorPages(m)
		if len(lists[i]) == 0 {
			return nil
		}
	}
	// Start from the shortest list to keep the intersection cheap.
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	out := lists[0]
	for _, l := range lists[1:] {
		out = intersectSorted(nil, out, l)
		if len(out) == 0 {
			return nil
		}
	}
	// out may alias b's storage after zero intersections; copy.
	cp := make([]graph.VertexID, len(out))
	copy(cp, out)
	return cp
}

// intersectSorted appends a ∩ b (both sorted, duplicate-free) to dst,
// which must not alias either list's backing array.
func intersectSorted(dst, a, b []graph.VertexID) []graph.VertexID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			dst = append(dst, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return dst
}

// GroupCScore generalizes equation 4 to k members:
// C(S) = k·w_S / Σ p_m, which stays in [0, 1] because w_S <= min p_m.
func GroupCScore(b *graph.BTM, g Group) float64 {
	if len(g) < 2 {
		return 0
	}
	den := 0.0
	for _, m := range g {
		den += float64(b.PageCount(m))
	}
	if den == 0 {
		return 0
	}
	return float64(len(g)) * float64(GroupWeight(b, g)) / den
}

// GroupScore is the full record for one group.
type GroupScore struct {
	Group Group
	W     int
	C     float64
}

// BuildGroups merges triplets that share an edge (two common members) into
// maximal candidate groups — the "build groups after the fact" step — and
// scores each group against the hypergraph. Groups are returned largest
// first, ties by hyperedge weight descending.
func BuildGroups(b *graph.BTM, triplets []Triplet) []GroupScore {
	if len(triplets) == 0 {
		return nil
	}
	// Union-find over triplet indices via shared pairs.
	parent := make([]int, len(triplets))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	pairOwner := make(map[uint64]int)
	pairs := func(t Triplet) [3]uint64 {
		return [3]uint64{
			graph.PackEdge(t.X, t.Y),
			graph.PackEdge(t.X, t.Z),
			graph.PackEdge(t.Y, t.Z),
		}
	}
	for i, t := range triplets {
		for _, p := range pairs(t) {
			if j, ok := pairOwner[p]; ok {
				union(i, j)
			} else {
				pairOwner[p] = i
			}
		}
	}
	members := make(map[int]map[graph.VertexID]bool)
	for i, t := range triplets {
		r := find(i)
		if members[r] == nil {
			members[r] = make(map[graph.VertexID]bool)
		}
		members[r][t.X] = true
		members[r][t.Y] = true
		members[r][t.Z] = true
	}
	out := make([]GroupScore, 0, len(members))
	for _, ms := range members {
		ids := make([]graph.VertexID, 0, len(ms))
		for m := range ms {
			ids = append(ids, m)
		}
		g := NewGroup(ids...)
		out = append(out, GroupScore{Group: g, W: GroupWeight(b, g), C: GroupCScore(b, g)})
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Group) != len(out[j].Group) {
			return len(out[i].Group) > len(out[j].Group)
		}
		if out[i].W != out[j].W {
			return out[i].W > out[j].W
		}
		return out[i].Group[0] < out[j].Group[0]
	})
	return out
}
