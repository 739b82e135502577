// Package tripoll reimplements the triangle-survey functionality the paper
// takes from LLNL's TriPoll (Steil et al., SC'21): enumerate all triangles
// of a large weighted graph, carry per-edge metadata (here: CI edge
// weights) through the enumeration, and run a user survey over each
// triangle — typically thresholding on minimum edge weight and computing
// the normalized coordination score T(x,y,z) (equation 7).
//
// The algorithm is TriPoll's degree-ordered directed wedge check: orient
// every edge from the endpoint with lower (degree, id) to the higher, form
// wedges at each vertex's out-neighborhood, and query the closing edge.
// Orientation bounds out-degrees by the graph arboricity, keeping the wedge
// count near-optimal even on skewed social graphs.
package tripoll

import (
	"cmp"
	"slices"
	"sort"

	"coordbot/internal/graph"
)

// Triangle is a surveyed triangle in original author IDs, X < Y < Z, with
// the three CI edge weights as metadata.
type Triangle struct {
	X, Y, Z       graph.VertexID
	WXY, WXZ, WYZ uint32
}

// MinWeight returns min(w'_xy, w'_xz, w'_yz) — the paper's triangle pruning
// statistic (§2.3).
func (t Triangle) MinWeight() uint32 {
	m := t.WXY
	if t.WXZ < m {
		m = t.WXZ
	}
	if t.WYZ < m {
		m = t.WYZ
	}
	return m
}

// TScore computes T(x,y,z) = 3·min(w')/(P'_x+P'_y+P'_z) (equation 7) using
// the projection's page-count table. It returns 0 when the denominator is 0.
func (t Triangle) TScore(pageCount func(graph.VertexID) uint32) float64 {
	den := float64(pageCount(t.X)) + float64(pageCount(t.Y)) + float64(pageCount(t.Z))
	if den == 0 {
		return 0
	}
	return 3 * float64(t.MinWeight()) / den
}

// Options configures a survey.
type Options struct {
	// MinTriangleWeight keeps only triangles whose minimum edge weight
	// is at least this (the paper's cutoffs of 10 and 25). Because a
	// triangle's min weight ≥ τ implies all edges ≥ τ, the survey also
	// prunes edges below it up front — the only edge cut there is.
	MinTriangleWeight uint32
	// MinTScore keeps only triangles with T(x,y,z) >= this. Requires
	// page counts on the surveyed graph; 0 disables.
	MinTScore float64
}

// Assemble builds the canonical Triangle (orig IDs sorted, weights mapped)
// from dense vertices a,b,c and the weights of edges ab, ac, bc.
func Assemble(adj *graph.Adjacency, a, b, c int32, wab, wac, wbc uint32) Triangle {
	return assembleIDs(adj.Orig[a], adj.Orig[b], adj.Orig[c], wab, wac, wbc)
}

// assembleIDs is the allocation-free triangle assembly: pair each vertex
// with the weight of its opposite edge — a pairing invariant under
// permutation — sort the three pairs by vertex with a fixed swap network,
// and read the canonical weights back off the opposite-edge positions
// (the weight of edge (X, Y) is the one carried by Z, and so on).
func assembleIDs(va, vb, vc graph.VertexID, wab, wac, wbc uint32) Triangle {
	wa, wb, wc := wbc, wac, wab
	if vb < va {
		va, vb, wa, wb = vb, va, wb, wa
	}
	if vc < vb {
		vb, vc, wb, wc = vc, vb, wc, wb
	}
	if vb < va {
		va, vb, wa, wb = vb, va, wb, wa
	}
	return Triangle{X: va, Y: vb, Z: vc, WXY: wc, WXZ: wb, WYZ: wa}
}

// EffectiveEdgeCut is the edge pruning threshold the survey applies up
// front for the given options: max(MinTriangleWeight, 1).
func EffectiveEdgeCut(opts Options) uint32 { return max(opts.MinTriangleWeight, 1) }

// SurveySequential enumerates triangles single-threaded, invoking visit for
// each triangle that passes the thresholds. The reference implementation.
func SurveySequential(g graph.CIView, opts Options, visit func(Triangle)) {
	pruned := g.ThresholdView(EffectiveEdgeCut(opts))
	o := Orient(pruned.BuildAdjacency())
	o.SurveyAll(opts, g.PageCount, visit)
}

// Survey enumerates triangles with a worker pool, mirroring TriPoll's
// structure in shared memory: pivots are dealt to workers, each closing
// its wedges over the shared read-only orientation
// (Oriented.SurveyParallel). The partitioned, message-passing survey is
// ygmnet.TriangleCluster.
func Survey(g graph.CIView, opts Options) []Triangle {
	pruned := g.ThresholdView(EffectiveEdgeCut(opts))
	o := Orient(pruned.BuildAdjacency())
	return o.SurveyParallel(opts, g.PageCount)
}

// SortTriangles orders triangles by (X, Y, Z), ties broken by
// (WXY, WXZ, WYZ), stably — two runs over the same triangle multiset
// produce identical output regardless of input order. (Surveyed triangles
// are unique per (X, Y, Z); the weight tie-break makes the order total
// even for caller-built lists with duplicates.)
func SortTriangles(ts []Triangle) {
	slices.SortStableFunc(ts, compareTriangles)
}

// MergeSorted merges two SortTriangles-ordered slices with disjoint
// (X, Y, Z) triplets into one sorted slice — the delta survey's combine
// of cache-surviving and re-surveyed triangles. The output equals
// SortTriangles over the concatenation.
func MergeSorted(a, b []Triangle) []Triangle {
	out := make([]Triangle, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if triangleLess(a[i], b[j]) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// triangleLess is the canonical (X, Y, Z, WXY, WXZ, WYZ) total order.
func triangleLess(a, b Triangle) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	if a.Z != b.Z {
		return a.Z < b.Z
	}
	if a.WXY != b.WXY {
		return a.WXY < b.WXY
	}
	if a.WXZ != b.WXZ {
		return a.WXZ < b.WXZ
	}
	return a.WYZ < b.WYZ
}

// compareTriangles is triangleLess as the three-way comparison the slices
// sorts take. (Spelled out rather than derived from triangleLess: two
// calls per comparison cost the sort a third, and the merge and the top-k
// heap are faster on the boolean form.)
func compareTriangles(a, b Triangle) int {
	if c := cmp.Compare(a.X, b.X); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Y, b.Y); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Z, b.Z); c != 0 {
		return c
	}
	if c := cmp.Compare(a.WXY, b.WXY); c != 0 {
		return c
	}
	if c := cmp.Compare(a.WXZ, b.WXZ); c != 0 {
		return c
	}
	return cmp.Compare(a.WYZ, b.WYZ)
}

// Count returns the number of triangles passing the thresholds without
// materializing them.
func Count(g graph.CIView, opts Options) int64 {
	var n int64
	SurveySequential(g, opts, func(Triangle) { n++ })
	return n
}

// TopKByMinWeight returns the k triangles with the largest minimum edge
// weight, ties broken by the full (X, Y, Z, WXY, WXZ, WYZ) order — the cut
// at k is deterministic even on tie-heavy graphs where many triangles
// share a MinWeight, because the tie-break makes the order total. The
// paper's "find the triangles with the highest minimum edge weights"
// query. Runs in O(n log k) via a bounded heap holding the current top k
// with the worst at the root, instead of fully sorting the census.
func TopKByMinWeight(ts []Triangle, k int) []Triangle {
	if k <= 0 {
		return []Triangle{}
	}
	if k >= len(ts) {
		out := make([]Triangle, len(ts))
		copy(out, ts)
		sort.Slice(out, func(i, j int) bool { return topkBefore(out[i], out[j]) })
		return out
	}
	h := make([]Triangle, 0, k)
	for _, t := range ts {
		if len(h) < k {
			h = append(h, t)
			topkSiftUp(h, len(h)-1)
		} else if topkBefore(t, h[0]) {
			h[0] = t
			topkSiftDown(h)
		}
	}
	sort.Slice(h, func(i, j int) bool { return topkBefore(h[i], h[j]) })
	return h
}

// topkBefore is the top-k output order: MinWeight descending, ties by the
// canonical triangle order. Total on distinct triangles, so heap selection
// and a stable full sort agree on every prefix.
func topkBefore(a, b Triangle) bool {
	wa, wb := a.MinWeight(), b.MinWeight()
	if wa != wb {
		return wa > wb
	}
	return triangleLess(a, b)
}

// topkSiftUp restores the worst-at-root heap property after appending at i.
func topkSiftUp(h []Triangle, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !topkBefore(h[p], h[i]) {
			break // parent already worse-or-equal
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

// topkSiftDown restores the worst-at-root heap property after replacing
// the root.
func topkSiftDown(h []Triangle) {
	i, n := 0, len(h)
	for {
		worst := i
		if l := 2*i + 1; l < n && topkBefore(h[worst], h[l]) {
			worst = l
		}
		if r := 2*i + 2; r < n && topkBefore(h[worst], h[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h[i], h[worst] = h[worst], h[i]
		i = worst
	}
}

// CountNaive counts triangles by testing all vertex triples — O(n³),
// test oracle only.
// surface:keep TestSurveyMatchesNaive compares every survey against it.
func CountNaive(g graph.CIView, minTriangleWeight uint32) int64 {
	adj := g.BuildAdjacency()
	n := adj.NumVertices()
	var count int64
	for a := int32(0); a < int32(n); a++ {
		for b := a + 1; b < int32(n); b++ {
			wab := adj.EdgeWeight(a, b)
			if wab == 0 {
				continue
			}
			for c := b + 1; c < int32(n); c++ {
				wac := adj.EdgeWeight(a, c)
				if wac == 0 {
					continue
				}
				wbc := adj.EdgeWeight(b, c)
				if wbc == 0 {
					continue
				}
				m := wab
				if wac < m {
					m = wac
				}
				if wbc < m {
					m = wbc
				}
				if m >= minTriangleWeight {
					count++
				}
			}
		}
	}
	return count
}
