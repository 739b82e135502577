package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// PackEdge encodes the undirected edge {u,v} as a canonical uint64 key
// (smaller endpoint in the high 32 bits). u must differ from v.
func PackEdge(u, v VertexID) uint64 {
	if u == v {
		panic(fmt.Sprintf("graph: self-loop %d", u))
	}
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(v)
}

// UnpackEdge decodes a canonical edge key.
func UnpackEdge(key uint64) (u, v VertexID) {
	return VertexID(key >> 32), VertexID(key & 0xffffffff)
}

// WeightedEdge is an undirected weighted edge with U < V.
type WeightedEdge struct {
	U, V VertexID
	W    uint32
}

// compareEdgeUV orders edges by (U, V) — total wherever an edge appears
// once, which is every edge list of one graph.
func compareEdgeUV(a, b WeightedEdge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// CIGraph is the common interaction graph C = (U, I, w') of the paper: an
// undirected graph over authors where w'_xy counts the pages on which x and
// y commented within the projection window of each other. It also carries
// the companion list L of per-author projected page counts P'_x
// (equation 6), which the T score normalizes by.
type CIGraph struct {
	edges      map[uint64]uint32
	pageCounts map[VertexID]uint32
}

// NewCIGraph returns an empty CI graph.
func NewCIGraph() *CIGraph {
	return &CIGraph{
		edges:      make(map[uint64]uint32),
		pageCounts: make(map[VertexID]uint32),
	}
}

// AddEdgeWeight adds w to the weight of undirected edge {u,v}.
func (g *CIGraph) AddEdgeWeight(u, v VertexID, w uint32) {
	g.edges[PackEdge(u, v)] += w
}

// AddPageCount adds n to P'_u.
func (g *CIGraph) AddPageCount(u VertexID, n uint32) {
	g.pageCounts[u] += n
}

// SubEdgeWeight subtracts w from the weight of undirected edge {u,v},
// deleting the edge when it reaches zero. This is the eviction primitive of
// the sliding-window projector: a page's aged-out pair contribution is
// withdrawn so the graph never carries zero-weight edges (keeping Equal
// comparisons against fresh batch projections exact). It panics on
// underflow — withdrawing more weight than was contributed is a logic bug
// in the caller's bookkeeping, not a recoverable condition.
// surface:keep the sharded ≡ map-backed suites (TestShardedMatchesMapUnderInterleaving,
// TestSubShardBatch, FuzzBuildAdjacency) withdraw from the reference through it.
func (g *CIGraph) SubEdgeWeight(u, v VertexID, w uint32) {
	key := PackEdge(u, v)
	cur, ok := g.edges[key]
	if !ok || cur < w {
		panic(fmt.Sprintf("graph: edge {%d,%d} weight underflow (%d - %d)", u, v, cur, w))
	}
	if cur == w {
		delete(g.edges, key)
	} else {
		g.edges[key] = cur - w
	}
}

// SubPageCount subtracts n from P'_u, deleting the entry at zero. Panics on
// underflow (see SubEdgeWeight).
// surface:keep the same sharded ≡ map-backed suites as SubEdgeWeight.
func (g *CIGraph) SubPageCount(u VertexID, n uint32) {
	cur, ok := g.pageCounts[u]
	if !ok || cur < n {
		panic(fmt.Sprintf("graph: author %d page count underflow (%d - %d)", u, cur, n))
	}
	if cur == n {
		delete(g.pageCounts, u)
	} else {
		g.pageCounts[u] = cur - n
	}
}

// Weight returns w'_uv (0 if the edge is absent).
func (g *CIGraph) Weight(u, v VertexID) uint32 {
	if u == v {
		return 0
	}
	return g.edges[PackEdge(u, v)]
}

// PageCount returns P'_u — the number of pages that contributed at least
// one projection edge incident to u (0 if u never projected).
func (g *CIGraph) PageCount(u VertexID) uint32 { return g.pageCounts[u] }

// NumEdges returns |I|.
func (g *CIGraph) NumEdges() int { return len(g.edges) }

// NumAuthors returns the number of entries in the P' table.
func (g *CIGraph) NumAuthors() int { return len(g.pageCounts) }

// ForEachEdge calls fn for every edge in unspecified order, stopping early
// when fn returns false.
func (g *CIGraph) ForEachEdge(fn func(u, v VertexID, w uint32) bool) {
	for key, w := range g.edges {
		u, v := UnpackEdge(key)
		if !fn(u, v, w) {
			return
		}
	}
}

// NumVertices returns the number of authors with at least one CI edge.
func (g *CIGraph) NumVertices() int {
	seen := make(map[VertexID]struct{})
	for key := range g.edges {
		u, v := UnpackEdge(key)
		seen[u] = struct{}{}
		seen[v] = struct{}{}
	}
	return len(seen)
}

// Edges returns all edges, sorted by (U, V) for determinism.
func (g *CIGraph) Edges() []WeightedEdge {
	out := make([]WeightedEdge, 0, len(g.edges))
	for key, w := range g.edges {
		u, v := UnpackEdge(key)
		out = append(out, WeightedEdge{U: u, V: v, W: w})
	}
	slices.SortFunc(out, compareEdgeUV)
	return out
}

// PageCounts returns a copy of the P' table.
func (g *CIGraph) PageCounts() map[VertexID]uint32 {
	out := make(map[VertexID]uint32, len(g.pageCounts))
	for k, v := range g.pageCounts {
		out[k] = v
	}
	return out
}

// SetPageCount overwrites P'_u (used when merging projections).
func (g *CIGraph) SetPageCount(u VertexID, n uint32) { g.pageCounts[u] = n }

// Threshold returns the subgraph containing only edges with weight >= minW.
// Page counts are copied unchanged: P' is a property of the projection, not
// of the retained edge set.
func (g *CIGraph) Threshold(minW uint32) *CIGraph {
	out := NewCIGraph()
	for key, w := range g.edges {
		if w >= minW {
			out.edges[key] = w
		}
	}
	for k, v := range g.pageCounts {
		out.pageCounts[k] = v
	}
	return out
}

// ThresholdView is Threshold behind the CIView interface.
func (g *CIGraph) ThresholdView(minW uint32) CIView { return g.Threshold(minW) }

// Merge adds every edge weight and page count of other into g. Used by the
// time-bucketed projection workaround described in §3 of the paper.
func (g *CIGraph) Merge(other *CIGraph) {
	for key, w := range other.edges {
		g.edges[key] += w
	}
	for k, v := range other.pageCounts {
		g.pageCounts[k] += v
	}
}

// Equal reports whether two CI views have identical edges, weights, and
// page counts (used heavily by equivalence tests). The map-vs-map case
// short-circuits without going through the generic view comparison.
func (g *CIGraph) Equal(other CIView) bool {
	o, ok := other.(*CIGraph)
	if !ok {
		return viewsEqual(g, other)
	}
	if len(g.edges) != len(o.edges) || len(g.pageCounts) != len(o.pageCounts) {
		return false
	}
	for key, w := range g.edges {
		if o.edges[key] != w {
			return false
		}
	}
	for k, v := range g.pageCounts {
		if o.pageCounts[k] != v {
			return false
		}
	}
	return true
}

// MaxWeight returns the largest edge weight (0 for an empty graph).
func (g *CIGraph) MaxWeight() uint32 {
	var mw uint32
	for _, w := range g.edges {
		if w > mw {
			mw = w
		}
	}
	return mw
}

// Adjacency materializes a CSR adjacency view of the graph. Vertices are
// the authors incident to at least one edge, renumbered densely; the view
// keeps the mapping both ways.
type Adjacency struct {
	// Orig[i] is the original author ID of dense vertex i.
	Orig []VertexID
	// Dense maps original author ID → dense index.
	Dense map[VertexID]int32
	// Off/Nbr/Wt: CSR arrays. Neighbors of i are Nbr[Off[i]:Off[i+1]],
	// sorted ascending, with parallel weights in Wt.
	Off []int
	Nbr []int32
	Wt  []uint32
}

// BuildAdjacency converts the CI graph to CSR form.
func (g *CIGraph) BuildAdjacency() *Adjacency {
	// Collect and densely renumber vertices.
	vset := make(map[VertexID]int32)
	for key := range g.edges {
		u, v := UnpackEdge(key)
		if _, ok := vset[u]; !ok {
			vset[u] = 0
		}
		if _, ok := vset[v]; !ok {
			vset[v] = 0
		}
	}
	orig := make([]VertexID, 0, len(vset))
	for v := range vset {
		orig = append(orig, v)
	}
	slices.Sort(orig)
	for i, v := range orig {
		vset[v] = int32(i)
	}

	n := len(orig)
	adj := &Adjacency{Orig: orig, Dense: vset, Off: make([]int, n+1)}
	for key := range g.edges {
		u, v := UnpackEdge(key)
		adj.Off[vset[u]+1]++
		adj.Off[vset[v]+1]++
	}
	for i := 0; i < n; i++ {
		adj.Off[i+1] += adj.Off[i]
	}
	m := adj.Off[n]
	adj.Nbr = make([]int32, m)
	adj.Wt = make([]uint32, m)
	cursor := make([]int, n)
	for key, w := range g.edges {
		u, v := UnpackEdge(key)
		du, dv := vset[u], vset[v]
		i := adj.Off[du] + cursor[du]
		adj.Nbr[i], adj.Wt[i] = dv, w
		cursor[du]++
		j := adj.Off[dv] + cursor[dv]
		adj.Nbr[j], adj.Wt[j] = du, w
		cursor[dv]++
	}
	// Sort each neighbor list (with parallel weights).
	for i := 0; i < n; i++ {
		lo, hi := adj.Off[i], adj.Off[i+1]
		sortRow(adj.Nbr[lo:hi], adj.Wt[lo:hi])
	}
	return adj
}

// sortRow sorts one CSR row ascending by neighbor, weights moving with
// their neighbors. A neighbor appears once per row, so packing (neighbor,
// weight) into one word and sorting the words orders by neighbor alone.
func sortRow(nbr []int32, wt []uint32) {
	if len(nbr) < 2 {
		return
	}
	row := make([]uint64, len(nbr))
	for k := range row {
		row[k] = uint64(nbr[k])<<32 | uint64(wt[k])
	}
	slices.Sort(row)
	for k, e := range row {
		nbr[k], wt[k] = int32(e>>32), uint32(e)
	}
}

// NumVertices returns the dense vertex count.
func (a *Adjacency) NumVertices() int { return len(a.Orig) }

// Degree returns dense vertex i's degree.
func (a *Adjacency) Degree(i int32) int { return a.Off[i+1] - a.Off[i] }

// Neighbors returns dense vertex i's sorted neighbor list (aliases storage).
func (a *Adjacency) Neighbors(i int32) []int32 { return a.Nbr[a.Off[i]:a.Off[i+1]] }

// Weights returns the weights parallel to Neighbors(i) (aliases storage).
func (a *Adjacency) Weights(i int32) []uint32 { return a.Wt[a.Off[i]:a.Off[i+1]] }

// EdgeWeight returns the weight of dense edge (i,j), 0 if absent, via
// binary search of the smaller adjacency list.
func (a *Adjacency) EdgeWeight(i, j int32) uint32 {
	if a.Degree(j) < a.Degree(i) {
		i, j = j, i
	}
	nbr := a.Neighbors(i)
	k := sort.Search(len(nbr), func(x int) bool { return nbr[x] >= j })
	if k < len(nbr) && nbr[k] == j {
		return a.Weights(i)[k]
	}
	return 0
}
