package graph

// CIView is the read-only interface over a common interaction graph. It is
// implemented by the map-backed *CIGraph (the reference implementation)
// and the frozen *CISnapshot of the live sharded store — everything
// downstream of Step 1 (triangle survey, components, scores) consumes this
// interface, so a batch projection and a daemon snapshot run through
// identical machinery. The live *ShardedCI itself is a writer: it is read
// through Snapshot.
type CIView interface {
	// Weight returns w'_uv (0 if the edge is absent or u == v).
	Weight(u, v VertexID) uint32
	// PageCount returns P'_u (0 if u never projected).
	PageCount(u VertexID) uint32
	// NumEdges returns |I|.
	NumEdges() int
	// NumAuthors returns the number of entries in the P' table.
	NumAuthors() int
	// NumVertices returns the number of authors with at least one CI edge.
	NumVertices() int
	// MaxWeight returns the largest edge weight (0 for an empty graph).
	MaxWeight() uint32
	// Edges returns all edges, sorted by (U, V) for determinism.
	Edges() []WeightedEdge
	// ForEachEdge calls fn for every edge in unspecified order, stopping
	// early when fn returns false. fn must not mutate the graph.
	ForEachEdge(fn func(u, v VertexID, w uint32) bool)
	// PageCounts returns a copy of the P' table.
	PageCounts() map[VertexID]uint32
	// ThresholdView returns a view containing only edges with weight >=
	// minW; page counts carry over unchanged (P' is a property of the
	// projection, not of the retained edge set).
	ThresholdView(minW uint32) CIView
	// BuildAdjacency materializes the CSR adjacency view.
	BuildAdjacency() *Adjacency
	// Equal reports whether two views have identical edges, weights, and
	// page counts.
	// surface:keep the ≡ suites of graph, stream, projection, pipeline and
	// detectd compare every view against its reference through it.
	Equal(other CIView) bool
}

// Interface conformance of both implementations.
var (
	_ CIView = (*CIGraph)(nil)
	_ CIView = (*CISnapshot)(nil)
)

// viewsEqual is the generic equality behind Equal: identical edge sets
// (with weights) and identical page-count tables.
func viewsEqual(a, b CIView) bool {
	if a.NumEdges() != b.NumEdges() || a.NumAuthors() != b.NumAuthors() {
		return false
	}
	eq := true
	a.ForEachEdge(func(u, v VertexID, w uint32) bool {
		if b.Weight(u, v) != w {
			eq = false
		}
		return eq
	})
	if !eq {
		return false
	}
	for v, n := range a.PageCounts() {
		if b.PageCount(v) != n {
			return false
		}
	}
	return true
}
