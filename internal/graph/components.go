package graph

import (
	"cmp"
	"slices"
)

// Component is one connected component of a CI graph, in original author
// IDs, with its induced edges.
type Component struct {
	Authors []VertexID
	Edges   []WeightedEdge
}

// Size returns the number of authors in the component.
func (c *Component) Size() int { return len(c.Authors) }

// MinWeight and MaxWeight return the induced edge-weight range; both are 0
// for an edgeless component.
func (c *Component) MinWeight() uint32 {
	if len(c.Edges) == 0 {
		return 0
	}
	mw := c.Edges[0].W
	for _, e := range c.Edges[1:] {
		if e.W < mw {
			mw = e.W
		}
	}
	return mw
}

// MaxWeight returns the largest induced edge weight.
func (c *Component) MaxWeight() uint32 {
	var mw uint32
	for _, e := range c.Edges {
		if e.W > mw {
			mw = e.W
		}
	}
	return mw
}

// Density returns |E| / (n choose 2) for the component (1 for cliques).
func (c *Component) Density() float64 {
	n := len(c.Authors)
	if n < 2 {
		return 0
	}
	return float64(len(c.Edges)) / (float64(n) * float64(n-1) / 2)
}

// ConnectedComponents returns the connected components of g (vertices with
// at least one edge), largest first; ties broken by smallest author ID.
func ConnectedComponents(g CIView) []Component {
	adj := g.BuildAdjacency()
	n := adj.NumVertices()
	uf := NewUnionFind(n)
	g.ForEachEdge(func(u, v VertexID, _ uint32) bool {
		uf.Union(adj.Dense[u], adj.Dense[v])
		return true
	})
	groups := make(map[int32][]VertexID)
	for i := 0; i < n; i++ {
		r := uf.Find(int32(i))
		groups[r] = append(groups[r], adj.Orig[i])
	}
	comps := make([]Component, 0, len(groups))
	for _, authors := range groups {
		slices.Sort(authors)
		comps = append(comps, Component{Authors: authors})
	}
	// Attach induced edges.
	repOf := func(a VertexID) int32 { return uf.Find(adj.Dense[a]) }
	index := make(map[int32]int, len(comps))
	for i := range comps {
		index[repOf(comps[i].Authors[0])] = i
	}
	g.ForEachEdge(func(u, v VertexID, w uint32) bool {
		ci := index[repOf(u)]
		comps[ci].Edges = append(comps[ci].Edges, WeightedEdge{U: u, V: v, W: w})
		return true
	})
	sortComponents(comps)
	return comps
}

// sortComponents orders each component's edges by (U, V) and the component
// list largest-first (ties by smallest author), the canonical output order.
func sortComponents(comps []Component) {
	for i := range comps {
		slices.SortFunc(comps[i].Edges, compareEdgeUV)
	}
	slices.SortFunc(comps, func(a, b Component) int {
		if c := cmp.Compare(len(b.Authors), len(a.Authors)); c != 0 {
			return c
		}
		return cmp.Compare(a.Authors[0], b.Authors[0])
	})
}
