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
// Each component's edges come off its CSR rows in (U, V) order.
func ConnectedComponents(g CIView) []Component {
	adj := g.BuildAdjacency()
	verts := adj.Components()
	comps := make([]Component, len(verts))
	for ci, vs := range verts {
		c := &comps[ci]
		c.Authors = make([]VertexID, len(vs))
		for k, v := range vs {
			c.Authors[k] = adj.Orig[v]
			// Rows are sorted by dense index, which is ascending author
			// ID, so taking each edge from its lower endpoint's row emits
			// (U, V) order directly.
			wts := adj.Weights(v)
			for j, nb := range adj.Neighbors(v) {
				if nb > v {
					c.Edges = append(c.Edges, WeightedEdge{U: adj.Orig[v], V: adj.Orig[nb], W: wts[j]})
				}
			}
		}
	}
	// Components arrive ordered by smallest member; a stable sort by size
	// keeps that order among equal sizes.
	slices.SortStableFunc(comps, func(a, b Component) int {
		return cmp.Compare(len(b.Authors), len(a.Authors))
	})
	return comps
}

// Components returns the connected components of the adjacency as dense
// vertex lists, each sorted ascending (which, by BuildAdjacency's
// construction, is also ascending original ID) and ordered by smallest
// member — the canonical traversal both ConnectedComponents and the
// community layer's per-component clustering hang off.
func (a *Adjacency) Components() [][]int32 {
	n := a.NumVertices()
	seen := make([]bool, n)
	var comps [][]int32
	stack := make([]int32, 0, 64)
	for s := int32(0); s < int32(n); s++ {
		if seen[s] {
			continue
		}
		// Iterative DFS from the smallest unvisited vertex, so components
		// come out ordered by smallest member; members are collected, then
		// sorted.
		verts := []int32{s}
		seen[s] = true
		stack = append(stack[:0], s)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range a.Neighbors(v) {
				if !seen[u] {
					seen[u] = true
					verts = append(verts, u)
					stack = append(stack, u)
				}
			}
		}
		slices.Sort(verts)
		comps = append(comps, verts)
	}
	return comps
}
