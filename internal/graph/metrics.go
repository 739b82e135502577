package graph

// Component-level structural metrics used when characterizing detected
// networks: the paper contrasts the GPT-2 ring ("appears to be more
// sparse") with the reshare ring's tight clique; eccentricity quantifies
// that contrast.

// BFSDistances returns hop distances from src (dense vertex) to every
// dense vertex; unreachable vertices get -1.
func BFSDistances(adj *Adjacency, src int32) []int32 {
	n := adj.NumVertices()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int32{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range adj.Neighbors(v) {
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Diameter returns the largest eccentricity within the (assumed connected)
// vertex set of adj, by BFS from every vertex — intended for the small
// per-component graphs the pipeline emits, not whole projections.
// Disconnected pairs are ignored. An empty adjacency has diameter 0.
func Diameter(adj *Adjacency) int {
	n := adj.NumVertices()
	best := 0
	for v := int32(0); v < int32(n); v++ {
		for _, d := range BFSDistances(adj, v) {
			if int(d) > best {
				best = int(d)
			}
		}
	}
	return best
}

// ComponentDiameter computes the hop diameter of one component.
func ComponentDiameter(c *Component) int {
	g := NewCIGraph()
	for _, e := range c.Edges {
		g.AddEdgeWeight(e.U, e.V, e.W)
	}
	return Diameter(g.BuildAdjacency())
}

// WeightedModularity computes the weighted Newman modularity of a
// partition over the view:
//
//	Q = Σ_c [ w_in(c)/m − (deg_c / 2m)² ]
//
// where m is the total edge weight, w_in(c) community c's internal edge
// weight, and deg_c the summed weighted degree of its members. Vertices
// absent from comm count as singleton communities (contributing no
// internal weight). Returns 0 for an edgeless view. This is the quality
// report the experiments print next to NMI — the community layer itself
// optimizes CPM, so modularity is an independent check, not the
// objective.
func WeightedModularity(v CIView, comm map[VertexID]int) float64 {
	var m float64            // total edge weight (each edge once)
	win := map[int]float64{} // internal weight per community
	deg := map[int]float64{} // weighted degree per community
	// Singleton fallbacks get negative IDs so they never collide with
	// caller-assigned community indices.
	next := -1
	cid := func(u VertexID) int {
		if c, ok := comm[u]; ok {
			return c
		}
		c := next
		next--
		comm[u] = c
		return c
	}
	// Copy comm so the singleton fallback does not mutate the caller's map.
	cp := make(map[VertexID]int, len(comm))
	for k, val := range comm {
		cp[k] = val
	}
	comm = cp
	v.ForEachEdge(func(a, b VertexID, w uint32) bool {
		fw := float64(w)
		m += fw
		ca, cb := cid(a), cid(b)
		deg[ca] += fw
		deg[cb] += fw
		if ca == cb {
			win[ca] += fw
		}
		return true
	})
	if m == 0 {
		return 0
	}
	q := 0.0
	for c, d := range deg {
		q += win[c]/m - (d/(2*m))*(d/(2*m))
	}
	return q
}
