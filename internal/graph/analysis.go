package graph

import "sort"

// Analysis helpers used when characterizing detected components: the paper
// remarks that the share/reshare ring "contains an 8-clique" and is denser
// than the GPT-2 ring, so we provide clique and core machinery to make
// those statements checkable.

// KCore returns the maximal subgraph of g in which every vertex has degree
// >= k, as the set of surviving author IDs (standard peeling algorithm).
func KCore(g *CIGraph, k int) map[VertexID]bool {
	adj := g.BuildAdjacency()
	n := adj.NumVertices()
	deg := make([]int, n)
	for i := 0; i < n; i++ {
		deg[i] = adj.Degree(int32(i))
	}
	removed := make([]bool, n)
	queue := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if deg[i] < k {
			queue = append(queue, int32(i))
			removed[i] = true
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, nb := range adj.Neighbors(v) {
			if removed[nb] {
				continue
			}
			deg[nb]--
			if deg[nb] < k {
				removed[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	out := make(map[VertexID]bool)
	for i := 0; i < n; i++ {
		if !removed[i] {
			out[adj.Orig[i]] = true
		}
	}
	return out
}

// CoreNumbers computes the core number of every dense vertex of adj using
// the Batagelj–Zaversnik bin-sort peeling algorithm (O(V+E)).
func CoreNumbers(adj *Adjacency) []int {
	n := adj.NumVertices()
	if n == 0 {
		return nil
	}
	deg := make([]int, n)
	maxDeg := 0
	for i := 0; i < n; i++ {
		deg[i] = adj.Degree(int32(i))
		if deg[i] > maxDeg {
			maxDeg = deg[i]
		}
	}
	bin := make([]int, maxDeg+1)
	for _, d := range deg {
		bin[d]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		c := bin[d]
		bin[d] = start
		start += c
	}
	pos := make([]int, n)
	vert := make([]int32, n)
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = int32(v)
		bin[deg[v]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0
	core := make([]int, n)
	copy(core, deg)
	for i := 0; i < n; i++ {
		v := vert[i]
		for _, u := range adj.Neighbors(v) {
			if core[u] > core[v] {
				du, pu := core[u], pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					pos[u], vert[pu] = pw, w
					pos[w], vert[pw] = pu, u
				}
				bin[du]++
				core[u]--
			}
		}
	}
	return core
}

// Degeneracy returns the largest k such that the k-core of g is non-empty.
// It upper-bounds the clique number minus one.
func Degeneracy(g *CIGraph) int {
	core := CoreNumbers(g.BuildAdjacency())
	d := 0
	for _, c := range core {
		if c > d {
			d = c
		}
	}
	return d
}

// MaxCliqueSize returns the clique number of g via a Bron–Kerbosch search
// with pivoting and a degeneracy-order outer loop. Intended for the small
// thresholded components the pipeline produces (tens to hundreds of
// vertices), not the full CI graph.
func MaxCliqueSize(g *CIGraph) int {
	adj := g.BuildAdjacency()
	n := adj.NumVertices()
	if n == 0 {
		return 0
	}
	nbrs := make([]map[int32]bool, n)
	for i := 0; i < n; i++ {
		nbrs[i] = make(map[int32]bool, adj.Degree(int32(i)))
		for _, nb := range adj.Neighbors(int32(i)) {
			nbrs[i][nb] = true
		}
	}
	best := 0
	var bk func(r int, p, x map[int32]bool)
	bk = func(r int, p, x map[int32]bool) {
		if len(p) == 0 && len(x) == 0 {
			if r > best {
				best = r
			}
			return
		}
		if r+len(p) <= best {
			return // bound
		}
		// Choose pivot u maximizing |P ∩ N(u)|.
		var pivot int32 = -1
		bestCover := -1
		for _, set := range []map[int32]bool{p, x} {
			for u := range set {
				cover := 0
				for v := range p {
					if nbrs[u][v] {
						cover++
					}
				}
				if cover > bestCover {
					bestCover, pivot = cover, u
				}
			}
		}
		cand := make([]int32, 0, len(p))
		for v := range p {
			if pivot < 0 || !nbrs[pivot][v] {
				cand = append(cand, v)
			}
		}
		sort.Slice(cand, func(i, j int) bool { return cand[i] < cand[j] })
		for _, v := range cand {
			np := make(map[int32]bool)
			for w := range p {
				if nbrs[v][w] {
					np[w] = true
				}
			}
			nx := make(map[int32]bool)
			for w := range x {
				if nbrs[v][w] {
					nx[w] = true
				}
			}
			bk(r+1, np, nx)
			delete(p, v)
			x[v] = true
		}
	}
	p := make(map[int32]bool, n)
	for i := 0; i < n; i++ {
		p[int32(i)] = true
	}
	bk(0, p, make(map[int32]bool))
	return best
}
