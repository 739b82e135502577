package graph

import "sort"

// Analysis helpers used when characterizing detected components: the paper
// remarks that the share/reshare ring "contains an 8-clique" and is denser
// than the GPT-2 ring, so we provide clique machinery to make those
// statements checkable.

// MaxCliqueSize returns the clique number of g via a Bron–Kerbosch search
// with pivoting. Intended for the small
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
