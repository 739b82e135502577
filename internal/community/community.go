// Package community is the clustering layer above the triangle survey:
// the paper detects coordination "via clustering analysis", and while
// triangles find trios, real campaigns run 20–200 accounts. This package
// partitions the thresholded common-interaction graph into communities —
// Leiden with a Label Propagation fallback, the method of Weber & Neumann
// ("Highly Coordinating Communities") and of stylobot's cluster-detection
// service — and scores each community with generalized coordination
// metrics (scores.go).
//
// Two properties shape the design:
//
//   - Determinism. Clustering consumes the graph.CIView interface through
//     the canonical CSR adjacency (sorted vertices, sorted neighbor
//     lists), every randomized choice draws from an RNG seeded by
//     Config.Seed, and communities are numbered canonically — so the same
//     (graph, config) pair yields the identical Partition whether the
//     view is map-backed, sharded, or a copy-on-write snapshot.
//
//   - Exact warm starts. The Leiden quality function is the constant
//     Potts model (CPM), whose local-move gains depend only on weights
//     and community sizes — never on global graph mass — so the optimum
//     decomposes exactly over connected components. Each component is
//     clustered independently with a seed derived from Config.Seed and
//     the component's smallest member. DetectWarm exploits this: a
//     component containing no dirty vertex is structurally identical to
//     its previous incarnation (any edge change dirties both endpoints),
//     so its previous community assignment is reused verbatim and only
//     touched components are re-clustered. The Partition carries
//     per-vertex component bookkeeping, so the warm path never rebuilds
//     the full adjacency: it marks the old components hit by the dirty
//     set, induces the CSR of just those vertices with one filtered edge
//     scan, and splices freshly clustered components into the reused ones
//     in canonical order. The warm partition is therefore identical to a
//     cold Detect over the same graph — a property the tests pin down —
//     while steady-state clustering costs one edge scan plus
//     O(touched components) instead of a full CSR build and cluster.
package community

import (
	"fmt"
	"slices"

	"coordbot/internal/graph"
)

// Algorithm selects the clustering method.
type Algorithm int

const (
	// Leiden is local move + refinement + aggregation under the CPM
	// quality function (the default).
	Leiden Algorithm = iota
	// LabelProp is asynchronous weighted label propagation — the cheap
	// fallback for graphs where Leiden's quality machinery is overkill.
	LabelProp
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case Leiden:
		return "leiden"
	case LabelProp:
		return "labelprop"
	default:
		return fmt.Sprintf("algorithm(%d)", int(a))
	}
}

// ParseAlgorithm resolves a flag value ("leiden", "labelprop" or "lp").
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "leiden", "":
		return Leiden, nil
	case "labelprop", "lp":
		return LabelProp, nil
	default:
		return 0, fmt.Errorf("community: unknown algorithm %q (want leiden or labelprop)", s)
	}
}

// Config parameterizes community detection.
type Config struct {
	// Algorithm is the clustering method (default Leiden).
	Algorithm Algorithm
	// Resolution is the CPM γ: a community is worth keeping only if its
	// internal weight per member pair exceeds γ. On a thresholded CI
	// graph every retained edge already clears the weight cut, so the
	// default 1.0 merges along any surviving edge while still refusing
	// to fuse communities joined more sparsely than one co-occurrence
	// per pair. Ignored by LabelProp.
	Resolution float64
	// MinSize drops communities smaller than this from scored output
	// (default 3 — below the triangle layer there is nothing a community
	// adds). The Partition itself always keeps every vertex so that warm
	// starts stay exact.
	MinSize int
	// Seed drives every randomized choice; identical (graph, config)
	// pairs produce identical partitions (default 1).
	Seed int64
}

// maxIterations caps Leiden's aggregation levels and LabelProp's sweeps.
const maxIterations = 32

// Defaults returns c with zero values resolved to their defaults — what
// Detect actually runs with.
func (c Config) Defaults() Config { return c.withDefaults() }

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.Resolution <= 0 {
		c.Resolution = 1.0
	}
	if c.MinSize <= 0 {
		c.MinSize = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Partition is a community assignment of every vertex (author with at
// least one edge) of the clustered graph, in canonical numbering:
// components are visited in order of their smallest member, communities
// within a component in order of their smallest member, so two equal
// partitions are structurally identical element-wise.
type Partition struct {
	// Comm maps each clustered vertex to its community index.
	Comm map[graph.VertexID]int
	// Communities lists each community's members, sorted ascending.
	Communities [][]graph.VertexID
	// Algorithm / Resolution / Seed echo the resolved config, so a warm
	// start can refuse a partition produced under different knobs.
	Algorithm  Algorithm
	Resolution float64
	Seed       int64
	// ClusteredComponents / ReusedComponents split the connected
	// components between freshly clustered and reused verbatim from the
	// previous partition (cold runs reuse nothing).
	ClusteredComponents int
	ReusedComponents    int

	// compOf maps each vertex to the ordinal of its connected component
	// in canonical (smallest-member) order; compComm maps each community
	// index to the same ordinal. Together they let DetectWarm find the
	// components a dirty set touches — and the membership of everything
	// it doesn't — without ever rebuilding the graph's adjacency.
	// Communities of one component are contiguous because the global
	// numbering visits components in order.
	compOf   map[graph.VertexID]int32
	compComm []int32
	ncomp    int32
}

// newPartition allocates an empty partition stamped with cfg's knobs.
func newPartition(cfg Config, hint int) *Partition {
	return &Partition{
		Comm:       make(map[graph.VertexID]int, hint),
		compOf:     make(map[graph.VertexID]int32, hint),
		Algorithm:  cfg.Algorithm,
		Resolution: cfg.Resolution,
		Seed:       cfg.Seed,
	}
}

// appendComponent splices one component's canonical community list onto
// the partition, assigning the next global IDs and component ordinal.
func (p *Partition) appendComponent(groups [][]graph.VertexID) {
	k := p.ncomp
	p.ncomp++
	for _, members := range groups {
		id := len(p.Communities)
		for _, m := range members {
			p.Comm[m] = id
			p.compOf[m] = k
		}
		p.Communities = append(p.Communities, members)
		p.compComm = append(p.compComm, k)
	}
}

// Detect clusters v from scratch: the cold path.
func Detect(v graph.CIView, cfg Config) *Partition {
	return DetectWarm(v, cfg, nil, nil)
}

// DetectWarm clusters v, reusing prev for connected components that
// contain no vertex of dirty. prev must be the partition of an earlier
// version of the same (logical) graph and dirty a superset of the
// vertices incident to any edge that was added, removed, or reweighted
// since — exactly what graph.CISnapshot.DirtyVertices produces. A prev
// produced under a different (algorithm, resolution, seed) is discarded
// and the graph clustered cold; the result is always identical to a cold
// Detect over v.
func DetectWarm(v graph.CIView, cfg Config, prev *Partition, dirty map[graph.VertexID]bool) *Partition {
	cfg = cfg.withDefaults()
	if prev != nil && (prev.Algorithm != cfg.Algorithm ||
		prev.Resolution != cfg.Resolution || prev.Seed != cfg.Seed ||
		prev.compOf == nil) {
		prev = nil // different knobs: nothing is reusable
	}
	if prev == nil {
		return detectCold(v, cfg)
	}
	return detectWarm(v, cfg, prev, dirty)
}

// detectCold builds the full adjacency and clusters every component.
func detectCold(v graph.CIView, cfg Config) *Partition {
	adj := v.BuildAdjacency()
	p := newPartition(cfg, adj.NumVertices())
	for _, comp := range adj.Components() {
		p.appendComponent(clusterComponent(adj, comp, cfg))
		p.ClusteredComponents++
	}
	return p
}

// detectWarm re-clusters only the components the dirty set touches. The
// touched region is closed under adjacency: an unchanged edge links two
// vertices of the same old component, and a changed edge dirties both
// endpoints — so inducing the subgraph of (members of dirty-hit old
// components + dirty vertices prev has never seen) captures every edge
// that can differ from prev, and everything else is reused verbatim.
func detectWarm(v graph.CIView, cfg Config, prev *Partition, dirty map[graph.VertexID]bool) *Partition {
	touched := make(map[int32]bool, 8)
	inT := make(map[graph.VertexID]bool, 2*len(dirty))
	for u := range dirty {
		if c, ok := prev.compOf[u]; ok {
			touched[c] = true
		} else {
			inT[u] = true // new arrival: by contract it is dirty
		}
	}
	if len(touched) > 0 {
		for i, members := range prev.Communities {
			if touched[prev.compComm[i]] {
				for _, m := range members {
					inT[m] = true
				}
			}
		}
	}
	var adjT *graph.Adjacency
	var tcomps [][]int32
	if len(inT) > 0 {
		adjT = induceAdjacency(v, inT)
		tcomps = adjT.Components()
	}

	// Clean old components, as contiguous community ranges of prev in
	// canonical order (ascending smallest member, like tcomps).
	type span struct {
		lo, hi int
		min    graph.VertexID
	}
	var clean []span
	for lo := 0; lo < len(prev.compComm); {
		c := prev.compComm[lo]
		hi := lo
		for hi < len(prev.compComm) && prev.compComm[hi] == c {
			hi++
		}
		if !touched[c] {
			clean = append(clean, span{lo, hi, prev.Communities[lo][0]})
		}
		lo = hi
	}

	// Merge reused and re-clustered components by smallest member — the
	// order a cold run visits them in.
	p := newPartition(cfg, len(prev.Comm))
	i, j := 0, 0
	for i < len(clean) || j < len(tcomps) {
		takeClean := j >= len(tcomps) ||
			(i < len(clean) && clean[i].min < adjT.Orig[tcomps[j][0]])
		if takeClean {
			p.appendComponent(prev.Communities[clean[i].lo:clean[i].hi])
			p.ReusedComponents++
			i++
		} else {
			p.appendComponent(clusterComponent(adjT, tcomps[j], cfg))
			p.ClusteredComponents++
			j++
		}
	}
	return p
}

// induceAdjacency builds the canonical CSR of the subgraph induced by the
// vertex set in, with one filtered pass over v's edges — the warm path's
// replacement for a full BuildAdjacency. Vertices of in with no surviving
// edge are dropped, exactly as BuildAdjacency drops isolated vertices.
func induceAdjacency(v graph.CIView, in map[graph.VertexID]bool) *graph.Adjacency {
	type tedge struct {
		u, v graph.VertexID
		w    uint32
	}
	edges := make([]tedge, 0, 2*len(in))
	dense := make(map[graph.VertexID]int32, len(in))
	v.ForEachEdge(func(u, w graph.VertexID, wt uint32) bool {
		if in[u] && in[w] {
			edges = append(edges, tedge{u, w, wt})
			dense[u], dense[w] = 0, 0
		}
		return true
	})
	orig := make([]graph.VertexID, 0, len(dense))
	for u := range dense {
		orig = append(orig, u)
	}
	slices.Sort(orig)
	for i, u := range orig {
		dense[u] = int32(i)
	}
	n := len(orig)
	adj := &graph.Adjacency{Orig: orig, Dense: dense, Off: make([]int, n+1)}
	for _, e := range edges {
		adj.Off[dense[e.u]+1]++
		adj.Off[dense[e.v]+1]++
	}
	for i := 0; i < n; i++ {
		adj.Off[i+1] += adj.Off[i]
	}
	adj.Nbr = make([]int32, 2*len(edges))
	adj.Wt = make([]uint32, 2*len(edges))
	cursor := make([]int, n)
	for _, e := range edges {
		du, dv := dense[e.u], dense[e.v]
		i := adj.Off[du] + cursor[du]
		adj.Nbr[i], adj.Wt[i] = dv, e.w
		cursor[du]++
		j := adj.Off[dv] + cursor[dv]
		adj.Nbr[j], adj.Wt[j] = du, e.w
		cursor[dv]++
	}
	// Sort each neighbor list (with parallel weights); rows are small.
	for i := 0; i < n; i++ {
		lo, hi := adj.Off[i], adj.Off[i+1]
		for a := lo + 1; a < hi; a++ {
			nb, wv := adj.Nbr[a], adj.Wt[a]
			b := a
			for b > lo && adj.Nbr[b-1] > nb {
				adj.Nbr[b], adj.Wt[b] = adj.Nbr[b-1], adj.Wt[b-1]
				b--
			}
			adj.Nbr[b], adj.Wt[b] = nb, wv
		}
	}
	return adj
}

// clusterComponent runs the configured algorithm on one component — its
// dense vertices, sorted ascending, as Adjacency.Components lists them —
// and returns its communities in canonical order. The RNG seed mixes the
// config seed with the component's smallest original member, so a
// component's clustering depends only on its own structure — the
// decomposition warm starts rely on.
func clusterComponent(adj *graph.Adjacency, comp []int32, cfg Config) [][]graph.VertexID {
	if len(comp) == 1 {
		return [][]graph.VertexID{{adj.Orig[comp[0]]}}
	}
	sub := buildSubgraph(adj, comp)
	seed := mixSeed(cfg.Seed, uint64(adj.Orig[comp[0]]))
	var labels []int32
	switch cfg.Algorithm {
	case LabelProp:
		labels = labelPropagate(sub, seed, maxIterations)
	default:
		labels = leiden(sub, cfg.Resolution, seed, maxIterations)
	}
	return canonicalGroups(sub, labels)
}

// subgraph is the compact CSR of one component: local indices 0..n-1 in
// ascending original-ID order.
type subgraph struct {
	orig []graph.VertexID // local index → original author ID
	off  []int32
	nbr  []int32
	wt   []uint64
}

func (s *subgraph) n() int { return len(s.orig) }

// buildSubgraph reindexes comp's rows of adj into a compact CSR. Every
// neighbor of a component vertex is in the component, so the rows copy
// over whole; neighbor lists stay sorted because the local renumbering is
// monotone in dense index.
func buildSubgraph(adj *graph.Adjacency, comp []int32) *subgraph {
	n := len(comp)
	local := make(map[int32]int32, n)
	for i, dv := range comp {
		local[dv] = int32(i)
	}
	sub := &subgraph{
		orig: make([]graph.VertexID, n),
		off:  make([]int32, n+1),
	}
	total := 0
	for i, dv := range comp {
		sub.orig[i] = adj.Orig[dv]
		total += adj.Degree(dv)
		sub.off[i+1] = int32(total)
	}
	sub.nbr = make([]int32, total)
	sub.wt = make([]uint64, total)
	for i, dv := range comp {
		base := sub.off[i]
		for k, u := range adj.Neighbors(dv) {
			sub.nbr[base+int32(k)] = local[u]
			sub.wt[base+int32(k)] = uint64(adj.Weights(dv)[k])
		}
	}
	return sub
}

// canonicalGroups converts per-vertex labels into member lists numbered
// by order of first appearance over ascending local index — i.e. by
// smallest member.
func canonicalGroups(sub *subgraph, labels []int32) [][]graph.VertexID {
	renum := make(map[int32]int, 8)
	var out [][]graph.VertexID
	for i, l := range labels {
		id, ok := renum[l]
		if !ok {
			id = len(out)
			renum[l] = id
			out = append(out, nil)
		}
		out[id] = append(out[id], sub.orig[i])
	}
	return out
}

// mixSeed derives a per-component RNG seed (splitmix64 finalizer over the
// config seed and the component key).
func mixSeed(seed int64, key uint64) int64 {
	z := uint64(seed) ^ (key+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}
