// Package baseline implements the co-sharing coordination detector of
// Pacheco et al., "Uncovering Coordinated Networks on Social Media"
// (ICWSM 2021) — the prior work the thesis positions itself against
// (§1.3). The method builds a user–user *similarity* network from the
// bipartite author–page incidence (no timestamps): users are vectors over
// the pages they touched (optionally TF-IDF weighted so that wildly
// popular pages carry little signal), pairwise similarity is cosine or
// Jaccard, the network is thresholded at a similarity percentile, and the
// surviving connected components are reported as coordinated groups.
//
// Its blind spot — the thesis's motivation — is time: a tight benign
// community that shares the same niche pages over weeks looks identical
// to a botnet that hits them within seconds. The X4 experiment quantifies
// this on a dataset with a planted benign cohort.
package baseline

import (
	"math"
	"sort"

	"coordbot/internal/graph"
)

// Method selects the pairwise similarity.
type Method int

// Supported similarity methods.
const (
	// Jaccard is |Px ∩ Py| / |Px ∪ Py|.
	Jaccard Method = iota
	// Cosine is |Px ∩ Py| / sqrt(|Px|·|Py|) over binary incidence.
	Cosine
	// TFIDFCosine is cosine similarity of TF-IDF-weighted page vectors
	// (idf = ln(|P| / pageDegree)), Pacheco et al.'s weighting for
	// co-share traces.
	TFIDFCosine
)

// String names the method.
func (m Method) String() string {
	switch m {
	case Jaccard:
		return "jaccard"
	case Cosine:
		return "cosine"
	case TFIDFCosine:
		return "tfidf-cosine"
	default:
		return "unknown"
	}
}

// Options configures a detection run.
type Options struct {
	Method Method
	// MinSharedPages drops candidate pairs sharing fewer distinct pages
	// (default 2) before similarity is computed.
	MinSharedPages int
	// Percentile keeps only edges at or above this similarity percentile
	// (default 0.99, matching the paper's "retain the top percentile of
	// edge weights" practice). 0 keeps everything.
	Percentile float64
	// Exclude removes authors entirely (same semantics as projection).
	Exclude map[graph.VertexID]bool
}

// maxPageAuthors skips pages whose distinct-author count exceeds this
// during candidate generation. Mega-pages generate quadratic candidate
// pairs while contributing near-zero IDF signal; skipping them is the
// standard scalability device. Similarities of surviving pairs are still
// computed over *all* their pages.
const maxPageAuthors = 200

func (o *Options) defaults() {
	if o.MinSharedPages <= 0 {
		o.MinSharedPages = 2
	}
	if o.Percentile == 0 {
		o.Percentile = 0.99
	}
	if o.Percentile < 0 {
		o.Percentile = 0
	}
}

// SimEdge is a scored user pair (U < V).
type SimEdge struct {
	U, V graph.VertexID
	// Shared is the number of distinct co-touched pages.
	Shared int
	// Sim is the similarity under the chosen method.
	Sim float64
}

// SimilarityNetwork computes the similarity of every candidate pair (pairs
// co-touching >= MinSharedPages distinct pages, generated from pages with
// <= maxPageAuthors distinct authors). Edges are returned sorted by
// similarity descending, ties by (U, V).
func SimilarityNetwork(b *graph.BTM, opts Options) []SimEdge {
	opts.defaults()

	// Candidate pairs with shared-page counts (distinct pages).
	shared := make(map[uint64]int)
	authorsOnPage := make([]graph.VertexID, 0, 256)
	for p := 0; p < b.NumPages(); p++ {
		authorsOnPage = authorsOnPage[:0]
		var last graph.VertexID
		seen := make(map[graph.VertexID]bool)
		for _, at := range b.PageNeighborhood(graph.VertexID(p)) {
			a := at.Author
			if opts.Exclude[a] || seen[a] {
				continue
			}
			seen[a] = true
			authorsOnPage = append(authorsOnPage, a)
			last = a
		}
		_ = last
		if len(authorsOnPage) < 2 || len(authorsOnPage) > maxPageAuthors {
			continue
		}
		for i := 0; i < len(authorsOnPage); i++ {
			for j := i + 1; j < len(authorsOnPage); j++ {
				shared[graph.PackEdge(authorsOnPage[i], authorsOnPage[j])]++
			}
		}
	}

	// Page degrees for IDF (distinct authors per page).
	var idf []float64
	if opts.Method == TFIDFCosine {
		idf = make([]float64, b.NumPages())
		for p := 0; p < b.NumPages(); p++ {
			deg := distinctAuthors(b, graph.VertexID(p))
			if deg > 0 {
				idf[p] = math.Log(float64(b.NumPages()) / float64(deg))
			}
		}
	}

	// Precompute per-author norms.
	norm := make(map[graph.VertexID]float64)
	authorNorm := func(a graph.VertexID) float64 {
		if n, ok := norm[a]; ok {
			return n
		}
		var n float64
		switch opts.Method {
		case TFIDFCosine:
			for _, p := range b.AuthorPages(a) {
				n += idf[p] * idf[p]
			}
			n = math.Sqrt(n)
		default:
			n = float64(len(b.AuthorPages(a)))
		}
		norm[a] = n
		return n
	}

	out := make([]SimEdge, 0, len(shared))
	for key, count := range shared {
		if count < opts.MinSharedPages {
			continue
		}
		u, v := graph.UnpackEdge(key)
		e := SimEdge{U: u, V: v, Shared: count}
		switch opts.Method {
		case Jaccard:
			nu, nv := authorNorm(u), authorNorm(v)
			union := nu + nv - float64(count)
			if union > 0 {
				e.Sim = float64(count) / union
			}
		case Cosine:
			nu, nv := authorNorm(u), authorNorm(v)
			if nu > 0 && nv > 0 {
				e.Sim = float64(count) / math.Sqrt(nu*nv)
			}
		case TFIDFCosine:
			dot := 0.0
			for _, p := range intersectPages(b.AuthorPages(u), b.AuthorPages(v)) {
				dot += idf[p] * idf[p]
			}
			nu, nv := authorNorm(u), authorNorm(v)
			if nu > 0 && nv > 0 {
				e.Sim = dot / (nu * nv)
			}
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

func distinctAuthors(b *graph.BTM, p graph.VertexID) int {
	seen := make(map[graph.VertexID]bool)
	for _, at := range b.PageNeighborhood(p) {
		seen[at.Author] = true
	}
	return len(seen)
}

func intersectPages(a, b []graph.VertexID) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(a))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// Result is a baseline detection outcome.
type Result struct {
	// Edges is the full similarity network (sorted by similarity desc).
	Edges []SimEdge
	// Threshold is the similarity cut realized by the percentile.
	Threshold float64
	// Kept are the edges above threshold.
	Kept []SimEdge
	// Groups are the connected components of the kept network, largest
	// first.
	Groups []graph.Component
}

// Detect runs the full baseline: similarity network → percentile threshold
// → connected components.
func Detect(b *graph.BTM, opts Options) *Result {
	opts.defaults()
	edges := SimilarityNetwork(b, opts)
	res := &Result{Edges: edges}
	if len(edges) == 0 {
		return res
	}
	// Percentile over the edge similarity distribution (edges are sorted
	// descending).
	keep := int(math.Ceil(float64(len(edges)) * (1 - opts.Percentile)))
	if keep < 1 {
		keep = 1
	}
	if keep > len(edges) {
		keep = len(edges)
	}
	res.Threshold = edges[keep-1].Sim
	// Include ties at the threshold.
	for keep < len(edges) && edges[keep].Sim == res.Threshold {
		keep++
	}
	res.Kept = edges[:keep]

	g := graph.NewCIGraph()
	for _, e := range res.Kept {
		// Component extraction only needs connectivity; scale sims into
		// uint32 for the shared component machinery.
		w := uint32(e.Sim*1000) + 1
		g.AddEdgeWeight(e.U, e.V, w)
	}
	res.Groups = graph.ConnectedComponents(g)
	return res
}

// FlaggedAuthors returns the union of authors in detected groups.
func (r *Result) FlaggedAuthors() map[graph.VertexID]bool {
	out := make(map[graph.VertexID]bool)
	for _, g := range r.Groups {
		for _, a := range g.Authors {
			out[a] = true
		}
	}
	return out
}
