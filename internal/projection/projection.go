// Package projection implements Step 1 of the paper: projecting the
// bipartite temporal multigraph B onto the weighted common interaction
// graph C = (U, I, w') for a delay window [δ1, δ2) — Algorithm 1.
//
// Per page, every unordered author pair that commented within the window of
// each other is recorded once; the pair's CI edge weight is the number of
// such pages. The companion list L records, per author, the number of pages
// that contributed at least one projection edge incident to that author
// (the paper's P'_x, equation 6).
//
// Window convention: we use the half-open interval [δ1, δ2) — inclusive of
// δ1 so that (0, 60s) captures same-second bot bursts, exclusive of δ2 so
// that bucketings {[0,60),[60,120),…} partition exactly (the paper's §3
// bucket workaround relies on buckets not overlapping).
package projection

import (
	"fmt"

	"coordbot/internal/graph"
)

// Window is the comment-delay window [Min, Max) in seconds.
type Window struct {
	Min, Max int64
}

// Validate returns an error for degenerate windows.
func (w Window) Validate() error {
	if w.Min < 0 {
		return fmt.Errorf("projection: negative window start %d", w.Min)
	}
	if w.Max <= w.Min {
		return fmt.Errorf("projection: empty window [%d,%d)", w.Min, w.Max)
	}
	return nil
}

// String renders the half-open interval convention this package actually
// implements, e.g. "[0s, 60s)" — inclusive Min, exclusive Max.
func (w Window) String() string { return fmt.Sprintf("[%ds, %ds)", w.Min, w.Max) }

// Options configures a projection run.
type Options struct {
	// Exclude lists author IDs removed before projection (§3:
	// AutoModerator, [deleted], known helper bots).
	Exclude map[graph.VertexID]bool
	// Restrict, when non-nil, projects only the listed authors — the
	// paper's §2.2 targeted re-projection: "reproject the original
	// Bipartite Temporal Multigraph for just this smaller group of users
	// with a longer time window". Exclude still applies on top.
	Restrict map[graph.VertexID]bool
}

// skip reports whether an author is out of scope for this projection.
func (o Options) skip(a graph.VertexID) bool {
	if o.Exclude[a] {
		return true
	}
	return o.Restrict != nil && !o.Restrict[a]
}

// resetCap is the largest set a PairStep empties in place. Go's clear
// costs a map's capacity, not its length, so a set that held more is
// dropped for a fresh one: emptying the step costs the last object's own
// size, never that of the largest object seen before it.
const resetCap = 1024

// PairStep is Algorithm 1's per-object step (lines 9–20, with the page as
// the object), the one pair rule of every batch projection, in-process or
// distributed (ygmnet, distrank). The zero value is ready; a step is not
// safe for concurrent use.
type PairStep struct {
	seenPairs   map[uint64]struct{}
	seenAuthors map[graph.VertexID]struct{}
	pairs       []uint64
	authors     []graph.VertexID
}

// Object pairs one object's time-sorted neighborhood under each window of
// ws, skipping out-of-scope authors and self-pairs, and returns the
// distinct pairs (packed edge keys) with the distinct authors they touch:
// +1 weight per pair and +1 to P′ per author. A pair counts once however
// often it repeats, across windows too (ProjectBucketed's union). Both
// slices are the step's own and stay valid until the next call.
func (s *PairStep) Object(nbhd []graph.AuthorTime, opts Options, ws ...Window) (pairs []uint64, authors []graph.VertexID) {
	s.seenPairs = emptied(s.seenPairs, len(s.pairs))
	s.seenAuthors = emptied(s.seenAuthors, len(s.authors))
	s.pairs, s.authors = s.pairs[:0], s.authors[:0]
	for _, w := range ws {
		for i := 0; i < len(nbhd); i++ {
			ai := nbhd[i].Author
			if opts.skip(ai) {
				continue
			}
			for j := i + 1; j < len(nbhd); j++ {
				d := nbhd[j].TS - nbhd[i].TS
				if d >= w.Max {
					break // neighborhood is time-sorted
				}
				if d < w.Min {
					continue
				}
				aj := nbhd[j].Author
				if aj == ai || opts.skip(aj) {
					continue
				}
				key := graph.PackEdge(ai, aj)
				if _, dup := s.seenPairs[key]; !dup {
					s.seenPairs[key] = struct{}{}
					s.pairs = append(s.pairs, key)
				}
			}
		}
	}
	for _, key := range s.pairs {
		u, v := graph.UnpackEdge(key)
		for _, a := range [2]graph.VertexID{u, v} {
			if _, dup := s.seenAuthors[a]; !dup {
				s.seenAuthors[a] = struct{}{}
				s.authors = append(s.authors, a)
			}
		}
	}
	return s.pairs, s.authors
}

// emptied returns m empty for the next object, given that the last one
// left n entries in it (see resetCap).
func emptied[K comparable](m map[K]struct{}, n int) map[K]struct{} {
	if m == nil || n > resetCap {
		return make(map[K]struct{})
	}
	clear(m)
	return m
}

// projectObjects is the reference driver of every sequential batch
// projection: objects 0..numObjects-1 with time-sorted neighborhoods
// served by nbhd, each paired under every window of ws and folded into g.
func projectObjects(g *graph.CIGraph, numObjects int, nbhd func(graph.VertexID) []graph.AuthorTime, ws []Window, opts Options) {
	var st PairStep
	for o := 0; o < numObjects; o++ {
		pairs, authors := st.Object(nbhd(graph.VertexID(o)), opts, ws...)
		for _, key := range pairs {
			u, v := graph.UnpackEdge(key)
			g.AddEdgeWeight(u, v, 1)
		}
		for _, a := range authors {
			g.AddPageCount(a, 1)
		}
	}
}

// ProjectSequential runs Algorithm 1 single-threaded. It is the reference
// implementation the parallel paths are tested against.
func ProjectSequential(b *graph.BTM, w Window, opts Options) (*graph.CIGraph, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	g := graph.NewCIGraph()
	projectObjects(g, b.NumPages(), b.PageNeighborhood, []Window{w}, opts)
	return g, nil
}

// UniformBuckets splits [min,max) into k equal windows (the paper's
// example: {(0,60s), (60s,120s), …, (59min,1hr)}).
// surface:keep EXPERIMENTS.md S2 (TestBucketedEqualsDirect,
// ExampleProjectBucketed) builds its buckets with it.
func UniformBuckets(min, max int64, k int) []Window {
	if k < 1 {
		k = 1
	}
	out := make([]Window, 0, k)
	span := max - min
	for i := 0; i < k; i++ {
		lo := min + span*int64(i)/int64(k)
		hi := min + span*int64(i+1)/int64(k)
		if lo < hi {
			out = append(out, Window{Min: lo, Max: hi})
		}
	}
	return out
}

// ProjectBucketed is the §3 bucket workaround done exactly: pages are
// processed once, each page paired under every bucket by one PairStep
// call, which unions the buckets' pair sets before accumulation. Because the buckets
// partition the full window, the union per page equals the direct pair
// set, so the result is identical to ProjectSequential over
// [buckets[0].Min, buckets[last].Max).
// surface:keep EXPERIMENTS.md S2 measures it (TestBucketedEqualsDirect).
func ProjectBucketed(b *graph.BTM, buckets []Window, opts Options) (*graph.CIGraph, error) {
	if len(buckets) == 0 {
		return nil, fmt.Errorf("projection: no buckets")
	}
	for i, bw := range buckets {
		if err := bw.Validate(); err != nil {
			return nil, err
		}
		if i > 0 && buckets[i-1].Max != bw.Min {
			return nil, fmt.Errorf("projection: buckets %d and %d do not abut: %v %v",
				i-1, i, buckets[i-1], bw)
		}
	}
	g := graph.NewCIGraph()
	projectObjects(g, b.NumPages(), b.PageNeighborhood, buckets, opts)
	return g, nil
}

// MergeSummed merges independently projected bucket graphs by summing edge
// weights and page counts — the naive interpretation of the paper's
// "merging these projected graphs together at the end". It over-counts a
// (page, pair) whose delays straddle multiple buckets (each contributing
// bucket adds 1), so the result dominates the direct projection edge-wise.
// ProjectBucketed avoids the bias; this exists to quantify it.
// surface:keep EXPERIMENTS.md S2 quantifies the bias with it
// (TestMergeSummedDominatesDirect).
func MergeSummed(graphs ...*graph.CIGraph) *graph.CIGraph {
	out := graph.NewCIGraph()
	for _, g := range graphs {
		out.Merge(g)
	}
	return out
}
