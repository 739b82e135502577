// Package hypergraph implements Step 3 of the paper: validating candidate
// author triplets against the original bipartite temporal multigraph.
//
// For a triplet {x,y,z} it computes the hyperedge weight w_xyz — the number
// of distinct pages where all three authors commented (equation 2) — the
// per-author page counts p_x (equation 3), and the normalized triplet
// coordination score C(x,y,z) = 3·w_xyz/(p_x+p_y+p_z) (equation 4).
//
// It also implements the paper's §4.3 future-work extension: time-windowed
// hyperedges, counting only pages where the three authors each have a
// comment inside some span of at most Δ seconds. Windowing restores a
// provable bound against CI-graph triangle weights (see
// WindowedTripletWeight).
package hypergraph

import (
	"runtime"
	"sort"
	"sync"

	"coordbot/internal/graph"
)

// Triplet is an unordered author triple, stored sorted X < Y < Z.
type Triplet struct {
	X, Y, Z graph.VertexID
}

// NewTriplet returns the canonical (sorted) triplet of three distinct
// authors. It panics if two are equal.
func NewTriplet(a, b, c graph.VertexID) Triplet {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	if a == b || b == c {
		panic("hypergraph: triplet with repeated author")
	}
	return Triplet{X: a, Y: b, Z: c}
}

// TripletWeight computes w_xyz: the number of distinct pages on which all
// three authors of t commented at least once, by three-way merge of the
// sorted distinct-page lists.
func TripletWeight(b *graph.BTM, t Triplet) int {
	px, py, pz := b.AuthorPages(t.X), b.AuthorPages(t.Y), b.AuthorPages(t.Z)
	i, j, k, n := 0, 0, 0, 0
	for i < len(px) && j < len(py) && k < len(pz) {
		a, bb, c := px[i], py[j], pz[k]
		if a == bb && bb == c {
			n++
			i++
			j++
			k++
			continue
		}
		// advance the smallest
		m := a
		if bb < m {
			m = bb
		}
		if c < m {
			m = c
		}
		if a == m {
			i++
		}
		if bb == m {
			j++
		}
		if c == m {
			k++
		}
	}
	return n
}

// CommonPages returns the sorted list of pages shared by all three authors.
func CommonPages(b *graph.BTM, t Triplet) []graph.VertexID {
	px, py, pz := b.AuthorPages(t.X), b.AuthorPages(t.Y), b.AuthorPages(t.Z)
	var out []graph.VertexID
	i, j, k := 0, 0, 0
	for i < len(px) && j < len(py) && k < len(pz) {
		a, bb, c := px[i], py[j], pz[k]
		if a == bb && bb == c {
			out = append(out, a)
			i++
			j++
			k++
			continue
		}
		m := a
		if bb < m {
			m = bb
		}
		if c < m {
			m = c
		}
		if a == m {
			i++
		}
		if bb == m {
			j++
		}
		if c == m {
			k++
		}
	}
	return out
}

// CScore computes C(x,y,z) = 3·w_xyz/(p_x+p_y+p_z), in [0,1]; 0 when the
// denominator is 0.
func CScore(b *graph.BTM, t Triplet) float64 {
	den := float64(b.PageCount(t.X)) + float64(b.PageCount(t.Y)) + float64(b.PageCount(t.Z))
	if den == 0 {
		return 0
	}
	return 3 * float64(TripletWeight(b, t)) / den
}

// pageTimesOf returns author a's comment times on page p (nil if none),
// via binary search of the timed index.
func pageTimesOf(b *graph.BTM, a, p graph.VertexID) []int64 {
	pt := b.AuthorPageTimes(a)
	k := sort.Search(len(pt), func(i int) bool { return pt[i].Page >= p })
	if k < len(pt) && pt[k].Page == p {
		return pt[k].Times
	}
	return nil
}

// spreadWithin reports whether the three ascending time lists contain one
// element each with max-min < delta (the classic minimum-spread merge).
// Strict inequality matches the half-open projection window [0, δ): a
// three-way interaction with spread < δ implies every pairwise gap lies in
// [0, δ), which is exactly what Algorithm 1 counts — this is what makes
// the WindowedTripletWeight bound provable.
func spreadWithin(tx, ty, tz []int64, delta int64) bool {
	i, j, k := 0, 0, 0
	for i < len(tx) && j < len(ty) && k < len(tz) {
		a, b, c := tx[i], ty[j], tz[k]
		lo, hi := a, a
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
		if hi-lo < delta {
			return true
		}
		// advance the list holding the minimum
		switch lo {
		case a:
			i++
		case b:
			j++
		default:
			k++
		}
	}
	return false
}

// WindowedTripletWeight counts pages where x, y, and z each commented
// within some span strictly less than delta seconds (a three-way
// interaction inside a time window) — the §4.3 extension. It is monotone
// non-decreasing in delta, and for delta larger than the data's time range
// it equals TripletWeight.
//
// Bound (the "provable bounds" §4.3 anticipates): for any page counted
// here, every pairwise comment gap lies in [0, delta), so the page also
// contributes to each of w'_xy, w'_xz, w'_yz under a [0, delta) projection
// (with the same exclusions). Hence
//
//	WindowedTripletWeight(b, t, δ) <= min(w'_xy, w'_xz, w'_yz).
func WindowedTripletWeight(b *graph.BTM, t Triplet, delta int64) int {
	n := 0
	for _, p := range CommonPages(b, t) {
		tx := pageTimesOf(b, t.X, p)
		ty := pageTimesOf(b, t.Y, p)
		tz := pageTimesOf(b, t.Z, p)
		if spreadWithin(tx, ty, tz, delta) {
			n++
		}
	}
	return n
}

// Score is the full Step-3 record for one triplet.
type Score struct {
	Triplet Triplet
	// W is the hyperedge weight w_xyz (equation 2).
	W int
	// C is the normalized coordination score (equation 4).
	C float64
	// PX, PY, PZ are the per-author distinct page counts p (equation 3).
	PX, PY, PZ int
}

// Evaluate computes the Step-3 record for one triplet.
func Evaluate(b *graph.BTM, t Triplet) Score {
	w := TripletWeight(b, t)
	px, py, pz := b.PageCount(t.X), b.PageCount(t.Y), b.PageCount(t.Z)
	den := float64(px + py + pz)
	c := 0.0
	if den > 0 {
		c = 3 * float64(w) / den
	}
	return Score{Triplet: t, W: w, C: c, PX: px, PY: py, PZ: pz}
}

// EvaluateAll computes Step-3 records for many triplets with a pool of
// workers over the shared read-only BTM, dealing triplets round-robin —
// the paper notes "the distributed containers of YGM can accelerate this
// process by dividing up authors to be checked among several compute
// nodes" (§2.4); ygmnet.HypergraphCluster is that partitioned form.
// Results are returned sorted by triplet. ranks <= 0 means GOMAXPROCS;
// the count is clamped to len(triplets), and a single worker runs inline
// on the caller.
func EvaluateAll(b *graph.BTM, triplets []Triplet, ranks int) []Score {
	if len(triplets) == 0 {
		return nil
	}
	if ranks <= 0 {
		ranks = runtime.GOMAXPROCS(0)
	}
	if ranks > len(triplets) {
		ranks = len(triplets)
	}
	out := make([]Score, len(triplets))
	stride := func(r int) {
		for i := r; i < len(triplets); i += ranks {
			out[i] = Evaluate(b, triplets[i])
		}
	}
	if ranks == 1 {
		stride(0)
	} else {
		var wg sync.WaitGroup
		wg.Add(ranks)
		for r := 0; r < ranks; r++ {
			go func(r int) {
				defer wg.Done()
				stride(r)
			}(r)
		}
		wg.Wait()
	}
	SortScores(out)
	return out
}

// SortScores orders scores by triplet for deterministic output.
func SortScores(ss []Score) {
	sort.Slice(ss, func(i, j int) bool {
		a, b := ss[i].Triplet, ss[j].Triplet
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.Z < b.Z
	})
}

// TopKByWeight returns the k scores with the largest hyperedge weight,
// ties broken by triplet order. The input is not modified.
func TopKByWeight(ss []Score, k int) []Score {
	out := make([]Score, len(ss))
	copy(out, ss)
	sort.Slice(out, func(i, j int) bool {
		if out[i].W != out[j].W {
			return out[i].W > out[j].W
		}
		a, b := out[i].Triplet, out[j].Triplet
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.Z < b.Z
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
