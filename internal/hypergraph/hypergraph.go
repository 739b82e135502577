// Package hypergraph implements Step 3 of the paper: validating candidate
// author triplets against the original bipartite temporal multigraph.
//
// For a triplet {x,y,z} it computes the hyperedge weight w_xyz — the number
// of distinct pages where all three authors commented (equation 2) — the
// per-author page counts p_x (equation 3), and the normalized triplet
// coordination score C(x,y,z) = 3·w_xyz/(p_x+p_y+p_z) (equation 4).
//
// Evaluate (over TripletWeight, the package's one hand-written three-way
// merge) is the single-triplet API and the reference. EvaluateAll is the
// census-sized form: it shares each author pair's page intersection among
// the triplets that hold the pair — a campaign's triplets are a clique's,
// so nearly all of them do — and is tested and fuzzed equal to Evaluate,
// score for score.
//
// It also implements the paper's §4.3 future-work extension: time-windowed
// hyperedges, counting only pages where the three authors each have a
// comment inside some span of at most Δ seconds. Windowing restores a
// provable bound against CI-graph triangle weights (see
// WindowedTripletWeight).
package hypergraph

import (
	"cmp"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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
	xy := intersectSorted(nil, b.AuthorPages(t.X), b.AuthorPages(t.Y))
	return intersectSorted(nil, xy, b.AuthorPages(t.Z))
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

// EvaluateAll computes Step-3 records for many triplets, sharing the work
// that triplets of one census have in common. A campaign of k authors is a
// k-clique of the CI graph, so its C(k,3) triplets hold each author pair
// (x, y) up to k-2 times; the kernel sorts the triplets, cuts them into
// runs of equal X, and inside a run intersects P_x ∩ P_y once per distinct
// (X, Y) into a reusable buffer, then counts |(P_x ∩ P_y) ∩ P_z| per
// triplet with a second two-way merge — two short merges per triplet where
// Evaluate runs one three-way merge over all three lists. Sparse input
// (few triplets per pair) does the same two merges and no more.
//
// Whole runs, not single triplets, are dealt to the workers, so a pair's
// intersection is never computed by two of them and each worker needs only
// its own buffer, bounded by the longest page list — "the distributed
// containers of YGM can accelerate this process by dividing up authors to
// be checked among several compute nodes" (§2.4); ygmnet.HypergraphCluster
// is that partitioned form. The BTM is shared read-only.
//
// Every Score equals Evaluate's for the same triplet, field for field —
// Evaluate is the reference the tests and FuzzEvaluateAll hold the kernel
// to. Results are returned sorted by triplet (duplicates kept); the input
// is not modified. ranks <= 0 means GOMAXPROCS; the count is clamped to
// the number of runs, and a single worker runs inline on the caller.
func EvaluateAll(b *graph.BTM, triplets []Triplet, ranks int) []Score {
	if len(triplets) == 0 {
		return nil
	}
	out := make([]Score, len(triplets))
	for i, t := range triplets {
		out[i].Triplet = t
	}
	// Census triplets arrive sorted (pipeline.Survey); one pass
	// tells, and only caller-built lists pay for the sort.
	if !slices.IsSortedFunc(out, compareScores) {
		SortScores(out)
	}
	// runs[r]..runs[r+1] bounds the r-th run of equal X.
	runs := []int{0}
	for i := 1; i < len(out); i++ {
		if out[i].Triplet.X != out[i-1].Triplet.X {
			runs = append(runs, i)
		}
	}
	nruns := len(runs)
	runs = append(runs, len(out))

	if ranks <= 0 {
		ranks = runtime.GOMAXPROCS(0)
	}
	if ranks > nruns {
		ranks = nruns
	}
	// Runs differ in length by orders of magnitude (a clique's lowest
	// author leads C(k-1,2) triplets, its third-highest one), so workers
	// pull the next run from a shared cursor instead of taking a stride.
	var next atomic.Int64
	work := func() {
		var xy []graph.VertexID
		for {
			r := int(next.Add(1)) - 1
			if r >= nruns {
				return
			}
			xy = evaluateRun(b, out[runs[r]:runs[r+1]], xy)
		}
	}
	if ranks == 1 {
		work()
		return out
	}
	var wg sync.WaitGroup
	wg.Add(ranks)
	for r := 0; r < ranks; r++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	wg.Wait()
	return out
}

// evaluateRun fills the scores of one sorted run of triplets with equal X.
// xy is the worker's scratch for P_x ∩ P_y, returned for reuse.
func evaluateRun(b *graph.BTM, run []Score, xy []graph.VertexID) []graph.VertexID {
	px := b.AuthorPages(run[0].Triplet.X)
	var py []graph.VertexID
	for i := range run {
		t := run[i].Triplet
		if i == 0 || t.Y != run[i-1].Triplet.Y {
			py = b.AuthorPages(t.Y)
			xy = intersectSorted(xy[:0], px, py)
		}
		pz := b.AuthorPages(t.Z)
		w := countCommon(xy, pz)
		c := 0.0
		if den := float64(len(px) + len(py) + len(pz)); den > 0 {
			c = 3 * float64(w) / den
		}
		run[i] = Score{Triplet: t, W: w, C: c, PX: len(px), PY: len(py), PZ: len(pz)}
	}
	return xy
}

// countCommon returns |a ∩ b| of two sorted duplicate-free lists.
func countCommon(a, b []graph.VertexID) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// compareScores is the (X, Y, Z) triplet order of SortScores.
func compareScores(a, b Score) int {
	return compareTriplets(a.Triplet, b.Triplet)
}

func compareTriplets(a, b Triplet) int {
	if c := cmp.Compare(a.X, b.X); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Y, b.Y); c != 0 {
		return c
	}
	return cmp.Compare(a.Z, b.Z)
}

// SortScores orders scores by triplet for deterministic output.
func SortScores(ss []Score) {
	slices.SortFunc(ss, compareScores)
}
