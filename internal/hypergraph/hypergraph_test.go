package hypergraph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"coordbot/internal/graph"
)

// btm: pages 0..3; authors 0,1,2 all hit pages 0,1; author 2 skips page 2.
func testBTM() *graph.BTM {
	return graph.BuildBTM([]graph.Comment{
		{Author: 0, Page: 0, TS: 0},
		{Author: 1, Page: 0, TS: 5},
		{Author: 2, Page: 0, TS: 1000},
		{Author: 0, Page: 1, TS: 10},
		{Author: 1, Page: 1, TS: 12},
		{Author: 2, Page: 1, TS: 14},
		{Author: 0, Page: 2, TS: 20},
		{Author: 1, Page: 2, TS: 22},
		{Author: 0, Page: 3, TS: 30},
	}, 0, 0)
}

func TestNewTripletCanonical(t *testing.T) {
	tr := NewTriplet(9, 2, 5)
	if tr.X != 2 || tr.Y != 5 || tr.Z != 9 {
		t.Fatalf("triplet = %+v", tr)
	}
}

func TestNewTripletPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTriplet(1, 2, 1)
}

func TestTripletWeight(t *testing.T) {
	b := testBTM()
	if w := TripletWeight(b, NewTriplet(0, 1, 2)); w != 2 {
		t.Fatalf("w_xyz = %d, want 2 (pages 0 and 1)", w)
	}
}

func TestCommonPages(t *testing.T) {
	b := testBTM()
	ps := CommonPages(b, NewTriplet(0, 1, 2))
	if len(ps) != 2 || ps[0] != 0 || ps[1] != 1 {
		t.Fatalf("common pages = %v, want [0 1]", ps)
	}
}

func TestCScore(t *testing.T) {
	b := testBTM()
	// p_0 = 4, p_1 = 3, p_2 = 2; w = 2 → C = 6/9.
	got := Evaluate(b, NewTriplet(0, 1, 2)).C
	want := 6.0 / 9.0
	if got != want {
		t.Fatalf("C = %f, want %f", got, want)
	}
}

func TestEvaluateRecord(t *testing.T) {
	b := testBTM()
	s := Evaluate(b, NewTriplet(0, 1, 2))
	if s.W != 2 || s.PX != 4 || s.PY != 3 || s.PZ != 2 {
		t.Fatalf("record = %+v", s)
	}
}

func TestWindowedTripletWeight(t *testing.T) {
	b := testBTM()
	tr := NewTriplet(0, 1, 2)
	// Page 0 spread is exactly 1000 (author 2 is late); page 1 spread is
	// 4. The window is strict (spread < delta), matching the half-open
	// projection window.
	if w := WindowedTripletWeight(b, tr, 4); w != 0 {
		t.Fatalf("delta=4: %d, want 0 (spread 4 not < 4)", w)
	}
	if w := WindowedTripletWeight(b, tr, 5); w != 1 {
		t.Fatalf("delta=5: %d, want 1", w)
	}
	if w := WindowedTripletWeight(b, tr, 1000); w != 1 {
		t.Fatalf("delta=1000: %d, want 1 (spread 1000 not < 1000)", w)
	}
	if w := WindowedTripletWeight(b, tr, 1001); w != 2 {
		t.Fatalf("delta=1001: %d, want 2", w)
	}
}

func TestWindowedEqualsUnwindowedForHugeDelta(t *testing.T) {
	b := testBTM()
	tr := NewTriplet(0, 1, 2)
	if WindowedTripletWeight(b, tr, 1<<40) != TripletWeight(b, tr) {
		t.Fatal("huge delta must equal unwindowed weight")
	}
}

func TestSpreadWithinMultiComment(t *testing.T) {
	// Author times interleave; only the middle combination is tight.
	tx := []int64{0, 100}
	ty := []int64{50, 200}
	tz := []int64{55, 300}
	if !spreadWithin(tx, ty, tz, 51) {
		t.Fatal("should find (100, 50, 55) with spread 50 < 51")
	}
	if spreadWithin(tx, ty, tz, 50) {
		t.Fatal("spread 50 must not satisfy strict delta 50")
	}
	if spreadWithin(tx, ty, tz, 10) {
		t.Fatal("no combination within 10")
	}
}

// campaignBTM builds cliques campaigns of k authors each: every member
// comments on most of its campaign's shared pages and on organic pages of
// its own, ~perAuthor distinct pages in all. Author ids are c*k..c*k+k-1.
func campaignBTM(rng *rand.Rand, cliques, k, perAuthor int) *graph.BTM {
	shared := perAuthor / 2
	organic := cliques * k * perAuthor
	var cs []graph.Comment
	for c := 0; c < cliques; c++ {
		for m := 0; m < k; m++ {
			a := graph.VertexID(c*k + m)
			for p := 0; p < shared; p++ {
				if rng.Intn(10) > 0 { // a member skips a tenth of the campaign
					cs = append(cs, graph.Comment{Author: a, Page: graph.VertexID(organic + c*shared + p), TS: int64(p)})
				}
			}
			for p := 0; p < perAuthor-shared; p++ {
				cs = append(cs, graph.Comment{Author: a, Page: graph.VertexID(rng.Intn(organic)), TS: int64(p)})
			}
		}
	}
	return graph.BuildBTM(cs, 0, 0)
}

// allTriplets lists every triplet over the given authors, shuffled.
func allTriplets(rng *rand.Rand, authors []graph.VertexID) []Triplet {
	var ts []Triplet
	for i := range authors {
		for j := i + 1; j < len(authors); j++ {
			for k := j + 1; k < len(authors); k++ {
				ts = append(ts, NewTriplet(authors[i], authors[j], authors[k]))
			}
		}
	}
	rng.Shuffle(len(ts), func(i, j int) { ts[i], ts[j] = ts[j], ts[i] })
	return ts
}

func authorRange(lo, hi int) []graph.VertexID {
	var as []graph.VertexID
	for a := lo; a < hi; a++ {
		as = append(as, graph.VertexID(a))
	}
	return as
}

// TestEvaluateAllMatchesSequential holds the run-sharing kernel to the
// single-triplet reference on the shapes that exercise the sharing: every
// Score equals Evaluate's, in SortScores order, at every worker count, and
// the input is left as it was.
func TestEvaluateAllMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))

	random := randomBTM(rng, 2000, 60, 40)
	var randomTs []Triplet
	for i := 0; i < 200; i++ {
		a, bb, c := graph.VertexID(rng.Intn(60)), graph.VertexID(rng.Intn(60)), graph.VertexID(rng.Intn(60))
		if a == bb || bb == c || a == c {
			continue
		}
		randomTs = append(randomTs, NewTriplet(a, bb, c))
	}

	clique := campaignBTM(rng, 1, 28, 100)
	twoCliques := campaignBTM(rng, 2, 9, 40)
	// The second list takes authors 3 and 8 of the first campaign along,
	// so they lead runs that cross both.
	sharedAuthor := append(authorRange(8, 18), 3)

	dups := allTriplets(rng, authorRange(0, 7))
	dups = append(dups, dups[:10]...)
	dups = append(dups, dups[3], dups[3])

	// Authors 0..2 comment; 3..5 exist (numAuthors 6) with no pages at all.
	silent := graph.BuildBTM([]graph.Comment{
		{Author: 0, Page: 0}, {Author: 1, Page: 0}, {Author: 2, Page: 0}, {Author: 0, Page: 1},
	}, 6, 0)

	// Author 0 is on every page; the rest are sparse.
	var hubCs []graph.Comment
	for p := 0; p < 50; p++ {
		hubCs = append(hubCs, graph.Comment{Author: 0, Page: graph.VertexID(p)})
		for a := 1; a < 8; a++ {
			if rng.Intn(3) == 0 {
				hubCs = append(hubCs, graph.Comment{Author: graph.VertexID(a), Page: graph.VertexID(p)})
			}
		}
	}
	hub := graph.BuildBTM(hubCs, 0, 0)

	cases := []struct {
		name     string
		b        *graph.BTM
		triplets []Triplet
	}{
		{"random", random, randomTs},
		{"clique28 shuffled", clique, allTriplets(rng, authorRange(0, 28))},
		{"two cliques sharing an author", twoCliques, append(allTriplets(rng, authorRange(0, 9)), allTriplets(rng, sharedAuthor)...)},
		{"unsorted with duplicates", random, dups},
		{"empty page lists", silent, allTriplets(rng, authorRange(0, 6))},
		{"hub author", hub, allTriplets(rng, authorRange(0, 8))},
		{"single triplet", random, randomTs[:1]},
		{"none", random, nil},
	}
	for _, tc := range cases {
		in := append([]Triplet(nil), tc.triplets...)
		// 0 = GOMAXPROCS, 1 = inline on the caller, 1000 = more workers
		// than runs (clamped).
		for _, ranks := range []int{0, 1, 4, 1000} {
			if err := checkEvaluateAll(tc.b, in, ranks); err != nil {
				t.Fatalf("%s, ranks %d: %v", tc.name, ranks, err)
			}
			if !slices.Equal(in, tc.triplets) {
				t.Fatalf("%s, ranks %d: input modified", tc.name, ranks)
			}
		}
	}
}

// checkEvaluateAll compares EvaluateAll with Evaluate over each triplet,
// sorted by SortScores: same length, every Score ==.
func checkEvaluateAll(b *graph.BTM, triplets []Triplet, ranks int) error {
	want := make([]Score, len(triplets))
	for i, tr := range triplets {
		want[i] = Evaluate(b, tr)
	}
	SortScores(want)
	got := EvaluateAll(b, triplets, ranks)
	if len(got) != len(want) {
		return fmt.Errorf("%d scores, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("score %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// FuzzEvaluateAll decodes bytes into a small BTM and a triplet list
// (unsorted, duplicates allowed) and holds EvaluateAll to Evaluate.
func FuzzEvaluateAll(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 0, 1, 1, 1, 2, 1}, []byte{0, 1, 2}, uint8(2))
	f.Add([]byte{3, 9, 4, 9, 5, 9, 3, 2}, []byte{3, 4, 5, 5, 4, 3, 0, 3, 7}, uint8(0))
	f.Add([]byte{}, []byte{1, 2, 3}, uint8(1))
	f.Fuzz(func(t *testing.T, comments, picks []byte, ranks uint8) {
		const authors, pages = 8, 16
		var cs []graph.Comment
		for i := 0; i+1 < len(comments); i += 2 {
			cs = append(cs, graph.Comment{
				Author: graph.VertexID(comments[i] % authors),
				Page:   graph.VertexID(comments[i+1] % pages),
				TS:     int64(i),
			})
		}
		b := graph.BuildBTM(cs, authors, pages)
		var ts []Triplet
		for i := 0; i+2 < len(picks); i += 3 {
			x, y, z := graph.VertexID(picks[i]%authors), graph.VertexID(picks[i+1]%authors), graph.VertexID(picks[i+2]%authors)
			if x == y || y == z || x == z {
				continue
			}
			ts = append(ts, NewTriplet(x, y, z))
		}
		if err := checkEvaluateAll(b, ts, int(ranks%5)); err != nil {
			t.Fatal(err)
		}
	})
}

// BenchmarkEvaluateAll measures the Step-3 kernel on the two census shapes
// the end-to-end workloads have. clique28x3 is survey-churn's: three
// 28-author campaigns, 84 authors with ~100 pages each, all 9,828
// triplets, where every (x, y) intersection is shared by up to 26
// triplets. sparse is batch-archive's: a few triplets per leading author
// over long organic page lists, where nothing is shared and the kernel
// must cost no more than a three-way merge per triplet.
func BenchmarkEvaluateAll(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	cliqueBTM := campaignBTM(rng, 3, 28, 100)
	var cliqueTs []Triplet
	for c := 0; c < 3; c++ {
		cliqueTs = append(cliqueTs, allTriplets(rng, authorRange(c*28, c*28+28))...)
	}
	slices.SortFunc(cliqueTs, compareTriplets)

	sparseBTM := randomBTM(rng, 400000, 1000, 20000) // ~400 pages per author
	var sparseTs []Triplet
	for x := 0; x < 990; x += 2 {
		for k := 0; k < 4; k++ {
			y := x + 1 + rng.Intn(4)
			sparseTs = append(sparseTs, NewTriplet(graph.VertexID(x), graph.VertexID(y), graph.VertexID(y+1+rng.Intn(4))))
		}
	}
	slices.SortFunc(sparseTs, compareTriplets)

	for _, bc := range []struct {
		name     string
		btm      *graph.BTM
		triplets []Triplet
	}{
		{"clique28x3", cliqueBTM, cliqueTs},
		{"sparse", sparseBTM, sparseTs},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := EvaluateAll(bc.btm, bc.triplets, 1); len(got) != len(bc.triplets) {
					b.Fatal("short output")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(bc.triplets)), "ns/triplet")
		})
	}
}

func TestEvaluateAllEmpty(t *testing.T) {
	if out := EvaluateAll(testBTM(), nil, 2); out != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestQuickHypergraphInvariants(t *testing.T) {
	// Properties: w_xyz <= min(p_x,p_y,p_z); C in [0,1]; w matches a
	// brute-force recount; windowed <= unwindowed, monotone in delta.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBTM(rng, 400, 20, 15)
		for trial := 0; trial < 10; trial++ {
			x := graph.VertexID(rng.Intn(20))
			y := graph.VertexID(rng.Intn(20))
			z := graph.VertexID(rng.Intn(20))
			if x == y || y == z || x == z {
				continue
			}
			tr := NewTriplet(x, y, z)
			w := TripletWeight(b, tr)
			minP := b.PageCount(tr.X)
			if p := b.PageCount(tr.Y); p < minP {
				minP = p
			}
			if p := b.PageCount(tr.Z); p < minP {
				minP = p
			}
			if w > minP {
				return false
			}
			if c := Evaluate(b, tr).C; c < 0 || c > 1 {
				return false
			}
			// Brute force w.
			brute := 0
			for p := 0; p < b.NumPages(); p++ {
				hx, hy, hz := false, false, false
				for _, at := range b.PageNeighborhood(graph.VertexID(p)) {
					switch at.Author {
					case tr.X:
						hx = true
					case tr.Y:
						hy = true
					case tr.Z:
						hz = true
					}
				}
				if hx && hy && hz {
					brute++
				}
			}
			if w != brute {
				return false
			}
			w1 := WindowedTripletWeight(b, tr, 10)
			w2 := WindowedTripletWeight(b, tr, 100)
			if w1 > w2 || w2 > w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func randomBTM(rng *rand.Rand, n, authors, pages int) *graph.BTM {
	cs := make([]graph.Comment, n)
	for i := range cs {
		cs[i] = graph.Comment{
			Author: graph.VertexID(rng.Intn(authors)),
			Page:   graph.VertexID(rng.Intn(pages)),
			TS:     int64(rng.Intn(3600)),
		}
	}
	return graph.BuildBTM(cs, authors, pages)
}
