package hypergraph

import (
	"math/rand"
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
	got := CScore(b, NewTriplet(0, 1, 2))
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

func TestEvaluateAllMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	b := randomBTM(rng, 2000, 60, 40)
	var triplets []Triplet
	for i := 0; i < 200; i++ {
		a := graph.VertexID(rng.Intn(60))
		bb := graph.VertexID(rng.Intn(60))
		c := graph.VertexID(rng.Intn(60))
		if a == bb || bb == c || a == c {
			continue
		}
		triplets = append(triplets, NewTriplet(a, bb, c))
	}
	// The full list, a single triplet and none at all, each under
	// 0 = GOMAXPROCS, 1 = inline on the caller, and 1000 = more workers
	// than triplets (clamped).
	for _, n := range []int{len(triplets), 1, 0} {
		in := triplets[:n]
		want := make([]Score, len(in))
		for i, tr := range in {
			want[i] = Evaluate(b, tr)
		}
		SortScores(want)
		for _, ranks := range []int{0, 1, 4, 1000} {
			got := EvaluateAll(b, in, ranks)
			if len(got) != len(want) {
				t.Fatalf("%d triplets, ranks %d: %d scores, want %d", n, ranks, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%d triplets, ranks %d: score %d = %+v, want %+v", n, ranks, i, got[i], want[i])
				}
			}
		}
	}
}

func TestEvaluateAllEmpty(t *testing.T) {
	if out := EvaluateAll(testBTM(), nil, 2); out != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestTopKByWeight(t *testing.T) {
	ss := []Score{
		{Triplet: NewTriplet(1, 2, 3), W: 5},
		{Triplet: NewTriplet(4, 5, 6), W: 9},
		{Triplet: NewTriplet(7, 8, 9), W: 1},
	}
	top := TopKByWeight(ss, 2)
	if len(top) != 2 || top[0].W != 9 || top[1].W != 5 {
		t.Fatalf("TopK = %+v", top)
	}
	if ss[0].W != 5 {
		t.Fatal("input mutated")
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
			if c := CScore(b, tr); c < 0 || c > 1 {
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
