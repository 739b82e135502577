package projection

import (
	"math/rand"
	"testing"
	"testing/quick"

	"coordbot/internal/graph"
)

// worked example from the paper's Algorithm 1 semantics:
// page 0: a@0, b@10, c@100  — window [0,60): pairs {a,b} only
// page 1: a@0, b@30, c@50   — pairs {a,b},{a,c},{b,c}
// page 2: a@0, a@5, b@20    — self-pair skipped; {a,b} once despite two hits
func workedBTM() *graph.BTM {
	return graph.BuildBTM([]graph.Comment{
		{Author: 0, Page: 0, TS: 0},
		{Author: 1, Page: 0, TS: 10},
		{Author: 2, Page: 0, TS: 100},
		{Author: 0, Page: 1, TS: 0},
		{Author: 1, Page: 1, TS: 30},
		{Author: 2, Page: 1, TS: 50},
		{Author: 0, Page: 2, TS: 0},
		{Author: 0, Page: 2, TS: 5},
		{Author: 1, Page: 2, TS: 20},
	}, 0, 0)
}

func TestProjectSequentialWorkedExample(t *testing.T) {
	g, err := ProjectSequential(workedBTM(), Window{0, 60}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Weight(0, 1); got != 3 {
		t.Errorf("w'(a,b) = %d, want 3", got)
	}
	if got := g.Weight(0, 2); got != 1 {
		t.Errorf("w'(a,c) = %d, want 1", got)
	}
	if got := g.Weight(1, 2); got != 1 {
		t.Errorf("w'(b,c) = %d, want 1", got)
	}
	// P': a appears in pairs on pages 0,1,2 → 3; b on 0,1,2 → 3; c on 1 → 1.
	if got := g.PageCount(0); got != 3 {
		t.Errorf("P'(a) = %d, want 3", got)
	}
	if got := g.PageCount(1); got != 3 {
		t.Errorf("P'(b) = %d, want 3", got)
	}
	if got := g.PageCount(2); got != 1 {
		t.Errorf("P'(c) = %d, want 1", got)
	}
}

func TestWindowSemantics(t *testing.T) {
	// [10, 20): delay 10 included, 20 excluded, 9 excluded.
	b := graph.BuildBTM([]graph.Comment{
		{Author: 0, Page: 0, TS: 0},
		{Author: 1, Page: 0, TS: 10},
		{Author: 2, Page: 0, TS: 20},
		{Author: 3, Page: 0, TS: 9},
	}, 0, 0)
	g, err := ProjectSequential(b, Window{10, 20}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(0, 1) != 1 {
		t.Error("delay == Min must be included")
	}
	if g.Weight(0, 2) != 0 {
		t.Error("delay == Max must be excluded")
	}
	if g.Weight(0, 3) != 0 {
		t.Error("delay < Min must be excluded")
	}
	// 3@9 → 1@10 is delay 1 (excluded); 3@9 → 2@20 is delay 11 (included).
	if g.Weight(3, 2) != 1 {
		t.Error("pair between two non-anchor comments missed")
	}
}

func TestWindowValidate(t *testing.T) {
	if err := (Window{-1, 5}).Validate(); err == nil {
		t.Error("negative start accepted")
	}
	if err := (Window{5, 5}).Validate(); err == nil {
		t.Error("empty window accepted")
	}
	if err := (Window{0, 60}).Validate(); err != nil {
		t.Errorf("valid window rejected: %v", err)
	}
	if _, err := ProjectSequential(workedBTM(), Window{3, 2}, Options{}); err == nil {
		t.Error("ProjectSequential accepted invalid window")
	}
}

func TestExclusions(t *testing.T) {
	g, err := ProjectSequential(workedBTM(), Window{0, 60}, Options{
		Exclude: map[graph.VertexID]bool{1: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(0, 1) != 0 || g.Weight(1, 2) != 0 {
		t.Error("excluded author still projected")
	}
	if g.Weight(0, 2) != 1 {
		t.Error("non-excluded pair lost")
	}
	if g.PageCount(1) != 0 {
		t.Error("excluded author has page count")
	}
}

func TestParallelMatchesSequential(t *testing.T) {
	b := randomBTM(rand.New(rand.NewSource(42)), 2000, 150, 80)
	for _, w := range []Window{{0, 60}, {0, 600}, {30, 90}} {
		seq, err := ProjectSequential(b, w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{1, 3, 8} {
			par, err := projectSharded(b, w, Options{}, ranks)
			if err != nil {
				t.Fatal(err)
			}
			if !seq.Equal(par.Snapshot()) {
				t.Fatalf("window %v ranks %d: parallel != sequential (%d vs %d edges)",
					w, ranks, par.NumEdges(), seq.NumEdges())
			}
		}
	}
}

func TestBucketsHelpers(t *testing.T) {
	ub := UniformBuckets(0, 3600, 60)
	if len(ub) != 60 || ub[0] != (Window{0, 60}) || ub[59] != (Window{3540, 3600}) {
		t.Fatalf("UniformBuckets wrong: first %v last %v n=%d", ub[0], ub[len(ub)-1], len(ub))
	}
}

func TestBucketedEqualsDirect(t *testing.T) {
	b := randomBTM(rand.New(rand.NewSource(7)), 3000, 120, 60)
	direct, err := ProjectSequential(b, Window{0, 600}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bucketed, err := ProjectBucketed(b, UniformBuckets(0, 600, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Equal(bucketed) {
		t.Fatalf("bucketed projection differs from direct: %d vs %d edges",
			bucketed.NumEdges(), direct.NumEdges())
	}
}

func TestBucketedRejectsGaps(t *testing.T) {
	if _, err := ProjectBucketed(workedBTM(), []Window{{0, 60}, {120, 180}}, Options{}); err == nil {
		t.Fatal("non-abutting buckets accepted")
	}
	if _, err := ProjectBucketed(workedBTM(), nil, Options{}); err == nil {
		t.Fatal("empty bucket list accepted")
	}
}

func TestMergeSummedDominatesDirect(t *testing.T) {
	b := randomBTM(rand.New(rand.NewSource(11)), 3000, 100, 50)
	buckets := UniformBuckets(0, 600, 6)
	parts := make([]*graph.CIGraph, len(buckets))
	for i, bw := range buckets {
		var err error
		parts[i], err = ProjectSequential(b, bw, Options{})
		if err != nil {
			t.Fatal(err)
		}
	}
	summed := MergeSummed(parts...)
	direct, err := ProjectSequential(b, Window{0, 600}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range direct.Edges() {
		if summed.Weight(e.U, e.V) < e.W {
			t.Fatalf("summed merge lost weight on edge (%d,%d): %d < %d",
				e.U, e.V, summed.Weight(e.U, e.V), e.W)
		}
	}
}

func TestQuickProjectionInvariants(t *testing.T) {
	// Properties: (1) no self-loops; (2) w'_xy <= min(P'_x, P'_y);
	// (3) projection of a wider window dominates a narrower one edge-wise;
	// (4) every weight >= 1.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBTM(rng, 600, 50, 30)
		narrow, err := ProjectSequential(b, Window{0, 60}, Options{})
		if err != nil {
			return false
		}
		wide, err := ProjectSequential(b, Window{0, 300}, Options{})
		if err != nil {
			return false
		}
		for _, e := range narrow.Edges() {
			if e.U == e.V || e.W < 1 {
				return false
			}
			if e.W > narrow.PageCount(e.U) || e.W > narrow.PageCount(e.V) {
				return false
			}
			if wide.Weight(e.U, e.V) < e.W {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestProjectionGrowsWithWindow(t *testing.T) {
	// §3: "the projected graph of (0,60s) will always be smaller than or
	// equal to the projection for (0,1hr) on the same data."
	b := randomBTM(rand.New(rand.NewSource(3)), 5000, 200, 100)
	prev := 0
	for _, max := range []int64{30, 60, 300, 1200, 3600} {
		g, err := ProjectSequential(b, Window{0, max}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if g.NumEdges() < prev {
			t.Fatalf("projection shrank when window grew to %d", max)
		}
		prev = g.NumEdges()
	}
}

// randomBTM builds a BTM with n comments over the given author/page pools,
// timestamps within one hour.
func randomBTM(rng *rand.Rand, n, authors, pages int) *graph.BTM {
	return graph.BuildBTM(randomComments(rng, n, authors, pages), authors, pages)
}

func randomComments(rng *rand.Rand, n, authors, pages int) []graph.Comment {
	cs := make([]graph.Comment, n)
	for i := range cs {
		cs[i] = graph.Comment{
			Author: graph.VertexID(rng.Intn(authors)),
			Page:   graph.VertexID(rng.Intn(pages)),
			TS:     int64(rng.Intn(3600)),
		}
	}
	return cs
}

// resetCorpus opens with a page whose distinct pairs and authors both
// outnumber what a PairStep empties in place (resetCap), then pages that
// repeat some of its pairs and authors: a step that carries a pair or an
// author from one page into the next undercounts the later page. Window
// [1, 3) drops the later pages' same-second pair; resetScope restricts
// and excludes a few authors.
func resetCorpus() []graph.Comment {
	var cs []graph.Comment
	for a := 0; a < 1500; a++ {
		cs = append(cs, graph.Comment{Author: graph.VertexID(a), Page: 0, TS: int64(a)})
	}
	for p := graph.VertexID(1); p <= 40; p++ {
		a, ts := 30*p, int64(100000*p)
		cs = append(cs,
			graph.Comment{Author: a, Page: p, TS: ts},
			graph.Comment{Author: a + 1, Page: p, TS: ts + 1},
			graph.Comment{Author: a + 2, Page: p, TS: ts + 1},
			graph.Comment{Author: 2000 + p, Page: p, TS: ts + 2},
		)
	}
	return cs
}

var resetWindow = Window{Min: 1, Max: 3}

func resetScope() Options {
	opts := Options{Exclude: map[graph.VertexID]bool{5: true, 2003: true}, Restrict: map[graph.VertexID]bool{}}
	for a := graph.VertexID(0); a < 2100; a++ {
		opts.Restrict[a] = a%97 != 0
	}
	return opts
}

// perPageReference projects every page of cs on its own and sums the
// results, so no pair step is ever reused across pages.
func perPageReference(t *testing.T, cs []graph.Comment, w Window, opts Options) *graph.CIGraph {
	t.Helper()
	byPage := map[graph.VertexID][]graph.Comment{}
	for _, c := range cs {
		byPage[c.Page] = append(byPage[c.Page], graph.Comment{Author: c.Author, TS: c.TS})
	}
	var parts []*graph.CIGraph
	for _, page := range byPage {
		g, err := ProjectSequential(graph.BuildBTM(page, 0, 0), w, opts)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, g)
	}
	return MergeSummed(parts...)
}

// TestPairStepResetPath: every in-process batch projector counts the
// pages after a hot one in full, with Exclude, Restrict and Window.Min > 0
// in play.
func TestPairStepResetPath(t *testing.T) {
	cs, w, opts := resetCorpus(), resetWindow, resetScope()
	want := perPageReference(t, cs, w, opts)
	// Spot checks: (30,31) and (30,32) pair on pages 0 and 1, (31,32) only
	// on page 0 (delay 0 on page 1); 291 = 3·97 is out of scope, 5 excluded.
	for _, c := range []struct {
		u, v graph.VertexID
		w    uint32
	}{{30, 31, 2}, {30, 32, 2}, {31, 32, 1}, {31, 2001, 1}, {290, 291, 0}, {4, 5, 0}} {
		if got := want.Weight(c.u, c.v); got != c.w {
			t.Fatalf("reference w'(%d,%d) = %d, want %d", c.u, c.v, got, c.w)
		}
	}
	if want.PageCount(30) != 2 || want.PageCount(2001) != 1 || want.PageCount(291) != 0 {
		t.Fatalf("reference P' = %d/%d/%d, want 2/1/0", want.PageCount(30), want.PageCount(2001), want.PageCount(291))
	}

	b := graph.BuildBTM(cs, 0, 0)
	check := func(name string, got graph.CIView, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equal(got) {
			t.Fatalf("%s: w'(30,31) = %d, P'(30) = %d, %d edges; want 2, 2, %d edges",
				name, got.Weight(30, 31), got.PageCount(30), got.NumEdges(), want.NumEdges())
		}
	}
	seq, err := ProjectSequential(b, w, opts)
	check("ProjectSequential", seq, err)
	bucketed, err := ProjectBucketed(b, UniformBuckets(w.Min, w.Max, 2), opts)
	check("ProjectBucketed", bucketed, err)
	sig, err := ProjectSignals(cs, DefaultSignals(w), opts)
	check("ProjectSignals", sig, err)
	for _, ranks := range []int{1, 3} {
		sh, err := projectSharded(b, w, opts, ranks)
		check("ProjectSharded", sh.Snapshot(), err)
		ssh, err := projectSignalsSharded(cs, DefaultSignals(w), opts, ranks)
		check("ProjectSignalsSharded", ssh.Snapshot(), err)
	}
}
