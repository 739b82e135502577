package ygmnet

import (
	"math/rand"
	"sort"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
)

func randomBTM(seed int64, n, authors, pages int) *graph.BTM {
	rng := rand.New(rand.NewSource(seed))
	cs := make([]graph.Comment, n)
	for i := range cs {
		cs[i] = graph.Comment{
			Author: graph.VertexID(rng.Intn(authors)),
			Page:   graph.VertexID(rng.Intn(pages)),
			TS:     int64(rng.Intn(7200)),
		}
	}
	return graph.BuildBTM(cs, authors, pages)
}

func TestDistributedProjectionMatchesSequential(t *testing.T) {
	b := randomBTM(44, 4000, 120, 60)
	for _, ranks := range []int{1, 3, 5} {
		pc, err := NewProjectionCluster(ranks)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []projection.Window{{Min: 0, Max: 60}, {Min: 30, Max: 600}} {
			want, err := projection.ProjectSequential(b, w, projection.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := pc.Project(b, w, projection.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !want.Equal(got) {
				t.Fatalf("ranks %d window %v: distributed != sequential (%d vs %d edges)",
					ranks, w, got.NumEdges(), want.NumEdges())
			}
		}
		pc.Close()
	}
}

func TestDistributedProjectionWithExclusions(t *testing.T) {
	d := redditgen.Generate(redditgen.Tiny(21))
	b := d.BTM()
	opts := projection.Options{Exclude: d.Helpers}
	w := projection.Window{Min: 0, Max: 60}
	want, err := projection.ProjectSequential(b, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	pc, err := NewProjectionCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	got, err := pc.Project(b, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(got) {
		t.Fatalf("distributed != sequential with exclusions")
	}
	// The cluster is reusable: a second projection on the same cluster.
	w2 := projection.Window{Min: 0, Max: 300}
	want2, _ := projection.ProjectSequential(b, w2, opts)
	got2, err := pc.Project(b, w2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !want2.Equal(got2) {
		t.Fatal("second projection on reused cluster differs")
	}
}

func TestDistributedProjectionRejectsBadWindow(t *testing.T) {
	pc, err := NewProjectionCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	if _, err := pc.Project(randomBTM(1, 10, 4, 3), projection.Window{Min: 9, Max: 9}, projection.Options{}); err == nil {
		t.Fatal("bad window accepted")
	}
}

func TestDistributedShardOwnership(t *testing.T) {
	// Every key lands on exactly its owner rank.
	b := randomBTM(9, 2000, 50, 30)
	pc, err := NewProjectionCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	// Run the comm phase only (reuse Project, then inspect shards of a
	// *fresh* projection by re-running and checking before drain is not
	// possible through the public API — instead recompute ownership from
	// the result: keys must be partitioned, which Project's assembly
	// already guarantees uniqueness for; assert determinism instead).
	g1, err := pc.Project(b, projection.Window{Min: 0, Max: 120}, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := pc.Project(b, projection.Window{Min: 0, Max: 120}, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !g1.Equal(g2) {
		t.Fatal("repeated distributed projection not deterministic")
	}
	// Sanity: weights sorted descending must match across runs.
	ws1 := weights(g1)
	ws2 := weights(g2)
	for i := range ws1 {
		if ws1[i] != ws2[i] {
			t.Fatal("weight multiset differs")
		}
	}
}

func weights(g *graph.CIGraph) []uint32 {
	var out []uint32
	for _, e := range g.Edges() {
		out = append(out, e.W)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] > out[j] })
	return out
}

// resetBTM opens with a page whose distinct pairs and authors both
// outnumber what a projection.PairStep empties in place, then 40 pages
// that repeat some of them (the corpus of projection's
// TestPairStepResetPath): page p pairs 30p with 30p+1 and 30p+2 again, so
// a rank that carries state from page 0 into page p undercounts them.
func resetBTM() *graph.BTM {
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
	return graph.BuildBTM(cs, 0, 0)
}

// TestDistributedProjectionResetPath: with Exclude, Restrict and
// Window.Min > 0, every rank counts the pages after a hot one in full.
func TestDistributedProjectionResetPath(t *testing.T) {
	b := resetBTM()
	w := projection.Window{Min: 1, Max: 3}
	opts := projection.Options{Exclude: map[graph.VertexID]bool{5: true, 2003: true}, Restrict: map[graph.VertexID]bool{}}
	for a := graph.VertexID(0); a < 2100; a++ {
		opts.Restrict[a] = a%97 != 0
	}
	want, err := projection.ProjectSequential(b, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, ranks := range []int{1, 3} {
		pc, err := NewProjectionCluster(ranks)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pc.Project(b, w, opts)
		pc.Close()
		if err != nil {
			t.Fatal(err)
		}
		for a := graph.VertexID(30); a <= 1200; a += 30 {
			if got.Weight(a, a+1) != 2 || got.Weight(a, a+2) != 2 || got.Weight(a+1, a+2) != 1 ||
				got.PageCount(a) != 2 || got.PageCount(a+2) != 2 {
				t.Fatalf("ranks %d: author %d: w' = %d/%d/%d, P' = %d/%d; want 2/2/1, 2/2", ranks, a,
					got.Weight(a, a+1), got.Weight(a, a+2), got.Weight(a+1, a+2), got.PageCount(a), got.PageCount(a+2))
			}
		}
		if !want.Equal(got) {
			t.Fatalf("ranks %d: distributed != sequential (%d vs %d edges)", ranks, got.NumEdges(), want.NumEdges())
		}
	}
}
