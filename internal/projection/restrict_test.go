package projection

import (
	"math/rand"
	"testing"

	"coordbot/internal/graph"
)

func TestRestrictLimitsAuthors(t *testing.T) {
	b := workedBTM()
	g, err := ProjectSequential(b, Window{0, 60}, Options{
		Restrict: map[graph.VertexID]bool{0: true, 1: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(0, 1) != 3 {
		t.Fatalf("in-scope pair weight = %d, want 3", g.Weight(0, 1))
	}
	if g.Weight(0, 2) != 0 || g.Weight(1, 2) != 0 {
		t.Fatal("out-of-scope author projected")
	}
	if g.PageCount(2) != 0 {
		t.Fatal("out-of-scope author has page count")
	}
}

func TestRestrictComposesWithExclude(t *testing.T) {
	b := workedBTM()
	g, err := ProjectSequential(b, Window{0, 60}, Options{
		Restrict: map[graph.VertexID]bool{0: true, 1: true, 2: true},
		Exclude:  map[graph.VertexID]bool{1: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(0, 1) != 0 {
		t.Fatal("excluded author projected despite being in Restrict")
	}
	if g.Weight(0, 2) != 1 {
		t.Fatalf("restricted pair lost: %d", g.Weight(0, 2))
	}
}

func TestRestrictedEqualsInducedFullProjection(t *testing.T) {
	// Projecting a restricted author set equals the full projection's
	// edges among those authors — but P' may differ (P' counts pages
	// where the author formed *any* pair; restriction removes pairs with
	// outsiders). Edge weights must agree exactly.
	rng := rand.New(rand.NewSource(17))
	b := randomBTM(rng, 2000, 60, 40)
	full, err := ProjectSequential(b, Window{0, 120}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scope := map[graph.VertexID]bool{}
	for a := graph.VertexID(0); a < 20; a++ {
		scope[a] = true
	}
	restricted, err := ProjectSequential(b, Window{0, 120}, Options{Restrict: scope})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range restricted.Edges() {
		if !scope[e.U] || !scope[e.V] {
			t.Fatalf("edge outside scope: %+v", e)
		}
		if full.Weight(e.U, e.V) != e.W {
			t.Fatalf("restricted weight differs from full: (%d,%d) %d vs %d",
				e.U, e.V, e.W, full.Weight(e.U, e.V))
		}
	}
	// No in-scope edge of the full projection is missing.
	for _, e := range full.Edges() {
		if scope[e.U] && scope[e.V] && restricted.Weight(e.U, e.V) != e.W {
			t.Fatalf("restricted projection lost edge (%d,%d)", e.U, e.V)
		}
	}
}

func TestRestrictParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	b := randomBTM(rng, 1500, 50, 40)
	scope := map[graph.VertexID]bool{}
	for a := graph.VertexID(0); a < 15; a++ {
		scope[a] = true
	}
	opts := Options{Restrict: scope}
	seq, err := ProjectSequential(b, Window{0, 300}, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := projectSharded(b, Window{0, 300}, opts, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !seq.Equal(par) {
		t.Fatal("restricted parallel != sequential")
	}
}
