package hypergraph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
)

func TestNewGroupCanonical(t *testing.T) {
	g := NewGroup(5, 2, 9, 2, 5)
	if len(g) != 3 || g[0] != 2 || g[1] != 5 || g[2] != 9 {
		t.Fatalf("group = %v", g)
	}
}

func TestGroupWeightMatchesTriplet(t *testing.T) {
	b := testBTM()
	tr := NewTriplet(0, 1, 2)
	g := NewGroup(0, 1, 2)
	if GroupWeight(b, g) != TripletWeight(b, tr) {
		t.Fatal("3-group weight must equal triplet weight")
	}
	if GroupCScore(b, g) != Evaluate(b, tr).C {
		t.Fatal("3-group C must equal triplet C")
	}
}

func TestGroupWeightPair(t *testing.T) {
	b := testBTM()
	// Authors 0 and 1 share pages 0, 1, 2.
	if w := GroupWeight(b, NewGroup(0, 1)); w != 3 {
		t.Fatalf("pair weight = %d, want 3", w)
	}
	if GroupWeight(b, NewGroup(0)) != 0 {
		t.Fatal("singleton group must weigh 0")
	}
}

func TestGroupWeightMonotoneInMembers(t *testing.T) {
	// Adding members can only shrink the common-page set.
	b := testBTM()
	w2 := GroupWeight(b, NewGroup(0, 1))
	w3 := GroupWeight(b, NewGroup(0, 1, 2))
	if w3 > w2 {
		t.Fatalf("w(3 members)=%d > w(2 members)=%d", w3, w2)
	}
}

func TestBuildGroupsMergesSharedEdges(t *testing.T) {
	b := randomBTM(rand.New(rand.NewSource(1)), 200, 8, 10)
	// Triplets (0,1,2) and (0,1,3) share the pair (0,1) → one group.
	ts := []Triplet{NewTriplet(0, 1, 2), NewTriplet(0, 1, 3)}
	gs := BuildGroups(b, ts)
	if len(gs) != 1 {
		t.Fatalf("groups = %d, want 1", len(gs))
	}
	if len(gs[0].Group) != 4 {
		t.Fatalf("merged group = %v, want 4 members", gs[0].Group)
	}
	// Disjoint triplets stay separate.
	ts = []Triplet{NewTriplet(0, 1, 2), NewTriplet(4, 5, 6)}
	gs = BuildGroups(b, ts)
	if len(gs) != 2 {
		t.Fatalf("disjoint triplets merged: %v", gs)
	}
	if BuildGroups(b, nil) != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestQuickGroupInvariants(t *testing.T) {
	// w_S <= min p_m and C(S) ∈ [0,1] for random groups.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBTM(rng, 500, 25, 20)
		for trial := 0; trial < 10; trial++ {
			k := rng.Intn(4) + 2
			ids := rng.Perm(25)[:k]
			ms := make([]graph.VertexID, k)
			for i, id := range ids {
				ms[i] = graph.VertexID(id)
			}
			g := NewGroup(ms...)
			w := GroupWeight(b, g)
			for _, m := range g {
				if w > b.PageCount(m) {
					return false
				}
			}
			if c := GroupCScore(b, g); c < 0 || c > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWindowedBoundTheorem(t *testing.T) {
	// The §4.3 theorem: WindowedTripletWeight(b, t, δ) <= min pairwise CI
	// weight under a [0, δ) projection with no exclusions.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBTM(rng, 800, 15, 12)
		for _, delta := range []int64{30, 120, 600} {
			ci, err := projection.ProjectSequential(b,
				projection.Window{Min: 0, Max: delta}, projection.Options{})
			if err != nil {
				return false
			}
			for trial := 0; trial < 8; trial++ {
				ids := rng.Perm(15)[:3]
				tr := NewTriplet(graph.VertexID(ids[0]), graph.VertexID(ids[1]), graph.VertexID(ids[2]))
				ww := WindowedTripletWeight(b, tr, delta)
				minCI := ci.Weight(tr.X, tr.Y)
				if w := ci.Weight(tr.X, tr.Z); w < minCI {
					minCI = w
				}
				if w := ci.Weight(tr.Y, tr.Z); w < minCI {
					minCI = w
				}
				if ww > int(minCI) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}
