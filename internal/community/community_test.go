package community

import (
	"reflect"
	"testing"

	"coordbot/internal/graph"
)

// twoCliques builds two dense 4-cliques bridged by a single weak edge,
// plus an isolated heavy pair — the classic shape any community method
// must split correctly.
func twoCliques() *graph.CIGraph {
	g := graph.NewCIGraph()
	cliqueA := []graph.VertexID{1, 2, 3, 4}
	cliqueB := []graph.VertexID{10, 11, 12, 13}
	for _, cl := range [][]graph.VertexID{cliqueA, cliqueB} {
		for i := 0; i < len(cl); i++ {
			for j := i + 1; j < len(cl); j++ {
				g.AddEdgeWeight(cl[i], cl[j], 10)
			}
		}
	}
	g.AddEdgeWeight(4, 10, 1)   // weak bridge
	g.AddEdgeWeight(20, 21, 50) // separate heavy pair
	for _, v := range []graph.VertexID{1, 2, 3, 4, 10, 11, 12, 13} {
		g.SetPageCount(v, 12)
	}
	g.SetPageCount(20, 60)
	g.SetPageCount(21, 60)
	return g
}

func findCommunity(t *testing.T, p *Partition, member graph.VertexID) []graph.VertexID {
	t.Helper()
	id, ok := p.Comm[member]
	if !ok {
		t.Fatalf("vertex %d not in partition", member)
	}
	return p.Communities[id]
}

func TestLeidenSplitsCliques(t *testing.T) {
	for _, algo := range []Algorithm{Leiden, LabelProp} {
		p := Detect(twoCliques(), Config{Algorithm: algo})
		a := findCommunity(t, p, 1)
		if len(a) != 4 || a[0] != 1 || a[3] != 4 {
			t.Errorf("%v: community of 1 = %v, want [1 2 3 4]", algo, a)
		}
		b := findCommunity(t, p, 10)
		if len(b) != 4 || b[0] != 10 || b[3] != 13 {
			t.Errorf("%v: community of 10 = %v, want [10 11 12 13]", algo, b)
		}
		if p.Comm[1] == p.Comm[10] {
			t.Errorf("%v: bridge edge merged the cliques", algo)
		}
		pair := findCommunity(t, p, 20)
		if len(pair) != 2 {
			t.Errorf("%v: community of 20 = %v, want [20 21]", algo, pair)
		}
		if p.ClusteredComponents != 2 || p.ReusedComponents != 0 {
			t.Errorf("%v: components clustered=%d reused=%d, want 2/0",
				algo, p.ClusteredComponents, p.ReusedComponents)
		}
	}
}

func TestPartitionCoversAllVertices(t *testing.T) {
	g := twoCliques()
	p := Detect(g, Config{})
	if got, want := len(p.Comm), g.NumVertices(); got != want {
		t.Fatalf("partition covers %d vertices, want %d", got, want)
	}
	seen := make(map[graph.VertexID]bool)
	for _, c := range p.Communities {
		for _, m := range c {
			if seen[m] {
				t.Fatalf("vertex %d appears in two communities", m)
			}
			seen[m] = true
		}
	}
}

func TestWarmReuseMatchesCold(t *testing.T) {
	g := twoCliques()
	prev := Detect(g, Config{})
	// Nothing dirty: everything reused, identical partition.
	warm := DetectWarm(g, Config{}, prev, nil)
	if !reflect.DeepEqual(warm.Communities, prev.Communities) {
		t.Fatal("warm partition with empty dirty set differs from cold")
	}
	if warm.ReusedComponents != 2 || warm.ClusteredComponents != 0 {
		t.Fatalf("reused=%d clustered=%d, want 2/0",
			warm.ReusedComponents, warm.ClusteredComponents)
	}
	// Dirty the pair: only its component re-clusters, result unchanged.
	warm2 := DetectWarm(g, Config{}, prev, map[graph.VertexID]bool{20: true})
	if !reflect.DeepEqual(warm2.Communities, prev.Communities) {
		t.Fatal("warm partition with dirty pair differs from cold")
	}
	if warm2.ReusedComponents != 1 || warm2.ClusteredComponents != 1 {
		t.Fatalf("reused=%d clustered=%d, want 1/1",
			warm2.ReusedComponents, warm2.ClusteredComponents)
	}
	// A prev under different knobs must be ignored wholesale.
	warm3 := DetectWarm(g, Config{Resolution: 0.5}, prev, nil)
	if warm3.ReusedComponents != 0 {
		t.Fatalf("reused %d components across a resolution change", warm3.ReusedComponents)
	}
}

func TestScoreCommunities(t *testing.T) {
	g := twoCliques()
	p := Detect(g, Config{})
	scores := ScoreCommunities(p, g, nil, nil, 2)
	if len(scores) != 3 {
		t.Fatalf("got %d scored communities, want 3", len(scores))
	}
	// The heavy pair: w=50, P'=60 each → C = 2*50/(1*120) = 5/6.
	var pair *CommunityScore
	for i := range scores {
		if scores[i].Size == 2 {
			pair = &scores[i]
		}
	}
	if pair == nil {
		t.Fatal("pair community missing from scores")
	}
	if got, want := pair.C, 2.0*50/120; got != want {
		t.Errorf("pair C = %v, want %v", got, want)
	}
	if got, want := pair.InternalWeight, uint64(50); got != want {
		t.Errorf("pair internal weight = %d, want %d", got, want)
	}
	// Clique A: internal weight 6*10=60, density 60/6=10,
	// C = 2*60/(3*48) = 120/144.
	cl := scores[0]
	if cl.Size == 2 {
		cl = scores[1]
	}
	if got, want := cl.Density, 10.0; got != want {
		t.Errorf("clique density = %v, want %v", got, want)
	}
	if got, want := cl.C, 120.0/144.0; got != want {
		t.Errorf("clique C = %v, want %v", got, want)
	}
	// min-size filter
	if got := ScoreCommunities(p, g, nil, nil, 3); len(got) != 2 {
		t.Errorf("minSize=3 kept %d communities, want 2", len(got))
	}
}

func TestParseAlgorithm(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Algorithm
	}{{"leiden", Leiden}, {"", Leiden}, {"lp", LabelProp}, {"labelprop", LabelProp}} {
		got, err := ParseAlgorithm(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseAlgorithm(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseAlgorithm("louvain"); err == nil {
		t.Error("ParseAlgorithm(louvain) did not error")
	}
}
