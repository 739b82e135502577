package ygmnet

import (
	"math/rand"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/redditgen"
)

func randomTriplets(rng *rand.Rand, nAuthors, n int) []hypergraph.Triplet {
	var out []hypergraph.Triplet
	for len(out) < n {
		a := graph.VertexID(rng.Intn(nAuthors))
		b := graph.VertexID(rng.Intn(nAuthors))
		c := graph.VertexID(rng.Intn(nAuthors))
		if a == b || b == c || a == c {
			continue
		}
		out = append(out, hypergraph.NewTriplet(a, b, c))
	}
	return out
}

func TestDistributedHypergraphMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	b := randomBTM(71, 3000, 80, 50)
	triplets := randomTriplets(rng, 80, 150)

	want := make([]hypergraph.Score, len(triplets))
	for i, tr := range triplets {
		want[i] = hypergraph.Evaluate(b, tr)
	}
	hypergraph.SortScores(want)

	for _, ranks := range []int{1, 4} {
		hc, err := NewHypergraphCluster(ranks)
		if err != nil {
			t.Fatal(err)
		}
		hc.Build(b)
		got := hc.EvaluateAll(triplets)
		if len(got) != len(want) {
			t.Fatalf("ranks %d: %d scores, want %d", ranks, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ranks %d: score %d = %+v, want %+v", ranks, i, got[i], want[i])
			}
		}
		hc.Close()
	}
}

func TestDistributedHypergraphPartitioning(t *testing.T) {
	// Every author's list lives on exactly its owner rank.
	b := randomBTM(13, 1000, 40, 25)
	hc, err := NewHypergraphCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	hc.Build(b)
	for r := range hc.shards {
		s := &hc.shards[r]
		s.mu.Lock()
		for a, pages := range s.pages {
			if hc.owner(a) != r {
				s.mu.Unlock()
				t.Fatalf("author %d stored on rank %d, owner %d", a, r, hc.owner(a))
			}
			// Lists must equal the BTM's (sorted, deduped).
			ref := b.AuthorPages(a)
			if len(pages) != len(ref) {
				s.mu.Unlock()
				t.Fatalf("author %d: %d pages stored, want %d", a, len(pages), len(ref))
			}
			for i := range ref {
				if pages[i] != ref[i] {
					s.mu.Unlock()
					t.Fatalf("author %d page list differs at %d", a, i)
				}
			}
		}
		s.mu.Unlock()
	}
}

func TestDistributedHypergraphReuseAndReset(t *testing.T) {
	d := redditgen.Generate(redditgen.Tiny(61))
	b := d.BTM()
	hc, err := NewHypergraphCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	hc.Build(b)
	ring := d.Truth["ring"]
	tr := hypergraph.NewTriplet(ring[0], ring[1], ring[2])
	got := hc.EvaluateAll([]hypergraph.Triplet{tr})
	want := hypergraph.Evaluate(b, tr)
	if len(got) != 1 || got[0] != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	// Second evaluation against the same index.
	got2 := hc.EvaluateAll([]hypergraph.Triplet{tr})
	if len(got2) != 1 || got2[0] != want {
		t.Fatal("reused evaluation differs")
	}
}

func TestDistributedHypergraphEmptyTriplets(t *testing.T) {
	hc, err := NewHypergraphCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	hc.Build(randomBTM(5, 100, 10, 5))
	if out := hc.EvaluateAll(nil); len(out) != 0 {
		t.Fatalf("empty triplets yielded %d scores", len(out))
	}
}
