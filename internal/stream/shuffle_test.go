package stream

import (
	"math/rand"
	"sort"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
)

// Equal timestamps arrive in arbitrary order in real archives; the
// projector's result must not depend on the order within a timestamp tie.
func TestStreamTieOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	base := make([]graph.Comment, 0, 600)
	// Coarse timestamps force many ties.
	for i := 0; i < 600; i++ {
		base = append(base, graph.Comment{
			Author: graph.VertexID(rng.Intn(15)),
			Page:   graph.VertexID(rng.Intn(6)),
			TS:     int64(rng.Intn(40) * 30),
		})
	}
	w := projection.Window{Min: 0, Max: 90}
	var first *graph.CIGraph
	for trial := 0; trial < 5; trial++ {
		cs := make([]graph.Comment, len(base))
		copy(cs, base)
		rng.Shuffle(len(cs), func(i, j int) { cs[i], cs[j] = cs[j], cs[i] })
		sort.SliceStable(cs, func(i, j int) bool { return cs[i].TS < cs[j].TS })
		g, err := project(cs, w, projection.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = g
			continue
		}
		if !first.Equal(g) {
			t.Fatalf("trial %d: tie order changed the projection", trial)
		}
	}
}
