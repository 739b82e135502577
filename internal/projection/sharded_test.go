package projection

import (
	"math/rand"
	"testing"
)

// TestShardedMatchesSequential: the owner-computes sharded projection is
// exactly the batch reference — same edges, weights, and P' — across
// window shapes and rank counts.
func TestShardedMatchesSequential(t *testing.T) {
	b := randomBTM(rand.New(rand.NewSource(7)), 2000, 150, 80)
	for _, w := range []Window{{0, 60}, {0, 600}, {30, 90}} {
		seq, err := ProjectSequential(b, w, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ranks := range []int{1, 3, 8} {
			sh, err := projectSharded(b, w, Options{}, ranks)
			if err != nil {
				t.Fatal(err)
			}
			if !seq.Equal(sh) {
				t.Fatalf("window %v ranks %d: sharded != sequential (%d vs %d edges)",
					w, ranks, sh.NumEdges(), seq.NumEdges())
			}
			if !seq.Equal(sh.Snapshot()) {
				t.Fatalf("window %v ranks %d: sharded snapshot != sequential", w, ranks)
			}
		}
	}
}

// TestShardedRejectsInvalidWindow mirrors the other entry points.
func TestShardedRejectsInvalidWindow(t *testing.T) {
	b := randomBTM(rand.New(rand.NewSource(7)), 50, 10, 5)
	if _, err := ProjectSharded(b, Window{3, 2}, Options{}); err == nil {
		t.Error("ProjectSharded accepted invalid window")
	}
}
