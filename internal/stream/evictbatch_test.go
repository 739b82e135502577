package stream

import (
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
)

// TestEvictionWaveBatchesShardWrites pins the shard-aware eviction
// batching: one eviction wave decrements many pairs but takes each store
// shard's lock at most once, so the graph version — one bump per shard
// write — advances by at most NumShards per wave, not per evicted pair;
// and AddBatch, whatever the batch size, applies ONE wave per call.
func TestEvictionWaveBatchesShardWrites(t *testing.T) {
	const shards = 4
	w := projection.Window{Min: 0, Max: 60}
	sigs := []SignalConfig{{Signal: projection.CoComment{W: w}}}
	p, err := NewMultiSlidingProjectorWorkers(sigs, 100, projection.Options{}, shards, 1)
	if err != nil {
		t.Fatal(err)
	}
	// One page, many authors commenting within the window at t≈0: a dense
	// burst whose pairs all expire together.
	const burst = 24
	for a := 0; a < burst; a++ {
		if err := p.Add(graph.Comment{Author: graph.VertexID(a), Page: 0, TS: int64(a)}); err != nil {
			t.Fatal(err)
		}
	}
	if p.LivePairs() == 0 {
		t.Fatal("burst projected no pairs")
	}
	pairs := p.LivePairs()

	// Advance far past the horizon: the whole burst evicts in one wave.
	before := p.GraphVersion()
	if err := p.Add(graph.Comment{Author: 1000, Page: 5, TS: 5000}); err != nil {
		t.Fatal(err)
	}
	if p.EvictedPairs() < pairs {
		t.Fatalf("expected %d evictions, got %d", pairs, p.EvictedPairs())
	}
	bumps := p.GraphVersion() - before
	// The wave may also write the new comment's own shard state; allow one
	// extra write beyond the shard count.
	if bumps > shards+1 {
		t.Fatalf("eviction wave wrote %d shard versions for %d pairs over %d shards — not batched",
			bumps, pairs, shards)
	}
	// And the evictions actually landed: the burst's weights are gone.
	if got := p.Snapshot().Weight(0, 1); got != 0 {
		t.Fatalf("evicted pair still weighted %d", got)
	}
	if got := p.Snapshot().PageCount(2); got != 0 {
		t.Fatalf("evicted author still has page count %d", got)
	}

	// One AddBatch is ONE wave: eight bursts expiring five seconds apart,
	// then lone comments (no pairs, so no store increments) stepping the
	// watermark through every expiry. Each shard the evictions touch
	// advances exactly once, for a short batch and a longer one.
	for _, tc := range []struct {
		name string
		len  int
	}{
		{"batch-50", 50},
		{"batch-128", 128},
	} {
		p, err := NewMultiSlidingProjectorWorkers(sigs, 100, projection.Options{}, shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		const base = 10_000
		for b := 0; b < 8; b++ {
			for a := 0; a < 6; a++ {
				c := graph.Comment{Author: graph.VertexID(10*b + a), Page: graph.VertexID(b), TS: base + int64(5*b)}
				if err := p.Add(c); err != nil {
					t.Fatal(err)
				}
			}
		}
		if p.LivePairs() != 8*15 {
			t.Fatalf("%s: bursts projected %d pairs, want %d", tc.name, p.LivePairs(), 8*15)
		}
		lone := make([]graph.Comment, tc.len)
		for i := range lone {
			lone[i] = graph.Comment{Author: graph.VertexID(2000 + i), Page: graph.VertexID(2000 + i), TS: base + 100 + int64(i)}
		}
		versions := p.Snapshot().ShardVersions()
		if err := p.AddBatch(lone); err != nil {
			t.Fatal(err)
		}
		if p.LivePairs() != 0 || p.NumEdges() != 0 {
			t.Fatalf("%s: %d pairs, %d edges left after the batch", tc.name, p.LivePairs(), p.NumEdges())
		}
		touched := 0
		for s, v := range p.Snapshot().ShardVersions() {
			switch v - versions[s] {
			case 0:
			case 1:
				touched++
			default:
				t.Fatalf("%s: shard %d advanced %d versions over one batch, want 1", tc.name, s, v-versions[s])
			}
		}
		if touched == 0 {
			t.Fatalf("%s: no shard advanced", tc.name)
		}
	}
}
