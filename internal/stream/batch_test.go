// Property tests for batch ingest: a projector consuming batches through
// AddBatch must be state-identical, at every batch boundary, to the
// per-comment Add reference consuming the same comments — graph,
// per-signal attribution, gauges, and object-state GC alike.
package stream

import (
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
)

func batchTestSignals() []SignalConfig {
	return []SignalConfig{
		{Signal: projection.CoComment{W: projection.Window{Min: 0, Max: 60}}},
		{Signal: projection.URLShare{W: projection.Window{Min: 0, Max: 300}}, Horizon: 2 * 3600},
		{Signal: projection.ReplyTarget{W: projection.Window{Min: 0, Max: 120}}},
	}
}

// batchesOf slices comments into varying-size batches, from a few
// comments to over a thousand.
func batchesOf(comments []graph.Comment) [][]graph.Comment {
	sizes := []int{63, 512, 64, 3, 1024, 257}
	var out [][]graph.Comment
	for i, s := 0, 0; i < len(comments); s++ {
		n := sizes[s%len(sizes)]
		if i+n > len(comments) {
			n = len(comments) - i
		}
		out = append(out, comments[i:i+n])
		i += n
	}
	return out
}

func TestAddBatchMatchesPerComment(t *testing.T) {
	ds := redditgen.Generate(redditgen.MultiSignalCampaign(0.05))
	sigs := batchTestSignals()
	const horizon = 6 * 3600
	opts := projection.Options{Exclude: ds.Helpers}

	got, err := NewMultiSlidingProjectorWorkers(sigs, horizon, opts, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// ref takes the stream one comment at a time: the per-comment drain
	// the batch path must agree with at every batch boundary.
	ref, err := NewMultiSlidingProjectorWorkers(sigs, horizon, opts, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	for bi, batch := range batchesOf(ds.Comments) {
		if err := got.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
		for _, c := range batch {
			mustAdd(t, ref, c)
		}
		checkWindowState(t, got)
		compareGauges(t, bi, ref, got)
		if bi%7 == 0 {
			compareProjectors(t, bi, ref, got, sigs)
		}
	}
	compareProjectors(t, -1, ref, got, sigs)
	if got.EvictedPairs() == 0 {
		t.Fatal("stream never evicted — horizons not exercised")
	}

	// Idle decay must drain both projectors completely.
	for _, p := range []*SlidingProjector{ref, got} {
		if err := p.AdvanceTo(p.Watermark() + horizon + 1); err != nil {
			t.Fatal(err)
		}
		if p.NumEdges() != 0 || p.LivePairs() != 0 || p.numObjectStates() != 0 {
			t.Fatalf("after drain: %d edges, %d live pairs, %d object states",
				p.NumEdges(), p.LivePairs(), p.numObjectStates())
		}
	}
}

func compareProjectors(t *testing.T, bi int, ref, got *SlidingProjector, sigs []SignalConfig) {
	t.Helper()
	if ref.Count() != got.Count() || ref.Watermark() != got.Watermark() {
		t.Fatalf("batch %d: count/watermark diverged: reference (%d, %d), got (%d, %d)",
			bi, ref.Count(), ref.Watermark(), got.Count(), got.Watermark())
	}
	rs, gs := ref.Snapshot(), got.Snapshot()
	if !rs.Equal(gs) {
		t.Fatalf("batch %d: graph (%d edges) != reference graph (%d edges)",
			bi, gs.NumEdges(), rs.NumEdges())
	}
	rs.ForEachEdge(func(u, v graph.VertexID, w uint32) bool {
		pair := []graph.VertexID{u, v}
		rw, gw := rs.SignalMix(pair), gs.SignalMix(pair)
		for si := range sigs {
			if rw[si] != gw[si] {
				t.Fatalf("batch %d edge {%d,%d} signal %s: reference %d, got %d",
					bi, u, v, sigs[si].Signal.Name(), rw[si], gw[si])
			}
		}
		return true
	})
	compareGauges(t, bi, ref, got)
}

// TestAddBatchOutOfOrderStopsAtOffender: an out-of-order comment inside a
// batch must return an error AND leave the projector in exactly the state
// of the per-comment path fed the valid prefix.
func TestAddBatchOutOfOrderStopsAtOffender(t *testing.T) {
	ds := redditgen.Generate(redditgen.MultiSignalCampaign(0.05))
	sigs := batchTestSignals()
	n := 600
	batch := make([]graph.Comment, n)
	copy(batch, ds.Comments[:n])
	batch[400].TS = batch[399].TS - 10_000 // regress mid-batch

	got, err := NewMultiSlidingProjectorWorkers(sigs, 6*3600, projection.Options{}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.AddBatch(batch); err == nil {
		t.Fatal("out-of-order batch accepted")
	}
	ref, err := NewMultiSlidingProjectorWorkers(sigs, 6*3600, projection.Options{}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range batch[:400] {
		mustAdd(t, ref, c)
	}
	compareProjectors(t, 0, ref, got, sigs)

	// The projector remains usable: the stream may resume at the watermark.
	if err := got.Add(graph.Comment{Author: 1, Page: 2, TS: got.Watermark()}); err != nil {
		t.Fatalf("resume after out-of-order batch: %v", err)
	}
}
