// Property tests for shard-parallel batch ingest: a projector with
// workers >= 2 consuming batches through the lane dispatcher must be
// state-identical, at every batch boundary, to the serial reference path
// consuming the same batches — graph, per-signal attribution, gauges,
// and object-state GC alike.
package stream

import (
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
)

func parallelTestSignals() []SignalConfig {
	return []SignalConfig{
		{Signal: projection.CoComment{W: projection.Window{Min: 0, Max: 60}}},
		{Signal: projection.URLShare{W: projection.Window{Min: 0, Max: 300}}, Horizon: 2 * 3600},
		{Signal: projection.ReplyTarget{W: projection.Window{Min: 0, Max: 120}}},
	}
}

// batchesOf slices comments into varying-size batches: below, at, and
// well above the parallel-dispatch threshold.
func batchesOf(comments []graph.Comment) [][]graph.Comment {
	sizes := []int{minParallelBatch - 1, 512, minParallelBatch, 3, 1024, 257}
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

func TestAddBatchParallelMatchesSerial(t *testing.T) {
	ds := redditgen.Generate(redditgen.MultiSignalCampaign(0.05))
	sigs := parallelTestSignals()
	const horizon = 6 * 3600
	opts := projection.Options{Exclude: ds.Helpers}

	serial, err := NewMultiSlidingProjectorWorkers(sigs, horizon, opts, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewMultiSlidingProjectorWorkers(sigs, horizon, opts, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if par.workers != 4 || len(par.lanes) < 2 {
		t.Fatalf("parallel projector not parallel: workers=%d lanes=%d", par.workers, len(par.lanes))
	}

	// ref takes the stream one comment at a time: the per-comment drain
	// both batch paths must agree with at every batch boundary.
	ref, err := NewMultiSlidingProjectorWorkers(sigs, horizon, opts, 0, 1)
	if err != nil {
		t.Fatal(err)
	}

	for bi, batch := range batchesOf(ds.Comments) {
		if err := serial.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := par.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
		if err := ref.AddAll(batch); err != nil {
			t.Fatal(err)
		}
		checkWindowState(t, serial)
		checkWindowState(t, par)
		compareGauges(t, bi, ref, serial)
		compareGauges(t, bi, ref, par)
		if bi%7 != 0 {
			continue
		}
		compareProjectors(t, bi, ref, serial, sigs)
		compareProjectors(t, bi, serial, par, sigs)
	}
	compareProjectors(t, -1, serial, par, sigs)
	if par.EvictedPairs() == 0 {
		t.Fatal("stream never evicted — horizons not exercised")
	}

	// Idle decay must drain the parallel projector completely too.
	for _, p := range []*SlidingProjector{serial, par} {
		if err := p.AdvanceTo(p.Watermark() + horizon + 1); err != nil {
			t.Fatal(err)
		}
		if p.NumEdges() != 0 || p.LivePairs() != 0 || p.numObjectStates() != 0 {
			t.Fatalf("after drain: %d edges, %d live pairs, %d object states",
				p.NumEdges(), p.LivePairs(), p.numObjectStates())
		}
	}
}

func compareProjectors(t *testing.T, bi int, serial, par *SlidingProjector, sigs []SignalConfig) {
	t.Helper()
	if serial.Count() != par.Count() || serial.Watermark() != par.Watermark() {
		t.Fatalf("batch %d: count/watermark diverged: serial (%d, %d), parallel (%d, %d)",
			bi, serial.Count(), serial.Watermark(), par.Count(), par.Watermark())
	}
	ss, ps := serial.Snapshot(), par.Snapshot()
	if !ss.Equal(ps) {
		t.Fatalf("batch %d: parallel graph (%d edges) != serial graph (%d edges)",
			bi, ps.NumEdges(), ss.NumEdges())
	}
	ss.ForEachEdge(func(u, v graph.VertexID, w uint32) bool {
		sw, pw := serial.SignalWeights(u, v), par.SignalWeights(u, v)
		for si := range sigs {
			if sw[si] != pw[si] {
				t.Fatalf("batch %d edge {%d,%d} signal %s: serial %d, parallel %d",
					bi, u, v, sigs[si].Signal.Name(), sw[si], pw[si])
			}
		}
		return true
	})
	compareGauges(t, bi, serial, par)
}

// TestAddBatchOutOfOrderStopsAtOffender: an out-of-order comment inside a
// parallel batch must return an error AND leave the projector in exactly
// the state of the serial path fed the valid prefix.
func TestAddBatchOutOfOrderStopsAtOffender(t *testing.T) {
	ds := redditgen.Generate(redditgen.MultiSignalCampaign(0.05))
	sigs := parallelTestSignals()
	n := 600
	batch := make([]graph.Comment, n)
	copy(batch, ds.Comments[:n])
	batch[400].TS = batch[399].TS - 10_000 // regress mid-batch

	par, err := NewMultiSlidingProjectorWorkers(sigs, 6*3600, projection.Options{}, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := par.AddBatch(batch); err == nil {
		t.Fatal("out-of-order batch accepted")
	}
	serial, err := NewMultiSlidingProjectorWorkers(sigs, 6*3600, projection.Options{}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.AddAll(batch[:400]); err != nil {
		t.Fatal(err)
	}
	compareProjectors(t, 0, serial, par, sigs)

	// The projector remains usable: the stream may resume at the watermark.
	if err := par.Add(graph.Comment{Author: 1, Page: 2, TS: par.Watermark()}); err != nil {
		t.Fatalf("resume after out-of-order batch: %v", err)
	}
}
