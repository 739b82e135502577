// Property tests for the multi-signal sliding projector: at every point
// in the stream, each signal's contribution must equal the batch
// projection of exactly that signal's trailing-horizon comments, and the
// merged store must equal the sum of those per-signal projections —
// totals, page counts, and per-signal attribution alike.
package stream

import (
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
)

// multiSignalBatch builds the reference multi-signal graph at a
// watermark: every signal projected independently (batch reference) over
// the comments still inside that signal's horizon, merged. The per-signal
// projections are returned too: each one is its signal's reference share.
func multiSignalBatch(t *testing.T, comments []graph.Comment, sigs []SignalConfig, defHorizon, watermark int64, opts projection.Options) (*graph.CIGraph, []*graph.CIGraph) {
	t.Helper()
	want := graph.NewCIGraph()
	shares := make([]*graph.CIGraph, len(sigs))
	for si, sc := range sigs {
		h := sc.Horizon
		if h == 0 {
			h = defHorizon
		}
		var kept []graph.Comment
		for _, c := range comments {
			if c.TS > watermark-h {
				kept = append(kept, c)
			}
		}
		g, err := projection.ProjectSignals(kept, []projection.Signal{sc.Signal}, opts)
		if err != nil {
			t.Fatal(err)
		}
		want.Merge(g)
		shares[si] = g
	}
	return want, shares
}

// TestMultiSlidingMatchesPerSignalBatch is the multi-signal tentpole
// property: a projector fanning one stream out to three signals with
// DISTINCT horizons equals, at every checkpoint, the merge of the three
// independent batch projections over their respective trailing windows —
// and the live per-signal breakdown matches the reference attribution on
// every edge.
func TestMultiSlidingMatchesPerSignalBatch(t *testing.T) {
	ds := redditgen.Generate(redditgen.MultiSignalCampaign(0.05))
	const defHorizon = 12 * 3600
	sigs := []SignalConfig{
		{Signal: projection.CoComment{W: projection.Window{Min: 0, Max: 60}}},
		{Signal: projection.URLShare{W: projection.Window{Min: 0, Max: 300}}, Horizon: 6 * 3600},
		{Signal: projection.ReplyTarget{W: projection.Window{Min: 0, Max: 120}}, Horizon: 3 * 3600},
	}
	opts := projection.Options{Exclude: ds.Helpers}
	p, err := NewMultiSlidingProjectorWorkers(sigs, defHorizon, opts, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	step := len(ds.Comments) / 6
	for i, c := range ds.Comments {
		if err := p.Add(c); err != nil {
			t.Fatal(err)
		}
		if i%step != step-1 {
			continue
		}
		want, shares := multiSignalBatch(t, ds.Comments[:i+1], sigs, defHorizon, p.Watermark(), opts)
		got := p.Snapshot()
		if !got.Equal(want) {
			t.Fatalf("checkpoint %d (watermark %d): sliding merge (%d edges) != per-signal batch merge (%d edges)",
				i, p.Watermark(), got.NumEdges(), want.NumEdges())
		}
		want.ForEachEdge(func(u, v graph.VertexID, w uint32) bool {
			live := p.SignalWeights(u, v)
			var sum uint32
			for si := range sigs {
				if ref := shares[si].Weight(u, v); live[si] != ref {
					t.Fatalf("checkpoint %d edge {%d,%d} signal %s: live %d, reference %d",
						i, u, v, sigs[si].Signal.Name(), live[si], ref)
				}
				sum += live[si]
			}
			if sum != w {
				t.Fatalf("checkpoint %d edge {%d,%d}: shares sum to %d, total %d", i, u, v, sum, w)
			}
			return true
		})
	}

	// Per-signal gauges must show every signal actually carrying live
	// state (otherwise the equivalence above never tested the fan-out).
	for _, st := range p.SignalStats() {
		if st.LivePairs == 0 && st.EvictedPairs == 0 {
			t.Fatalf("signal %s never contributed a pair", st.Name)
		}
		if st.EvictedPairs == 0 {
			t.Fatalf("signal %s never evicted — horizons not exercised", st.Name)
		}
	}

	// Drain: advancing past the longest horizon decays everything, object
	// states included.
	if err := p.AdvanceTo(p.Watermark() + defHorizon + 1); err != nil {
		t.Fatal(err)
	}
	if p.NumEdges() != 0 || p.LivePairs() != 0 {
		t.Fatalf("after drain: %d edges, %d live pairs", p.NumEdges(), p.LivePairs())
	}
	if n := p.numObjectStates(); n != 0 {
		t.Fatalf("after drain: %d object states leaked", n)
	}
}
