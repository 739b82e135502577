package pipeline

import (
	"fmt"
	"math"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
)

func tinyDataset(t *testing.T) *redditgen.Dataset {
	t.Helper()
	return redditgen.Generate(redditgen.Tiny(42))
}

func TestRunEndToEnd(t *testing.T) {
	d := tinyDataset(t)
	res, err := Run(d.BTM(), Config{
		Window:            projection.Window{Min: 0, Max: 60},
		MinTriangleWeight: 10,
		Exclude:           d.Helpers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CI.NumEdges() == 0 {
		t.Fatal("empty projection")
	}
	if len(res.Triangles) == 0 {
		t.Fatal("no triangles survived — planted rings should")
	}
	for _, tr := range res.Triangles {
		if tr.MinWeight() < 10 {
			t.Fatalf("triangle below cutoff: %+v", tr)
		}
		if tr.T < 0 || tr.T > 1 {
			t.Fatalf("T out of range: %f", tr.T)
		}
		if tr.Hyper.C < 0 || tr.Hyper.C > 1 {
			t.Fatalf("C out of range: %f", tr.Hyper.C)
		}
		// The hypergraph record must be for the same triplet.
		if tr.Hyper.Triplet.X != tr.X || tr.Hyper.Triplet.Y != tr.Y || tr.Hyper.Triplet.Z != tr.Z {
			t.Fatalf("zip mismatch: %+v vs %+v", tr.Triangle, tr.Hyper.Triplet)
		}
	}
	if len(res.Components) == 0 {
		t.Fatal("no components in thresholded graph")
	}
	if res.Timings.Project <= 0 || res.Timings.Survey < 0 {
		t.Fatal("timings not recorded")
	}
}

// TestSequentialMatchesParallel holds Run's engine path (a cold Survey of
// the sharded snapshot) to the reference across the options that change
// what Steps 2–3 publish: the T-score cut, the community stage and Step 3.
func TestSequentialMatchesParallel(t *testing.T) {
	d := tinyDataset(t)
	b := d.BTM()
	for _, minT := range []float64{0, 0.3} {
		for _, comms := range []bool{false, true} {
			for _, skip := range []bool{false, true} {
				t.Run(fmt.Sprintf("tscore=%v/communities=%v/skiphyper=%v", minT, comms, skip), func(t *testing.T) {
					cfg := Config{
						Window:            projection.Window{Min: 0, Max: 60},
						MinTriangleWeight: 5,
						MinTScore:         minT,
						Exclude:           d.Helpers,
						SkipHypergraph:    skip,
						Communities:       comms,
					}
					par, err := Run(b, cfg)
					if err != nil {
						t.Fatal(err)
					}
					cfg.Sequential = true
					seq, err := Run(b, cfg)
					if err != nil {
						t.Fatal(err)
					}
					if !par.CI.Equal(seq.CI) {
						t.Fatal("CI graphs differ")
					}
					if len(seq.Triangles) == 0 || (comms && len(seq.Communities) == 0) {
						t.Fatalf("reference found %d triangles, %d communities: nothing to compare", len(seq.Triangles), len(seq.Communities))
					}
					resultsEqual(t, par, seq)
				})
			}
		}
	}
}

func TestPlantedRingRecovered(t *testing.T) {
	// Weight cutoff alone admits hyper-active organic users (the paper's
	// false-positive mode); adding the normalized T score eliminates
	// them — the paper's motivation for equation 7.
	d := tinyDataset(t)
	truth := d.AllBots()

	weightOnly, err := Run(d.BTM(), Config{
		Window:            projection.Window{Min: 0, Max: 60},
		MinTriangleWeight: 20,
		Exclude:           d.Helpers,
	})
	if err != nil {
		t.Fatal(err)
	}
	mw := Evaluate(weightOnly.FlaggedAuthors(), truth)
	if mw.Recall < 0.8 {
		t.Fatalf("weight-only recall %.3f too low: %v", mw.Recall, mw)
	}

	normalized, err := Run(d.BTM(), Config{
		Window:            projection.Window{Min: 0, Max: 60},
		MinTriangleWeight: 20,
		MinTScore:         0.5,
		Exclude:           d.Helpers,
	})
	if err != nil {
		t.Fatal(err)
	}
	mn := Evaluate(normalized.FlaggedAuthors(), truth)
	if mn.Precision != 1 {
		t.Fatalf("normalized precision %.3f, want 1: %v", mn.Precision, mn)
	}
	if mn.TP < 9 {
		t.Fatalf("recovered only %d bots: %v", mn.TP, mn)
	}
	if mn.FP >= mw.FP && mw.FP > 0 {
		t.Fatalf("T score did not reduce false positives: %d vs %d", mn.FP, mw.FP)
	}
}

func TestExclusionAblation(t *testing.T) {
	// Without exclusions, AutoModerator pollutes the projection with
	// spurious co-occurrence (it comments first on every page).
	d := tinyDataset(t)
	b := d.BTM()
	with, err := Run(b, Config{
		Window: projection.Window{Min: 0, Max: 60}, MinTriangleWeight: 5,
		Exclude: d.Helpers,
	})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Run(b, Config{
		Window: projection.Window{Min: 0, Max: 60}, MinTriangleWeight: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	am, _ := d.Authors.Lookup("AutoModerator")
	if with.CI.PageCount(am) != 0 {
		t.Fatal("excluded AutoModerator still projected")
	}
	if without.CI.NumEdges() <= with.CI.NumEdges() {
		t.Fatal("exclusion did not shrink the projection")
	}
}

func TestSkipHypergraph(t *testing.T) {
	d := tinyDataset(t)
	res, err := Run(d.BTM(), Config{
		Window: projection.Window{Min: 0, Max: 60}, MinTriangleWeight: 10,
		Exclude: d.Helpers, SkipHypergraph: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Triangles {
		if tr.Hyper.W != 0 || tr.Hyper.C != 0 {
			t.Fatal("hypergraph computed despite skip")
		}
	}
}

func TestMetricSeriesShape(t *testing.T) {
	d := tinyDataset(t)
	res, err := Run(d.BTM(), Config{
		Window: projection.Window{Min: 0, Max: 60}, MinTriangleWeight: 10,
		Exclude: d.Helpers,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts, cs, minW, hyperW := res.MetricSeries()
	n := len(res.Triangles)
	if len(ts) != n || len(cs) != n || len(minW) != n || len(hyperW) != n {
		t.Fatal("series lengths wrong")
	}
	for i := range ts {
		if math.IsNaN(ts[i]) || math.IsNaN(cs[i]) {
			t.Fatal("NaN in series")
		}
		if minW[i] < 10 {
			t.Fatal("minW below cutoff")
		}
	}
}

func TestRunRejectsBadWindow(t *testing.T) {
	if _, err := Run(graph.BuildBTM(nil, 1, 1), Config{
		Window: projection.Window{Min: 5, Max: 5},
	}); err == nil {
		t.Fatal("bad window accepted")
	}
}

func TestEvaluateMetrics(t *testing.T) {
	flagged := map[graph.VertexID]bool{1: true, 2: true, 3: true}
	truth := map[graph.VertexID]bool{2: true, 3: true, 4: true}
	m := Evaluate(flagged, truth)
	if m.TP != 2 || m.FP != 1 || m.FN != 1 {
		t.Fatalf("counts = %+v", m)
	}
	if math.Abs(m.Precision-2.0/3.0) > 1e-12 || math.Abs(m.Recall-2.0/3.0) > 1e-12 {
		t.Fatalf("P/R = %+v", m)
	}
	if m.String() == "" {
		t.Fatal("empty String")
	}
	zero := Evaluate(nil, nil)
	if zero.Precision != 0 || zero.F1 != 0 {
		t.Fatalf("zero metrics = %+v", zero)
	}
}

func TestThresholdedComponentsMatchCut(t *testing.T) {
	d := tinyDataset(t)
	res, err := Run(d.BTM(), Config{
		Window: projection.Window{Min: 0, Max: 60}, MinTriangleWeight: 15,
		Exclude: d.Helpers,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Components {
		if c.MinWeight() < 15 {
			t.Fatalf("component has edge below cutoff: %+v", c)
		}
	}
}
