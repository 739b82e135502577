package pipeline

import (
	"reflect"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/projection"
	"coordbot/internal/tripoll"
)

// resultsEqual compares the published outputs of two runs: the triangle
// census (with scores), the thresholded graph, the components element by
// element, the partition and the community scores.
func resultsEqual(t *testing.T, a, b *Result) {
	t.Helper()
	if len(a.Triangles) != len(b.Triangles) {
		t.Fatalf("triangle counts differ: %d vs %d", len(a.Triangles), len(b.Triangles))
	}
	for i := range a.Triangles {
		x, y := a.Triangles[i], b.Triangles[i]
		if x.Triangle != y.Triangle || x.T != y.T || x.Hyper.W != y.Hyper.W || x.Hyper.C != y.Hyper.C {
			t.Fatalf("triangle %d differs: %+v vs %+v", i, x, y)
		}
	}
	if !a.Thresholded.Equal(b.Thresholded) {
		t.Fatal("thresholded graphs differ")
	}
	if len(a.Components) != len(b.Components) {
		t.Fatalf("component counts differ: %d vs %d", len(a.Components), len(b.Components))
	}
	for i := range a.Components {
		if !reflect.DeepEqual(a.Components[i], b.Components[i]) {
			x, y := a.Components[i], b.Components[i]
			t.Fatalf("component %d differs: %d authors, %d edges vs %d, %d", i, len(x.Authors), len(x.Edges), len(y.Authors), len(y.Edges))
		}
	}
	if (a.Partition == nil) != (b.Partition == nil) {
		t.Fatalf("one run has a partition, the other not: %v vs %v", a.Partition != nil, b.Partition != nil)
	}
	if a.Partition != nil && !reflect.DeepEqual(a.Partition.Communities, b.Partition.Communities) {
		t.Fatalf("partitions differ: %d vs %d communities", len(a.Partition.Communities), len(b.Partition.Communities))
	}
	if !reflect.DeepEqual(a.Communities, b.Communities) {
		t.Fatalf("community scores differ:\n%+v\n%+v", a.Communities, b.Communities)
	}
}

// surveyWeightOnly enumerates ci's triangles with the weight thresholds of
// cfg but no T-score filter, sorted — the census RunOnTriangles expects.
func surveyWeightOnly(ci graph.CIView, cfg Config) []tripoll.Triangle {
	var tris []tripoll.Triangle
	tripoll.SurveySequential(ci, tripoll.Options{MinTriangleWeight: cfg.MinTriangleWeight},
		func(tr tripoll.Triangle) { tris = append(tris, tr) })
	tripoll.SortTriangles(tris)
	return tris
}

// TestRunOnTrianglesMatchesRunOnCI: feeding a weight-only census through
// RunOnTriangles reproduces RunOnCI exactly, with and without a T-score
// cut, a hypergraph cache, and a pre-thresholded component view.
func TestRunOnTrianglesMatchesRunOnCI(t *testing.T) {
	d := tinyDataset(t)
	b := d.BTM()
	for _, minT := range []float64{0, 0.3} {
		cfg := Config{
			Window:            projection.Window{Min: 0, Max: 60},
			MinTriangleWeight: 5,
			MinTScore:         minT,
			Exclude:           d.Helpers,
			Sequential:        true,
		}
		ci, err := projection.ProjectSequential(b, cfg.Window, projection.Options{Exclude: cfg.Exclude})
		if err != nil {
			t.Fatal(err)
		}
		want, err := RunOnCI(ci, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(want.Triangles) == 0 {
			t.Fatal("degenerate fixture: no triangles")
		}
		tris := surveyWeightOnly(ci, cfg)

		// Without a cache, with a cold cache, and with the now-warm cache.
		got, err := RunOnTriangles(ci, nil, tris, b, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, want, got)
		if got.HyperCacheHits != 0 {
			t.Fatalf("cache hits without a cache: %d", got.HyperCacheHits)
		}

		cache := make(map[hypergraph.Triplet]hypergraph.Score)
		cold, err := RunOnTriangles(ci, nil, tris, b, cfg, cache)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, want, cold)
		if cold.HyperCacheHits != 0 {
			t.Fatalf("cold cache reported %d hits", cold.HyperCacheHits)
		}
		warm, err := RunOnTriangles(ci, ci.ThresholdView(5), tris, b, cfg, cache)
		if err != nil {
			t.Fatal(err)
		}
		resultsEqual(t, want, warm)
		if warm.HyperCacheHits != len(want.Triangles) {
			t.Fatalf("warm cache hit %d of %d validations", warm.HyperCacheHits, len(want.Triangles))
		}
	}
}

// TestRunOnTrianglesNilInputs pins the degenerate contracts.
func TestRunOnTrianglesNilInputs(t *testing.T) {
	if _, err := RunOnTriangles(nil, nil, nil, nil, Config{}, nil); err == nil {
		t.Fatal("nil CI accepted")
	}
	ci := graph.NewCIGraph()
	ci.AddEdgeWeight(1, 2, 3)
	res, err := RunOnTriangles(ci, nil, nil, nil, Config{MinTriangleWeight: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Triangles) != 0 || !res.Config.SkipHypergraph {
		t.Fatalf("nil BTM should skip hypergraph on an empty census: %+v", res)
	}
	if res.Thresholded == nil || len(res.Components) != 1 {
		t.Fatalf("component census missing: %+v", res.Components)
	}
}

// TestRunShardedMatchesDefault: Config.Sharded has no effect — with it or
// without it Step 1 lands in the sharded store and the pipeline output is
// the same (sequential ≡ sharded is TestSequentialMatchesParallel).
func TestRunShardedMatchesDefault(t *testing.T) {
	d := tinyDataset(t)
	b := d.BTM()
	cfg := Config{
		Window:            projection.Window{Min: 0, Max: 60},
		MinTriangleWeight: 5,
		Exclude:           d.Helpers,
	}
	want, err := Run(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgSh := cfg
	cfgSh.Sharded = true
	got, err := Run(b, cfgSh)
	if err != nil {
		t.Fatal(err)
	}
	if !want.CI.Equal(got.CI) {
		t.Fatal("sharded projection differs from default")
	}
	for _, res := range []*Result{want, got} {
		if _, ok := res.CI.(*graph.CISnapshot); !ok {
			t.Fatalf("Sharded=%v run did not use the sharded store: %T", res.Config.Sharded, res.CI)
		}
	}
	resultsEqual(t, want, got)
}
