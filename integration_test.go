package coordbot_test

// Repo-level integration tests: full end-to-end scenarios across package
// boundaries, exercising the README's documented workflows exactly as a
// downstream user would run them.

import (
	"path/filepath"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/pipeline"
	"coordbot/internal/projection"
	"coordbot/internal/pushshift"
	"coordbot/internal/redditgen"
	"coordbot/internal/temporal"
)

// TestREADMEQuickstart runs the exact code path the README shows.
func TestREADMEQuickstart(t *testing.T) {
	dataset := redditgen.Generate(redditgen.Tiny(42))
	res, err := pipeline.Run(dataset.BTM(), pipeline.Config{
		Window:            projection.Window{Min: 0, Max: 60},
		MinTriangleWeight: 20,
		MinTScore:         0.5,
		Exclude:           dataset.Helpers,
	})
	if err != nil {
		t.Fatal(err)
	}
	metrics := pipeline.Evaluate(res.FlaggedAuthors(), dataset.AllBots())
	if metrics.Precision != 1 || metrics.Recall < 0.8 {
		t.Fatalf("quickstart detection degraded: %s", metrics)
	}
}

// TestArchiveRoundTripPipeline writes a dataset in Pushshift format, reads
// it back through the ingestion path, and verifies detection survives the
// round trip identically (names re-interned in a different order).
func TestArchiveRoundTripPipeline(t *testing.T) {
	dataset := redditgen.Generate(redditgen.Tiny(42))
	pages := pushshift.SyntheticPageNames(dataset.NumPages)
	path := filepath.Join(t.TempDir(), "month.ndjson.gz")
	if err := pushshift.WriteFile(path, dataset.Comments, dataset.Authors, pages); err != nil {
		t.Fatal(err)
	}
	corpus, err := pushshift.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if corpus.Skipped != 0 || len(corpus.Comments) != len(dataset.Comments) {
		t.Fatalf("round trip lost records: %d vs %d (skipped %d)",
			len(corpus.Comments), len(dataset.Comments), corpus.Skipped)
	}
	ex := make(map[graph.VertexID]bool)
	for _, name := range []string{"AutoModerator", "[deleted]"} {
		if id, ok := corpus.Authors.Lookup(name); ok {
			ex[id] = true
		}
	}
	res, err := pipeline.Run(corpus.BTM(), pipeline.Config{
		Window:            projection.Window{Min: 0, Max: 60},
		MinTriangleWeight: 20,
		MinTScore:         0.5,
		Exclude:           ex,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Map ground truth through names into the corpus's ID space.
	truth := make(map[graph.VertexID]bool)
	for _, ids := range dataset.Truth {
		for _, id := range ids {
			if cid, ok := corpus.Authors.Lookup(dataset.Authors.Name(id)); ok {
				truth[cid] = true
			}
		}
	}
	m := pipeline.Evaluate(res.FlaggedAuthors(), truth)
	if m.Precision != 1 || m.Recall < 0.8 {
		t.Fatalf("post-round-trip detection degraded: %s", m)
	}
}

// TestStreamingMatchesPipelineProjection threads the generator's stream
// through the online projector and verifies the downstream survey sees the
// identical graph.
func TestStreamingMatchesPipelineProjection(t *testing.T) {
	dataset := redditgen.Generate(redditgen.Tiny(9))
	w := projection.Window{Min: 0, Max: 60}
	opts := projection.Options{Exclude: dataset.Helpers}
	streamed, err := streamProject(dataset.Comments, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := projection.ProjectSequential(dataset.BTM(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !streamed.Equal(batch) {
		t.Fatal("streamed projection differs from batch on generated data")
	}
}

// TestFullWorkflowWithGroupsAndClassification chains every analysis layer:
// pipeline → group expansion → behaviour classification → windowed
// hyperedge validation.
func TestFullWorkflowWithGroupsAndClassification(t *testing.T) {
	dataset := redditgen.Generate(redditgen.Tiny(42))
	btm := dataset.BTM()
	res, err := pipeline.Run(btm, pipeline.Config{
		Window:            projection.Window{Min: 0, Max: 60},
		MinTriangleWeight: 20,
		MinTScore:         0.5,
		Exclude:           dataset.Helpers,
	})
	if err != nil {
		t.Fatal(err)
	}
	groups := res.ExpandGroups(btm)
	if len(groups) == 0 {
		t.Fatal("no groups")
	}
	cls := temporal.DefaultClassifier()
	sawBurst := false
	for _, g := range groups {
		if len(g.Group) < 3 {
			continue
		}
		p := temporal.ProfileGroup(btm, g.Group)
		if cls.Classify(p) == temporal.Burst {
			sawBurst = true
		}
		// Windowed bound holds for every triangle inside the group.
		for _, tr := range res.Triangles {
			trip := hypergraph.Triplet{X: tr.X, Y: tr.Y, Z: tr.Z}
			if hypergraph.WindowedTripletWeight(btm, trip, 60) > int(tr.MinWeight()) {
				t.Fatalf("windowed bound violated for %+v", trip)
			}
		}
	}
	if !sawBurst {
		t.Fatal("no detected group classified as burst (ring expected)")
	}
}
