// Tests for the incremental delta-survey path: across randomized ingest
// and eviction, every published cycle must equal the full batch survey of
// the exact snapshot it saw — byte-identical triangle censuses, scores,
// and components — while actually exercising the cache (delta cycles,
// carried-over triangles, memoized validations).
package detectd

import (
	"math/rand"
	"sync"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/pipeline"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
)

func deltaConfig() Config {
	return Config{
		Window:             projection.Window{Min: 0, Max: 60},
		Horizon:            12 * 3600,
		MinTriangleWeight:  2,
		MinTScore:          0.02,
		ValidateHypergraph: true,
		ClampLate:          true,
		Shards:             32,
	}
}

// surveyOracle reruns the full batch survey on the exact inputs a
// published cycle saw (its frozen snapshot and windowed BTM), through the
// single-threaded reference implementations.
func surveyOracle(t *testing.T, cfg Config, sr *SurveyResult) *pipeline.Result {
	t.Helper()
	want, err := pipeline.RunOnCI(sr.snap, sr.btm, pipeline.Config{
		Window:            cfg.Window,
		MinTriangleWeight: cfg.MinTriangleWeight,
		MinTScore:         cfg.MinTScore,
		Sequential:        true,
		SkipHypergraph:    !cfg.ValidateHypergraph,
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func surveysEqual(t *testing.T, cycle int64, got, want *pipeline.Result) {
	t.Helper()
	if len(got.Triangles) != len(want.Triangles) {
		t.Fatalf("cycle %d: %d triangles, oracle %d", cycle, len(got.Triangles), len(want.Triangles))
	}
	for i := range want.Triangles {
		g, w := got.Triangles[i], want.Triangles[i]
		if g.Triangle != w.Triangle || g.T != w.T || g.Hyper.W != w.Hyper.W || g.Hyper.C != w.Hyper.C {
			t.Fatalf("cycle %d triangle %d: got %+v, oracle %+v", cycle, i, g, w)
		}
	}
	if !got.Thresholded.Equal(want.Thresholded) {
		t.Fatalf("cycle %d: thresholded graph differs from oracle", cycle)
	}
	if len(got.Components) != len(want.Components) {
		t.Fatalf("cycle %d: %d components, oracle %d", cycle, len(got.Components), len(want.Components))
	}
}

// TestDeltaSurveyMatchesFullOracle is the tentpole property: drive the
// daemon with randomized batch sizes over a stream long enough to churn
// the sliding window (ingest + eviction dirt), survey after every batch,
// and require each published result to be byte-identical to a full
// re-survey of its own snapshot. The cache must also demonstrably work:
// all cycles after the first run the delta path, triangles carry over,
// and hypergraph validations hit the memo.
func TestDeltaSurveyMatchesFullOracle(t *testing.T) {
	ds := redditgen.Generate(redditgen.Config{
		Seed:  31,
		Start: 0,
		End:   2 * 24 * 3600,
		Organic: redditgen.OrganicConfig{
			Authors: 80, Pages: 40, Comments: 2500, PageHalfLife: 2 * 3600,
		},
		Botnets: []redditgen.BotnetSpec{{
			Kind: redditgen.SockpuppetChain, Name: "pups",
			Bots: 3, Pages: 30, SubsetSize: 3,
			MinDelay: 5, MaxDelay: 25,
		}},
	})
	cfg := deltaConfig()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var surveyed int
	for lo := 0; lo < len(ds.Comments); {
		hi := lo + rng.Intn(200) + 1
		if hi > len(ds.Comments) {
			hi = len(ds.Comments)
		}
		s.Apply(ds.Comments[lo:hi])
		lo = hi
		sr, err := s.SurveyNow()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Reused {
			continue
		}
		surveyed++
		if surveyed > 1 && !sr.Delta {
			t.Fatalf("cycle %d fell back to a full resurvey", sr.Cycle)
		}
		if sr.Delta && sr.DirtyShards > s.proj.NumShards() {
			t.Fatalf("cycle %d: %d dirty shards of %d", sr.Cycle, sr.DirtyShards, s.proj.NumShards())
		}
		surveysEqual(t, sr.Cycle, sr.Result, surveyOracle(t, cfg, sr))
	}
	if surveyed < 10 {
		t.Fatalf("stream too short: only %d live cycles", surveyed)
	}
	last := s.Latest()
	tot := last.totals
	if tot.delta == 0 || tot.full != 1 {
		t.Fatalf("path split wrong: %d delta, %d full", tot.delta, tot.full)
	}
	if tot.trianglesCached == 0 {
		t.Fatal("no triangles ever carried over — cache inert")
	}
	if tot.hyperCacheHits == 0 {
		t.Fatal("no hypergraph validations served from the memo")
	}
	if last.OrientPatchedEdges == 0 {
		t.Fatal("delta cycles never patched the persistent orientation")
	}
}

// TestDeltaSurveyConcurrentCycles exercises the survey cache under -race:
// two goroutines call SurveyNow concurrently (serialized on surveyMu)
// while a writer ingests and a reader polls score state, then a final
// quiescent cycle must still match the full oracle.
func TestDeltaSurveyConcurrentCycles(t *testing.T) {
	ds := snapshotDataset()
	cfg := deltaConfig()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := s.SurveyNow(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ids := []graph.VertexID{0, 1, 2, 3}
		for {
			select {
			case <-stop:
				return
			default:
			}
			_, _ = s.PairScore(ids)
		}
	}()
	const batch = 100
	for lo := 0; lo < len(ds.Comments); lo += batch {
		hi := lo + batch
		if hi > len(ds.Comments) {
			hi = len(ds.Comments)
		}
		s.Apply(ds.Comments[lo:hi])
	}
	close(stop)
	wg.Wait()

	sr, err := s.SurveyNow()
	if err != nil {
		t.Fatal(err)
	}
	surveysEqual(t, sr.Cycle, sr.Result, surveyOracle(t, cfg, sr))
}
