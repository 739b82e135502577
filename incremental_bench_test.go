package coordbot_test

// Incremental-survey benchmark: the cost of one detection cycle after a
// small dirty batch (a handful of authors on one page — roughly 1% of the
// store's shards) on an 80k-user corpus. The delta path re-filters only
// dirtied shards and re-surveys only triangles touching dirty vertices;
// what a full pass costs instead is the daemon's first cycle, which
// coordbench's traced survey-churn run reports as tripoll.survey_full_ms
// beside tripoll.survey_dirty_ms_p50. Run with
//
//	go test -bench Incremental -benchmem

import (
	"runtime"
	"testing"

	"coordbot/internal/detectd"
	"coordbot/internal/graph"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
)

const (
	incrementalAuthors  = 80000
	incrementalComments = 400000
	incrementalSpan     = 14 * 24 * 3600
	incrementalShards   = 4096
	// Authors per dirty batch: 4 co-commenting authors touch at most
	// C(4,2) edge shards plus 4 page-count shards — under 1% of the
	// store's 4096 shards.
	incrementalBatchAuthors = 4
)

// incrementalCorpus is the paper's detection regime at benchmark scale:
// 80k organic authors whose repeat co-activity stays far below the weight
// cut, plus planted coordinated rings that survive it. The pruned graph
// is the small suspicious core; the raw CI graph is the whole corpus.
func incrementalCorpus() *redditgen.Dataset {
	return redditgen.Generate(redditgen.Config{
		Seed: 7, Start: 0, End: incrementalSpan,
		Organic: redditgen.OrganicConfig{
			Authors:      incrementalAuthors,
			Pages:        20000,
			Comments:     incrementalComments,
			PageHalfLife: 3 * 3600,
		},
		AutoModerator: true,
		Botnets: []redditgen.BotnetSpec{
			{Kind: redditgen.GPT2Ring, Name: "gpt2", Bots: 12, Pages: 300,
				SubsetSize: 6, MinDelay: 1, MaxDelay: 45},
			{Kind: redditgen.ReshareRing, Name: "reshare", Bots: 10, Pages: 200,
				SubsetSize: 6, MinDelay: 1, MaxDelay: 6},
		},
	})
}

func incrementalConfig() detectd.Config {
	return detectd.Config{
		Window:            projection.Window{Min: 0, Max: 60},
		MinTriangleWeight: 60,
		ClampLate:         true,
		Shards:            incrementalShards,
		// Horizon exceeds the corpus span plus benchmark drift: the whole
		// 80k-user graph stays live, as it would in steady state.
		Horizon: incrementalSpan + 2*24*3600,
	}
}

// incrementalService ingests the corpus and runs the warm-up cycle (the
// unavoidable first full survey), returning the service and the event
// time dirty batches should continue from.
func incrementalService(b *testing.B, d *redditgen.Dataset) (*detectd.Service, int64) {
	b.Helper()
	s, err := detectd.NewService(incrementalConfig())
	if err != nil {
		b.Fatal(err)
	}
	const size = 2048
	for lo := 0; lo < len(d.Comments); lo += size {
		hi := lo + size
		if hi > len(d.Comments) {
			hi = len(d.Comments)
		}
		s.Apply(d.Comments[lo:hi])
	}
	if _, err := s.SurveyNow(); err != nil {
		b.Fatal(err)
	}
	return s, d.Comments[len(d.Comments)-1].TS + 1
}

// dirtyBatch builds cycle i's perturbation: a few rotating authors
// co-commenting on a rotating page within the projection window. Authors
// rotate through the upper (light-activity) half of the ID space — the
// steady-state case where fresh traffic lands on ordinary accounts, not
// on the already-suspicious core.
func dirtyBatch(i int, ts int64) []graph.Comment {
	batch := make([]graph.Comment, incrementalBatchAuthors)
	for j := range batch {
		id := incrementalAuthors/2 + (i*incrementalBatchAuthors+j)%(incrementalAuthors/2)
		batch[j] = graph.Comment{
			Author: graph.VertexID(id),
			Page:   graph.VertexID(i % 20000),
			TS:     ts + int64(j),
		}
	}
	return batch
}

func BenchmarkIncrementalSurvey(b *testing.B) {
	s, ts := incrementalService(b, incrementalCorpus())
	var last *detectd.SurveyResult
	runtime.GC() // keep setup garbage out of the measured cycles
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Apply(dirtyBatch(i, ts))
		ts += 2
		sr, err := s.SurveyNow()
		if err != nil {
			b.Fatal(err)
		}
		if sr.Reused {
			b.Fatal("dirty cycle short-circuited as idle")
		}
		if !sr.Delta {
			b.Fatalf("cycle %d fell back to a full survey", sr.Cycle)
		}
		last = sr
	}
	b.StopTimer()
	if last != nil {
		b.ReportMetric(float64(last.DirtyShards), "dirty-shards")
		b.ReportMetric(float64(last.CachedTriangles), "tri-cached")
		b.ReportMetric(float64(last.ResurveyedTriangles), "tri-resurveyed")
	}
}
