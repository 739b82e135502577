// Tests for the copy-on-write snapshot path of the survey loop: surveys
// taken mid-ingest match the batch pipeline over exactly the windowed
// comments, and an idle cycle republishes the previous result with O(1)
// allocations instead of recomputing over the graph.
package detectd

import (
	"sync"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/pipeline"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
)

func snapshotDataset() *redditgen.Dataset {
	return redditgen.Generate(redditgen.Config{
		Seed:  99,
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
}

// TestIngestDuringSurveyMatchesBatch hammers the daemon with concurrent
// Apply batches, SurveyNow cycles, and PairScore reads (run under -race in
// `make check`), then checks the final quiescent survey equals the batch
// pipeline over exactly the comments still inside the horizon — proving
// copy-on-write snapshots never observe or leak a torn graph.
func TestIngestDuringSurveyMatchesBatch(t *testing.T) {
	ds := snapshotDataset()
	cfg := Config{
		Window:             projection.Window{Min: 0, Max: 60},
		Horizon:            24 * 3600,
		MinTriangleWeight:  2,
		ValidateHypergraph: true,
		ClampLate:          true,
		Shards:             16,
	}
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// No Start(): ingestion happens via Apply on this goroutine's writer,
	// so there is no queue to drain and the final state is deterministic.

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // survey continuously while the writer runs
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
	wg.Add(1)
	go func() { // score reads race the ingest writes on purpose
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

	// Quiescent: one final survey must equal the batch pipeline over the
	// comments still inside the horizon at the final watermark.
	sr, err := s.SurveyNow()
	if err != nil {
		t.Fatal(err)
	}
	wm := sr.Watermark
	var windowed []graph.Comment
	for _, c := range ds.Comments {
		if c.TS > wm-cfg.Horizon {
			windowed = append(windowed, c)
		}
	}
	want, err := pipeline.Run(graph.BuildBTM(windowed, 0, 0), pipeline.Config{
		Window:            cfg.Window,
		MinTriangleWeight: cfg.MinTriangleWeight,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Result.CI.Equal(want.CI) {
		t.Fatalf("survey CI != batch CI over windowed comments (%d vs %d edges)",
			sr.Result.CI.NumEdges(), want.CI.NumEdges())
	}
	if len(sr.Result.Triangles) != len(want.Triangles) {
		t.Fatalf("survey found %d triangles, batch %d",
			len(sr.Result.Triangles), len(want.Triangles))
	}
	for i := range want.Triangles {
		g, w := sr.Result.Triangles[i], want.Triangles[i]
		if g.X != w.X || g.Y != w.Y || g.Z != w.Z || g.MinWeight() != w.MinWeight() {
			t.Fatalf("triangle %d differs: got (%d,%d,%d) want (%d,%d,%d)",
				i, g.X, g.Y, g.Z, w.X, w.Y, w.Z)
		}
	}
}

// TestIdleSurveyReusesResult: with nothing ingested between cycles, the
// survey republishes the previous result (Reused set, counters advanced)
// and the graph stays untouched.
func TestIdleSurveyReusesResult(t *testing.T) {
	s, err := NewService(Config{
		Window:            projection.Window{Min: 0, Max: 60},
		Horizon:           24 * 3600,
		MinTriangleWeight: 2,
		ClampLate:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := int64(0)
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			for p := 0; p < 5; p++ {
				s.Apply([]graph.Comment{
					{Author: graph.VertexID(i), Page: graph.VertexID(100 + p), TS: ts},
					{Author: graph.VertexID(j), Page: graph.VertexID(100 + p), TS: ts + 1},
				})
				ts += 10
			}
		}
	}
	first, err := s.SurveyNow()
	if err != nil {
		t.Fatal(err)
	}
	if first.Reused {
		t.Fatal("first survey marked reused")
	}
	second, err := s.SurveyNow()
	if err != nil {
		t.Fatal(err)
	}
	if !second.Reused {
		t.Fatal("idle survey recomputed instead of reusing")
	}
	if second.Result != first.Result {
		t.Fatal("idle survey did not republish the same Result")
	}
	if second.rank != first.rank {
		t.Fatal("idle survey did not share the census's read order")
	}
	if second.Cycle != first.Cycle+1 {
		t.Fatalf("reused cycle numbering broken: %d after %d", second.Cycle, first.Cycle)
	}
	// Only the reuse count moves.
	want := first.totals
	want.reused++
	if second.totals != want {
		t.Fatalf("reused cycle totals %+v, want %+v", second.totals, want)
	}

	// One more comment invalidates the stamp.
	s.Apply([]graph.Comment{{Author: 0, Page: 200, TS: ts}})
	third, err := s.SurveyNow()
	if err != nil {
		t.Fatal(err)
	}
	if third.Reused {
		t.Fatal("survey after ingest still marked reused")
	}
}

// TestIdleSurveyAllocsConstant is the perf guard the refactor exists for:
// an idle daemon's survey cycle must not walk the graph — allocations per
// cycle stay a small constant regardless of graph size.
func TestIdleSurveyAllocsConstant(t *testing.T) {
	ds := snapshotDataset()
	s, err := NewService(Config{
		Window:            projection.Window{Min: 0, Max: 60},
		Horizon:           24 * 3600,
		MinTriangleWeight: 2,
		ClampLate:         true,
		Shards:            64,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Apply(ds.Comments)
	if _, err := s.SurveyNow(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.SurveyNow(); err != nil {
			t.Fatal(err)
		}
	})
	// The reuse path copies one SurveyResult struct and stamps times —
	// a handful of allocations, never O(edges) or even O(shards).
	if allocs > 10 {
		t.Fatalf("idle survey cycle allocates %.0f objects, want <= 10", allocs)
	}
	if !s.Latest().Reused {
		t.Fatal("latest survey not marked reused")
	}
}
