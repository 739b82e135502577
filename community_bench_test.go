package coordbot_test

// Community warm-start benchmark: steady-state clustering of the pruned
// CI graph with the previous cycle's partition warm-started off the dirty
// set (community.DetectWarm) versus clustered cold from scratch every
// cycle (community.Detect). Churn arrives as fresh author pairs whose
// weight-2 edges form new isolated components in the pruned graph, so the
// dirty set is exact and every pre-existing component is untouched — the
// regime the daemon's component-scoped reuse is built for. The warm
// cycle's floor is the O(V+E) adjacency build + component scan; the cold
// cycle pays the full Leiden local-move/refine/aggregate ladder on the
// whole pruned graph. Run with
//
//	go test -bench Community -benchmem
//
// or record the JSON report via TestWriteCommunityBench.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"coordbot/internal/community"
	"coordbot/internal/graph"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
	"coordbot/internal/stream"
)

// Churn authors and pages live far above the corpus ID range so each
// batch perturbs only its own fresh pair components.
const communityChurnBase = 1 << 20

// commState is the persistent cross-cycle state of one benchmark mode:
// the live projector, the previous raw and pruned snapshots, and the
// partition being warm-started (nil in cold mode).
type commState struct {
	proj       *stream.SlidingProjector
	prev       *graph.CISnapshot
	prevPruned *graph.CISnapshot
	part       *community.Partition
	cfg        community.Config
	ts         int64
	cursor     int
	page       int
}

// newCommState ingests the 80k-author corpus, thresholds at the
// large-pruned-graph cut, and runs the initial cold clustering every mode
// starts from.
func newCommState(b *testing.B, d *redditgen.Dataset) *commState {
	b.Helper()
	proj, err := stream.NewMultiSlidingProjectorWorkers(
		[]stream.SignalConfig{{Signal: projection.CoComment{W: projection.Window{Min: 0, Max: 60}}}},
		1<<40, projection.Options{}, incrementalShards, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range d.Comments {
		if err := proj.Add(c); err != nil {
			b.Fatal(err)
		}
	}
	s := &commState{proj: proj, cfg: community.Config{}.Defaults(),
		ts: d.Comments[len(d.Comments)-1].TS + 1}
	s.prev = proj.Snapshot()
	s.prevPruned = s.prev.ThresholdView(adjacencyCut).(*graph.CISnapshot)
	s.part = community.Detect(s.prevPruned, s.cfg)
	return s
}

// applyChurn ingests one dirty batch of the given number of fresh
// authors: pairs co-commenting on two fresh pages each, pushing their
// edge to weight 2 and across the cut as a new isolated two-vertex
// component. Timestamps advance past the pairing window between cycles,
// so batches never pair with each other or with the organic corpus.
func (s *commState) applyChurn(b *testing.B, authors int) map[graph.VertexID]bool {
	b.Helper()
	dirty := make(map[graph.VertexID]bool, authors)
	batch := make([]graph.Comment, 0, 2*authors)
	for j := 0; j < authors/2; j++ {
		a1 := graph.VertexID(communityChurnBase + s.cursor)
		a2 := a1 + 1
		s.cursor += 2
		p1 := graph.VertexID(communityChurnBase + s.page%400000)
		p2 := graph.VertexID(communityChurnBase + (s.page+1)%400000)
		s.page += 2
		for k, c := range [4]graph.Comment{
			{Author: a1, Page: p1}, {Author: a2, Page: p1},
			{Author: a1, Page: p2}, {Author: a2, Page: p2},
		} {
			c.TS = s.ts + int64(4*j+k)
			batch = append(batch, c)
		}
		dirty[a1], dirty[a2] = true, true
	}
	for _, c := range batch {
		if err := s.proj.Add(c); err != nil {
			b.Fatal(err)
		}
	}
	s.ts += int64(4*(authors/2)) + 61
	return dirty
}

// runCommCycle executes one clustering cycle. Ingest, snapshot, and the
// threshold delta run off the clock (identical in both modes); the
// measured region is exactly the partition computation.
func runCommCycle(b *testing.B, s *commState, warm bool, dirtyAuthors int) *community.Partition {
	b.StopTimer()
	dirty := s.applyChurn(b, dirtyAuthors)
	cur := s.proj.Snapshot()
	pruned := cur.ThresholdDelta(s.prev, s.prevPruned, adjacencyCut)
	b.StartTimer()

	var part *community.Partition
	if warm {
		part = community.DetectWarm(pruned, s.cfg, s.part, dirty)
	} else {
		part = community.Detect(pruned, s.cfg)
	}

	b.StopTimer()
	s.prev, s.prevPruned, s.part = cur, pruned, part
	b.StartTimer()
	return part
}

func benchCommunityCycles(b *testing.B, d *redditgen.Dataset, warm bool, dirtyAuthors int) {
	s := newCommState(b, d)
	var reused, clustered int
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	var part *community.Partition
	for i := 0; i < b.N; i++ {
		part = runCommCycle(b, s, warm, dirtyAuthors)
		reused += part.ReusedComponents
		clustered += part.ClusteredComponents
	}
	b.StopTimer()
	b.ReportMetric(float64(s.prevPruned.NumEdges()), "pruned-edges")
	b.ReportMetric(float64(len(part.Communities)), "communities")
	b.ReportMetric(float64(reused)/float64(b.N), "reused/cycle")
	b.ReportMetric(float64(clustered)/float64(b.N), "clustered/cycle")
	if warm && reused == 0 {
		b.Fatal("warm mode never reused a component")
	}
}

// communityDirtyFracs maps the benchmark's churn regimes to fresh authors
// per batch, as fractions of the 80k-author corpus.
var communityDirtyFracs = []struct {
	name    string
	frac    float64
	authors int
}{
	{"dirty-0.1pct", 0.001, incrementalAuthors / 1000},
	{"dirty-1pct", 0.01, incrementalAuthors / 100},
	{"dirty-10pct", 0.1, incrementalAuthors / 10},
}

func BenchmarkCommunity(b *testing.B) {
	d := incrementalCorpus()
	for _, tc := range communityDirtyFracs {
		b.Run(tc.name+"/warm", func(b *testing.B) { benchCommunityCycles(b, d, true, tc.authors) })
		b.Run(tc.name+"/cold", func(b *testing.B) { benchCommunityCycles(b, d, false, tc.authors) })
	}
}

// TestWriteCommunityBench records the warm-vs-cold clustering latencies
// across churn fractions to the JSON file named by BENCH_COMMUNITY_OUT
// (skipped otherwise), and enforces the acceptance floor: at ≤ 1% dirty
// the warm-started cycle must be ≥ 3x faster than clustering cold.
//
//	BENCH_COMMUNITY_OUT=BENCH_community.json go test -run TestWriteCommunityBench .
func TestWriteCommunityBench(t *testing.T) {
	out := os.Getenv("BENCH_COMMUNITY_OUT")
	if out == "" {
		t.Skip("set BENCH_COMMUNITY_OUT=<path> to record the community benchmark")
	}
	d := incrementalCorpus()
	var regimes []map[string]any
	for _, tc := range communityDirtyFracs {
		warm := testing.Benchmark(func(b *testing.B) { benchCommunityCycles(b, d, true, tc.authors) })
		cold := testing.Benchmark(func(b *testing.B) { benchCommunityCycles(b, d, false, tc.authors) })
		speedup := float64(cold.NsPerOp()) / float64(warm.NsPerOp())
		regimes = append(regimes, map[string]any{
			"dirty_frac":    tc.frac,
			"dirty_authors": tc.authors,
			"warm_cycle": map[string]any{
				"latency_ms":      float64(warm.NsPerOp()) / 1e6,
				"cycles":          warm.N,
				"allocs_per_op":   warm.AllocsPerOp(),
				"reused_comps":    warm.Extra["reused/cycle"],
				"clustered_comps": warm.Extra["clustered/cycle"],
			},
			"cold_cycle": map[string]any{
				"latency_ms":    float64(cold.NsPerOp()) / 1e6,
				"cycles":        cold.N,
				"allocs_per_op": cold.AllocsPerOp(),
			},
			"pruned_edges": cold.Extra["pruned-edges"],
			"communities":  cold.Extra["communities"],
			"speedup":      speedup,
		})
		t.Logf("%s: warm %.3f ms vs cold %.3f ms per cycle -> %.1fx",
			tc.name, float64(warm.NsPerOp())/1e6, float64(cold.NsPerOp())/1e6, speedup)
		if tc.frac <= 0.01 && speedup < 3 {
			t.Errorf("%s: warm speedup %.1fx below the 3x floor", tc.name, speedup)
		}
	}
	report := map[string]any{
		"benchmark": "community-warm-start",
		"corpus": benchRuntime(map[string]any{
			"authors":  incrementalAuthors,
			"comments": incrementalComments,
			"edge_cut": adjacencyCut,
		}, incrementalShards),
		"cycle":   "Leiden partition of the pruned graph (warm component reuse vs cold)",
		"regimes": regimes,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", out)
}
