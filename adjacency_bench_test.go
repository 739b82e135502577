package coordbot_test

// Persistent-orientation benchmark: the steady-state delta cycle —
// delta-thresholding, adjacency + orientation maintenance, and the dirty
// survey — with the oriented view patched in place from the pruned-graph
// edge diff (tripoll.Oriented.ApplyPatches) versus rebuilt from scratch
// every cycle (the pre-patching path: BuildAdjacency + Orient). The low
// weight cut keeps the pruned graph large, so the rebuilt path's
// O(pruned edges) floor is honest; the patched path's cost scales with
// the dirty batch instead. Run with
//
//	go test -bench Adjacency -benchmem
//
// or record the JSON report via TestWriteAdjacencyBench.

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
	"coordbot/internal/stream"
	"coordbot/internal/tripoll"
)

// adjacencyCut keeps the pruned graph large (any repeated co-activity
// survives), unlike the detection-regime cut of the incremental benchmark.
const adjacencyCut = 2

// adjState is the persistent cross-cycle state of one benchmark mode: the
// live projector, the previous raw and pruned snapshots, and the oriented
// view being either patched or rebuilt.
type adjState struct {
	proj       *stream.SlidingProjector
	prev       *graph.CISnapshot
	prevPruned *graph.CISnapshot
	oriented   *tripoll.Oriented
	ts         int64
	cursor     int
	page       int
}

// newAdjState ingests the 80k-author corpus and runs the initial
// threshold + orientation build every mode starts from.
func newAdjState(b *testing.B, d *redditgen.Dataset) *adjState {
	b.Helper()
	// Horizon far beyond the benchmark's event-time drift: nothing evicts,
	// so every measured cycle is pure dirty-batch maintenance.
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
	s := &adjState{proj: proj, ts: d.Comments[len(d.Comments)-1].TS + 1}
	s.prev = proj.Snapshot()
	s.prevPruned = s.prev.ThresholdView(adjacencyCut).(*graph.CISnapshot)
	s.oriented = tripoll.Orient(s.prevPruned.BuildAdjacency())
	return s
}

// applyDirty ingests one dirty batch touching the given number of authors:
// rotating author pairs co-commenting on two fresh pages each (the
// projector counts a pair once per page, so two pages push the edge to
// weight 2 and across the cut — a real patch into the pruned graph).
// Timestamps are monotone across the batch and event time advances past
// the pairing window between cycles, so cycles never pair with each other.
func (s *adjState) applyDirty(b *testing.B, authors int) map[graph.VertexID]bool {
	b.Helper()
	dirty := make(map[graph.VertexID]bool, authors)
	batch := make([]graph.Comment, 0, 2*authors)
	for j := 0; j < authors/2; j++ {
		a1 := graph.VertexID(incrementalAuthors/2 + s.cursor%(incrementalAuthors/2-1))
		a2 := a1 + 1
		s.cursor += 2
		p1 := graph.VertexID(s.page % 20000)
		p2 := graph.VertexID((s.page + 1) % 20000)
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

// runAdjCycle executes one delta cycle's graph maintenance and dirty
// survey — the measured region starts after ingest/snapshot (identical in
// both modes) and covers the threshold delta, orientation maintenance
// (patch vs rebuild), and the dirty survey. Both modes survey the exact
// set of perturbed authors — every changed pruned edge has both endpoints
// there — so the survey work is identical and minimal, and the gap between
// the modes is pure adjacency maintenance. (detectd's shard-granular
// DirtyVertices over-approximates this set; its width is a property of the
// store layout, not of the orientation structure under test.)
func runAdjCycle(b *testing.B, s *adjState, patched bool, dirtyAuthors int) (patchedEdges int, triangles int) {
	b.StopTimer()
	dirty := s.applyDirty(b, dirtyAuthors)
	cur := s.proj.Snapshot()
	b.StartTimer()

	pruned := cur.ThresholdDelta(s.prev, s.prevPruned, adjacencyCut)
	if patched {
		patches, _, ok := pruned.EdgePatches(s.prevPruned)
		if !ok {
			b.Fatal("pruned snapshots incomparable")
		}
		if len(patches) == 0 {
			b.Fatal("dirty batch produced no pruned-graph patches")
		}
		s.oriented.ApplyPatches(patches)
		patchedEdges = len(patches)
	} else {
		s.oriented = tripoll.Orient(pruned.BuildAdjacency())
	}
	s.oriented.SurveyDirty(tripoll.Options{MinTriangleWeight: adjacencyCut}, dirty, nil,
		func(tripoll.Triangle) { triangles++ })

	s.prev, s.prevPruned = cur, pruned
	return patchedEdges, triangles
}

func benchAdjacencyCycles(b *testing.B, d *redditgen.Dataset, patched bool, dirtyAuthors int) {
	s := newAdjState(b, d)
	var patchedEdges int
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pe, _ := runAdjCycle(b, s, patched, dirtyAuthors)
		patchedEdges += pe
	}
	b.StopTimer()
	b.ReportMetric(float64(s.prevPruned.NumEdges()), "pruned-edges")
	if patched {
		b.ReportMetric(float64(patchedEdges)/float64(b.N), "patches/cycle")
		b.ReportMetric(float64(s.oriented.Rebuilds()), "reorients")
	}
}

// adjacencyDirtyFracs maps the benchmark's dirty regimes to authors per
// batch, as fractions of the 80k-author corpus.
var adjacencyDirtyFracs = []struct {
	name    string
	frac    float64
	authors int
}{
	{"dirty-0.1pct", 0.001, incrementalAuthors / 1000},
	{"dirty-1pct", 0.01, incrementalAuthors / 100},
	{"dirty-10pct", 0.1, incrementalAuthors / 10},
}

func BenchmarkAdjacency(b *testing.B) {
	d := incrementalCorpus()
	for _, tc := range adjacencyDirtyFracs {
		b.Run(tc.name+"/patched", func(b *testing.B) { benchAdjacencyCycles(b, d, true, tc.authors) })
		b.Run(tc.name+"/rebuilt", func(b *testing.B) { benchAdjacencyCycles(b, d, false, tc.authors) })
	}
}

// TestWriteAdjacencyBench records the patched-vs-rebuilt delta-cycle
// latencies across dirty fractions to the JSON file named by
// BENCH_ADJACENCY_OUT (skipped otherwise), and enforces the acceptance
// floor: at ≤ 1% dirty the patched cycle must be ≥ 3x faster than the
// rebuild-every-cycle path.
//
//	BENCH_ADJACENCY_OUT=BENCH_adjacency.json go test -run TestWriteAdjacencyBench .
func TestWriteAdjacencyBench(t *testing.T) {
	out := os.Getenv("BENCH_ADJACENCY_OUT")
	if out == "" {
		t.Skip("set BENCH_ADJACENCY_OUT=<path> to record the adjacency benchmark")
	}
	d := incrementalCorpus()
	var regimes []map[string]any
	for _, tc := range adjacencyDirtyFracs {
		patched := testing.Benchmark(func(b *testing.B) { benchAdjacencyCycles(b, d, true, tc.authors) })
		rebuilt := testing.Benchmark(func(b *testing.B) { benchAdjacencyCycles(b, d, false, tc.authors) })
		speedup := float64(rebuilt.NsPerOp()) / float64(patched.NsPerOp())
		regimes = append(regimes, map[string]any{
			"dirty_frac":    tc.frac,
			"dirty_authors": tc.authors,
			"patched_cycle": map[string]any{
				"latency_ms":    float64(patched.NsPerOp()) / 1e6,
				"cycles":        patched.N,
				"allocs_per_op": patched.AllocsPerOp(),
				"patches":       patched.Extra["patches/cycle"],
				"reorients":     patched.Extra["reorients"],
			},
			"rebuilt_cycle": map[string]any{
				"latency_ms":    float64(rebuilt.NsPerOp()) / 1e6,
				"cycles":        rebuilt.N,
				"allocs_per_op": rebuilt.AllocsPerOp(),
			},
			"pruned_edges": rebuilt.Extra["pruned-edges"],
			"speedup":      speedup,
		})
		t.Logf("%s: patched %.3f ms vs rebuilt %.3f ms per cycle -> %.1fx",
			tc.name, float64(patched.NsPerOp())/1e6, float64(rebuilt.NsPerOp())/1e6, speedup)
		if tc.frac <= 0.01 && speedup < 3 {
			t.Errorf("%s: patched speedup %.1fx below the 3x floor", tc.name, speedup)
		}
	}
	report := map[string]any{
		"benchmark": "adjacency-maintenance",
		"corpus": benchRuntime(map[string]any{
			"authors":  incrementalAuthors,
			"comments": incrementalComments,
			"edge_cut": adjacencyCut,
		}, incrementalShards),
		"cycle":   "threshold-delta + orientation maintenance (patch vs rebuild) + dirty survey",
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
