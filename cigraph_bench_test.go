package coordbot_test

// Sharded-store benchmarks: what the copy-on-write snapshot buys over the
// map-backed deep clone, and what the owner-computes shard merge costs
// beside the sequential projection. Record with
//
//	BENCH_CIGRAPH_OUT=BENCH_cigraph.json go test -run TestWriteCIGraphBench .

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
)

const cigraphBenchComments = 80000

// benchProjection builds the 80k-comment CI graph in both representations.
func benchProjection(b testing.TB) (*graph.CIGraph, *graph.ShardedCI) {
	b.Helper()
	d := corpusOf(cigraphBenchComments)
	w := projection.Window{Min: 0, Max: 600}
	opts := projection.Options{Exclude: d.Helpers}
	ref, err := projection.ProjectSequential(d.BTM(), w, opts)
	if err != nil {
		b.Fatal(err)
	}
	sh, err := projection.ProjectSharded(d.BTM(), w, opts)
	if err != nil {
		b.Fatal(err)
	}
	return ref, sh
}

// BenchmarkSnapshotClone is the old regime: every survey cycle deep-copies
// the entire edge and page-count maps — O(E) with E ≈ a quarter million.
// Threshold(1) keeps every edge, so it is that full deep copy.
func BenchmarkSnapshotClone(b *testing.B) {
	ref, _ := benchProjection(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref.Threshold(1)
	}
	b.ReportMetric(float64(ref.NumEdges()), "edges")
}

// BenchmarkSnapshotCOW is the new regime. idle: nothing mutates between
// snapshots, so each one only grabs shard references — O(shards) however
// large the graph. hot: a burst of edge writes lands between snapshots, so
// each cycle additionally pays the copy-on-write reclone of just the dirty
// shards.
func BenchmarkSnapshotCOW(b *testing.B) {
	_, sh := benchProjection(b)
	edges := sh.Snapshot().Edges()
	b.Run("idle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sh.Snapshot()
		}
	})
	for _, writes := range []int{16, 256} {
		b.Run(fmt.Sprintf("hot-writes=%d", writes), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for k := 0; k < writes; k++ {
					e := edges[rng.Intn(len(edges))]
					sh.AddEdgeWeightSig(e.U, e.V, 1, 0)
				}
				sh.Snapshot()
			}
		})
	}
}

// edgeUpsertKeys builds a working set of distinct endpoint pairs for the
// upsert benchmarks (power-of-two length for cheap wraparound indexing).
func edgeUpsertKeys(n int) [][2]graph.VertexID {
	rng := rand.New(rand.NewSource(7))
	keys := make([][2]graph.VertexID, n)
	for i := range keys {
		u := graph.VertexID(rng.Intn(1 << 17))
		v := graph.VertexID(rng.Intn(1 << 17))
		for u == v {
			v = graph.VertexID(rng.Intn(1 << 17))
		}
		keys[i] = [2]graph.VertexID{u, v}
	}
	return keys
}

// BenchmarkEdgeUpsert is the projection's per-pair hot path on the live
// store: one multi-signal upsert — shard route, lock, flat-table probe
// updating the total and the signal share together — over a churning
// working set. This is the operation the flat edge table exists for; the
// map-backed shape it replaced paid a generic map traversal plus one more
// map operation per signal here.
func BenchmarkEdgeUpsert(b *testing.B) {
	const nsig = 3
	g := graph.NewShardedCI(0, nsig)
	keys := edgeUpsertKeys(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i&(len(keys)-1)]
		g.AddEdgeWeightSig(k[0], k[1], 1, i%nsig)
	}
}

// BenchmarkProjectionMerge compares the two batch projections on the same
// corpus: the sequential reference and ProjectSharded (per-shard
// owner-computes merge, no global lock).
func BenchmarkProjectionMerge(b *testing.B) {
	d := corpusOf(cigraphBenchComments)
	btm := d.BTM()
	w := projection.Window{Min: 0, Max: 600}
	opts := projection.Options{Exclude: d.Helpers}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := projection.ProjectSequential(btm, w, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sharded-merge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := projection.ProjectSharded(btm, w, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Ceilings for TestCIGraphGuard, with generous headroom over the flat
// store's measured numbers (54ns/op upsert, 4 allocs/op idle snapshot on
// a 2.1GHz Xeon) but far below what a map-shaped regression costs: a Go
// map traversal plus one sidecar map op per signal puts the upsert past
// 300ns, and any per-entry clone in the snapshot path shows up as
// thousands of allocations.
const (
	guardUpsertNsCeiling       = 250
	guardSnapshotAllocsCeiling = 16
)

// TestCIGraphGuard enforces the flat edge store's perf contract. Run by
// CI's bench-smoke step with BENCH_GUARD=1 (skipped otherwise — wall-time
// ceilings are meaningless under -race or on loaded dev boxes).
func TestCIGraphGuard(t *testing.T) {
	if os.Getenv("BENCH_GUARD") == "" {
		t.Skip("set BENCH_GUARD=1 to run the cigraph perf guard")
	}
	up := testing.Benchmark(BenchmarkEdgeUpsert)
	t.Logf("edge upsert: %dns/op, %d allocs/op", up.NsPerOp(), up.AllocsPerOp())
	if up.NsPerOp() > guardUpsertNsCeiling {
		t.Errorf("multi-signal edge upsert %dns/op exceeds the %dns ceiling (map-shaped store?)",
			up.NsPerOp(), guardUpsertNsCeiling)
	}
	if up.AllocsPerOp() != 0 {
		t.Errorf("edge upsert allocates (%d allocs/op), want 0", up.AllocsPerOp())
	}

	_, sh := benchProjection(t)
	snap := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sh.Snapshot()
		}
	})
	t.Logf("COW snapshot: %dns/op, %d allocs/op", snap.NsPerOp(), snap.AllocsPerOp())
	if snap.AllocsPerOp() > guardSnapshotAllocsCeiling {
		t.Errorf("snapshot clone %d allocs/op exceeds the %d ceiling (per-entry cloning?)",
			snap.AllocsPerOp(), guardSnapshotAllocsCeiling)
	}
}

// TestWriteCIGraphBench records the sharded-store benchmarks to the JSON
// file named by BENCH_CIGRAPH_OUT (skipped otherwise).
func TestWriteCIGraphBench(t *testing.T) {
	out := os.Getenv("BENCH_CIGRAPH_OUT")
	if out == "" {
		t.Skip("set BENCH_CIGRAPH_OUT=<path> to record the sharded-store benchmark")
	}
	d := corpusOf(cigraphBenchComments)
	w := projection.Window{Min: 0, Max: 600}
	opts := projection.Options{Exclude: d.Helpers}
	ref, err := projection.ProjectSequential(d.BTM(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := projection.ProjectSharded(d.BTM(), w, opts)
	if err != nil {
		t.Fatal(err)
	}
	edges := sh.Snapshot().Edges()

	clone := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ref.Threshold(1)
		}
	})
	cowIdle := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sh.Snapshot()
		}
	})
	const hotWrites = 256
	cowHot := testing.Benchmark(func(b *testing.B) {
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for k := 0; k < hotWrites; k++ {
				e := edges[rng.Intn(len(edges))]
				sh.AddEdgeWeightSig(e.U, e.V, 1, 0)
			}
			sh.Snapshot()
		}
	})

	btm := d.BTM()
	projSeq := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := projection.ProjectSequential(btm, w, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	projSharded := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := projection.ProjectSharded(btm, w, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	upsert := testing.Benchmark(BenchmarkEdgeUpsert)

	report := map[string]any{
		"benchmark": "cigraph-sharded",
		"corpus": benchRuntime(map[string]any{
			"comments":   cigraphBenchComments,
			"window_sec": 600,
			"edges":      ref.NumEdges(),
			"authors":    ref.NumAuthors(),
		}, sh.NumShards()),
		"edge_upsert": map[string]any{
			"multi_signal_ns": upsert.NsPerOp(),
			"allocs":          upsert.AllocsPerOp(),
			"guard_ns":        guardUpsertNsCeiling,
		},
		"snapshot": map[string]any{
			"clone_ns":        clone.NsPerOp(),
			"clone_allocs":    clone.AllocsPerOp(),
			"cow_idle_ns":     cowIdle.NsPerOp(),
			"cow_idle_allocs": cowIdle.AllocsPerOp(),
			"cow_hot_ns":      cowHot.NsPerOp(),
			"cow_hot_allocs":  cowHot.AllocsPerOp(),
			"cow_hot_writes":  hotWrites,
			"clone_over_idle": float64(clone.NsPerOp()) / float64(cowIdle.NsPerOp()),
			"clone_over_hot":  float64(clone.NsPerOp()) / float64(cowHot.NsPerOp()),
		},
		"projection_merge": map[string]any{
			"sequential_ns":     projSeq.NsPerOp(),
			"sharded_merge_ns":  projSharded.NsPerOp(),
			"speedup_vs_serial": float64(projSeq.NsPerOp()) / float64(projSharded.NsPerOp()),
		},
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("snapshot: clone %.2fms vs COW idle %dns (%.0fx); projection: seq %.0fms, sharded %.0fms -> %s",
		float64(clone.NsPerOp())/1e6, cowIdle.NsPerOp(),
		float64(clone.NsPerOp())/float64(cowIdle.NsPerOp()),
		float64(projSeq.NsPerOp())/1e6, float64(projSharded.NsPerOp())/1e6, out)
}
