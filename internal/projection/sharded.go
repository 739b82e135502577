package projection

import (
	"runtime"
	"sort"
	"sync"

	"coordbot/internal/graph"
)

// workers is the worker count of the sharded batch paths: GOMAXPROCS,
// and at least 2.
func workers() int {
	return max(runtime.GOMAXPROCS(0), 2)
}

// ProjectSharded runs Algorithm 1 with the sharded owner-computes merge:
// pages are dealt round-robin to worker ranks; each rank computes its
// pages' pair sets locally and appends every (shard, key) occurrence to a
// flat log — one slice of fixed-width records per rank instead of P maps
// per rank, which cuts the allocation churn that dominated high-rank
// runs. Each rank's log is sorted by (shard, key) once at the end of its
// page sweep; then one merger per shard walks every rank's contiguous
// segment for that shard, aggregates equal-key runs, and folds the counts
// into the store under that shard's own lock — P concurrent merges, no
// global lock and no serial gather. The result equals ProjectSequential
// (property-tested).
//
// This is the batch counterpart of the daemon's sharded live store: both
// land in a *graph.ShardedCI whose snapshots are copy-on-write. It is the
// single-signal specialization of projectObjectsSharded — co-comment
// pages as the coordinated object, no breakdown lanes.
func ProjectSharded(b *graph.BTM, w Window, opts Options) (*graph.ShardedCI, error) {
	return projectSharded(b, w, opts, workers())
}

// projectSharded is ProjectSharded with nr workers.
func projectSharded(b *graph.BTM, w Window, opts Options, nr int) (*graph.ShardedCI, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	g := graph.NewShardedCI(0, 0)
	projectObjectsSharded(g, 0, b.NumPages(), b.PageNeighborhood, w, opts, nr)
	return g, nil
}

// ProjectSignalsSharded projects one comment stream through every signal
// and merges the results into a single multi-signal store: each signal's
// objects are indexed (BuildObjectIndex), run through the same flat-log
// owner-computes core as ProjectSharded with that signal's window, and
// attributed to the signal in the store's per-signal breakdown. With
// exactly the default co-comment signal the result is graph-equal to
// ProjectSharded (and carries no breakdown lanes).
func ProjectSignalsSharded(comments []graph.Comment, sigs []Signal, opts Options) (*graph.ShardedCI, error) {
	return projectSignalsSharded(comments, sigs, opts, workers())
}

// projectSignalsSharded is ProjectSignalsSharded with nr workers.
func projectSignalsSharded(comments []graph.Comment, sigs []Signal, opts Options, nr int) (*graph.ShardedCI, error) {
	if err := ValidateSignals(sigs); err != nil {
		return nil, err
	}
	g := graph.NewShardedCI(0, len(sigs))
	for si, sig := range sigs {
		idx := BuildObjectIndex(comments, sig)
		projectObjectsSharded(g, si, idx.NumObjects(), idx.Neighborhood, sig.Window(), opts, nr)
	}
	return g, nil
}

// projectObjectsSharded is the owner-computes projection core over an
// abstract object space: objects 0..numObjects-1 with time-sorted author
// neighborhoods served by nbhd. Every windowed pair adds 1 to its edge
// total (attributed to signal si when the store tracks a breakdown) and
// each distinct incident author +1 to the P' table per object.
func projectObjectsSharded(g *graph.ShardedCI, si, numObjects int, nbhd func(graph.VertexID) []graph.AuthorTime, w Window, opts Options, nr int) {
	p := g.NumShards()

	// edgeRec / pageRec are one append-log occurrence each; the implicit
	// weight is 1 (a pair or author counts once per object), so aggregation
	// is a run-length count at merge time.
	type edgeRec struct {
		shard int32
		key   uint64
	}
	type pageRec struct {
		shard int32
		v     graph.VertexID
	}
	// rankLog is one rank's projection output: flat logs sorted by
	// (shard, key) with per-shard segment offsets.
	type rankLog struct {
		edges   []edgeRec
		pages   []pageRec
		edgeOff []int // len p+1
		pageOff []int // len p+1
	}

	// Phase 1: per-rank local projection into flat append logs.
	logs := make([]rankLog, nr)
	var wg sync.WaitGroup
	wg.Add(nr)
	for r := 0; r < nr; r++ {
		go func(r int) {
			defer wg.Done()
			var lg rankLog
			var st PairStep
			for pg := r; pg < numObjects; pg += nr {
				pairs, authors := st.Object(nbhd(graph.VertexID(pg)), opts, w)
				for _, key := range pairs {
					lg.edges = append(lg.edges, edgeRec{shard: int32(g.EdgeShard(key)), key: key})
				}
				for _, a := range authors {
					lg.pages = append(lg.pages, pageRec{shard: int32(g.VertexShard(a)), v: a})
				}
			}
			sort.Slice(lg.edges, func(i, j int) bool {
				if lg.edges[i].shard != lg.edges[j].shard {
					return lg.edges[i].shard < lg.edges[j].shard
				}
				return lg.edges[i].key < lg.edges[j].key
			})
			sort.Slice(lg.pages, func(i, j int) bool {
				if lg.pages[i].shard != lg.pages[j].shard {
					return lg.pages[i].shard < lg.pages[j].shard
				}
				return lg.pages[i].v < lg.pages[j].v
			})
			// Per-shard segment offsets over the sorted logs.
			lg.edgeOff = make([]int, p+1)
			for _, e := range lg.edges {
				lg.edgeOff[e.shard+1]++
			}
			lg.pageOff = make([]int, p+1)
			for _, pr := range lg.pages {
				lg.pageOff[pr.shard+1]++
			}
			for s := 0; s < p; s++ {
				lg.edgeOff[s+1] += lg.edgeOff[s]
				lg.pageOff[s+1] += lg.pageOff[s]
			}
			logs[r] = lg
		}(r)
	}
	wg.Wait()

	// Phase 2: shard-owned merge, one merger per shard, aggregating each
	// rank's sorted segment by run length into the merger's scratch and
	// writing it under a single lock acquisition.
	mergers := runtime.GOMAXPROCS(0)
	if mergers > p {
		mergers = p
	}
	var mwg sync.WaitGroup
	mwg.Add(mergers)
	for m := 0; m < mergers; m++ {
		go func(m int) {
			defer mwg.Done()
			var edges []graph.EdgeDelta
			var pages []graph.PageDelta
			for s := m; s < p; s += mergers {
				edges, pages = edges[:0], pages[:0]
				for r := range logs {
					seg := logs[r].edges[logs[r].edgeOff[s]:logs[r].edgeOff[s+1]]
					for k := 0; k < len(seg); {
						run := k + 1
						for run < len(seg) && seg[run].key == seg[k].key {
							run++
						}
						edges = append(edges, graph.EdgeDelta{Key: seg[k].key, W: uint32(run - k)})
						k = run
					}
					pseg := logs[r].pages[logs[r].pageOff[s]:logs[r].pageOff[s+1]]
					for k := 0; k < len(pseg); {
						run := k + 1
						for run < len(pseg) && pseg[run].v == pseg[k].v {
							run++
						}
						pages = append(pages, graph.PageDelta{V: pseg[k].v, N: uint32(run - k)})
						k = run
					}
				}
				g.AddShardBatch(s, si, edges, pages)
			}
		}(m)
	}
	mwg.Wait()
}
