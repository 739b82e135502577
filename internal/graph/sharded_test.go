package graph

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// addEdge and addPages add through AddShardBatch, subEdge and subPages
// withdraw through SubShardBatch — the store's one write path each way —
// one entry at a time.
func addEdge(g *ShardedCI, u, v VertexID, w uint32, si int) {
	key := PackEdge(u, v)
	g.AddShardBatch(g.EdgeShard(key), si, []EdgeDelta{{Key: key, W: w}}, nil)
}

func addPages(g *ShardedCI, u VertexID, n uint32) {
	g.AddShardBatch(g.VertexShard(u), 0, nil, []PageDelta{{V: u, N: n}})
}

func subEdge(g *ShardedCI, u, v VertexID, w uint32) {
	key := PackEdge(u, v)
	g.SubShardBatch(g.EdgeShard(key), []EdgeDelta{{Key: key, W: w}}, nil, nil)
}

func subPages(g *ShardedCI, u VertexID, n uint32) {
	g.SubShardBatch(g.VertexShard(u), nil, nil, []PageDelta{{V: u, N: n}})
}

// applyRandomOp applies one random mutation to both the sharded store and
// the map-backed reference, keeping them in lockstep. weights/pages mirror
// the reference state so Sub ops can be kept underflow-free while still
// exercising partial decrements and delete-at-zero.
func applyRandomOp(rng *rand.Rand, g *ShardedCI, ref *CIGraph,
	weights map[uint64]uint32, pages map[VertexID]uint32) {
	const nv = 48
	u := VertexID(rng.Intn(nv))
	v := VertexID(rng.Intn(nv))
	for v == u {
		v = VertexID(rng.Intn(nv))
	}
	switch rng.Intn(5) {
	case 0, 1: // bias toward growth so Sub has material to work with
		w := uint32(rng.Intn(4) + 1)
		addEdge(g, u, v, w, 0)
		ref.AddEdgeWeight(u, v, w)
		weights[PackEdge(u, v)] += w
	case 2:
		key := PackEdge(u, v)
		cur := weights[key]
		if cur == 0 {
			return
		}
		w := uint32(rng.Intn(int(cur))) + 1 // 1..cur: exercises both paths
		subEdge(g, u, v, w)
		ref.SubEdgeWeight(u, v, w)
		if w == cur {
			delete(weights, key)
		} else {
			weights[key] = cur - w
		}
	case 3:
		n := uint32(rng.Intn(3) + 1)
		addPages(g, u, n)
		ref.AddPageCount(u, n)
		pages[u] += n
	case 4:
		cur := pages[u]
		if cur == 0 {
			return
		}
		n := uint32(rng.Intn(int(cur))) + 1
		subPages(g, u, n)
		ref.SubPageCount(u, n)
		if n == cur {
			delete(pages, u)
		} else {
			pages[u] = cur - n
		}
	}
}

// adjacencyEqual compares two CSR adjacencies structurally, treating nil
// and empty slices as equal (the parallel builder leaves empty graphs nil).
func adjacencyEqual(a, b *Adjacency) bool {
	if len(a.Orig) != len(b.Orig) || len(a.Nbr) != len(b.Nbr) {
		return false
	}
	for i := range a.Orig {
		if a.Orig[i] != b.Orig[i] {
			return false
		}
	}
	for i := range a.Off {
		if a.Off[i] != b.Off[i] {
			return false
		}
	}
	for i := range a.Nbr {
		if a.Nbr[i] != b.Nbr[i] || a.Wt[i] != b.Wt[i] {
			return false
		}
	}
	return len(a.Dense) == len(b.Dense) && func() bool {
		for k, d := range a.Dense {
			if b.Dense[k] != d {
				return false
			}
		}
		return true
	}()
}

// TestShardedMatchesMapUnderInterleaving is the tentpole property: under
// randomized Add/Sub/Snapshot interleavings the sharded store stays
// equivalent to the map-backed reference — live edges, page counts, and
// adjacency — and every snapshot stays frozen at the state it captured no
// matter what mutations follow (the copy-on-write isolation invariant).
func TestShardedMatchesMapUnderInterleaving(t *testing.T) {
	for _, shards := range []int{1, 4, 64} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := NewShardedCI(shards, 0)
			ref := NewCIGraph()
			weights := make(map[uint64]uint32)
			pages := make(map[VertexID]uint32)

			type frozen struct {
				snap *CISnapshot
				want *CIGraph
			}
			var frozens []frozen

			for step := 0; step < 1200; step++ {
				applyRandomOp(rng, g, ref, weights, pages)
				if rng.Intn(120) == 0 {
					frozens = append(frozens, frozen{g.Snapshot(), ref.Threshold(1)})
				}
			}

			// The live store's point reads agree with the reference.
			if g.NumEdges() != ref.NumEdges() {
				t.Fatalf("shards=%d seed=%d: live sharded store diverged from reference (%d vs %d edges)",
					shards, seed, g.NumEdges(), ref.NumEdges())
			}
			snap := g.Snapshot()
			for _, e := range ref.Edges() {
				if snap.Weight(e.U, e.V) != e.W || g.PageCount(e.U) != ref.PageCount(e.U) {
					t.Fatalf("shards=%d seed=%d: point reads diverged at {%d,%d}", shards, seed, e.U, e.V)
				}
			}
			if !ref.Equal(snap) {
				t.Fatalf("shards=%d seed=%d: final snapshot diverged from reference", shards, seed)
			}
			if !adjacencyEqual(ref.BuildAdjacency(), snap.BuildAdjacency()) {
				t.Fatalf("shards=%d seed=%d: parallel adjacency != serial adjacency", shards, seed)
			}
			for i, fr := range frozens {
				if !fr.want.Equal(fr.snap) {
					t.Fatalf("shards=%d seed=%d: snapshot %d mutated after capture (COW isolation broken)",
						shards, seed, i)
				}
			}
			for _, minW := range []uint32{1, 2, 5} {
				if !ref.Threshold(minW).Equal(snap.ThresholdView(minW)) {
					t.Fatalf("shards=%d seed=%d: ThresholdView(%d) != reference Threshold", shards, seed, minW)
				}
			}
		}
	}
}

// TestSnapshotSharesCleanShards pins the COW mechanics: an idle store hands
// out snapshots that share every shard map by reference (equal versions),
// and a single-edge mutation recopies only the shards it owns.
func TestSnapshotSharesCleanShards(t *testing.T) {
	g := NewShardedCI(16, 0)
	for i := VertexID(0); i < 200; i++ {
		addEdge(g, i, i+1000, 3, 0)
		addPages(g, i, 2)
	}
	s1 := g.Snapshot()
	s2 := g.Snapshot()
	if !reflect.DeepEqual(s1.ShardVersions(), s2.ShardVersions()) {
		t.Fatal("idle snapshots disagree on shard versions")
	}
	for i := range s1.edges {
		if reflect.ValueOf(s1.edges[i]).Pointer() != reflect.ValueOf(s2.edges[i]).Pointer() {
			t.Fatalf("idle snapshot recopied edge shard %d", i)
		}
		if reflect.ValueOf(s1.pages[i]).Pointer() != reflect.ValueOf(s2.pages[i]).Pointer() {
			t.Fatalf("idle snapshot recopied page shard %d", i)
		}
	}

	// Dirty exactly one edge; only its owning shard may change.
	addEdge(g, 7, 1007, 1, 0)
	dirty := g.EdgeShard(PackEdge(7, 1007))
	s3 := g.Snapshot()
	v2, v3 := s2.ShardVersions(), s3.ShardVersions()
	for i := range v2 {
		same := reflect.ValueOf(s2.edges[i]).Pointer() == reflect.ValueOf(s3.edges[i]).Pointer()
		if i == dirty {
			if v2[i] == v3[i] || same {
				t.Fatalf("dirty shard %d not recopied (versions %d vs %d)", i, v2[i], v3[i])
			}
		} else if v2[i] != v3[i] || !same {
			t.Fatalf("clean shard %d recopied after unrelated mutation", i)
		}
	}
	// The frozen snapshot still reads the old weight.
	if s2.Weight(7, 1007) != 3 || s3.Weight(7, 1007) != 4 {
		t.Fatalf("COW weights wrong: frozen %d, fresh %d", s2.Weight(7, 1007), s3.Weight(7, 1007))
	}
}

// TestShardedVersionMonotonic: every mutation bumps the aggregate version;
// an unchanged version is the daemon's proof of an unchanged graph.
func TestShardedVersionMonotonic(t *testing.T) {
	g := NewShardedCI(8, 0)
	last := g.Version()
	ops := []func(){
		func() { addEdge(g, 1, 2, 5, 0) },
		func() { addPages(g, 2, 9) },
		func() { subEdge(g, 1, 2, 2) },
		func() { subPages(g, 2, 9) },
	}
	for i, op := range ops {
		op()
		if v := g.Version(); v <= last {
			t.Fatalf("op %d did not bump version (%d -> %d)", i, last, v)
		} else {
			last = v
		}
	}
	if g.Snapshot(); g.Version() != last {
		t.Fatal("Snapshot bumped the version")
	}
}

// TestShardedUnderflowPanics mirrors the reference store's contract on
// the store's withdrawal path.
func TestShardedUnderflowPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic on underflow", name)
			}
		}()
		fn()
	}
	g := NewShardedCI(4, 0)
	addEdge(g, 1, 2, 3, 0)
	addPages(g, 1, 2)
	mustPanic("edge", func() { subEdge(g, 1, 2, 4) })
	mustPanic("edge(absent)", func() { subEdge(g, 5, 6, 1) })
	mustPanic("pages", func() { subPages(g, 1, 3) })
	mustPanic("pages(absent)", func() { subPages(g, 9, 1) })
}

// TestShardedConcurrentReadersAndSnapshots exercises the store's internal
// locking under -race: one writer mutating, many readers and snapshotters
// in flight. Assertions are deliberately weak (per-shard consistency only);
// the value of the test is the race detector.
func TestShardedConcurrentReadersAndSnapshots(t *testing.T) {
	g := NewShardedCI(8, 0)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // single writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(1))
		ref := NewCIGraph()
		weights := make(map[uint64]uint32)
		pages := make(map[VertexID]uint32)
		for i := 0; i < 20000; i++ {
			applyRandomOp(rng, g, ref, weights, pages)
		}
		close(done)
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				_ = g.PageCount(VertexID(r))
				_ = g.NumEdges()
				snap := g.Snapshot()
				if snap.NumEdges() < 0 {
					t.Error("negative edge count")
					return
				}
			}
		}(r)
	}
	wg.Wait()
}
