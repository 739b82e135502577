package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// bruteDirty diffs two snapshots edge-by-edge over the whole graph: every
// endpoint of an edge whose weight differs (including appear/disappear) is
// dirty. The oracle DirtyVertices must match while only touching the
// shards whose versions moved.
func bruteDirty(cur, prev *CISnapshot) map[VertexID]bool {
	dirty := make(map[VertexID]bool)
	curW := make(map[uint64]uint32)
	for _, m := range cur.edges {
		m.forEach(func(k uint64, w uint32) bool {
			curW[k] = w
			return true
		})
	}
	prevW := make(map[uint64]uint32)
	for _, m := range prev.edges {
		m.forEach(func(k uint64, w uint32) bool {
			prevW[k] = w
			return true
		})
	}
	for k, w := range curW {
		if prevW[k] != w {
			u, v := UnpackEdge(k)
			dirty[u], dirty[v] = true, true
		}
	}
	for k := range prevW {
		if _, live := curW[k]; !live {
			u, v := UnpackEdge(k)
			dirty[u], dirty[v] = true, true
		}
	}
	return dirty
}

// TestDirtyVerticesMatchesBruteDiff: under random mutation bursts between
// snapshots, the version-vector diff finds exactly the endpoints of
// changed edges, and reports no more dirty shards than the store has.
func TestDirtyVerticesMatchesBruteDiff(t *testing.T) {
	for _, shards := range []int{1, 8, 64} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := NewShardedCI(shards, 0)
			ref := NewCIGraph()
			weights := make(map[uint64]uint32)
			pages := make(map[VertexID]uint32)
			for i := 0; i < 400; i++ {
				applyRandomOp(rng, g, ref, weights, pages)
			}
			prev := g.Snapshot()
			for burst := 0; burst < 6; burst++ {
				for i := 0; i < rng.Intn(40); i++ {
					applyRandomOp(rng, g, ref, weights, pages)
				}
				cur := g.Snapshot()
				dirty, dirtyShards, ok := cur.DirtyVertices(prev)
				if !ok {
					t.Fatalf("shards=%d seed=%d: same-store snapshots incomparable", shards, seed)
				}
				if dirtyShards > g.NumShards() {
					t.Fatalf("dirtyShards %d > shards %d", dirtyShards, g.NumShards())
				}
				if want := bruteDirty(cur, prev); !reflect.DeepEqual(dirty, want) {
					t.Fatalf("shards=%d seed=%d burst=%d: dirty set %v != brute diff %v",
						shards, seed, burst, dirty, want)
				}
				prev = cur
			}
			// Idle store: zero dirty shards, empty dirty set.
			cur := g.Snapshot()
			dirty, dirtyShards, ok := cur.DirtyVertices(prev)
			if !ok || dirtyShards != 0 || len(dirty) != 0 {
				t.Fatalf("idle diff: ok=%v dirtyShards=%d |dirty|=%d", ok, dirtyShards, len(dirty))
			}
		}
	}
}

// TestDirtyVerticesIncomparable: diffs against nil, another store, or a
// different shard geometry refuse with ok=false.
func TestDirtyVerticesIncomparable(t *testing.T) {
	g := NewShardedCI(8, 0)
	g.AddEdgeWeightSig(1, 2, 3, 0)
	s := g.Snapshot()
	if _, _, ok := s.DirtyVertices(nil); ok {
		t.Fatal("nil prev comparable")
	}
	other := NewShardedCI(8, 0)
	other.AddEdgeWeightSig(1, 2, 3, 0)
	if _, _, ok := s.DirtyVertices(other.Snapshot()); ok {
		t.Fatal("snapshot of a different store comparable")
	}
	narrow := NewShardedCI(4, 0)
	narrow.AddEdgeWeightSig(1, 2, 3, 0)
	if _, _, ok := s.DirtyVertices(narrow.Snapshot()); ok {
		t.Fatal("different shard geometry comparable")
	}
}

// TestThresholdDeltaMatchesThresholdView chains delta prunings across
// random mutation bursts: every link must equal the from-scratch
// ThresholdView, clean shards must be reused by reference, and
// incomparable inputs must fall back to the full filter.
func TestThresholdDeltaMatchesThresholdView(t *testing.T) {
	const minW = 3
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := NewShardedCI(16, 0)
		ref := NewCIGraph()
		weights := make(map[uint64]uint32)
		pages := make(map[VertexID]uint32)
		for i := 0; i < 400; i++ {
			applyRandomOp(rng, g, ref, weights, pages)
		}
		prev := g.Snapshot()
		prevPruned := prev.ThresholdView(minW).(*CISnapshot)
		for burst := 0; burst < 6; burst++ {
			for i := 0; i < rng.Intn(40); i++ {
				applyRandomOp(rng, g, ref, weights, pages)
			}
			cur := g.Snapshot()
			pruned := cur.ThresholdDelta(prev, prevPruned, minW)
			if want := cur.ThresholdView(minW); !pruned.Equal(want) {
				t.Fatalf("seed=%d burst=%d: ThresholdDelta != ThresholdView", seed, burst)
			}
			for i := range cur.edges {
				if cur.versions[i] == prev.versions[i] &&
					reflect.ValueOf(pruned.edges[i]).Pointer() != reflect.ValueOf(prevPruned.edges[i]).Pointer() {
					t.Fatalf("seed=%d burst=%d: clean shard %d re-filtered", seed, burst, i)
				}
			}
			prev, prevPruned = cur, pruned
		}
		// minW <= 1 is the identity.
		cur := g.Snapshot()
		if cur.ThresholdDelta(prev, prevPruned, 1) != cur {
			t.Fatal("ThresholdDelta(1) is not the snapshot itself")
		}
		// Incomparable baselines still produce the exact pruning.
		other := NewShardedCI(16, 0)
		other.AddEdgeWeightSig(1, 2, 9, 0)
		os := other.Snapshot()
		if got := cur.ThresholdDelta(os, os.ThresholdView(minW).(*CISnapshot), minW); !got.Equal(cur.ThresholdView(minW)) {
			t.Fatal("incomparable-baseline delta != full ThresholdView")
		}
		if got := cur.ThresholdDelta(nil, nil, minW); !got.Equal(cur.ThresholdView(minW)) {
			t.Fatal("nil-baseline delta != full ThresholdView")
		}
	}
}

// shardWave is one random eviction wave against a seeded store, grouped by
// owning shard the way the sliding projector hands it to SubShardBatch:
// flat edge decrements, their stride-S per-signal shares, and page-count
// decrements.
type shardWave struct {
	edges map[int][]EdgeDelta
	sig   map[int][]uint32 // nil entries on an untracked store
	pages map[int][]PageDelta
}

// touched returns every shard the wave writes.
func (w shardWave) touched() map[int]bool {
	out := make(map[int]bool)
	for i := range w.edges {
		out[i] = true
	}
	for i := range w.pages {
		out[i] = true
	}
	return out
}

// seedWaveStore fills a sharded store (tracking nsig signals, 0 = none)
// and a pairwise reference with the same 30-author graph: every edge
// weighs 5 — split 3/2 over the first two signals when tracked — and
// every author has page count 4. It then draws a random decrement wave:
// some edges partially withdrawn, some to zero, every other author's page
// count reduced (to zero for some).
func seedWaveStore(nsig int, seed int64) (*ShardedCI, *CIGraph, shardWave) {
	g := NewShardedCI(8, nsig)
	ref := NewCIGraph()
	for u := VertexID(0); u < 30; u++ {
		for v := u + 1; v < 30; v += 3 {
			if nsig > 0 {
				g.AddEdgeWeightSig(u, v, 3, 0)
				g.AddEdgeWeightSig(u, v, 2, 1)
			} else {
				g.AddEdgeWeightSig(u, v, 5, 0)
			}
			ref.AddEdgeWeight(u, v, 5)
		}
		g.AddPageCount(u, 4)
		ref.AddPageCount(u, 4)
	}
	w := shardWave{edges: map[int][]EdgeDelta{}, sig: map[int][]uint32{}, pages: map[int][]PageDelta{}}
	rng := rand.New(rand.NewSource(seed))
	for _, e := range ref.Edges() {
		if rng.Intn(2) == 0 {
			continue
		}
		key := PackEdge(e.U, e.V)
		dec := uint32(rng.Intn(int(e.W))) + 1
		i := g.EdgeShard(key)
		w.edges[i] = append(w.edges[i], EdgeDelta{Key: key, W: dec})
		if nsig > 0 {
			// Withdraw from signal 0's share (3) first, the rest from
			// signal 1's, so the shares sum to the total.
			shares := make([]uint32, nsig)
			shares[0] = min(dec, 3)
			shares[1] = dec - shares[0]
			w.sig[i] = append(w.sig[i], shares...)
		}
	}
	for u := VertexID(0); u < 30; u += 2 {
		i := g.VertexShard(u)
		w.pages[i] = append(w.pages[i], PageDelta{V: u, N: uint32(rng.Intn(4)) + 1})
	}
	return g, ref, w
}

// TestSubShardBatch: a batched per-shard decrement wave equals the same
// decrements applied pairwise (entries deleted at zero), bumps each
// touched shard's version exactly once, withdraws per-signal shares in the
// same probe on a signal-tracking store, and panics on underflow like
// SubEdgeWeight — leaving the shard unlocked.
func TestSubShardBatch(t *testing.T) {
	// Signal tracking: the shares (3/2, see seedWaveStore) go with the
	// total, down to zero for a slot withdrawn whole.
	sg, _, swave := seedWaveStore(2, 11)
	for i := range swave.touched() {
		sg.SubShardBatch(i, swave.edges[i], swave.sig[i], swave.pages[i])
	}
	sgSnap := sg.Snapshot()
	for i, ds := range swave.edges {
		for k, d := range ds {
			u, v := UnpackEdge(d.Key)
			shares := swave.sig[i][k*2 : (k+1)*2]
			if got := sgSnap.SignalMix([]VertexID{u, v}); got[0] != uint64(3-shares[0]) || got[1] != uint64(2-shares[1]) {
				t.Fatalf("edge {%d,%d}: shares %v after withdrawing %v from [3 2]", u, v, got, shares)
			}
		}
	}

	g, ref, wave := seedWaveStore(0, 11)
	touched := wave.touched()
	before := g.Version()
	for i := range touched {
		g.SubShardBatch(i, wave.edges[i], nil, wave.pages[i])
	}
	if bumps := g.Version() - before; bumps != uint64(len(touched)) {
		t.Fatalf("wave bumped version %d times over %d touched shards", bumps, len(touched))
	}
	zeroed := 0
	for _, ds := range wave.edges {
		for _, d := range ds {
			u, v := UnpackEdge(d.Key)
			ref.SubEdgeWeight(u, v, d.W)
			if ref.Weight(u, v) == 0 {
				zeroed++
			}
		}
	}
	for _, ps := range wave.pages {
		for _, p := range ps {
			ref.SubPageCount(p.V, p.N)
		}
	}
	if zeroed == 0 {
		t.Fatal("wave withdrew no edge to zero; the delete-at-zero leg is untested")
	}
	snap := g.Snapshot()
	if !ref.Equal(snap) {
		t.Fatal("batched shard decrements diverged from pairwise reference")
	}
	if snap.NumEdges() != ref.NumEdges() || snap.NumAuthors() != len(ref.PageCounts()) {
		t.Fatalf("zeroed entries linger: %d edges / %d authors, reference has %d / %d",
			snap.NumEdges(), snap.NumAuthors(), ref.NumEdges(), len(ref.PageCounts()))
	}
	// An empty wave is a no-op, not a dirty unit.
	before = g.Version()
	g.SubShardBatch(0, nil, nil, nil)
	if g.Version() != before {
		t.Fatal("empty wave bumped the version")
	}

	// Underflow panics, mirroring SubEdgeWeight / SubPageCount, and must
	// not leave the shard locked.
	mustPanicUnlocked := func(name string, shard int, fn func()) {
		t.Helper()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic on underflow", name)
				}
			}()
			fn()
		}()
		if !g.shards[shard].mu.TryLock() {
			t.Fatalf("%s left shard %d locked", name, shard)
		}
		g.shards[shard].mu.Unlock()
	}
	key := PackEdge(200, 201)
	g.AddEdgeWeightSig(200, 201, 1, 0)
	mustPanicUnlocked("edge underflow", g.EdgeShard(key), func() {
		g.SubShardBatch(g.EdgeShard(key), []EdgeDelta{{Key: key, W: 2}}, nil, nil)
	})
	mustPanicUnlocked("page underflow", g.VertexShard(250), func() {
		g.SubShardBatch(g.VertexShard(250), nil, nil, []PageDelta{{V: 250, N: 1}})
	})
}

// TestAddShardBatchCOW: AddShardBatch writes respect snapshot isolation
// and bump the shard version (so DirtyVertices sees them).
func TestAddShardBatchCOW(t *testing.T) {
	g := NewShardedCI(4, 0)
	g.AddEdgeWeightSig(1, 2, 7, 0)
	s1 := g.Snapshot()
	key := PackEdge(1, 2)
	i := g.EdgeShard(key)
	// A page vertex owned by the same shard (a batch writes one shard).
	pv := VertexID(0)
	for g.VertexShard(pv) != i {
		pv++
	}
	g.AddShardBatch(i, 0, []EdgeDelta{{Key: key, W: 3}}, []PageDelta{{V: pv, N: 2}})
	if s1.Weight(1, 2) != 7 {
		t.Fatalf("frozen snapshot saw AddShardBatch write: weight %d", s1.Weight(1, 2))
	}
	s2 := g.Snapshot()
	if s2.Weight(1, 2) != 10 || s2.PageCount(pv) != 2 {
		t.Fatalf("AddShardBatch lost writes: weight %d, page %d", s2.Weight(1, 2), s2.PageCount(pv))
	}
	dirty, dirtyShards, ok := s2.DirtyVertices(s1)
	if !ok || dirtyShards == 0 || !dirty[1] || !dirty[2] {
		t.Fatalf("AddShardBatch invisible to DirtyVertices: ok=%v shards=%d dirty=%v", ok, dirtyShards, dirty)
	}
}

// TestAddShardBatchMatchesScalar: a random multi-signal batch grouped by
// shard and applied through AddShardBatch — one call per (signal, shard),
// keys repeated within a call — gives the same snapshot as the same
// increments applied one by one through AddEdgeWeightSig / AddPageCount:
// equal totals and page counts, and an equal signal mix over every
// author. Each non-empty call advances its shard's version exactly once.
func TestAddShardBatchMatchesScalar(t *testing.T) {
	const nsig, authors = 3, 40
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		batch := NewShardedCI(8, nsig)
		scalar := NewShardedCI(8, nsig)
		for si := 0; si < nsig; si++ {
			edges := make([][]EdgeDelta, batch.NumShards())
			pages := make([][]PageDelta, batch.NumShards())
			for k := 0; k < 300; k++ {
				u, v := VertexID(rng.Intn(authors)), VertexID(rng.Intn(authors))
				if u == v {
					continue
				}
				w := uint32(rng.Intn(4)) + 1
				key := PackEdge(u, v)
				i := batch.EdgeShard(key)
				edges[i] = append(edges[i], EdgeDelta{Key: key, W: w})
				scalar.AddEdgeWeightSig(u, v, w, si)
			}
			for k := 0; k < 60; k++ {
				u := VertexID(rng.Intn(authors))
				n := uint32(rng.Intn(3)) + 1
				i := batch.VertexShard(u)
				pages[i] = append(pages[i], PageDelta{V: u, N: n})
				scalar.AddPageCount(u, n)
			}
			for i := range edges {
				before := batch.Snapshot().ShardVersions()[i]
				batch.AddShardBatch(i, si, edges[i], pages[i])
				want := before
				if len(edges[i])+len(pages[i]) > 0 {
					want++
				}
				if got := batch.Snapshot().ShardVersions()[i]; got != want {
					t.Fatalf("seed=%d signal %d shard %d: version %d -> %d, want %d",
						seed, si, i, before, got, want)
				}
			}
		}
		bs, ss := batch.Snapshot(), scalar.Snapshot()
		if !bs.Equal(ss) {
			t.Fatalf("seed=%d: AddShardBatch snapshot != scalar snapshot", seed)
		}
		everyone := make([]VertexID, authors)
		for i := range everyone {
			everyone[i] = VertexID(i)
		}
		if bm, sm := bs.SignalMix(everyone), ss.SignalMix(everyone); !reflect.DeepEqual(bm, sm) {
			t.Fatalf("seed=%d: signal mix %v != scalar %v", seed, bm, sm)
		}
		for _, e := range ss.Edges() {
			pair := []VertexID{e.U, e.V}
			if bw, sw := bs.SignalMix(pair), ss.SignalMix(pair); !reflect.DeepEqual(bw, sw) {
				t.Fatalf("seed=%d edge {%d,%d}: shares %v != scalar %v", seed, e.U, e.V, bw, sw)
			}
		}
	}
}
