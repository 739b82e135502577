// Sharded CI store with copy-on-write snapshots.
//
// The map-backed CIGraph funnels every mutation through one global map and
// pays O(E) to Clone — the snapshot cost that dominates an always-on
// daemon surveying a large live graph. ShardedCI stripes the edge store and
// the P' table across P power-of-two shards by key hash; each shard is a
// self-contained (edge table + page-count map) unit with its own lock and
// a monotonic dirty-version counter.
//
// Edges live in a flat open-addressed edge table per shard (edgetable.go),
// not a Go map: the projection's per-pair upsert/evict traffic costs a
// linear probe over flat arrays, with multi-signal attribution folded into
// the same probe via the table's struct-of-arrays signal lanes. Page
// counts stay map-backed — P' traffic is per (author, object), orders of
// magnitude lighter than the per-pair stream.
//
// Snapshots are copy-on-write: Snapshot grabs each shard's current table
// and page map by reference and marks the shard shared — O(P), independent
// of E. The first mutation to land on a shared shard clones only that
// shard (a per-lane memcpy of the table, O(capacity/P), while holding only
// that shard's lock) before writing, so a steady-state daemon pays
// O(dirty shards) per survey cycle and ingestion never stalls behind a
// full-graph copy.
//
// Snapshot consistency is per shard: writers running concurrently with
// Snapshot may land between shard grabs. For a globally consistent
// point-in-time snapshot, serialize writers around the Snapshot call (the
// detectd daemon does, under its ingest mutex — the call is cheap enough
// that the lock hold is negligible).
package graph

import (
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// DefaultShards is the shard count used when NewShardedCI is given n <= 0.
// 64 keeps per-shard COW clones small while the per-snapshot overhead
// (one pointer grab per shard) stays trivial.
const DefaultShards = 64

// storeIDs hands out a unique identity per ShardedCI so snapshot diffs
// can refuse to compare versions across unrelated stores.
var storeIDs atomic.Uint64

// mix64 is the splitmix64 finalizer — the shard router and, via its high
// bits, the edge table hash. Edge keys are (u<<32|v) with correlated low
// bits, so a full-avalanche mix is needed for even striping; shards take
// the mix's LOW bits and the per-shard tables index by its HIGH bits, so
// the two stripings stay independent.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// ciShard is one stripe of the store: its edge table (totals plus
// per-signal share lanes), its slice of the P' table, a dirty-version
// counter, and the COW flag.
type ciShard struct {
	mu    sync.RWMutex
	edges *edgeTable
	pages map[VertexID]uint32
	// version counts mutations to this shard (monotonic).
	version uint64
	// shared marks the current table/map as referenced by a live snapshot;
	// the next mutation clones them first (copy-on-write).
	shared bool
}

// own makes the shard's edge table and page map writable, cloning them if
// a snapshot holds the current ones. The table clone is a per-lane
// memcpy. Caller holds sh.mu.
func (sh *ciShard) own() {
	if !sh.shared {
		return
	}
	sh.edges = sh.edges.clone()
	sh.pages = maps.Clone(sh.pages)
	sh.shared = false
}

// ShardedCI is the sharded, internally synchronized CI store. It is a
// writer with one bulk write per direction (AddShardBatch, SubShardBatch):
// analysis reads go through Snapshot, and the only reads on the live
// store are the few point reads below. All methods are safe
// for concurrent use; reads take per-shard RLocks, mutations per-shard
// write locks. Zero value is not usable — create with NewShardedCI.
type ShardedCI struct {
	shards []ciShard
	mask   uint64
	// numSignals is the per-signal breakdown width (0 = untracked; see
	// NewShardedCI).
	numSignals int
	// id is the store identity; snapshots carry it so per-shard version
	// comparisons are only made between snapshots of the same store.
	id uint64
	// version aggregates mutations across shards (read lock-free by the
	// daemon's idle-survey check).
	version atomic.Uint64
}

// NewShardedCI creates an empty sharded store with n shards, rounded up to
// a power of two (n <= 0 means DefaultShards), keeping a per-signal weight
// breakdown for numSignals signals in each shard table's share lanes
// (signals.go); numSignals < 2 tracks none.
func NewShardedCI(n, numSignals int) *ShardedCI {
	if n <= 0 {
		n = DefaultShards
	}
	p := 1
	for p < n {
		p <<= 1
	}
	if numSignals < 2 {
		numSignals = 0
	}
	g := &ShardedCI{shards: make([]ciShard, p), mask: uint64(p - 1), numSignals: numSignals, id: storeIDs.Add(1)}
	for i := range g.shards {
		g.shards[i].edges = newEdgeTable(0, numSignals)
		g.shards[i].pages = make(map[VertexID]uint32)
	}
	return g
}

// NumShards returns the shard count (a power of two).
func (g *ShardedCI) NumShards() int { return len(g.shards) }

// EdgeShard returns the shard index owning packed edge key.
func (g *ShardedCI) EdgeShard(key uint64) int { return int(mix64(key) & g.mask) }

// VertexShard returns the shard index owning author v's page count.
func (g *ShardedCI) VertexShard(v VertexID) int { return int(mix64(uint64(v)) & g.mask) }

// Version returns the aggregate mutation counter. Unchanged version means
// unchanged graph (the converse need not hold).
func (g *ShardedCI) Version() uint64 { return g.version.Load() }

// SubShardBatch withdraws a shard-grouped flat delta from shard i under
// one lock acquisition and one version bump: edge decrements (with
// optional stride-NumSignals share attribution, as in
// edgeTable.subBatch), then page-count decrements, entries deleted at
// zero. The shard's dirty version advances once per wave, not once per
// pair, so downstream delta surveys see one coherent dirty unit. Panics on
// underflow (leaving the shard unlocked). Keys routed to the wrong shard
// are a caller bug and would silently corrupt lookups; callers route with
// EdgeShard / VertexShard. This is the eviction-wave primitive of the
// sliding projector.
func (g *ShardedCI) SubShardBatch(i int, edges []EdgeDelta, sig []uint32, pages []PageDelta) {
	if len(edges) == 0 && len(pages) == 0 {
		return
	}
	sh := &g.shards[i]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.own()
	sh.edges.subBatch(edges, sig)
	for _, p := range pages {
		cur, ok := sh.pages[p.V]
		if !ok || cur < p.N {
			panic(fmt.Sprintf("graph: author %d page count underflow (%d - %d)", p.V, cur, p.N))
		}
		if cur == p.N {
			delete(sh.pages, p.V)
		} else {
			sh.pages[p.V] = cur - p.N
		}
	}
	sh.version++
	g.version.Add(1)
}

// AddShardBatch adds a shard-grouped flat delta to shard i under one lock
// acquisition and one version bump, attributing every edge increment to
// signal si (ignored on an untracked store): the store's one increment
// path, the counterpart of SubShardBatch, used by the batch projection's
// per-shard merge and the sliding projector's waves. Repeated keys are
// upserted in order. As there, keys must route to shard i (EdgeShard /
// VertexShard), and an empty batch is a no-op.
func (g *ShardedCI) AddShardBatch(i, si int, edges []EdgeDelta, pages []PageDelta) {
	if len(edges) == 0 && len(pages) == 0 {
		return
	}
	sh := &g.shards[i]
	sh.mu.Lock()
	sh.own()
	for _, d := range edges {
		sh.edges.addSig(d.Key, d.W, si)
	}
	for _, p := range pages {
		sh.pages[p.V] += p.N
	}
	sh.version++
	sh.mu.Unlock()
	g.version.Add(1)
}

// Snapshot returns a copy-on-write snapshot: O(shards) regardless of graph
// size. The snapshot is immutable; the live store clones a shard's table
// and page map before its next mutation to that shard. See the package
// comment for the per-shard consistency caveat under concurrent writers.
func (g *ShardedCI) Snapshot() *CISnapshot {
	p := len(g.shards)
	snap := &CISnapshot{
		edges:      make([]*edgeTable, p),
		pages:      make([]map[VertexID]uint32, p),
		versions:   make([]uint64, p),
		mask:       g.mask,
		storeID:    g.id,
		numSignals: g.numSignals,
	}
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.Lock()
		sh.shared = true
		snap.edges[i] = sh.edges
		snap.pages[i] = sh.pages
		snap.versions[i] = sh.version
		sh.mu.Unlock()
	}
	return snap
}

// --- point reads ------------------------------------------------------
//
// The live store is read through Snapshot. PageCount and ThresholdView
// stay for the benchmark's staged batch pass, NumEdges for the daemon's
// /v1/stats gauge.

// PageCount returns P'_u.
func (g *ShardedCI) PageCount(u VertexID) uint32 {
	sh := &g.shards[g.VertexShard(u)]
	sh.mu.RLock()
	n := sh.pages[u]
	sh.mu.RUnlock()
	return n
}

// NumEdges returns |I|.
func (g *ShardedCI) NumEdges() int {
	n := 0
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		n += sh.edges.size()
		sh.mu.RUnlock()
	}
	return n
}

// ThresholdView returns ThresholdView(minW) of a fresh snapshot.
func (g *ShardedCI) ThresholdView(minW uint32) CIView { return g.Snapshot().ThresholdView(minW) }

// --- snapshots ----------------------------------------------------------

// CISnapshot is an immutable copy-on-write snapshot of a ShardedCI: one
// frozen (edge table, page map) pair per shard. It is safe for concurrent
// readers and implements CIView, so surveys and scores run on it directly
// without materializing a map-backed graph.
type CISnapshot struct {
	edges    []*edgeTable
	pages    []map[VertexID]uint32
	versions []uint64
	mask     uint64
	// storeID identifies the ShardedCI this snapshot came from; version
	// vectors are only comparable between snapshots of the same store.
	storeID uint64
	// numSignals is the per-signal breakdown width frozen in the shard
	// tables' share lanes (signals.go). Threshold products drop the
	// breakdown — attribution reads go to the raw snapshot, never to
	// pruned views.
	numSignals int
}

// NumShards returns the shard count.
func (s *CISnapshot) NumShards() int { return len(s.edges) }

// ShardVersions returns the per-shard dirty versions at snapshot time.
// Two snapshots with an equal version share that shard's table by
// reference — the COW invariant the property tests pin down.
// surface:keep TestSnapshotSharesCleanShards and stream
// TestEvictionWaveBatchesShardWrites (one version per wave) read it.
func (s *CISnapshot) ShardVersions() []uint64 {
	out := make([]uint64, len(s.versions))
	copy(out, s.versions)
	return out
}

// DirtyVertices diffs s against an earlier snapshot prev of the same
// store: it returns the set of vertices incident to any edge added,
// evicted, or reweighted between the two snapshots — the dirty frontier a
// delta survey re-enumerates — plus the number of shards whose version
// advanced. Shards with an equal version share their tables by reference
// (the COW invariant) and are skipped without diffing, so the cost is
// proportional to the dirtied shards, not the snapshot. ok is false when
// the snapshots are not comparable (nil prev, a different store, or
// different shard geometry); callers must then fall back to a full
// survey. Page-count-only mutations dirty a shard's version but introduce
// no dirty vertices: P' drift never changes the triangle set, only the
// scores computed downstream from live page counts.
func (s *CISnapshot) DirtyVertices(prev *CISnapshot) (dirty map[VertexID]bool, dirtyShards int, ok bool) {
	if prev == nil || prev.storeID != s.storeID || prev.mask != s.mask ||
		len(prev.edges) != len(s.edges) {
		return nil, 0, false
	}
	dirty = make(map[VertexID]bool)
	for i := range s.edges {
		if s.versions[i] == prev.versions[i] {
			continue
		}
		dirtyShards++
		cur, old := s.edges[i], prev.edges[i]
		cur.forEach(func(key uint64, w uint32) bool {
			if old.get(key) != w {
				u, v := UnpackEdge(key)
				dirty[u], dirty[v] = true, true
			}
			return true
		})
		old.forEach(func(key uint64, _ uint32) bool {
			if !cur.has(key) {
				u, v := UnpackEdge(key)
				dirty[u], dirty[v] = true, true
			}
			return true
		})
	}
	return dirty, dirtyShards, true
}

// ThresholdDelta computes ThresholdView(minW) incrementally: shards
// unchanged since prev reuse prevPruned's already-filtered table by
// reference, and only dirtied shards are re-filtered — O(dirtied shards)
// instead of O(edges) per survey cycle. prevPruned must be the minW
// threshold of prev (a prior ThresholdView/ThresholdDelta product); when
// the snapshots are not comparable the full ThresholdView runs instead,
// so the result is always exactly ThresholdView(minW) of s.
func (s *CISnapshot) ThresholdDelta(prev, prevPruned *CISnapshot, minW uint32) *CISnapshot {
	if minW <= 1 {
		return s
	}
	if prev == nil || prevPruned == nil ||
		prev.storeID != s.storeID || prevPruned.storeID != s.storeID ||
		prev.mask != s.mask || prevPruned.mask != s.mask ||
		len(prev.edges) != len(s.edges) || len(prevPruned.edges) != len(s.edges) {
		return s.ThresholdView(minW).(*CISnapshot)
	}
	p := len(s.edges)
	out := &CISnapshot{
		edges:    make([]*edgeTable, p),
		pages:    s.pages,
		versions: s.versions,
		mask:     s.mask,
		storeID:  s.storeID,
	}
	for i := 0; i < p; i++ {
		// Reuse demands the shard be unchanged since prev AND prevPruned
		// actually be prev's pruning of it (version match both ways).
		if s.versions[i] == prev.versions[i] && prevPruned.versions[i] == prev.versions[i] {
			out.edges[i] = prevPruned.edges[i]
			continue
		}
		out.edges[i] = s.edges[i].threshold(minW)
	}
	return out
}

// threshold returns a fresh untracked table holding t's entries with
// weight >= minW, sized exactly (two passes: count, then insert).
func (t *edgeTable) threshold(minW uint32) *edgeTable {
	kept := 0
	for i, k := range t.keys {
		if k != 0 && t.w[i] >= minW {
			kept++
		}
	}
	out := newEdgeTable(kept, 0)
	for i, k := range t.keys {
		if k != 0 && t.w[i] >= minW {
			out.add(k, t.w[i])
		}
	}
	return out
}

// Weight returns w'_uv (0 if absent or u == v).
func (s *CISnapshot) Weight(u, v VertexID) uint32 {
	if u == v {
		return 0
	}
	key := PackEdge(u, v)
	return s.edges[mix64(key)&s.mask].get(key)
}

// PageCount returns P'_u.
func (s *CISnapshot) PageCount(u VertexID) uint32 {
	return s.pages[mix64(uint64(u))&s.mask][u]
}

// NumEdges returns |I|.
func (s *CISnapshot) NumEdges() int {
	n := 0
	for _, t := range s.edges {
		n += t.size()
	}
	return n
}

// NumAuthors returns the number of entries in the P' table.
func (s *CISnapshot) NumAuthors() int {
	n := 0
	for _, m := range s.pages {
		n += len(m)
	}
	return n
}

// NumVertices returns the number of authors with at least one CI edge.
func (s *CISnapshot) NumVertices() int {
	seen := make(map[VertexID]struct{})
	for _, t := range s.edges {
		t.forEach(func(key uint64, _ uint32) bool {
			u, v := UnpackEdge(key)
			seen[u] = struct{}{}
			seen[v] = struct{}{}
			return true
		})
	}
	return len(seen)
}

// MaxWeight returns the largest edge weight.
func (s *CISnapshot) MaxWeight() uint32 {
	var mw uint32
	for _, t := range s.edges {
		t.forEach(func(_ uint64, w uint32) bool {
			if w > mw {
				mw = w
			}
			return true
		})
	}
	return mw
}

// ForEachEdge iterates every edge in unspecified order.
func (s *CISnapshot) ForEachEdge(fn func(u, v VertexID, w uint32) bool) {
	for _, t := range s.edges {
		stop := false
		t.forEach(func(key uint64, w uint32) bool {
			u, v := UnpackEdge(key)
			if !fn(u, v, w) {
				stop = true
				return false
			}
			return true
		})
		if stop {
			return
		}
	}
}

// Edges returns all edges, sorted by (U, V).
func (s *CISnapshot) Edges() []WeightedEdge {
	out := make([]WeightedEdge, 0, s.NumEdges())
	for _, t := range s.edges {
		t.forEach(func(key uint64, w uint32) bool {
			u, v := UnpackEdge(key)
			out = append(out, WeightedEdge{U: u, V: v, W: w})
			return true
		})
	}
	slices.SortFunc(out, compareEdgeUV)
	return out
}

// PageCounts returns a merged copy of the P' table.
func (s *CISnapshot) PageCounts() map[VertexID]uint32 {
	out := make(map[VertexID]uint32, s.NumAuthors())
	for _, m := range s.pages {
		for v, n := range m {
			out[v] = n
		}
	}
	return out
}

// ThresholdView filters shards in parallel, returning a new snapshot whose
// edge tables keep only weights >= minW. Page maps are shared by reference
// (frozen, and P' is unaffected by edge pruning).
func (s *CISnapshot) ThresholdView(minW uint32) CIView {
	if minW <= 1 {
		return s
	}
	p := len(s.edges)
	out := &CISnapshot{
		edges:    make([]*edgeTable, p),
		pages:    s.pages,
		versions: s.versions,
		mask:     s.mask,
		storeID:  s.storeID,
	}
	parallelShards(p, func(i int) {
		out.edges[i] = s.edges[i].threshold(minW)
	})
	return out
}

// Equal reports view equality.
func (s *CISnapshot) Equal(other CIView) bool { return viewsEqual(s, other) }

// parallelShards runs fn(0..n-1) across min(GOMAXPROCS, n) workers.
func parallelShards(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// BuildAdjacency materializes the CSR adjacency view, built shard-parallel:
// vertex collection and degree counts fan out over shards, the CSR fill
// uses atomic per-vertex cursors, and the per-vertex neighbor sorts fan
// out over vertex ranges. Output is byte-identical to the map-backed
// CIGraph.BuildAdjacency on the same graph (sorted neighbor lists make
// the result independent of fill order).
func (s *CISnapshot) BuildAdjacency() *Adjacency {
	p := len(s.edges)

	// Phase 1: per-shard distinct endpoint collection.
	perShard := make([][]VertexID, p)
	parallelShards(p, func(i int) {
		seen := make(map[VertexID]struct{})
		s.edges[i].forEach(func(key uint64, _ uint32) bool {
			u, v := UnpackEdge(key)
			seen[u] = struct{}{}
			seen[v] = struct{}{}
			return true
		})
		vs := make([]VertexID, 0, len(seen))
		for v := range seen {
			vs = append(vs, v)
		}
		perShard[i] = vs
	})
	var orig []VertexID
	for _, vs := range perShard {
		orig = append(orig, vs...)
	}
	slices.Sort(orig)
	// Dedupe: the same author appears once per shard that has an incident
	// edge.
	w := 0
	for i, v := range orig {
		if i == 0 || v != orig[w-1] {
			orig[w] = v
			w++
		}
	}
	orig = orig[:w]
	n := len(orig)
	dense := make(map[VertexID]int32, n)
	for i, v := range orig {
		dense[v] = int32(i)
	}

	adj := &Adjacency{Orig: orig, Dense: dense, Off: make([]int, n+1)}
	if n == 0 {
		return adj
	}

	// Phase 2: degree counts (atomic, shard-parallel).
	deg := make([]int32, n)
	parallelShards(p, func(i int) {
		s.edges[i].forEach(func(key uint64, _ uint32) bool {
			u, v := UnpackEdge(key)
			atomic.AddInt32(&deg[dense[u]], 1)
			atomic.AddInt32(&deg[dense[v]], 1)
			return true
		})
	})
	for i := 0; i < n; i++ {
		adj.Off[i+1] = adj.Off[i] + int(deg[i])
	}
	m := adj.Off[n]
	adj.Nbr = make([]int32, m)
	adj.Wt = make([]uint32, m)

	// Phase 3: CSR fill with atomic per-vertex cursors.
	cursor := make([]int32, n)
	parallelShards(p, func(i int) {
		s.edges[i].forEach(func(key uint64, wgt uint32) bool {
			u, v := UnpackEdge(key)
			du, dv := dense[u], dense[v]
			at := adj.Off[du] + int(atomic.AddInt32(&cursor[du], 1)) - 1
			adj.Nbr[at], adj.Wt[at] = dv, wgt
			at = adj.Off[dv] + int(atomic.AddInt32(&cursor[dv], 1)) - 1
			adj.Nbr[at], adj.Wt[at] = du, wgt
			return true
		})
	})

	// Phase 4: sort each neighbor list (with parallel weights), fanning
	// out over vertices.
	parallelShards(n, func(i int) {
		lo, hi := adj.Off[i], adj.Off[i+1]
		sortRow(adj.Nbr[lo:hi], adj.Wt[lo:hi])
	})
	return adj
}
