package tripoll

import (
	"math/rand"
	"testing"

	"coordbot/internal/graph"
)

// surveyAllSorted collects a full survey of the oriented view, sorted.
func surveyAllSorted(o *Oriented, opts Options) []Triangle {
	var out []Triangle
	o.SurveyAll(opts, nil, func(tr Triangle) { out = append(out, tr) })
	SortTriangles(out)
	return out
}

// edgeSetOf flattens an oriented view's out-lists into an undirected
// (minOrig, maxOrig) → weight map.
func edgeSetOf(o *Oriented) map[[2]graph.VertexID]uint32 {
	es := make(map[[2]graph.VertexID]uint32)
	for v := int32(0); v < int32(len(o.orig)); v++ {
		ids, wts := o.Out(v)
		for i, u := range ids {
			a, b := o.orig[v], o.orig[u]
			if b < a {
				a, b = b, a
			}
			es[[2]graph.VertexID{a, b}] = wts[i]
		}
	}
	return es
}

// checkOrientedInvariants verifies the structural invariants a patched view
// must preserve: out-lists strictly ascending and frozen-order directed,
// in-lists the exact transpose of out-lists, and live degrees matching the
// stored edges.
func checkOrientedInvariants(t *testing.T, o *Oriented) {
	t.Helper()
	n := int32(len(o.orig))
	liveDeg := make([]int32, n)
	type dirEdge struct{ from, to int32 }
	outEdges := make(map[dirEdge]bool)
	for v := int32(0); v < n; v++ {
		ids, wts := o.Out(v)
		if len(ids) != len(wts) {
			t.Fatalf("vertex %d: %d out-ids, %d weights", v, len(ids), len(wts))
		}
		for i, u := range ids {
			if i > 0 && ids[i-1] >= u {
				t.Fatalf("vertex %d: out-list not ascending at %d", v, i)
			}
			if !o.Less(v, u) {
				t.Fatalf("edge %d→%d against frozen order", v, u)
			}
			if wts[i] == 0 {
				t.Fatalf("edge %d→%d has zero weight", v, u)
			}
			outEdges[dirEdge{v, u}] = true
			liveDeg[v]++
			liveDeg[u]++
		}
	}
	inCount := 0
	for v := int32(0); v < n; v++ {
		in := o.in.slice(v)
		for i, u := range in {
			if i > 0 && in[i-1] >= u {
				t.Fatalf("vertex %d: in-list not ascending at %d", v, i)
			}
			if !outEdges[dirEdge{u, v}] {
				t.Fatalf("in-list edge %d→%d missing from out-lists", u, v)
			}
			inCount++
		}
	}
	if inCount != len(outEdges) {
		t.Fatalf("in-lists carry %d edges, out-lists %d", inCount, len(outEdges))
	}
	for v := int32(0); v < n; v++ {
		if o.live[v] != liveDeg[v] {
			t.Fatalf("vertex %d: live degree %d, stored edges say %d", v, o.live[v], liveDeg[v])
		}
	}
}

// addEdge adds w to edge {u,v} through the store's bulk write.
func addEdge(g *graph.ShardedCI, u, v graph.VertexID, w uint32) {
	key := graph.PackEdge(u, v)
	g.AddShardBatch(g.EdgeShard(key), 0, []graph.EdgeDelta{{Key: key, W: w}}, nil)
}

// runPatchStream drives one randomized ingest/withdraw stream through a
// persistent Oriented at the given rebuild fraction, checking after every
// cycle that the patched view is indistinguishable from one rebuilt from
// scratch: same edge set, same invariants, same full survey, and same
// dirty survey against a filtered-full oracle.
func runPatchStream(t *testing.T, seed int64, rebuildFrac float64, rounds int) *Oriented {
	const (
		cut = 2
		nv  = 60
	)
	opts := Options{MinTriangleWeight: cut}
	rng := rand.New(rand.NewSource(seed))
	g := graph.NewShardedCI(16, 0)
	for k := 0; k < 250; k++ {
		u := graph.VertexID(rng.Intn(nv))
		v := graph.VertexID(rng.Intn(nv))
		if u != v {
			addEdge(g, u, v, 1+uint32(rng.Intn(4)))
		}
	}
	prev := g.Snapshot()
	prevPruned := prev.ThresholdView(cut).(*graph.CISnapshot)
	o := Orient(prevPruned.BuildAdjacency())
	o.rebuildFrac = rebuildFrac

	for round := 0; round < rounds; round++ {
		// Occasional heavy rounds drift many vertices at once, forcing
		// epoch rollovers under the default fraction too.
		muts := 15
		if round%5 == 4 {
			muts = 120
		}
		dirty := make(map[graph.VertexID]bool)
		for k := 0; k < muts; k++ {
			u := graph.VertexID(rng.Intn(nv))
			v := graph.VertexID(rng.Intn(nv))
			if u == v {
				continue
			}
			if w := g.Snapshot().Weight(u, v); w > 0 && rng.Intn(3) == 0 {
				key := graph.PackEdge(u, v)
				g.SubShardBatch(g.EdgeShard(key), []graph.EdgeDelta{{Key: key, W: 1 + uint32(rng.Intn(int(w)))}}, nil, nil)
			} else {
				addEdge(g, u, v, 1+uint32(rng.Intn(3)))
			}
			dirty[u], dirty[v] = true, true
		}
		cur := g.Snapshot()
		pruned := cur.ThresholdDelta(prev, prevPruned, cut)
		patches, _, ok := pruned.EdgePatches(prevPruned)
		if !ok {
			t.Fatalf("round %d: pruned snapshots not comparable", round)
		}
		o.ApplyPatches(patches)

		ref := Orient(pruned.BuildAdjacency())
		checkOrientedInvariants(t, o)
		got, want := edgeSetOf(o), edgeSetOf(ref)
		if len(got) != len(want) {
			t.Fatalf("round %d: patched view has %d edges, rebuilt %d", round, len(got), len(want))
		}
		for e, w := range want {
			if got[e] != w {
				t.Fatalf("round %d: edge %v patched weight %d, rebuilt %d", round, e, got[e], w)
			}
		}
		ps, rs := surveyAllSorted(o, opts), surveyAllSorted(ref, opts)
		if len(ps) != len(rs) {
			t.Fatalf("round %d: patched survey %d triangles, rebuilt %d", round, len(ps), len(rs))
		}
		for i := range rs {
			if ps[i] != rs[i] {
				t.Fatalf("round %d: triangle %d patched %+v, rebuilt %+v", round, i, ps[i], rs[i])
			}
		}

		var ds []Triangle
		o.SurveyDirty(opts, dirty, nil, func(tr Triangle) { ds = append(ds, tr) })
		SortTriangles(ds)
		var wantDirty []Triangle
		for _, tr := range rs {
			if dirty[tr.X] || dirty[tr.Y] || dirty[tr.Z] {
				wantDirty = append(wantDirty, tr)
			}
		}
		if len(ds) != len(wantDirty) {
			t.Fatalf("round %d: dirty survey %d triangles, filtered full %d", round, len(ds), len(wantDirty))
		}
		for i := range wantDirty {
			if ds[i] != wantDirty[i] {
				t.Fatalf("round %d: dirty triangle %d = %+v, want %+v", round, i, ds[i], wantDirty[i])
			}
		}
		prev, prevPruned = cur, pruned
	}
	return o
}

// TestOrientedPatchedEqualsRebuilt: the tentpole property. Across
// randomized ingest/withdraw streams and every rebuild policy — rebuild on
// any drift (frac 0, an epoch rollover nearly every cycle), the default
// amortized fraction, and never rebuild (frozen order drifts unboundedly) —
// the patched Oriented stays structurally valid and produces byte-identical
// surveys to a from-scratch rebuild.
func TestOrientedPatchedEqualsRebuilt(t *testing.T) {
	t.Run("rebuild-every-drift", func(t *testing.T) {
		o := runPatchStream(t, 101, 0, 25)
		if o.Rebuilds() == 0 {
			t.Fatal("frac 0 never triggered a rebuild")
		}
		if o.Epoch() != o.Rebuilds() {
			t.Fatalf("epoch %d != rebuilds %d", o.Epoch(), o.Rebuilds())
		}
	})
	t.Run("default-frac", func(t *testing.T) {
		o := runPatchStream(t, 202, DefaultRebuildFrac, 25)
		if o.PatchedEdges() == 0 {
			t.Fatal("no patches were applied")
		}
	})
	t.Run("never-rebuild", func(t *testing.T) {
		o := runPatchStream(t, 303, 1e9, 25)
		if o.Rebuilds() != 0 || o.Epoch() != 0 {
			t.Fatalf("frac 1e9 rebuilt anyway: epoch %d rebuilds %d", o.Epoch(), o.Rebuilds())
		}
		if o.drifted == 0 {
			t.Fatal("stream never drifted a vertex")
		}
	})
}

// TestOrientedCompactPreservesContent: compaction is pure housekeeping —
// content, order, and survey output are unchanged, and the gap-buffer
// holes drop to zero.
func TestOrientedCompactPreservesContent(t *testing.T) {
	o := runPatchStream(t, 404, 1e9, 10) // never rebuild → holes accumulate
	opts := Options{MinTriangleWeight: 2}
	before := surveyAllSorted(o, opts)
	edgesBefore := edgeSetOf(o)
	o.out.compact()
	o.in.compact()
	if o.out.holes != 0 || o.in.holes != 0 {
		t.Fatalf("holes after compact: out %d, in %d", o.out.holes, o.in.holes)
	}
	checkOrientedInvariants(t, o)
	after := surveyAllSorted(o, opts)
	if len(before) != len(after) {
		t.Fatalf("survey changed across compact: %d → %d triangles", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("triangle %d changed across compact: %+v → %+v", i, before[i], after[i])
		}
	}
	edgesAfter := edgeSetOf(o)
	if len(edgesBefore) != len(edgesAfter) {
		t.Fatalf("edge count changed across compact: %d → %d", len(edgesBefore), len(edgesAfter))
	}
}

// TestIntersectInto pins the wedge-closure kernel against a map oracle,
// covering both merge and gallop regimes (including the swapped-argument
// gallop where positions must come back in (a, b) order).
func TestIntersectInto(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ascending := func(n, max int) []int32 {
		seen := make(map[int32]bool)
		for len(seen) < n {
			seen[int32(rng.Intn(max))] = true
		}
		out := make([]int32, 0, n)
		for v := range seen {
			out = append(out, v)
		}
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && out[j-1] > out[j]; j-- {
				out[j-1], out[j] = out[j], out[j-1]
			}
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		na := 1 + rng.Intn(40)
		nb := 1 + rng.Intn(40)
		if trial%3 == 0 {
			nb = na*gallopRatio + 1 + rng.Intn(100) // force gallop
		}
		if trial%3 == 1 {
			na, nb = nb, na
		}
		a := ascending(na, 4*na+8)
		b := ascending(nb, 4*nb+8)
		ia, ib := intersectInto(a, b, nil, nil)
		if len(ia) != len(ib) {
			t.Fatalf("trial %d: %d a-positions, %d b-positions", trial, len(ia), len(ib))
		}
		posB := make(map[int32]int32, len(b))
		for j, v := range b {
			posB[v] = int32(j)
		}
		k := 0
		for i, v := range a {
			j, ok := posB[v]
			if !ok {
				continue
			}
			if k >= len(ia) || ia[k] != int32(i) || ib[k] != j {
				t.Fatalf("trial %d: match %d: got (%d,%d), want (%d,%d)",
					trial, k, ia[k], ib[k], i, j)
			}
			k++
		}
		if k != len(ia) {
			t.Fatalf("trial %d: kernel found %d matches, oracle %d", trial, len(ia), k)
		}
	}
}

// TestTopKHeapMatchesStableSort: the bounded-heap top-k equals the full
// stable sort it replaced, for every k, on tie-heavy censuses where many
// triangles share a MinWeight.
func TestTopKHeapMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	ts := make([]Triangle, 300)
	for i := range ts {
		// Few distinct weights → heavy MinWeight ties at every k cut.
		ts[i] = Triangle{
			X: graph.VertexID(rng.Intn(40)), Y: graph.VertexID(50 + rng.Intn(40)),
			Z:   graph.VertexID(100 + rng.Intn(40)),
			WXY: uint32(1 + rng.Intn(3)), WXZ: uint32(1 + rng.Intn(3)), WYZ: uint32(1 + rng.Intn(3)),
		}
	}
	ref := make([]Triangle, len(ts))
	copy(ref, ts)
	SortTriangles(ref)
	// Reference: the pre-heap implementation, a full stable sort.
	fullSort := func(k int) []Triangle {
		out := make([]Triangle, len(ts))
		copy(out, ts)
		SortTriangles(out) // canonicalize duplicates' relative order
		for i := 1; i < len(out); i++ {
			for j := i; j > 0 && topkBefore(out[j], out[j-1]); j-- {
				out[j-1], out[j] = out[j], out[j-1]
			}
		}
		if k < len(out) {
			out = out[:k]
		}
		return out
	}
	for _, k := range []int{0, 1, 2, 7, 50, 299, 300, 500} {
		got := TopKByMinWeight(ts, k)
		want := fullSort(k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: heap returned %d, sort %d", k, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("k=%d: entry %d heap %+v, sort %+v", k, i, got[i], want[i])
			}
		}
	}
	// Input must not be mutated.
	probe := make([]Triangle, len(ts))
	copy(probe, ts)
	TopKByMinWeight(ts, 10)
	for i := range ts {
		if ts[i] != probe[i] {
			t.Fatal("TopKByMinWeight mutated its input")
		}
	}
}

// TestAssembleNoAllocs is the benchmark guard from the issue: triangle
// assembly must not allocate.
func TestAssembleNoAllocs(t *testing.T) {
	g := graph.NewCIGraph()
	g.AddEdgeWeight(30, 10, 5)
	g.AddEdgeWeight(10, 20, 7)
	g.AddEdgeWeight(20, 30, 3)
	adj := g.BuildAdjacency()
	var sink Triangle
	allocs := testing.AllocsPerRun(1000, func() {
		sink = Assemble(adj, 0, 1, 2, 4, 5, 6)
	})
	if allocs != 0 {
		t.Fatalf("Assemble allocates %.1f times per triangle, want 0", allocs)
	}
	_ = sink
}

// TestAssemblePermutationInvariant: every vertex-argument permutation of
// Assemble yields the same canonical triangle, with weights following
// their edges.
func TestAssemblePermutationInvariant(t *testing.T) {
	want := Triangle{X: 10, Y: 20, Z: 30, WXY: 5, WXZ: 3, WYZ: 7}
	type call struct {
		a, b, c       graph.VertexID
		wab, wac, wbc uint32
	}
	perms := []call{
		{10, 20, 30, 5, 3, 7},
		{10, 30, 20, 3, 5, 7},
		{20, 10, 30, 5, 7, 3},
		{20, 30, 10, 7, 5, 3},
		{30, 10, 20, 3, 7, 5},
		{30, 20, 10, 7, 3, 5},
	}
	for i, p := range perms {
		got := assembleIDs(p.a, p.b, p.c, p.wab, p.wac, p.wbc)
		if got != want {
			t.Fatalf("perm %d: got %+v, want %+v", i, got, want)
		}
	}
}

// BenchmarkAssemble reports allocs/op for the hot-path triangle assembly —
// CI runs it as a smoke test; the 0 allocs/op criterion is enforced by
// TestAssembleNoAllocs above.
func BenchmarkAssemble(b *testing.B) {
	g := graph.NewCIGraph()
	g.AddEdgeWeight(30, 10, 5)
	g.AddEdgeWeight(10, 20, 7)
	g.AddEdgeWeight(20, 30, 3)
	adj := g.BuildAdjacency()
	b.ReportAllocs()
	var sink Triangle
	for i := 0; i < b.N; i++ {
		sink = Assemble(adj, 0, 1, 2, uint32(i), 5, 6)
	}
	_ = sink
}

// BenchmarkTopKByMinWeight compares the bounded heap against census size.
func BenchmarkTopKByMinWeight(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	ts := make([]Triangle, 100000)
	for i := range ts {
		ts[i] = Triangle{
			X: graph.VertexID(rng.Intn(10000)), Y: graph.VertexID(20000 + rng.Intn(10000)),
			Z:   graph.VertexID(40000 + rng.Intn(10000)),
			WXY: uint32(1 + rng.Intn(50)), WXZ: uint32(1 + rng.Intn(50)), WYZ: uint32(1 + rng.Intn(50)),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TopKByMinWeight(ts, 25)
	}
}
