// Persistent oriented adjacency with a stable epoch order.
//
// The degree-ordered orientation that bounds TriPoll's wedge counts has a
// non-local failure mode under streaming updates: one edge insertion bumps
// two degrees, which can flip the relative order of those endpoints against
// *every* neighbor, cascading reorientation across the graph. The fix here
// is to freeze the order: at epoch start each vertex's rank key is fixed to
// its (degree, dense id) at that instant, and all subsequent patches orient
// against the frozen key. An edge patch then touches exactly two vertices'
// lists — the orientation of every other edge is unchanged by construction.
//
// Frozen ranks drift from live degrees as the stream moves. Drift does not
// threaten correctness (any acyclic orientation enumerates each triangle
// exactly once); it threatens the arboricity bound on out-degrees that
// makes wedge counts near-optimal. So the structure counts drifted
// vertices — live degree ≠ frozen degree — and re-freezes (Reorient: a full
// rebuild opening a new epoch) only when more than RebuildFrac of the
// vertices have drifted, amortizing the O(E) rebuild over many O(patch)
// cycles. Vertices first seen mid-epoch get an infinite frozen degree: they
// orient as sinks (no out-edges), which keeps their patches trivially local
// and counts them as drifted from birth.
//
// Storage is a single flat CSR per direction (out-lists with weights,
// weightless in-lists for the dirty-survey frontier) with per-vertex gap
// capacity: an insertion that outgrows its slot relocates that one list to
// the tail of the backing array, leaving a hole; holes are reclaimed by
// compaction at epoch boundaries (and opportunistically when they exceed
// half the backing). Wedge closure runs as a sorted-intersection kernel
// over out-lists — linear merge for near-equal lengths, galloping for
// lopsided ones — instead of a binary search per wedge.
package tripoll

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sync"

	"coordbot/internal/graph"
)

// DefaultRebuildFrac is the drift fraction above which ApplyPatches
// re-freezes the epoch order: a quarter of the live vertices.
const DefaultRebuildFrac = 0.25

// frozenInf is the frozen degree assigned to vertices first seen after the
// epoch froze: larger than any real degree, so they orient as sinks.
const frozenInf = math.MaxInt32

// gallopRatio is the length ratio beyond which the intersection kernel
// switches from linear merge to galloping the shorter list through the
// longer one.
const gallopRatio = 16

// Oriented holds the directed view of an adjacency under the stable epoch
// order: every edge points from the endpoint with the lower frozen
// (degree, id) key to the higher. It survives across survey cycles —
// ApplyPatches folds a snapshot diff in place, Reorient opens a new epoch —
// and is exported so network-transport surveys (internal/ygmnet) can reuse
// the exact orientation and closing-edge lookup.
type Oriented struct {
	// orig/dense map dense vertex ids to original author ids and back.
	// Until the first patch they alias the source adjacency's tables;
	// ensureOwned clones before any mutation.
	orig  []graph.VertexID
	dense map[graph.VertexID]int32
	owned bool
	// fkey is the frozen rank key: (frozen degree << 32) | dense id — a
	// strict total order that patches never move.
	fkey []int64
	// frozen / live are the epoch-start and current degrees; a vertex is
	// drifted when they differ.
	frozen []int32
	live   []int32

	// out: oriented out-lists (ascending dense id) with parallel weights.
	// in: weightless in-lists — the reverse direction, maintained so the
	// dirty survey can find the pivots that can see a dirty vertex without
	// an O(E) scan.
	out csr
	in  csr

	drifted     int
	rebuildFrac float64

	epoch    int64
	patched  int64
	rebuilds int64
}

// csr is a flat adjacency array with per-vertex gap capacity: vertex v's
// live, ascending ids occupy ids[off[v] : off[v]+ln[v]] inside a slot of
// capacity cp[v]. wts, when non-nil, carries parallel weights. Outgrown
// slots relocate to the tail (leaving cp[v] dead entries counted in holes);
// compact rewrites the backing tight.
type csr struct {
	off   []int32
	ln    []int32
	cp    []int32
	ids   []int32
	wts   []uint32
	holes int
}

func (c *csr) slice(v int32) []int32 {
	s := c.off[v]
	return c.ids[s : s+c.ln[v]]
}

// find binary-searches vertex v's live region for u, returning the
// position (relative to the region) and whether u is present.
func (c *csr) find(v, u int32) (int32, bool) {
	base := c.off[v]
	lo, hi := int32(0), c.ln[v]
	for lo < hi {
		mid := (lo + hi) / 2
		if c.ids[base+mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < c.ln[v] && c.ids[base+lo] == u
}

// insert adds u to v's list with weight w (ignored for weightless lists);
// if u is already present its weight is overwritten.
func (c *csr) insert(v, u int32, w uint32) {
	pos, found := c.find(v, u)
	if found {
		if c.wts != nil {
			c.wts[c.off[v]+pos] = w
		}
		return
	}
	if c.ln[v] == c.cp[v] {
		c.grow(v)
	}
	base, n := c.off[v], c.ln[v]
	copy(c.ids[base+pos+1:base+n+1], c.ids[base+pos:base+n])
	c.ids[base+pos] = u
	if c.wts != nil {
		copy(c.wts[base+pos+1:base+n+1], c.wts[base+pos:base+n])
		c.wts[base+pos] = w
	}
	c.ln[v] = n + 1
}

// setWeight overwrites u's weight in v's list, reporting presence.
func (c *csr) setWeight(v, u int32, w uint32) bool {
	pos, found := c.find(v, u)
	if !found {
		return false
	}
	c.wts[c.off[v]+pos] = w
	return true
}

// remove deletes u from v's list, reporting whether it was present.
func (c *csr) remove(v, u int32) bool {
	pos, found := c.find(v, u)
	if !found {
		return false
	}
	base, n := c.off[v], c.ln[v]
	copy(c.ids[base+pos:base+n-1], c.ids[base+pos+1:base+n])
	if c.wts != nil {
		copy(c.wts[base+pos:base+n-1], c.wts[base+pos+1:base+n])
	}
	c.ln[v] = n - 1
	return true
}

// grow relocates v's slot to the tail of the backing with doubled
// capacity, abandoning the old slot as holes.
func (c *csr) grow(v int32) {
	ncap := c.cp[v] * 2
	if ncap < 4 {
		ncap = 4
	}
	nbase := int32(len(c.ids))
	c.ids = append(c.ids, make([]int32, ncap)...)
	copy(c.ids[nbase:], c.ids[c.off[v]:c.off[v]+c.ln[v]])
	if c.wts != nil {
		c.wts = append(c.wts, make([]uint32, ncap)...)
		copy(c.wts[nbase:], c.wts[c.off[v]:c.off[v]+c.ln[v]])
	}
	c.holes += int(c.cp[v])
	c.off[v], c.cp[v] = nbase, ncap
}

// addVertex appends an empty zero-capacity slot.
func (c *csr) addVertex() {
	c.off = append(c.off, int32(len(c.ids)))
	c.ln = append(c.ln, 0)
	c.cp = append(c.cp, 0)
}

// compact rewrites the backing tight: every slot's capacity shrinks to its
// live length and holes drop to zero. Content is unchanged.
func (c *csr) compact() {
	total := 0
	for _, l := range c.ln {
		total += int(l)
	}
	nids := make([]int32, 0, total)
	var nwts []uint32
	if c.wts != nil {
		nwts = make([]uint32, 0, total)
	}
	for v := range c.off {
		s := c.off[v]
		c.off[v] = int32(len(nids))
		nids = append(nids, c.ids[s:s+c.ln[v]]...)
		if c.wts != nil {
			nwts = append(nwts, c.wts[s:s+c.ln[v]]...)
		}
		c.cp[v] = c.ln[v]
	}
	c.ids, c.wts, c.holes = nids, nwts, 0
}

// Orient builds the oriented view of adj, freezing the epoch order at the
// current (degree, id) ranks. The result aliases adj's vertex tables until
// the first patch.
func Orient(adj *graph.Adjacency) *Oriented {
	n := adj.NumVertices()
	o := &Oriented{
		orig:        adj.Orig,
		dense:       adj.Dense,
		fkey:        make([]int64, n),
		frozen:      make([]int32, n),
		live:        make([]int32, n),
		rebuildFrac: DefaultRebuildFrac,
	}
	for v := 0; v < n; v++ {
		d := int32(adj.Degree(int32(v)))
		o.frozen[v], o.live[v] = d, d
		o.fkey[v] = int64(d)<<32 | int64(v)
	}
	outDeg := make([]int32, n)
	inDeg := make([]int32, n)
	for v := int32(0); v < int32(n); v++ {
		for _, u := range adj.Neighbors(v) {
			if o.fkey[v] < o.fkey[u] {
				outDeg[v]++
			} else {
				inDeg[v]++
			}
		}
	}
	o.out = newCSR(outDeg, true)
	o.in = newCSR(inDeg, false)
	for v := int32(0); v < int32(n); v++ {
		nbr, wts := adj.Neighbors(v), adj.Weights(v)
		for i, u := range nbr {
			// Neighbor lists are ascending; sequential fill keeps every
			// oriented list sorted without a sort pass.
			if o.fkey[v] < o.fkey[u] {
				at := o.out.off[v] + o.out.ln[v]
				o.out.ids[at] = u
				o.out.wts[at] = wts[i]
				o.out.ln[v]++
			} else {
				at := o.in.off[v] + o.in.ln[v]
				o.in.ids[at] = u
				o.in.ln[v]++
			}
		}
	}
	return o
}

// newCSR allocates a tight flat CSR for the given per-vertex lengths with
// ln zeroed for sequential fill.
func newCSR(deg []int32, weighted bool) csr {
	n := len(deg)
	c := csr{off: make([]int32, n), ln: make([]int32, n), cp: make([]int32, n)}
	total := int32(0)
	for v, d := range deg {
		c.off[v] = total
		c.cp[v] = d
		total += d
	}
	c.ids = make([]int32, total)
	if weighted {
		c.wts = make([]uint32, total)
	}
	return c
}

// Less is the stable epoch total order: by frozen (degree, dense id).
// At epoch start it coincides with the live-degree order.
func (o *Oriented) Less(a, b int32) bool { return o.fkey[a] < o.fkey[b] }

// Out returns dense vertex v's out-neighbors and parallel weights
// (aliasing internal storage; invalidated by ApplyPatches/Reorient).
func (o *Oriented) Out(v int32) ([]int32, []uint32) {
	s := o.out.off[v]
	return o.out.ids[s : s+o.out.ln[v]], o.out.wts[s : s+o.out.ln[v]]
}

// Epoch returns the orientation epoch (0 at Orient, +1 per Reorient).
func (o *Oriented) Epoch() int64 { return o.epoch }

// PatchedEdges returns the cumulative count of edge patches applied.
func (o *Oriented) PatchedEdges() int64 { return o.patched }

// Rebuilds returns the cumulative count of drift-triggered Reorients.
func (o *Oriented) Rebuilds() int64 { return o.rebuilds }

// ClosingWeight returns the weight of the edge between u and w (both
// higher-order than some pivot), searching the out-list of the lower-order
// endpoint. Returns (0, false) if absent.
func (o *Oriented) ClosingWeight(u, w int32) (uint32, bool) {
	lo, hi := u, w
	if o.fkey[w] < o.fkey[u] {
		lo, hi = w, u
	}
	pos, found := o.out.find(lo, hi)
	if !found {
		return 0, false
	}
	return o.out.wts[o.out.off[lo]+pos], true
}

// ensureOwned clones the vertex tables before the first mutation: orig may
// share backing capacity with the source adjacency, and dense may be read
// by other holders of the same adjacency.
func (o *Oriented) ensureOwned() {
	if o.owned {
		return
	}
	orig := make([]graph.VertexID, len(o.orig))
	copy(orig, o.orig)
	dense := make(map[graph.VertexID]int32, len(o.dense))
	for k, v := range o.dense {
		dense[k] = v
	}
	o.orig, o.dense, o.owned = orig, dense, true
}

// denseOf resolves an original id, appending a fresh sink vertex when add
// is set and the id is unknown.
func (o *Oriented) denseOf(v graph.VertexID, add bool) (int32, bool) {
	if d, ok := o.dense[v]; ok {
		return d, true
	}
	if !add {
		return 0, false
	}
	o.ensureOwned()
	d := int32(len(o.orig))
	o.orig = append(o.orig, v)
	o.dense[v] = d
	o.frozen = append(o.frozen, frozenInf)
	o.live = append(o.live, 0)
	o.fkey = append(o.fkey, int64(frozenInf)<<32|int64(d))
	o.out.addVertex()
	o.in.addVertex()
	o.drifted++ // live 0 ≠ frozen ∞: drifted from birth
	return d, true
}

// bumpDeg adjusts v's live degree and the drift census.
func (o *Oriented) bumpDeg(v, d int32) {
	was := o.live[v] != o.frozen[v]
	o.live[v] += d
	if now := o.live[v] != o.frozen[v]; now != was {
		if now {
			o.drifted++
		} else {
			o.drifted--
		}
	}
}

// ApplyPatches folds a batch of edge transitions (a graph.CISnapshot
// EdgePatches diff of the same pruned graph this view was oriented on)
// into the structure in place. Each patch touches only its endpoints'
// lists — the frozen order guarantees locality. When the applied batch
// pushes the drifted-vertex fraction past RebuildFrac, a Reorient runs
// before returning; rebuilt reports whether it did. The receiver must not
// be surveyed concurrently.
func (o *Oriented) ApplyPatches(patches []graph.EdgePatch) (rebuilt bool) {
	o.ensureOwned()
	for _, p := range patches {
		if p.Old == p.New {
			continue
		}
		switch {
		case p.Old == 0:
			du, _ := o.denseOf(p.U, true)
			dv, _ := o.denseOf(p.V, true)
			lo, hi := du, dv
			if o.fkey[dv] < o.fkey[du] {
				lo, hi = dv, du
			}
			o.out.insert(lo, hi, p.New)
			o.in.insert(hi, lo, 0)
			o.bumpDeg(du, 1)
			o.bumpDeg(dv, 1)
		case p.New == 0:
			du, uok := o.denseOf(p.U, false)
			dv, vok := o.denseOf(p.V, false)
			if !uok || !vok {
				continue // edge never oriented here; nothing to remove
			}
			lo, hi := du, dv
			if o.fkey[dv] < o.fkey[du] {
				lo, hi = dv, du
			}
			if o.out.remove(lo, hi) {
				o.in.remove(hi, lo)
				o.bumpDeg(du, -1)
				o.bumpDeg(dv, -1)
			}
		default:
			du, uok := o.denseOf(p.U, false)
			dv, vok := o.denseOf(p.V, false)
			if !uok || !vok {
				continue
			}
			lo, hi := du, dv
			if o.fkey[dv] < o.fkey[du] {
				lo, hi = dv, du
			}
			o.out.setWeight(lo, hi, p.New)
		}
		o.patched++
	}
	if o.drifted > int(o.rebuildFrac*float64(len(o.orig))) {
		o.Reorient()
		return true
	}
	// Opportunistic hole reclamation between epochs: relocated slots must
	// not dominate the backing.
	if o.out.holes*2 > len(o.out.ids) {
		o.out.compact()
	}
	if o.in.holes*2 > len(o.in.ids) {
		o.in.compact()
	}
	return false
}

// Reorient opens a new epoch: drop zero-degree vertices, renumber the rest
// densely by original id, re-freeze rank keys at the live degrees, and
// rebuild both flat CSRs tight. O(E log E); amortized by RebuildFrac.
func (o *Oriented) Reorient() {
	type edge struct {
		u, v int32 // old dense endpoints, u the frozen-lower one
		w    uint32
	}
	var edges []edge
	for v := int32(0); v < int32(len(o.orig)); v++ {
		s := o.out.off[v]
		for i := int32(0); i < o.out.ln[v]; i++ {
			edges = append(edges, edge{u: v, v: o.out.ids[s+i], w: o.out.wts[s+i]})
		}
	}

	norig := make([]graph.VertexID, 0, len(o.orig))
	for v, d := range o.live {
		if d > 0 {
			norig = append(norig, o.orig[v])
		}
	}
	slices.Sort(norig)
	ndense := make(map[graph.VertexID]int32, len(norig))
	for i, v := range norig {
		ndense[v] = int32(i)
	}
	n := len(norig)
	nlive := make([]int32, n)
	for _, e := range edges {
		nlive[ndense[o.orig[e.u]]]++
		nlive[ndense[o.orig[e.v]]]++
	}
	nfkey := make([]int64, n)
	nfrozen := make([]int32, n)
	for v := 0; v < n; v++ {
		nfkey[v] = int64(nlive[v])<<32 | int64(v)
		nfrozen[v] = nlive[v]
	}

	// Remap edges to the new numbering, re-split by the new order, and
	// fill both CSRs from (vertex, neighbor)-sorted runs so every list
	// comes out ascending.
	outDeg := make([]int32, n)
	inDeg := make([]int32, n)
	for i := range edges {
		a := ndense[o.orig[edges[i].u]]
		b := ndense[o.orig[edges[i].v]]
		if nfkey[b] < nfkey[a] {
			a, b = b, a
		}
		edges[i].u, edges[i].v = a, b
		outDeg[a]++
		inDeg[b]++
	}
	slices.SortFunc(edges, func(a, b edge) int {
		if c := cmp.Compare(a.u, b.u); c != 0 {
			return c
		}
		return cmp.Compare(a.v, b.v)
	})
	out := newCSR(outDeg, true)
	for _, e := range edges {
		at := out.off[e.u] + out.ln[e.u]
		out.ids[at], out.wts[at] = e.v, e.w
		out.ln[e.u]++
	}
	slices.SortFunc(edges, func(a, b edge) int {
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.u, b.u)
	})
	in := newCSR(inDeg, false)
	for _, e := range edges {
		at := in.off[e.v] + in.ln[e.v]
		in.ids[at] = e.u
		in.ln[e.v]++
	}

	o.orig, o.dense, o.owned = norig, ndense, true
	o.fkey, o.frozen, o.live = nfkey, nfrozen, nlive
	o.out, o.in = out, in
	o.drifted = 0
	o.epoch++
	o.rebuilds++
}

// intersectInto appends to ia/ib the index pairs (i, j) with a[i] == b[j],
// for ascending unique-element lists: the wedge-closure kernel. Linear
// merge for comparable lengths; galloping (exponential probe + binary
// search) when one list is more than gallopRatio times the other, so a
// hub's out-list doesn't cost a full scan per wedge.
func intersectInto(a, b []int32, ia, ib []int32) ([]int32, []int32) {
	if len(a) == 0 || len(b) == 0 {
		return ia, ib
	}
	switch {
	case len(a)*gallopRatio < len(b):
		return gallopInto(a, b, ia, ib)
	case len(b)*gallopRatio < len(a):
		ib, ia = gallopInto(b, a, ib, ia)
		return ia, ib
	}
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		av, bv := a[i], b[j]
		switch {
		case av == bv:
			ia = append(ia, int32(i))
			ib = append(ib, int32(j))
			i++
			j++
		case av < bv:
			i++
		default:
			j++
		}
	}
	return ia, ib
}

// gallopInto intersects short into long, appending short-positions to is
// and long-positions to il — callers flip the return pair back into
// (a-positions, b-positions) order when the arguments were swapped.
func gallopInto(short, long []int32, is, il []int32) ([]int32, []int32) {
	j := 0
	for i := 0; i < len(short) && j < len(long); i++ {
		v := short[i]
		bound := 1
		for j+bound < len(long) && long[j+bound] < v {
			bound <<= 1
		}
		lo := j + bound/2
		hi := j + bound
		if hi > len(long) {
			hi = len(long)
		}
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if long[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		j = lo
		if j < len(long) && long[j] == v {
			is = append(is, int32(i))
			il = append(il, int32(j))
			j++
		}
	}
	return is, il
}

// assemble builds the canonical Triangle from dense vertices without
// consulting an external adjacency.
func (o *Oriented) assemble(a, b, c int32, wab, wac, wbc uint32) Triangle {
	return assembleIDs(o.orig[a], o.orig[b], o.orig[c], wab, wac, wbc)
}

// surveyVisit applies the option thresholds before emitting.
func surveyVisit(tr Triangle, opts Options, pageCount func(graph.VertexID) uint32, visit func(Triangle)) {
	if tr.MinWeight() < opts.MinTriangleWeight {
		return
	}
	if opts.MinTScore > 0 && pageCount != nil && tr.TScore(pageCount) < opts.MinTScore {
		return
	}
	visit(tr)
}

// surveyPivot intersects pivot v's out-list with each out-neighbor's
// out-list, emitting every triangle pivoted at v. ia/ib are reusable
// scratch; the grown slices are returned for reuse.
func (o *Oriented) surveyPivot(v int32, opts Options, pageCount func(graph.VertexID) uint32, visit func(Triangle), ia, ib []int32) ([]int32, []int32) {
	outV, wtV := o.Out(v)
	for i, u := range outV {
		outU, wtU := o.Out(u)
		ia, ib = intersectInto(outV, outU, ia[:0], ib[:0])
		for k := range ia {
			pi, pj := ia[k], ib[k]
			surveyVisit(o.assemble(v, u, outV[pi], wtV[i], wtV[pi], wtU[pj]),
				opts, pageCount, visit)
		}
	}
	return ia, ib
}

// SurveyAll enumerates every triangle of the oriented view, invoking visit
// for each one passing the thresholds. pageCount is only consulted when
// opts.MinTScore > 0; pass nil otherwise. Each triangle is found exactly
// once at its unique minimum-order pivot.
func (o *Oriented) SurveyAll(opts Options, pageCount func(graph.VertexID) uint32, visit func(Triangle)) {
	var ia, ib []int32
	for v := int32(0); v < int32(len(o.orig)); v++ {
		ia, ib = o.surveyPivot(v, opts, pageCount, visit, ia, ib)
	}
}

// SurveyParallel enumerates triangles with a pool of GOMAXPROCS workers
// over the shared read-only orientation: pivots are dealt round-robin,
// each worker runs the intersection kernel into its own slice, and the
// slices are concatenated. The worker count is clamped to the number of
// vertices, and a single worker runs inline on the caller. Output is
// SortTriangles-ordered.
func (o *Oriented) SurveyParallel(opts Options, pageCount func(graph.VertexID) uint32) []Triangle {
	return o.surveyParallel(opts, pageCount, runtime.GOMAXPROCS(0))
}

// surveyParallel is SurveyParallel with nw workers.
func (o *Oriented) surveyParallel(opts Options, pageCount func(graph.VertexID) uint32, nw int) []Triangle {
	n := len(o.orig)
	if nw > n {
		nw = n
	}
	var out []Triangle
	if nw <= 1 {
		o.SurveyAll(opts, pageCount, func(tr Triangle) { out = append(out, tr) })
		SortTriangles(out)
		return out
	}
	parts := make([][]Triangle, nw)
	var wg sync.WaitGroup
	wg.Add(nw)
	for r := 0; r < nw; r++ {
		go func(r int) {
			defer wg.Done()
			var ia, ib []int32
			var found []Triangle
			emit := func(tr Triangle) { found = append(found, tr) }
			for v := int32(r); v < int32(n); v += int32(nw) {
				ia, ib = o.surveyPivot(v, opts, pageCount, emit, ia, ib)
			}
			parts[r] = found
		}(r)
	}
	wg.Wait()
	for _, p := range parts {
		out = append(out, p...)
	}
	SortTriangles(out)
	return out
}

// SurveyDirty enumerates the oriented view's triangles that touch the
// dirty vertex set. In the stable epoch order every triangle has a unique
// pivot — its minimum-order vertex — so the frontier of pivots whose
// wedges can close a dirty triangle is the dirty vertices plus their
// in-neighbors (read off the maintained in-lists, not an O(E) scan). At a
// clean pivot, wedges through a clean mid-vertex only need the dirty
// sub-list of the pivot's out-neighbors intersected against the mid's
// out-list, keeping the cycle cost proportional to the dirty frontier.
// Every emitted triangle touches dirty and every triangle touching dirty
// is emitted exactly once. pageCount is only consulted when
// opts.MinTScore > 0; pass nil otherwise.
func (o *Oriented) SurveyDirty(opts Options, dirty map[graph.VertexID]bool, pageCount func(graph.VertexID) uint32, visit func(Triangle)) {
	n := len(o.orig)
	isDirty := make([]bool, n)
	inFrontier := make([]bool, n)
	frontier := make([]int32, 0, 2*len(dirty))
	for v, d := range dirty {
		if !d {
			continue
		}
		dv, ok := o.dense[v]
		if !ok {
			continue
		}
		isDirty[dv] = true
		if !inFrontier[dv] {
			inFrontier[dv] = true
			frontier = append(frontier, dv)
		}
		for _, u := range o.in.slice(dv) {
			if !inFrontier[u] {
				inFrontier[u] = true
				frontier = append(frontier, u)
			}
		}
	}
	var ia, ib, subIDs, subPos []int32
	for _, v := range frontier {
		if isDirty[v] {
			// Dirty pivot: every wedge at v closes a dirty triangle.
			ia, ib = o.surveyPivot(v, opts, pageCount, visit, ia, ib)
			continue
		}
		outV, wtV := o.Out(v)
		subIDs, subPos = subIDs[:0], subPos[:0]
		for i, u := range outV {
			if isDirty[u] {
				subIDs = append(subIDs, u)
				subPos = append(subPos, int32(i))
			}
		}
		for i, u := range outV {
			outU, wtU := o.Out(u)
			if isDirty[u] {
				// Dirty mid-vertex: all closures (v, u, w) touch dirty.
				ia, ib = intersectInto(outV, outU, ia[:0], ib[:0])
				for k := range ia {
					pi, pj := ia[k], ib[k]
					surveyVisit(o.assemble(v, u, outV[pi], wtV[i], wtV[pi], wtU[pj]),
						opts, pageCount, visit)
				}
				continue
			}
			// Clean pivot, clean mid: only closures at a dirty third
			// vertex count — intersect just the dirty sub-list.
			ia, ib = intersectInto(subIDs, outU, ia[:0], ib[:0])
			for k := range ia {
				pi, pj := subPos[ia[k]], ib[k]
				surveyVisit(o.assemble(v, u, outV[pi], wtV[i], wtV[pi], wtU[pj]),
					opts, pageCount, visit)
			}
		}
	}
}
