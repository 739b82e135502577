// edgeTable: the flat open-addressed edge store behind the sharded CI
// graph.
//
// The packed edge key (PackEdge: smaller endpoint in the high 32 bits,
// never zero because self-loops panic upstream) makes a Go map the wrong
// tool for the projection's per-pair traffic: every upsert pays the
// runtime's generic hash, bucket walk, and — on multi-signal stores — one
// additional map operation per signal for the attribution sidecars. This
// table replaces all of that with one probe sequence over flat arrays:
//
//   - power-of-two capacity, linear probing, keyed by the high bits of the
//     same splitmix64 finalizer the store uses for shard routing (the LOW
//     bits are constant within a shard — every resident key hashed to it —
//     so the table indexes with the untouched top of the hash);
//   - struct-of-arrays values: one []uint32 weight lane plus a single
//     stride-numSignals []uint32 holding every signal's share of every
//     edge, so a multi-signal upsert or a SignalWeights read touches one
//     probe sequence instead of 1+S map traversals;
//   - backshift deletion (no tombstones): removing an entry re-packs the
//     probe chain behind it, so load never degrades from churn and lookups
//     stay probe-length-bounded without periodic rebuilds;
//   - clone is a per-lane memcpy — the copy-on-write unit of the sharded
//     store's snapshots, replacing per-entry map cloning.
//
// Key 0 is the empty-slot sentinel. PackEdge cannot produce it (u != v is
// enforced, so the packed value is at least 1); add panics if
// handed one rather than corrupt the table.
package graph

import "fmt"

const (
	// edgeTableMinCap keeps even a one-entry shard probing a real array.
	edgeTableMinCap = 8
	// Load factor 13/16 (~0.81): grow when n exceeds it. Linear probing
	// with a full-avalanche hash stays short-chained at this load, and the
	// headroom keeps the COW memcpy from outpacing the map's per-entry
	// clone cost.
	edgeTableLoadNum, edgeTableLoadDen = 13, 16
)

// EdgeDelta is one edge's weight contribution in a shard-grouped batch:
// the packed edge key plus the weight to add or withdraw.
type EdgeDelta struct {
	Key uint64
	W   uint32
}

// PageDelta is one author's page-count contribution in a shard-grouped
// batch.
type PageDelta struct {
	V VertexID
	N uint32
}

// edgeTable is an open-addressed hash table from packed edge key to edge
// weight, with an optional per-signal weight breakdown stored inline.
// Not synchronized — the sharded store wraps one per shard under the
// shard lock. The zero value is not usable; create with newEdgeTable.
type edgeTable struct {
	keys  []uint64 // len == capacity; 0 marks an empty slot
	w     []uint32 // total weight lane, parallel to keys
	sig   []uint32 // per-signal share lanes, stride nsig (nil when untracked)
	nsig  int
	mask  uint64 // capacity - 1
	shift uint   // 64 - log2(capacity): slots index by the hash's top bits
	n     int    // live entries
}

// newEdgeTable returns an empty table sized for at least hint entries,
// tracking a per-signal breakdown of nsig lanes (nsig < 2 disables
// tracking — one signal has nothing to attribute).
func newEdgeTable(hint, nsig int) *edgeTable {
	capacity := edgeTableMinCap
	for capacity*edgeTableLoadNum < hint*edgeTableLoadDen {
		capacity <<= 1
	}
	if nsig < 2 {
		nsig = 0
	}
	t := &edgeTable{nsig: nsig}
	t.alloc(capacity)
	return t
}

func (t *edgeTable) alloc(capacity int) {
	t.keys = make([]uint64, capacity)
	t.w = make([]uint32, capacity)
	if t.nsig > 0 {
		t.sig = make([]uint32, capacity*t.nsig)
	}
	t.mask = uint64(capacity - 1)
	t.shift = 64
	for c := capacity; c > 1; c >>= 1 {
		t.shift--
	}
}

// size returns the number of live entries.
func (t *edgeTable) size() int { return t.n }

// slot probes for key: the slot holding it (found) or the empty slot
// terminating its probe chain (not found).
func (t *edgeTable) slot(key uint64) (uint64, bool) {
	i := mix64(key) >> t.shift
	for {
		k := t.keys[i]
		if k == key {
			return i, true
		}
		if k == 0 {
			return i, false
		}
		i = (i + 1) & t.mask
	}
}

// get returns key's total weight (0 when absent).
func (t *edgeTable) get(key uint64) uint32 {
	i := mix64(key) >> t.shift
	for {
		k := t.keys[i]
		if k == key {
			return t.w[i]
		}
		if k == 0 {
			return 0
		}
		i = (i + 1) & t.mask
	}
}

// has reports whether key is present (a zero-weight entry counts, exactly
// as a zero-valued map entry would).
func (t *edgeTable) has(key uint64) bool {
	_, ok := t.slot(key)
	return ok
}

// addSignalShares accumulates key's per-signal breakdown into out
// (uint64 accumulators), one probe. No-op when untracked or absent.
func (t *edgeTable) addSignalShares(key uint64, out []uint64) {
	if t.nsig == 0 {
		return
	}
	if i, ok := t.slot(key); ok {
		lanes := t.sig[i*uint64(t.nsig) : i*uint64(t.nsig)+uint64(t.nsig)]
		for si, s := range lanes {
			out[si] += uint64(s)
		}
	}
}

// add adds w to key's total weight, inserting the entry if absent.
func (t *edgeTable) add(key uint64, w uint32) { t.addSig(key, w, -1) }

// addSig is add with the increment attributed to signal lane si — one
// probe updates both the total and the share. On an untracked table (or
// with si < 0) it is exactly add.
func (t *edgeTable) addSig(key uint64, w uint32, si int) {
	if key == 0 {
		panic("graph: edge table key 0 (empty-slot sentinel)")
	}
	i, ok := t.slot(key)
	if !ok {
		if (t.n+1)*edgeTableLoadDen > len(t.keys)*edgeTableLoadNum {
			t.grow()
			i, _ = t.slot(key)
		}
		t.keys[i] = key
		t.n++
	}
	t.w[i] += w
	if si >= 0 && t.nsig > 0 {
		t.sig[i*uint64(t.nsig)+uint64(si)] += w
	}
}

// sub subtracts w from key's total, deleting the entry (and its signal
// lanes) when the total reaches zero, with the probe chain behind it
// backshifted. Returns the old and new totals; panics on underflow,
// mirroring the map-backed store's contract. dec, when non-nil, carries
// the per-signal shares of the decrement (len nsig) withdrawn from the
// lanes in the same operation — they must each be covered by the lane's
// current share (panic otherwise), and on full deletion the lanes are
// simply cleared with the slot.
func (t *edgeTable) sub(key uint64, w uint32, dec []uint32) (old, new uint32) {
	i, ok := t.slot(key)
	if !ok || t.w[i] < w {
		var cur uint32
		if ok {
			cur = t.w[i]
		}
		u, v := UnpackEdge(key)
		panic(fmt.Sprintf("graph: edge {%d,%d} weight underflow (%d - %d)", u, v, cur, w))
	}
	old = t.w[i]
	new = old - w
	if t.nsig > 0 && dec != nil {
		base := i * uint64(t.nsig)
		for si, d := range dec[:t.nsig] {
			if d == 0 {
				continue
			}
			if cur := t.sig[base+uint64(si)]; cur < d {
				u, v := UnpackEdge(key)
				panic(fmt.Sprintf("graph: edge {%d,%d} signal %d share underflow (%d - %d)", u, v, si, cur, d))
			}
			t.sig[base+uint64(si)] -= d
		}
	}
	if new == 0 {
		t.deleteSlot(i)
	} else {
		t.w[i] = new
	}
	return old, new
}

// deleteSlot empties slot i and backshifts the probe chain behind it:
// every displaced entry whose home slot lies at or before the hole moves
// back into it, so no tombstone is ever needed.
func (t *edgeTable) deleteSlot(i uint64) {
	j := i
	for {
		j = (j + 1) & t.mask
		k := t.keys[j]
		if k == 0 {
			break
		}
		// Move k back iff its home precedes (cyclically) the hole — i.e.
		// the hole sits inside k's probe chain.
		h := mix64(k) >> t.shift
		if (j-h)&t.mask >= (j-i)&t.mask {
			t.keys[i] = k
			t.w[i] = t.w[j]
			if t.nsig > 0 {
				copy(t.sig[i*uint64(t.nsig):(i+1)*uint64(t.nsig)], t.sig[j*uint64(t.nsig):(j+1)*uint64(t.nsig)])
			}
			i = j
		}
	}
	t.keys[i] = 0
	t.w[i] = 0
	if t.nsig > 0 {
		base := i * uint64(t.nsig)
		for si := 0; si < t.nsig; si++ {
			t.sig[base+uint64(si)] = 0
		}
	}
	t.n--
}

// grow doubles capacity and reinserts every live entry.
func (t *edgeTable) grow() {
	oldKeys, oldW, oldSig := t.keys, t.w, t.sig
	t.alloc(len(oldKeys) * 2)
	for oi, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := mix64(k) >> t.shift
		for t.keys[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.keys[i] = k
		t.w[i] = oldW[oi]
		if t.nsig > 0 {
			copy(t.sig[i*uint64(t.nsig):(i+1)*uint64(t.nsig)], oldSig[oi*t.nsig:(oi+1)*t.nsig])
		}
	}
}

// clone returns a deep copy — a per-lane memcpy, the unit of the sharded
// store's copy-on-write.
func (t *edgeTable) clone() *edgeTable {
	out := &edgeTable{
		keys:  make([]uint64, len(t.keys)),
		w:     make([]uint32, len(t.w)),
		nsig:  t.nsig,
		mask:  t.mask,
		shift: t.shift,
		n:     t.n,
	}
	copy(out.keys, t.keys)
	copy(out.w, t.w)
	if t.sig != nil {
		out.sig = make([]uint32, len(t.sig))
		copy(out.sig, t.sig)
	}
	return out
}

// forEach calls fn for every live entry (key, total weight) in slot
// order, stopping early when fn returns false. fn must not mutate the
// table.
func (t *edgeTable) forEach(fn func(key uint64, w uint32) bool) {
	for i, k := range t.keys {
		if k == 0 {
			continue
		}
		if !fn(k, t.w[i]) {
			return
		}
	}
}

// subBatch withdraws a batch of decrements — the eviction-wave
// primitive, zero-alloc. sig, when non-nil, is the stride-nsig
// attribution aligned with deltas: deltas[k]'s per-signal shares are
// sig[k*nsig : (k+1)*nsig] and must sum to deltas[k].W.
// Panics on underflow.
func (t *edgeTable) subBatch(deltas []EdgeDelta, sig []uint32) {
	for k, d := range deltas {
		var dec []uint32
		if sig != nil && t.nsig > 0 {
			dec = sig[k*t.nsig : (k+1)*t.nsig]
		}
		t.sub(d.Key, d.W, dec)
	}
}
