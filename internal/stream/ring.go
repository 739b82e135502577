package stream

import "coordbot/internal/graph"

// expiryEntry schedules one support for lazy expiry at oldTS + horizon.
type expiryEntry struct {
	oldTS int64
	page  graph.VertexID
	key   uint64
}

// expiryRing is a calendar queue over expiry entries: a ring of
// fixed-width time buckets covering the span between the eviction cutoff
// and the watermark. It replaces the old container/heap min-heap on the
// ingest hot path, where the heap's interface boxing was the single
// largest allocation source and its percolation the largest CPU sink:
//
//   - push is an O(1) append into the bucket of the entry's timestamp
//     (no boxing, no sift-up);
//   - drain pops everything with oldTS <= cutoff by releasing whole
//     buckets that fell behind the cutoff and partitioning only the one
//     boundary bucket in place.
//
// Order among drained entries is deliberately unspecified: all of a
// wave's expirations merge into one shard-grouped batch, so only the
// set {oldTS <= cutoff} matters, which the bucket walk yields exactly.
// Bucket slices are recycled, so a warmed ring never allocates.
//
// The structural invariant push relies on: entries are only pushed with
// oldTS strictly greater than the last drained cutoff (the projector
// never drains past the comment it pairs next, every support it then
// schedules is inside the horizon, and an entry it re-arms carries a
// lease the drain found ahead of the cutoff), so new entries never land
// behind base.
type expiryRing struct {
	g    int64 // bucket width, seconds
	mask int   // len(buckets) - 1, power of two
	base int64 // start timestamp of buckets[head], aligned to g
	head int
	n    int
	// lastCutoff short-circuits repeated drains at an unmoved watermark
	// (bursts of equal timestamps) so the boundary bucket is not
	// rescanned per comment.
	lastCutoff int64
	drained    bool // lastCutoff is meaningful
	// headMin is a lower bound on the oldest entry in the head bucket
	// (maxInt64 when provably empty): a cutoff advancing below it skips
	// the boundary partition entirely, so a watermark creeping through a
	// bucket does not rescan the bucket's survivors at every step.
	headMin int64
	buckets [][]expiryEntry
}

const ringMaxInt64 = 1<<63 - 1

// ringTargetBuckets trades bucket count against boundary-bucket rescans:
// the bucket width is ~span/1024, so a watermark advancing through a
// bucket rescans its (few) surviving entries a handful of times.
const ringTargetBuckets = 1024

func newExpiryRing(span int64) expiryRing {
	if span < 1 {
		span = 1
	}
	g := (span + ringTargetBuckets - 1) / ringTargetBuckets
	nb := 1
	for int64(nb)*g < span+2*g {
		nb <<= 1
	}
	return expiryRing{
		g:       g,
		mask:    nb - 1,
		buckets: make([][]expiryEntry, nb),
	}
}

func floorAlign(ts, g int64) int64 {
	q := ts / g
	if ts%g != 0 && ts < 0 {
		q--
	}
	return q * g
}

func (r *expiryRing) push(e expiryEntry) {
	if r.drained && e.oldTS <= r.lastCutoff {
		// Violates the push invariant (see type comment); the entry would
		// already be expired and silently corrupt the live graph, so fail
		// loudly instead.
		panic("stream: expiry push behind drained cutoff")
	}
	if r.n == 0 {
		// Re-anchor at the drained cutoff, not at this entry: later pushes
		// may legally carry OLDER supports, anywhere back to the cutoff.
		if r.drained {
			r.base = floorAlign(r.lastCutoff+1, r.g)
		} else {
			r.base = floorAlign(e.oldTS, r.g)
		}
		r.head = 0
		r.headMin = ringMaxInt64
	}
	idx := (e.oldTS - r.base) / r.g
	if idx < 0 {
		panic("stream: expiry push behind ring base")
	}
	for idx > int64(r.mask) {
		r.grow()
	}
	if idx == 0 && e.oldTS < r.headMin {
		r.headMin = e.oldTS
	}
	b := (r.head + int(idx)) & r.mask
	r.buckets[b] = append(r.buckets[b], e)
	r.n++
}

// grow doubles the bucket count, re-anchoring head at 0.
func (r *expiryRing) grow() {
	nb := (r.mask + 1) * 2
	nw := make([][]expiryEntry, nb)
	for i := 0; i <= r.mask; i++ {
		nw[i] = r.buckets[(r.head+i)&r.mask]
	}
	r.buckets = nw
	r.mask = nb - 1
	r.head = 0
}

// drain pops every entry with oldTS <= cutoff, invoking fn on each.
// Bucket capacity is retained for reuse.
func (r *expiryRing) drain(cutoff int64, fn func(expiryEntry)) {
	if r.drained && cutoff <= r.lastCutoff {
		return
	}
	r.lastCutoff, r.drained = cutoff, true
	if r.n == 0 {
		return
	}
	if cutoff < r.base {
		return
	}
	// Whole buckets behind the cutoff: release without inspection.
	for r.base+r.g-1 <= cutoff {
		b := r.buckets[r.head]
		if len(b) > 0 {
			for i := range b {
				fn(b[i])
			}
			r.n -= len(b)
			r.buckets[r.head] = b[:0]
		}
		r.head = (r.head + 1) & r.mask
		r.base += r.g
		// Fresh head bucket: its minimum is unknown, bound it by the
		// bucket floor (forces one scan on first partition).
		r.headMin = r.base
		if r.n == 0 {
			return
		}
	}
	if cutoff < r.headMin {
		return // nothing in the boundary bucket can be expired yet
	}
	// Boundary bucket: the cutoff falls inside it, so partition in place.
	b := r.buckets[r.head]
	w := 0
	min := int64(ringMaxInt64)
	for _, e := range b {
		if e.oldTS <= cutoff {
			fn(e)
			r.n--
		} else {
			b[w] = e
			w++
			if e.oldTS < min {
				min = e.oldTS
			}
		}
	}
	r.buckets[r.head] = b[:w]
	r.headMin = min
}

// len reports the scheduled entry count.
func (r *expiryRing) len() int { return r.n }
