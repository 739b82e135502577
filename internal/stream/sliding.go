// Sliding-window projection: the eviction-capable extension of Projector
// that detectd runs on. Where Projector accumulates CI edges forever (the
// batch semantics of Algorithm 1), SlidingProjector maintains the CI graph
// of only the trailing horizon of event time: a pair contribution whose
// supporting comments have all aged past the horizon is decremented back
// out, and the per-author page counts P' shrink with it.
//
// The projector is signal-pluggable: it fans every comment out to one or
// more projection.Signals (co-commenting by default; URL co-sharing,
// hashtag overlap, reply targeting, time-bucket synchrony optionally),
// each with its own object states, expiry rings, delay window, and
// trailing horizon, all merged into ONE sharded CI store with per-signal
// weight attribution when two or more signals run.
//
// The invariant (property-tested in sliding_test.go) generalizes per
// signal: for every configured signal s,
//
//	the signal's contribution == projection of the comments with
//	TS > Watermark()-horizon(s) through s alone
//
// and the store's totals are the sum over signals — so with the single
// default signal, Snapshot() == projection.ProjectSequential(BTM of
// comments with TS > Watermark()-horizon, window) at every point in the
// stream, exactly the legacy behaviour, and everything downstream
// (tripoll, hypergraph, thresholds, scores) keeps its batch-mode meaning
// on the merged graph.
//
// Mechanics: a counted (signal, object, pair) holds a lease — the newest
// "older comment" timestamp supporting it — and its contribution dies when
// that timestamp leaves the signal's horizon. The rule the mutable state is
// built around: a live lease has exactly ONE entry in its signal's
// calendar ring (expiryRing; O(1) push, batch drain). A refresh only
// overwrites the lease; when the ring entry comes up and the lease has
// moved on, the entry is re-armed at the lease instead of evicting. Leases
// and per-(object, author) incident counts live in two flat open-addressed
// tables per signal (leaseTable) and object states in a slab with a free
// list, so steady-state ingest allocates nothing. All signals' expired
// contributions in one watermark advance land as a single shard-grouped
// eviction wave, so each touched shard's dirty version advances once per
// wave — the unit the delta surveys count on.
//
// Algorithm 1's pair rule (delay in [δ1, δ2), self-pairs skipped, each
// pair counted once per object) has three implementations, one per
// execution model: projection.PagePairs for batch sweeps, Projector for an
// unbounded stream, and addToObject here for the sliding window.
//
// The serial Add path drains the rings before every comment and is the
// reference. The batch path reads expiry where it reads a lease: a pairing
// that finds a lease at or behind ts - horizon accounts it as the eviction
// the serial path had already made plus a fresh count (net zero on the
// store), so a signal's cell only has to drain once per min(window,
// horizon) of event time — which bounds the rings — and at the batch
// watermark, where every gauge and the graph equal the serial path's
// again. Only the wave granularity (one per batch instead of one per
// watermark advance), and thus the store's version-counter arithmetic,
// differs.
package stream

import (
	"cmp"
	"fmt"
	"slices"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
)

// SignalConfig pairs one projection signal with an optional trailing
// horizon override in seconds (0 = the projector-wide horizon).
type SignalConfig struct {
	Signal  projection.Signal
	Horizon int64
}

// SlidingProjector maintains the CI graph of the trailing horizon of a
// time-ordered comment stream. Create with NewMultiSlidingProjectorWorkers;
// feed with AddBatch or Add (or advance idle time with AdvanceTo); read
// with Snapshot.
//
// The live graph is a sharded store (graph.ShardedCI) so Snapshot is
// copy-on-write: O(shards) per call, with dirty shards recopied lazily by
// the next Add that touches them. Mutators (Add, AddBatch, AdvanceTo) are
// single-caller — wrap with a lock (detectd does)
// or shard by page upstream. The point reads EdgeWeight, PageCount,
// NumEdges, and GraphVersion go through the store's per-shard locks and
// are safe concurrently with the mutators.
type SlidingProjector struct {
	sigs    []*sigMeta
	horizon int64 // default trailing horizon (per-signal states hold their own)
	opts    projection.Options

	g *graph.ShardedCI
	// track is len(sigs) >= 2: the store keeps a per-signal breakdown and
	// eviction waves carry per-signal decrements.
	track bool

	// cells holds each signal's mutable projection state, in sigs order.
	cells []sigLane

	lastTS  int64
	started bool
	count   int64

	// wave is the reusable eviction-wave scratch: flat decrement logs with
	// the owning shard precomputed at push time. applyWave counting-sorts
	// them by shard and aggregates each shard's segment into the store's
	// flat batch API through the sort/out scratch below — all recycled
	// between waves, so steady-state eviction allocates nothing.
	wave     wave
	edgeOff  []int // len shards+1: counting-sort offsets, then cursors
	pageOff  []int
	sortEdge []edgeDec // shard-ordered permutation of wave.edges
	sortPage []pageDec
	outEdges []graph.EdgeDelta // one shard's aggregated decrements
	outSig   []uint32          // stride len(sigs) shares, aligned with outEdges
	outPages []graph.PageDelta
}

// sigMeta is one signal's immutable configuration plus its extraction
// scratch. Mutable projection state lives in the signal's cell.
type sigMeta struct {
	sig     projection.Signal
	si      int
	w       projection.Window
	horizon int64
	// objbuf is the reusable extractor scratch.
	objbuf []graph.VertexID
}

// sigLane is one signal's cell of mutable projection state.
type sigLane struct {
	// objects indexes pages, the slab of object states; freed slots are
	// recycled through free with their buffers' capacity.
	objects map[graph.VertexID]int32
	pages   []slidingPage
	free    []int32
	// leases maps (object, packed pair) to the newest older-comment
	// timestamp supporting the counted pair; incident maps (object,
	// author+1) to the number of leases touching the author there — the
	// author's P' contribution for the object lives while it is present.
	leases   leaseTable
	incident leaseTable
	// exp holds exactly one entry per lease, at or behind the lease.
	exp expiryRing
	// idle schedules object-state GC: an object whose newest comment has
	// left the pairing window and that holds no leases is dropped, so
	// quiet objects cost nothing (key is unused in idle entries).
	idle expiryRing
	// rearm collects the entries a drain must push back (the ring cannot
	// take pushes while it drains).
	rearm []expiryEntry

	// nextDrain is the event time from which a batch drains the cell's
	// rings again; drainedAt the batch index of the comment it last
	// drained at (0 between batches).
	nextDrain int64
	drainedAt int

	live     int64
	evicted  int64
	rearmed  int64
	buffered int
}

type slidingPage struct {
	// buf/start: the trailing-δ2 comment ring, as in Projector.
	buf   []graph.AuthorTime
	start int
	// lastTS is the object's newest comment timestamp (GC staleness check).
	lastTS int64
	// live counts the object's leases; the state outlives them all.
	live int32
}

// edgeDec is one evicted (signal, object, pair) contribution in a wave:
// the packed edge key, its owning shard (precomputed where the eviction
// is discovered), and the signal it came from. The decrement amount is
// implied — it is always 1 — so the log stays a flat 16-byte record and
// aggregation is a run-length count at apply time.
type edgeDec struct {
	key   uint64
	shard int32
	si    int32
}

// pageDec is one author's P' decrement in a wave (always by 1: the
// author's last live pair on some object expired).
type pageDec struct {
	v     graph.VertexID
	shard int32
}

// wave accumulates one eviction wave's decrements as flat append logs.
// Waves are recycled by truncation, so steady-state eviction allocates
// nothing.
type wave struct {
	edges []edgeDec
	pages []pageDec
}

func (w *wave) empty() bool { return len(w.edges) == 0 && len(w.pages) == 0 }

func (w *wave) reset() {
	w.edges = w.edges[:0]
	w.pages = w.pages[:0]
}

// NewMultiSlidingProjectorWorkers creates a sliding projector fanning the
// stream out to the given signals (a single projection.CoComment{W: w} is
// the paper's Algorithm 1 over window w), each evicting on its own horizon
// (0 = the default horizon argument; every horizon must be positive, and
// may be shorter than the signal's window, in which case pairs never
// outlive their own delay span), merged into one live store. A
// single-signal configuration tracks no breakdown; with two or more
// signals the store attributes every edge's weight per signal
// (graph.NewShardedCI's numSignals).
//
// shards is the live store's shard count (rounded up to a power of two;
// <= 0 means graph.DefaultShards): more shards lower the per-shard
// copy-on-write cost a hot ingest pays after each snapshot. workers has no
// effect: ingest runs on the calling goroutine whatever it says. The
// argument remains only because bench/coordbench/trace.go passes it; a
// change that may also edit bench/ can drop it from both.
func NewMultiSlidingProjectorWorkers(sigs []SignalConfig, horizon int64, opts projection.Options, shards, workers int) (*SlidingProjector, error) {
	ss := make([]projection.Signal, len(sigs))
	for i, sc := range sigs {
		ss[i] = sc.Signal
	}
	if err := projection.ValidateSignals(ss); err != nil {
		return nil, err
	}
	p := &SlidingProjector{
		sigs:    make([]*sigMeta, len(sigs)),
		horizon: horizon,
		opts:    opts,
		g:       graph.NewShardedCI(shards, len(sigs)),
		track:   len(sigs) >= 2,
		cells:   make([]sigLane, len(sigs)),
	}
	for i, sc := range sigs {
		h := sc.Horizon
		if h == 0 {
			h = horizon
		}
		if h <= 0 {
			return nil, fmt.Errorf("stream: signal %q: non-positive horizon %d", sc.Signal.Name(), h)
		}
		m := &sigMeta{
			sig:     sc.Signal,
			si:      i,
			w:       sc.Signal.Window(),
			horizon: h,
		}
		p.sigs[i] = m
		p.cells[i] = sigLane{
			objects:  make(map[graph.VertexID]int32),
			leases:   newLeaseTable(),
			incident: newLeaseTable(),
			exp:      newExpiryRing(m.horizon),
			idle:     newExpiryRing(m.w.Max),
		}
	}
	ns := p.g.NumShards()
	p.edgeOff = make([]int, ns+1)
	p.pageOff = make([]int, ns+1)
	return p, nil
}

// Count returns the number of comments consumed.
func (p *SlidingProjector) Count() int64 { return p.count }

// Watermark returns the event time the projector has advanced to (the
// largest timestamp seen by Add/AdvanceTo; 0 before the first).
func (p *SlidingProjector) Watermark() int64 { return p.lastTS }

// LivePairs returns the number of (signal, object, pair) contributions
// currently in the graph; EvictedPairs the cumulative number aged out.
func (p *SlidingProjector) LivePairs() int64 {
	var n int64
	for i := range p.cells {
		n += p.cells[i].live
	}
	return n
}

func (p *SlidingProjector) EvictedPairs() int64 {
	var n int64
	for i := range p.cells {
		n += p.cells[i].evicted
	}
	return n
}

// Signals returns the configured signals in breakdown order.
func (p *SlidingProjector) Signals() []projection.Signal {
	out := make([]projection.Signal, len(p.sigs))
	for i, m := range p.sigs {
		out[i] = m.sig
	}
	return out
}

// SignalStat is one signal's live gauges.
type SignalStat struct {
	Name         string
	Window       projection.Window
	Horizon      int64
	LivePairs    int64
	EvictedPairs int64
	LiveObjects  int
	// RingEntries is the expiry rings' occupancy — one entry per live
	// pair, so it equals LivePairs whenever the projector is at rest.
	// Rearmed counts the entries that came up for expiry behind a
	// refreshed lease and were pushed back; unlike the other gauges it
	// depends on how often the rings were drained, i.e. on batch sizes.
	RingEntries int
	Rearmed     int64
}

// SignalStats returns per-signal gauges in breakdown order.
func (p *SlidingProjector) SignalStats() []SignalStat {
	out := make([]SignalStat, len(p.sigs))
	for i, m := range p.sigs {
		sl := &p.cells[i]
		out[i] = SignalStat{
			Name:         m.sig.Name(),
			Window:       m.w,
			Horizon:      m.horizon,
			LivePairs:    sl.live,
			EvictedPairs: sl.evicted,
			LiveObjects:  len(sl.objects),
			RingEntries:  sl.exp.len(),
			Rearmed:      sl.rearmed,
		}
	}
	return out
}

// NumEdges returns the live CI edge count.
func (p *SlidingProjector) NumEdges() int { return p.g.NumEdges() }

func (p *SlidingProjector) skip(a graph.VertexID) bool {
	if p.opts.Exclude[a] {
		return true
	}
	return p.opts.Restrict != nil && !p.opts.Restrict[a]
}

// Add consumes one comment. Comments must arrive in nondecreasing global
// timestamp order; Add returns an error otherwise.
// surface:keep the serial reference the batch ≡ per-comment suites
// (TestSlidingMatchesBatchRestricted, TestAddBatchMatchesPerComment)
// compare AddBatch against.
func (p *SlidingProjector) Add(c graph.Comment) error {
	if p.started && c.TS < p.lastTS {
		return fmt.Errorf("stream: out-of-order comment at t=%d after t=%d", c.TS, p.lastTS)
	}
	p.started = true
	p.lastTS = c.TS
	p.count++
	p.evictAll(c.TS)

	if p.skip(c.Author) {
		return nil
	}
	for _, m := range p.sigs {
		m.objbuf = projection.DedupeObjects(m.sig.AppendObjects(c, m.objbuf[:0]))
		sl := &p.cells[m.si]
		for _, obj := range m.objbuf {
			p.addToObject(sl, m, obj, c.Author, c.TS)
		}
	}
	return nil
}

// addToObject runs the windowed pairing of one (signal, object)
// engagement: pair the comment against the object's buffered trailing-δ2
// comments, count fresh pairs into the store with the signal's
// attribution, refresh leases on already-counted pairs.
func (p *SlidingProjector) addToObject(sl *sigLane, m *sigMeta, obj graph.VertexID, author graph.VertexID, ts int64) {
	ps := &sl.pages[sl.pageOf(obj)]

	// Evict buffered comments that can no longer pair: t_new - t_old < w.Max.
	sl.trim(ps, ts-m.w.Max)
	if ps.start > 64 && ps.start*2 > len(ps.buf) {
		ps.buf = append(ps.buf[:0], ps.buf[ps.start:]...)
		ps.start = 0
	}

	// A lease at or behind dead has expired. The serial path never finds
	// one (it drains to ts first); a batch may, between two drains.
	dead := ts - m.horizon
	for i := ps.start; i < len(ps.buf); i++ {
		old := ps.buf[i]
		d := ts - old.TS
		if d < m.w.Min || old.Author == author {
			continue
		}
		if d >= m.horizon {
			// Support already outside the horizon (horizon < w.Max):
			// counting it would create a contribution born dead.
			continue
		}
		key := graph.PackEdge(old.Author, author)
		li, ok := sl.leases.find(obj, key)
		if ok {
			// Pair already counted for this object: refresh its lease. Over
			// an expired one this is the serial path's eviction followed by
			// a fresh count — the same weight out of and into the store, the
			// same incident counts — and the lease keeps its ring entry.
			lease := &sl.leases.slots[li].val
			if *lease <= dead {
				sl.evicted++
			}
			if old.TS > *lease {
				*lease = old.TS
			}
			continue
		}
		sl.leases.insert(li, obj, key, old.TS)
		sl.exp.push(expiryEntry{oldTS: old.TS, page: obj, key: key})
		p.g.AddEdgeWeightSig(old.Author, author, 1, m.si)
		sl.live++
		ps.live++
		for _, a := range [2]graph.VertexID{old.Author, author} {
			ii, ok := sl.incident.find(obj, uint64(a)+1)
			if ok {
				sl.incident.slots[ii].val++
				continue
			}
			sl.incident.insert(ii, obj, uint64(a)+1, 1)
			p.g.AddPageCount(a, 1)
		}
	}
	ps.buf = append(ps.buf, graph.AuthorTime{Author: author, TS: ts})
	sl.buffered++
	if ps.lastTS < ts || len(ps.buf) == 1 {
		sl.idle.push(expiryEntry{oldTS: ts, page: obj})
	}
	ps.lastTS = ts
}

// pageOf returns obj's slot in the page slab, taking one from the free
// list (or growing the slab) on the object's first engagement.
func (sl *sigLane) pageOf(obj graph.VertexID) int32 {
	pi, ok := sl.objects[obj]
	if ok {
		return pi
	}
	if n := len(sl.free); n > 0 {
		pi = sl.free[n-1]
		sl.free = sl.free[:n-1]
	} else {
		pi = int32(len(sl.pages))
		sl.pages = append(sl.pages, slidingPage{})
	}
	sl.objects[obj] = pi
	return pi
}

// freePage retires obj's state, keeping its buffer for the slot's next
// tenant.
func (sl *sigLane) freePage(obj graph.VertexID, pi int32) {
	ps := &sl.pages[pi]
	sl.buffered -= len(ps.buf) - ps.start
	*ps = slidingPage{buf: ps.buf[:0]}
	sl.free = append(sl.free, pi)
	delete(sl.objects, obj)
}

// trim drops ps's buffered comments at or before bound.
func (sl *sigLane) trim(ps *slidingPage, bound int64) {
	from := ps.start
	for ps.start < len(ps.buf) && ps.buf[ps.start].TS <= bound {
		ps.start++
	}
	sl.buffered -= ps.start - from
}

// AddBatch consumes a time-ordered batch, pairing each comment as it comes
// and landing all of the batch's evictions as ONE wave at the batch's
// final watermark: state-identical to the serial path at every batch
// boundary, but with the store-delta application amortized over the whole
// batch instead of paid per watermark advance (each shard the evictions
// touch is written once). A cell's rings are drained when one of its
// engagements finds them a cadence behind and, for every cell, at the
// batch watermark, so signals without trailing engagements decay too; in
// between, addToObject reads expiry off the leases it touches. A drain
// looks up in the batch when the serial path would have made each
// eviction. An out-of-order comment stops the batch at that comment:
// everything before it is applied, and the error is returned after the
// wave.
func (p *SlidingProjector) AddBatch(batch []graph.Comment) error {
	var err error
	for i := range batch {
		c := &batch[i]
		if p.started && c.TS < p.lastTS {
			err = fmt.Errorf("stream: out-of-order comment at t=%d after t=%d", c.TS, p.lastTS)
			batch = batch[:i]
			break
		}
		p.started = true
		p.lastTS = c.TS
		p.count++
		if p.skip(c.Author) {
			continue
		}
		for _, m := range p.sigs {
			sl := &p.cells[m.si]
			m.objbuf = projection.DedupeObjects(m.sig.AppendObjects(*c, m.objbuf[:0]))
			for _, obj := range m.objbuf {
				if c.TS >= sl.nextDrain {
					p.evictSig(sl, m, c.TS, batch[sl.drainedAt:i+1])
					sl.drainedAt = i
				}
				p.addToObject(sl, m, obj, c.Author, c.TS)
			}
		}
	}
	if !p.started {
		return err
	}
	for si := range p.cells {
		sl := &p.cells[si]
		p.evictSig(sl, p.sigs[si], p.lastTS, batch[sl.drainedAt:])
		sl.drainedAt = 0
	}
	p.flushWave()
	return err
}

// AdvanceTo moves event time forward to ts without ingesting a comment,
// evicting everything that ages out — the idle-stream path: a quiet topic
// must still decay. ts earlier than the watermark is an error (a no-op
// advance to the current watermark is fine).
// surface:keep the sliding ≡ restricted-batch suites (TestSliding*,
// TestAddBatchMatchesPerComment, TestMultiSlidingMatchesPerSignalBatch)
// drain idle time through it.
func (p *SlidingProjector) AdvanceTo(ts int64) error {
	if p.started && ts < p.lastTS {
		return fmt.Errorf("stream: AdvanceTo(%d) behind watermark %d", ts, p.lastTS)
	}
	p.started = true
	p.lastTS = ts
	p.evictAll(ts)
	return nil
}

// evictAll drains every cell up to watermark wm and applies the wave (the
// serial path's once-per-advance wave).
func (p *SlidingProjector) evictAll(wm int64) {
	for si := range p.cells {
		p.evictSig(&p.cells[si], p.sigs[si], wm, nil)
	}
	p.flushWave()
}

// flushWave applies the pending eviction wave, if any, and recycles it.
func (p *SlidingProjector) flushWave() {
	if !p.wave.empty() {
		p.applyWave(&p.wave)
		p.wave.reset()
	}
}

// evictSig withdraws one signal's contributions whose lease has aged past
// the signal's horizon (timestamp <= wm - horizon), accumulating the
// decrements into the pending wave; a ring entry that comes up behind a
// refreshed lease is pushed back at the lease. It then GCs idle object
// states.
//
// since is the time-ordered comments consumed after the cell's previous
// drain, ending with the one that carries wm — nil on the serial path,
// which drains at every comment. It only serves the buffered-comments
// gauge: an eviction trims its object's buffer against the time the
// eviction was due, the first comment at or after lease + horizon, so the
// gauge does not depend on how often a batch drains.
func (p *SlidingProjector) evictSig(sl *sigLane, m *sigMeta, wm int64, since []graph.Comment) {
	// A batch may let min(w.Max, horizon) of event time pass before it
	// drains a cell again: neither ring then ever holds more than twice
	// the span it was sized for.
	sl.nextDrain = wm + min(m.w.Max, m.horizon)
	cutoff := wm - m.horizon
	sl.exp.drain(cutoff, func(e expiryEntry) {
		li, ok := sl.leases.find(e.page, e.key)
		if !ok {
			panic("stream: expiry entry without a lease")
		}
		lease := sl.leases.slots[li].val
		if lease > cutoff {
			e.oldTS = lease
			sl.rearm = append(sl.rearm, e)
			return
		}
		sl.leases.remove(li)
		p.wave.edges = append(p.wave.edges, edgeDec{key: e.key, shard: int32(p.g.EdgeShard(e.key)), si: int32(m.si)})
		sl.live--
		sl.evicted++
		u, v := graph.UnpackEdge(e.key)
		for _, a := range [2]graph.VertexID{u, v} {
			ii, ok := sl.incident.find(e.page, uint64(a)+1)
			if !ok {
				panic("stream: lease without an incident count")
			}
			if n := &sl.incident.slots[ii].val; *n > 1 {
				*n--
				continue
			}
			sl.incident.remove(ii)
			p.wave.pages = append(p.wave.pages, pageDec{v: a, shard: int32(p.g.VertexShard(a))})
		}
		// Buffered comments w.Max behind the eviction can never pair again;
		// once the newest is and no lease is left, the object state is dead.
		pi := sl.objects[e.page]
		ps := &sl.pages[pi]
		ps.live--
		sl.trim(ps, dueAt(since, lease+m.horizon, wm)-m.w.Max)
		if ps.live == 0 && wm-ps.lastTS >= m.w.Max {
			sl.freePage(e.page, pi)
		}
	})
	for _, e := range sl.rearm {
		sl.exp.push(e)
	}
	sl.rearmed += int64(len(sl.rearm))
	sl.rearm = sl.rearm[:0]

	// Idle-object GC: objects whose newest comment left the pairing
	// window and that carry no leases (single-commenter objects, or
	// objects whose pairs all expired first) are dropped here; objects
	// still holding leases are left for the pair path above.
	sl.idle.drain(wm-m.w.Max, func(e expiryEntry) {
		pi, ok := sl.objects[e.page]
		if !ok {
			return // object gone
		}
		if ps := &sl.pages[pi]; ps.lastTS == e.oldTS && ps.live == 0 {
			sl.freePage(e.page, pi)
		}
	})
}

// dueAt returns the timestamp of the first comment in since at or after
// due, wm when there is none.
func dueAt(since []graph.Comment, due, wm int64) int64 {
	i, _ := slices.BinarySearchFunc(since, due, func(c graph.Comment, due int64) int {
		return cmp.Compare(c.TS, due)
	})
	if i == len(since) {
		return wm
	}
	return since[i].TS
}

// applyWave withdraws one eviction wave from the store: the flat
// decrement logs are counting-sorted into shard-contiguous segments
// (shards were precomputed at push time), each shard's edge segment is
// key-sorted and run-length aggregated into one flat batch — total per
// edge plus, on multi-signal projectors, the stride-len(sigs) per-signal
// shares, each log entry contributing 1 to its signal's share — and the
// batch is withdrawn under a single shard lock acquisition and version bump
// (SubShardBatch). All sort and aggregation scratch is recycled between
// waves.
func (p *SlidingProjector) applyWave(w *wave) {
	ns := p.g.NumShards()

	// Counting sort both logs by shard. After the scatter loops the
	// cursors have advanced one segment forward, i.e. edgeOff[s] holds
	// segment s's END — so segment s spans [edgeOff[s-1], edgeOff[s]) with
	// edgeOff[-1] == 0, read below as [prevE, edgeOff[s]).
	for i := range p.edgeOff {
		p.edgeOff[i] = 0
		p.pageOff[i] = 0
	}
	for _, e := range w.edges {
		p.edgeOff[e.shard+1]++
	}
	for _, pg := range w.pages {
		p.pageOff[pg.shard+1]++
	}
	for s := 0; s < ns; s++ {
		p.edgeOff[s+1] += p.edgeOff[s]
		p.pageOff[s+1] += p.pageOff[s]
	}
	if cap(p.sortEdge) < len(w.edges) {
		p.sortEdge = make([]edgeDec, len(w.edges))
	}
	p.sortEdge = p.sortEdge[:len(w.edges)]
	if cap(p.sortPage) < len(w.pages) {
		p.sortPage = make([]pageDec, len(w.pages))
	}
	p.sortPage = p.sortPage[:len(w.pages)]
	for _, e := range w.edges {
		p.sortEdge[p.edgeOff[e.shard]] = e
		p.edgeOff[e.shard]++
	}
	for _, pg := range w.pages {
		p.sortPage[p.pageOff[pg.shard]] = pg
		p.pageOff[pg.shard]++
	}

	nsig := 0
	if p.track {
		nsig = len(p.sigs)
	}
	prevE, prevP := 0, 0
	for s := 0; s < ns; s++ {
		seg := p.sortEdge[prevE:p.edgeOff[s]]
		pseg := p.sortPage[prevP:p.pageOff[s]]
		prevE, prevP = p.edgeOff[s], p.pageOff[s]
		if len(seg) == 0 && len(pseg) == 0 {
			continue
		}

		// Aggregate the edge segment: sort by key (si order within a key is
		// irrelevant — shares are summed), then one EdgeDelta per distinct
		// key with the signal shares scattered into the aligned stride.
		slices.SortFunc(seg, func(a, b edgeDec) int {
			if a.key < b.key {
				return -1
			}
			if a.key > b.key {
				return 1
			}
			return 0
		})
		p.outEdges = p.outEdges[:0]
		p.outSig = p.outSig[:0]
		for k := 0; k < len(seg); {
			key := seg[k].key
			base := len(p.outSig)
			for j := 0; j < nsig; j++ {
				p.outSig = append(p.outSig, 0)
			}
			var tot uint32
			for ; k < len(seg) && seg[k].key == key; k++ {
				tot++
				if nsig > 0 {
					p.outSig[base+int(seg[k].si)]++
				}
			}
			p.outEdges = append(p.outEdges, graph.EdgeDelta{Key: key, W: tot})
		}

		// Aggregate the page segment: sort by author, run-length count.
		slices.SortFunc(pseg, func(a, b pageDec) int {
			if a.v < b.v {
				return -1
			}
			if a.v > b.v {
				return 1
			}
			return 0
		})
		p.outPages = p.outPages[:0]
		for k := 0; k < len(pseg); {
			v := pseg[k].v
			var n uint32
			for ; k < len(pseg) && pseg[k].v == v; k++ {
				n++
			}
			p.outPages = append(p.outPages, graph.PageDelta{V: v, N: n})
		}

		sig := p.outSig
		if nsig == 0 {
			sig = nil
		}
		p.g.SubShardBatch(s, p.outEdges, sig, p.outPages)
	}
}

// Snapshot returns a copy-on-write snapshot of the current trailing-window
// CI graph: O(shards), independent of graph size. The snapshot is
// immutable — surveys run on it while ingestion continues; shards the
// stream dirties afterwards are recopied lazily inside the store.
func (p *SlidingProjector) Snapshot() *graph.CISnapshot { return p.g.Snapshot() }

// NumShards returns the shard count of the live CI store.
func (p *SlidingProjector) NumShards() int { return p.g.NumShards() }

// GraphVersion returns the live store's aggregate mutation counter: an
// unchanged version guarantees an unchanged CI graph, which lets a survey
// loop skip recomputing over an idle stream.
func (p *SlidingProjector) GraphVersion() uint64 { return p.g.Version() }

// BufferedComments reports the transient δ2 buffer size across every
// signal's object states (a maintained count: the stats endpoint reads it
// under the ingest lock).
func (p *SlidingProjector) BufferedComments() int {
	n := 0
	for si := range p.cells {
		n += p.cells[si].buffered
	}
	return n
}
