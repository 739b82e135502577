// Package detectd is the long-running streaming detection service: the
// paper's three-step pipeline turned into a daemon. It glues three layers
// together:
//
//  1. A sliding-window projector (stream.SlidingProjector) ingests a
//     time-ordered comment stream and maintains the CI graph of only the
//     trailing event-time horizon — old co-activity ages out instead of
//     accumulating forever.
//  2. A background survey loop periodically snapshots the live CI graph.
//     The live graph is a sharded copy-on-write store, so a snapshot
//     freezes shard map references under per-shard locks — O(shards), not
//     O(edges) — and ingestion recopies only the shards it dirties
//     afterwards. Each cycle is one pipeline.Survey call, the engine a
//     batch pipeline.Run calls once: the loop hands it the previous
//     cycle's pipeline.Carry and the authors whose windowed comments
//     changed, and Survey diffs the snapshots, keeps every carried
//     triangle that touches no dirty vertex, re-enumerates only the dirty
//     frontier, reuses memoized hypergraph scores and warm-starts the
//     communities. The first cycle runs the full survey. An idle cycle
//     (nothing ingested since the last survey) republishes the previous
//     result without recomputing anything. Tests hold every published
//     cycle equal to the reference pipeline on its own snapshot.
//  3. An HTTP/JSON API (http.go) exposes ingestion with backpressure,
//     the latest survey, per-user scoring, stats, and health.
//
// Time is event time throughout: eviction is driven by ingested
// timestamps, not the wall clock, so replayed archives and live traffic
// behave identically. The survey loop's cadence is the only wall-clock
// element.
package detectd

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"coordbot/internal/community"
	"coordbot/internal/graph"
	"coordbot/internal/interner"
	"coordbot/internal/pipeline"
	"coordbot/internal/projection"
	"coordbot/internal/stream"
)

// Config parameterizes the daemon.
type Config struct {
	// Window is the projection delay window (δ1, δ2) in seconds.
	Window projection.Window
	// Horizon is the trailing event-time span, in seconds, that the CI
	// graph covers; co-activity older than this decays out.
	Horizon int64
	// Signals selects the coordination signals the projector fans the
	// ingest stream out to, each optionally with its own trailing horizon
	// (0 = Horizon). Empty means the single default co-comment signal
	// over Window — bit-identical to a pre-signal daemon. With two or
	// more signals the live store keeps a per-signal weight breakdown:
	// /v1/stats reports per-signal counters, and /v1/score and
	// /v1/communities report the signal mix of each group. The survey,
	// delta, and community layers run unchanged on the merged totals.
	Signals []stream.SignalConfig
	// SurveyInterval is the wall-clock cadence of the background survey
	// loop. Zero or negative disables the loop; surveys then run only via
	// SurveyNow (the embedding/test mode).
	SurveyInterval time.Duration
	// MinTriangleWeight / MinTScore are the survey thresholds, as in
	// pipeline.Config.
	MinTriangleWeight uint32
	MinTScore         float64
	// ValidateHypergraph keeps a trailing-horizon comment log and runs
	// Step-3 validation each cycle. Costs memory proportional to the
	// horizon's traffic; without it surveys report CI metrics only.
	ValidateHypergraph bool
	// Exclude lists author names skipped at projection (§3 helpers).
	Exclude []string
	// ExcludeIDs lists pre-interned author IDs skipped at projection, for
	// replayed archives that carry numeric IDs without a name table. Merged
	// with Exclude.
	ExcludeIDs []graph.VertexID
	// QueueSize bounds the ingest queue in batches; a full queue makes
	// the API push back with 429 (default 256).
	QueueSize int
	// ClampLate lifts slightly-late comments up to the watermark instead
	// of rejecting them (live feeds are only approximately ordered).
	// When false, out-of-order comments are dropped and counted.
	ClampLate bool
	// Shards is the shard count of the live CI store (rounded up to a
	// power of two; 0 = graph.DefaultShards). More shards cut the
	// copy-on-write cost hot ingestion pays after each snapshot — and
	// tighten the dirty-shard diff the incremental survey starts from.
	Shards int
	// IngestWorkers has no effect: the ingest goroutine feeds the projector
	// itself, whatever this says. The field remains only because
	// bench/coordbench/workloads.go sets it; a change that may also edit
	// bench/ can drop it from both.
	IngestWorkers int
	// Communities enables the clustering layer: each cycle partitions the
	// pruned snapshot into communities (Leiden or Label Propagation) and
	// scores them with the generalized coordination metrics, served at
	// /v1/communities. The partition is cached between cycles and, on
	// delta cycles, warm-started: connected components untouched by the
	// dirty-vertex diff reuse their previous assignment verbatim (the
	// result is provably identical to clustering from scratch — see
	// package community).
	Communities bool
	// Community parameterizes the clustering (zero value = Leiden,
	// resolution 1.0, min community size 3, seed 1).
	Community community.Config
}

func (c *Config) setDefaults() error {
	if err := c.Window.Validate(); err != nil {
		return err
	}
	if c.Horizon <= 0 {
		return fmt.Errorf("detectd: non-positive horizon %d", c.Horizon)
	}
	if c.QueueSize <= 0 {
		c.QueueSize = 256
	}
	if c.MinTriangleWeight == 0 {
		c.MinTriangleWeight = 1
	}
	return nil
}

// SurveyResult is one published survey cycle.
type SurveyResult struct {
	// Cycle numbers survey runs from 1.
	Cycle int64
	// Watermark is the event time of the snapshot.
	Watermark int64
	// TakenAt / Duration are wall-clock: when the cycle started and how
	// long snapshot+survey+validation took.
	TakenAt  time.Time
	Duration time.Duration
	// Edges / Vertices describe the snapshot CI graph.
	Edges, Vertices int
	// Result is the engine survey's output on the snapshot; its Survey
	// field holds the cycle's delta, diff, cache and orientation counters.
	Result *pipeline.Result
	// Reused reports that the stream was idle since the previous cycle,
	// so this cycle republished the previous Result without resurveying.
	Reused bool

	// snap / btm are the immutable inputs the survey ran on, kept for
	// same-package consumers: the score and communities endpoints, which
	// answer from them, and the equivalence oracle in tests. btm is nil
	// without ValidateHypergraph.
	snap *graph.CISnapshot
	btm  *graph.BTM

	// stamp identifies the exact stream state the survey saw; an equal
	// stamp on the next cycle proves the graph and log are unchanged.
	stamp surveyStamp

	// rank is the census's lazily built /v1/triangles order (http.go).
	rank *triangleRank

	// totals are the cumulative counters as of this cycle (Cycle itself
	// counts the cycles).
	totals surveyTotals
}

// surveyTotals are cumulative survey counters. Each cycle advances the
// previous result's totals under surveyMu and publishes them inside its
// own SurveyResult, so one Latest() load reads counters that belong
// together: reused + delta + full == Cycle, always.
type surveyTotals struct {
	reused, delta, full                   int64
	trianglesCached, trianglesResurveyed  int64
	hyperCacheHits                        int64
	componentsReused, componentsClustered int64
}

// add counts one surveyed (not reused) cycle's result.
func (t *surveyTotals) add(res *pipeline.Result) {
	st := res.Survey
	if st.Delta {
		t.delta++
	} else {
		t.full++
	}
	t.trianglesCached += int64(st.CachedTriangles)
	t.trianglesResurveyed += int64(st.ResurveyedTriangles)
	t.hyperCacheHits += int64(res.HyperCacheHits)
	if p := res.Partition; p != nil {
		t.componentsReused += int64(p.ReusedComponents)
		t.componentsClustered += int64(p.ClusteredComponents)
	}
}

// surveyStamp is captured under s.mu together with the snapshot. The
// ingested counter covers the comment log too: every logged comment
// increments it, and the daemon never advances event time without one.
type surveyStamp struct {
	graphVersion uint64
	ingested     int64
	watermark    int64
}

// Service is the daemon. Create with NewService, start the background
// goroutines with Start, serve Handler() over HTTP, stop with Close.
type Service struct {
	cfg     Config
	authors *interner.Interner
	pageIDs *interner.Interner
	// urlIDs / tagIDs intern the signal-attribute object spaces (URLs,
	// hashtags) independently of pages. Allocated lazily-cheap even when
	// no signal reads them.
	urlIDs *interner.Interner
	tagIDs *interner.Interner
	// signalNames caches the projector's signal order for stats and mix
	// labelling (immutable after NewService).
	signalNames []string

	mu   sync.Mutex // guards proj, applyBuf, log, and logDirty
	proj *stream.SlidingProjector
	// applyBuf is the service-owned staging batch: ingest clamps and
	// filters caller batches into it (callers' slices are never mutated)
	// and flushes it through one projector AddBatch per Apply or per
	// coalesced queue drain.
	applyBuf []graph.Comment
	// log is the trailing-horizon comment ring Step 3 validates against
	// (only when cfg.ValidateHypergraph).
	log      []graph.Comment
	logStart int
	// logDirty accumulates authors whose windowed comment set changed
	// (a comment ingested or aged out) since the last survey consumed it —
	// exactly the authors whose hypergraph scores may have moved, so the
	// survey invalidates their memoized triplets and keeps the rest.
	logDirty map[graph.VertexID]bool

	// surveyMu serializes survey cycles: each hands carry, the engine's
	// cross-cycle state, to the next. Ingestion never takes this lock.
	surveyMu sync.Mutex
	carry    *pipeline.Carry
	// survey is the engine configuration every cycle runs with.
	survey pipeline.Config

	queue  chan []graph.Comment
	latest atomic.Pointer[SurveyResult]

	ingested    atomic.Int64
	dropped     atomic.Int64
	lateClamped atomic.Int64

	metrics *metrics
	started time.Time

	stopping atomic.Bool
	// stopMu makes Enqueue's stopping check and queue send one step with
	// respect to Close: a batch Enqueue accepts is queued before quit
	// closes, so the ingest loop's final drain applies it.
	stopMu               sync.RWMutex
	quit                 chan struct{}
	wg                   sync.WaitGroup
	startOnce, closeOnce sync.Once
}

// NewService validates cfg and builds a stopped service.
func NewService(cfg Config) (*Service, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	authors := interner.New(1 << 12)
	exclude := make(map[graph.VertexID]bool, len(cfg.Exclude)+len(cfg.ExcludeIDs))
	for _, name := range cfg.Exclude {
		exclude[authors.Intern(name)] = true
	}
	for _, id := range cfg.ExcludeIDs {
		exclude[id] = true
	}
	opts := projection.Options{Exclude: exclude}
	sigs := cfg.Signals
	if len(sigs) == 0 {
		sigs = []stream.SignalConfig{{Signal: projection.CoComment{W: cfg.Window}}}
	}
	proj, err := stream.NewMultiSlidingProjectorWorkers(sigs, cfg.Horizon, opts, cfg.Shards, 1)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, sg := range proj.Signals() {
		names = append(names, sg.Name())
	}
	return &Service{
		cfg:         cfg,
		authors:     authors,
		pageIDs:     interner.New(1 << 12),
		urlIDs:      interner.New(1 << 8),
		tagIDs:      interner.New(1 << 8),
		signalNames: names,
		proj:        proj,
		survey: pipeline.Config{
			Window:            cfg.Window,
			MinTriangleWeight: cfg.MinTriangleWeight,
			MinTScore:         cfg.MinTScore,
			SkipHypergraph:    !cfg.ValidateHypergraph,
			Communities:       cfg.Communities,
			Community:         cfg.Community,
		},
		queue:   make(chan []graph.Comment, cfg.QueueSize),
		metrics: newMetrics(),
		quit:    make(chan struct{}),
		started: time.Now(),
	}, nil
}

// Start launches the ingest worker and, if configured, the survey loop.
// Each long-lived goroutine carries a pprof "phase" label (ingest /
// survey, with the clustering section additionally labeled communities),
// so -pprof-addr profiles attribute samples by pipeline phase.
func (s *Service) Start() {
	s.startOnce.Do(func() {
		s.wg.Add(1)
		go pprof.Do(context.Background(), pprof.Labels("phase", "ingest"), func(context.Context) {
			s.ingestLoop()
		})
		if s.cfg.SurveyInterval > 0 {
			s.wg.Add(1)
			go pprof.Do(context.Background(), pprof.Labels("phase", "survey"), func(context.Context) {
				s.surveyLoop()
			})
		}
	})
}

// Close stops ingestion, drains the queue, and waits for the background
// goroutines. Safe to call more than once. New ingests are rejected with
// ErrStopped as soon as Close begins.
func (s *Service) Close() {
	s.closeOnce.Do(func() {
		s.stopMu.Lock()
		s.stopping.Store(true)
		close(s.quit)
		s.stopMu.Unlock()
	})
	s.wg.Wait()
}

// Sentinel ingestion errors, mapped to HTTP statuses by the API layer.
var (
	ErrQueueFull = fmt.Errorf("detectd: ingest queue full")
	ErrStopped   = fmt.Errorf("detectd: service stopped")
)

// Enqueue hands a batch of interned comments to the ingest worker without
// blocking: a full queue returns ErrQueueFull (backpressure), a stopping
// service ErrStopped.
func (s *Service) Enqueue(batch []graph.Comment) error {
	if len(batch) == 0 {
		return nil
	}
	s.stopMu.RLock()
	defer s.stopMu.RUnlock()
	if s.stopping.Load() {
		return ErrStopped
	}
	select {
	case s.queue <- batch:
		return nil
	default:
		return ErrQueueFull
	}
}

// Apply ingests a batch synchronously, bypassing the queue — the embedding
// path for in-process pipelines and benchmarks — and returns the number of
// comments applied: without ClampLate, late comments are dropped. The
// caller's slice is not mutated and not retained. Concurrent-safe.
func (s *Service) Apply(batch []graph.Comment) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gatherLocked(batch)
	return s.flushLocked()
}

// gatherLocked clamps (or drops) late comments from batch into the staging
// buffer. The clamp watermark threads through the buffered tail, so
// gathering N batches then flushing once is comment-for-comment identical
// to N clamp-and-apply rounds. Caller holds s.mu.
func (s *Service) gatherLocked(batch []graph.Comment) {
	wm := s.proj.Watermark()
	if n := len(s.applyBuf); n > 0 {
		wm = s.applyBuf[n-1].TS
	}
	for _, c := range batch {
		if c.TS < wm {
			if !s.cfg.ClampLate {
				s.dropped.Add(1)
				continue
			}
			c.TS = wm
			s.lateClamped.Add(1)
		} else {
			wm = c.TS
		}
		s.applyBuf = append(s.applyBuf, c)
	}
}

// flushLocked feeds the staging buffer through one projector batch
// ingest, then settles counters and the validation log. Caller holds
// s.mu. Gathering guarantees nondecreasing timestamps, so the projector
// cannot reject — the count delta is still consulted rather than assumed,
// and any shortfall lands in the dropped counter. Returns the number of
// comments applied.
func (s *Service) flushLocked() int {
	if len(s.applyBuf) == 0 {
		return 0
	}
	before := s.proj.Count()
	err := s.proj.AddBatch(s.applyBuf)
	applied := int(s.proj.Count() - before)
	s.ingested.Add(int64(applied))
	if err != nil || applied < len(s.applyBuf) {
		s.dropped.Add(int64(len(s.applyBuf) - applied))
	}
	if s.cfg.ValidateHypergraph {
		for _, c := range s.applyBuf[:applied] {
			s.log = append(s.log, c)
			s.markHyperDirty(c.Author)
		}
		s.evictLogLocked()
	}
	s.applyBuf = s.applyBuf[:0]
	return applied
}

// markHyperDirty records that a's windowed comment set changed. Caller
// holds s.mu.
func (s *Service) markHyperDirty(a graph.VertexID) {
	if s.logDirty == nil {
		s.logDirty = make(map[graph.VertexID]bool)
	}
	s.logDirty[a] = true
}

// evictLogLocked drops logged comments outside the horizon. Caller holds
// s.mu. The log is append-ordered by (clamped) timestamp, so a front scan
// suffices; the ring compacts when more than half is dead.
func (s *Service) evictLogLocked() {
	cut := s.proj.Watermark() - s.cfg.Horizon
	for s.logStart < len(s.log) && s.log[s.logStart].TS <= cut {
		s.markHyperDirty(s.log[s.logStart].Author)
		s.logStart++
	}
	if s.logStart > 1024 && s.logStart*2 > len(s.log) {
		s.log = append(s.log[:0], s.log[s.logStart:]...)
		s.logStart = 0
	}
}

// maxCoalesce bounds how many comments the ingest worker folds into one
// projector batch: big enough to amortize the per-batch eviction wave,
// small enough that a survey waiting on s.mu is not held off indefinitely
// under sustained load.
const maxCoalesce = 1 << 16

func (s *Service) ingestLoop() {
	defer s.wg.Done()
	for {
		select {
		case batch := <-s.queue:
			s.applyCoalesced(batch)
		case <-s.quit:
			// Drain whatever was accepted before the stop.
			for {
				select {
				case batch := <-s.queue:
					s.applyCoalesced(batch)
				default:
					return
				}
			}
		}
	}
}

// applyCoalesced applies batch plus whatever else is already queued (up
// to maxCoalesce comments) as one projector batch under one lock hold.
func (s *Service) applyCoalesced(batch []graph.Comment) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gatherLocked(batch)
	for len(s.applyBuf) < maxCoalesce {
		select {
		case b := <-s.queue:
			s.gatherLocked(b)
		default:
			s.flushLocked()
			return
		}
	}
	s.flushLocked()
}

func (s *Service) surveyLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.SurveyInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.SurveyNow()
		case <-s.quit:
			return
		}
	}
}

// SurveyNow runs one survey cycle synchronously: snapshot the live CI
// graph and copy the windowed comment log under a brief lock — the
// snapshot is O(shards) copy-on-write, not a deep copy — then run the
// engine's pipeline.Survey on the copies and publish the result. If the
// stream is idle (stamp unchanged since the previous cycle) the previous
// result is republished with Reused set and no graph work at all.
// Otherwise Survey gets the previous cycle's carry and surveys only what
// the snapshot diff and the log's dirty authors say changed; the first
// cycle runs the full pass. Callable concurrently with ingestion;
// concurrent calls serialize on surveyMu. A cycle cannot fail: the
// error is always nil.
func (s *Service) SurveyNow() (*SurveyResult, error) {
	start := time.Now()
	s.surveyMu.Lock()
	defer s.surveyMu.Unlock()

	// The last published cycle. Only a surveyMu holder publishes, so prev
	// stays the latest until this cycle stores its successor.
	prev := s.latest.Load()
	s.mu.Lock()
	st := surveyStamp{
		graphVersion: s.proj.GraphVersion(),
		ingested:     s.ingested.Load(),
		watermark:    s.proj.Watermark(),
	}
	if prev != nil && prev.stamp == st {
		s.mu.Unlock()
		sr := *prev
		sr.Cycle, sr.TakenAt, sr.Duration, sr.Reused = prev.Cycle+1, start, time.Since(start), true
		sr.totals.reused++
		s.latest.Store(&sr)
		return &sr, nil
	}
	ci := s.proj.Snapshot()
	var windowed []graph.Comment
	if s.cfg.ValidateHypergraph && len(s.log) > s.logStart {
		windowed = append(windowed, s.log[s.logStart:]...)
	}
	logDirty := s.logDirty
	s.logDirty = nil
	s.mu.Unlock()

	// Heavy lifting happens outside the lock, on the copies.
	var btm *graph.BTM
	if windowed != nil {
		btm = graph.BuildBTM(windowed, 0, 0)
	}
	res, carry := pipeline.Survey(ci, btm, s.survey, s.carry, logDirty)
	s.carry = carry
	sr := &SurveyResult{
		Watermark: st.watermark,
		TakenAt:   start,
		Duration:  time.Since(start),
		Edges:     ci.NumEdges(),
		Vertices:  ci.NumAuthors(),
		Result:    res,
		snap:      ci,
		btm:       btm,
		stamp:     st,
		rank:      new(triangleRank),
	}
	if prev != nil {
		sr.Cycle, sr.totals = prev.Cycle, prev.totals
	}
	sr.Cycle++
	sr.totals.add(res)
	s.latest.Store(sr)
	return sr, nil
}

// Latest returns the most recently published survey (nil before the first).
func (s *Service) Latest() *SurveyResult { return s.latest.Load() }

// Ingested returns the number of comments applied to the live graph.
func (s *Service) Ingested() int64 { return s.ingested.Load() }

// Cycles returns the number of completed survey cycles.
func (s *Service) Cycles() int64 {
	if sr := s.latest.Load(); sr != nil {
		return sr.Cycle
	}
	return 0
}

// Snapshot of live-side gauges for the stats endpoint.
type liveStats struct {
	watermark    int64
	livePairs    int64
	evictedPairs int64
	liveEdges    int
	buffered     int
	logged       int
	signals      []stream.SignalStat
}

func (s *Service) liveStats() liveStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return liveStats{
		watermark:    s.proj.Watermark(),
		livePairs:    s.proj.LivePairs(),
		evictedPairs: s.proj.EvictedPairs(),
		liveEdges:    s.proj.NumEdges(),
		buffered:     s.proj.BufferedComments(),
		logged:       len(s.log) - s.logStart,
		signals:      s.proj.SignalStats(),
	}
}

// signalMix labels a per-signal weight vector with the signal names,
// dropping zero entries; nil in (single-signal stores) is nil out.
func (s *Service) signalMix(mix []uint64) map[string]uint64 {
	if mix == nil {
		return nil
	}
	out := make(map[string]uint64, len(mix))
	for si, w := range mix {
		if w > 0 && si < len(s.signalNames) {
			out[s.signalNames[si]] = w
		}
	}
	return out
}
