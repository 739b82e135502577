package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"time"

	"coordbot/internal/community"
	"coordbot/internal/detectd"
	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/interner"
	"coordbot/internal/pipeline"
	"coordbot/internal/projection"
	"coordbot/internal/stream"
	"coordbot/internal/tripoll"
	"coordbot/internal/wire"
)

// span is one timed call into a layer, recorded by the harness around
// the call (the layers themselves are not instrumented). Spans stay in
// memory during a pass and are written out once at exit.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	ID     int    `json:"id"`     // batch or cycle number within its pass
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, id int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, ID: id, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.t0)) }

// timed records fn as a child span of parent.
func (t *tracer) timed(name string, parent, id int, fn func()) {
	sp := t.begin(name, parent, id)
	fn()
	t.end(sp)
}

// durations returns, in nanoseconds, every span of the given name that
// descends from root (any span of that name when root < 0).
func (t *tracer) durations(name string, root int) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && (root < 0 || t.under(s.Parent, root)) {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

func (t *tracer) under(i, root int) bool {
	for ; i >= 0; i = t.spans[i].Parent {
		if i == root {
			return true
		}
	}
	return false
}

func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// passResult is what an in-process replay ends on.
type passResult struct {
	census *census
	// Exact work counts, compared across passes by the determinism guard.
	pairs     int64 // live + evicted
	liveEdges int
}

// Span names. The service pass records one span per Service call; the
// layers pass records one per public layer function, plus the glue
// detectd itself runs between them, under a per-batch or per-cycle
// parent so the two passes can be compared call for call.
const (
	spIngestBytes = "detectd.IngestBytes"
	spSurveyNow   = "detectd.SurveyNow"
	spBatch       = "layers.batch"
	spCycle       = "layers.cycle"
	spSetup       = "setup" // warm-up ingest and the first, full survey
	spTimed       = "timed"
)

// servicePass replays the run through an embedded detectd.Service: the
// same bodies through IngestBytes, and a SurveyNow wherever the untraced
// run's polls saw a new watermark published.
func servicePass(tr *tracer, p *plan, steps []int) (*passResult, *detectd.Service, error) {
	cfg, err := p.sut.service()
	if err != nil {
		return nil, nil, err
	}
	svc, err := detectd.NewService(cfg)
	if err != nil {
		return nil, nil, err
	}
	root := tr.begin("pass.service", -1, 0)
	defer tr.end(root)
	ingest := func(parent, id int, b batch) error {
		sp := tr.begin(spIngestBytes, parent, id)
		n, err := svc.IngestBytes(p.contentType(), b.body)
		tr.end(sp)
		if err != nil || n != b.n {
			return fmt.Errorf("IngestBytes batch %d: applied %d of %d, %v", id, n, b.n, err)
		}
		return nil
	}
	survey := func(parent, id int) error {
		sp := tr.begin(spSurveyNow, parent, id)
		_, err := svc.SurveyNow()
		tr.end(sp)
		return err
	}

	setup := tr.begin(spSetup, root, 0)
	for i, b := range p.warm {
		if err := ingest(setup, i, b); err != nil {
			return nil, nil, err
		}
	}
	if err := survey(setup, 0); err != nil {
		return nil, nil, err
	}
	tr.end(setup)

	timed := tr.begin(spTimed, root, 0)
	lo := 0
	for ci, hi := range steps {
		for ; lo < hi; lo++ {
			if err := ingest(timed, lo, p.timed[lo]); err != nil {
				return nil, nil, err
			}
		}
		if err := survey(timed, ci+1); err != nil {
			return nil, nil, err
		}
	}
	tr.end(timed)

	var st detectd.StatsOut
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/stats", nil))
	if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
		return nil, nil, fmt.Errorf("embedded /v1/stats: %w", err)
	}
	return &passResult{
		census:    censusOf(svc.Latest().Result),
		pairs:     st.LivePairs + st.EvictedPairs,
		liveEdges: st.LiveEdges,
	}, svc, nil
}

// probeHandlers times the read endpoints in-process, at the replay's end
// state: the handler's own cost, without sockets or a scheduler between.
func probeHandlers(tr *tracer, svc *detectd.Service, p *plan) {
	root := tr.begin("pass.handlers", -1, 0)
	defer tr.end(root)
	h := svc.Handler()
	const each = 30
	hit := func(name, path string, id int) {
		req := httptest.NewRequest("GET", path, nil)
		tr.timed(name, root, id, func() { h.ServeHTTP(httptest.NewRecorder(), req) })
	}
	for i := 0; i < each; i++ {
		hit("detectd.handler.triangles", "/v1/triangles?limit=50", i)
		if p.sut.communities {
			hit("detectd.handler.communities", "/v1/communities?limit=20", i)
		}
		ring := p.corpus.rings[i%len(p.corpus.rings)]
		a := p.corpus.authors
		hit("detectd.handler.score", fmt.Sprintf("/v1/score?users=%s,%s,%s",
			a[ring[i%len(ring)]], a[ring[(i+1)%len(ring)]], a[ring[(i+2)%len(ring)]]), i)
	}
}

// layers is the harness's own staging of the daemon's chain from the
// layers' public functions: what detectd.Service does between a request
// body and a published census, taken apart so each call can be timed.
// It must end on the same census as the Service it mirrors, and its
// spans must add up to the Service's (trace.coverage_*), or the numbers
// it yields describe something other than the daemon.
type layers struct {
	tr  *tracer
	sut sutConfig

	authors, pages, urls, tags *interner.Interner
	proj                       *stream.SlidingProjector
	scan                       wire.Scanner

	// The trailing-horizon comment log Step 3 validates against, and the
	// authors whose windowed comments changed since the last cycle.
	log        []graph.Comment
	logStart   int
	hyperDirty map[graph.VertexID]bool

	// Cross-cycle survey state (detectd's surveyCache).
	snap, pruned *graph.CISnapshot
	tris         []tripoll.Triangle
	hyper        map[hypergraph.Triplet]hypergraph.Score
	oriented     *tripoll.Oriented
	partition    *community.Partition
	last         *pipeline.Result

	// Counts taken where the work happens.
	comments, bytes, keys, newIDs       int64
	cycles, dirtyVerts, dirtyShards     int64
	cached, resurveyed, hyperHits, hypN int64
	compReused, compClustered           int64
}

func newLayers(tr *tracer, sut sutConfig) (*layers, error) {
	l := &layers{
		tr: tr, sut: sut,
		authors: interner.New(1 << 12), pages: interner.New(1 << 12),
		urls: interner.New(1 << 8), tags: interner.New(1 << 8),
	}
	exclude := make(map[graph.VertexID]bool)
	for _, name := range excluded {
		exclude[l.authors.Intern(name)] = true
	}
	sigs, err := sut.parseSignals()
	if err != nil {
		return nil, err
	}
	var cfgs []stream.SignalConfig
	for _, sg := range sigs {
		cfgs = append(cfgs, stream.SignalConfig{Signal: sg})
	}
	// The daemon's flag defaults: default shards, one lane worker per core
	// the SUT has.
	l.proj, err = stream.NewMultiSlidingProjectorWorkers(cfgs, sut.horizon, projection.Options{Exclude: exclude}, 0, sutProcs())
	return l, err
}

// ingest is decodeBatch + Apply: decode every comment into views, intern
// per table in one batch each, assemble, project, log.
func (l *layers) ingest(parent, id int, body []byte, frame bool) error {
	tr := l.tr
	root := tr.begin(spBatch, parent, id)
	defer tr.end(root)

	var views []wire.Comment
	var err error
	decode := func(rd wire.Reader) {
		var c wire.Comment
		for {
			var ok bool
			if ok, err = rd.Next(&c); err != nil || !ok {
				return
			}
			views = append(views, c)
		}
	}
	if frame {
		tr.timed("wire.FrameScanner", root, id, func() {
			var f *wire.FrameScanner
			if f, err = wire.NewFrameScanner(body); err == nil {
				decode(f)
			}
		})
	} else {
		tr.timed("wire.Scanner", root, id, func() {
			l.scan.Reset(body)
			decode(&l.scan)
		})
	}
	if err != nil {
		return fmt.Errorf("decode batch %d: %w", id, err)
	}
	l.comments += int64(len(views))
	l.bytes += int64(len(body))

	var authorK, pageK, urlK, tagK [][]byte
	var batch []graph.Comment
	tr.timed("detectd.stage_keys", root, id, func() {
		for i := range views {
			v := &views[i]
			authorK = append(authorK, v.Author)
			pageK = append(pageK, v.Page)
			if len(v.ReplyTo) > 0 {
				authorK = append(authorK, v.ReplyTo)
			}
			urlK = append(urlK, v.URLs...)
			tagK = append(tagK, v.Tags...)
		}
	})
	authorI := make([]interner.ID, len(authorK))
	pageI := make([]interner.ID, len(pageK))
	urlI := make([]interner.ID, len(urlK))
	tagI := make([]interner.ID, len(tagK))
	before := l.authors.Len() + l.pages.Len() + l.urls.Len() + l.tags.Len()
	tr.timed("interner.InternBatchBytes", root, id, func() {
		l.authors.InternBatchBytes(authorK, authorI)
		l.pages.InternBatchBytes(pageK, pageI)
		l.urls.InternBatchBytes(urlK, urlI)
		l.tags.InternBatchBytes(tagK, tagI)
	})
	l.keys += int64(len(authorK) + len(pageK) + len(urlK) + len(tagK))
	l.newIDs += int64(l.authors.Len() + l.pages.Len() + l.urls.Len() + l.tags.Len() - before)

	tr.timed("detectd.assemble", root, id, func() {
		batch = make([]graph.Comment, len(views))
		ak, uc, tc := 0, 0, 0
		for i := range views {
			v := &views[i]
			batch[i] = graph.Comment{Author: authorI[ak], Page: pageI[i], TS: v.TS}
			ak++
			if !v.HasAttrs() {
				continue
			}
			attrs := &graph.CommentAttrs{}
			attrs.URLs = append(attrs.URLs, urlI[uc:uc+len(v.URLs)]...)
			attrs.Tags = append(attrs.Tags, tagI[tc:tc+len(v.Tags)]...)
			uc, tc = uc+len(v.URLs), tc+len(v.Tags)
			if len(v.ReplyTo) > 0 {
				attrs.ReplyTo, attrs.IsReply = authorI[ak], true
				ak++
			}
			batch[i].Attrs = attrs
		}
	})

	tr.timed("stream.AddBatch", root, id, func() { err = l.proj.AddBatch(batch) })
	if err != nil {
		return fmt.Errorf("AddBatch %d: %w", id, err)
	}

	tr.timed("detectd.log", root, id, func() {
		if l.hyperDirty == nil {
			l.hyperDirty = make(map[graph.VertexID]bool)
		}
		for _, c := range batch {
			l.log = append(l.log, c)
			l.hyperDirty[c.Author] = true
		}
		cut := l.proj.Watermark() - l.sut.horizon
		for l.logStart < len(l.log) && l.log[l.logStart].TS <= cut {
			l.hyperDirty[l.log[l.logStart].Author] = true
			l.logStart++
		}
		if l.logStart > 1024 && l.logStart*2 > len(l.log) {
			l.log = append(l.log[:0], l.log[l.logStart:]...)
			l.logStart = 0
		}
	})
	return nil
}

// cycle is SurveyNow: full on the first call, delta afterwards.
func (l *layers) cycle(parent, id int) error {
	tr := l.tr
	root := tr.begin(spCycle, parent, id)
	defer tr.end(root)
	step := func(name string, fn func()) { tr.timed(name, root, id, fn) }

	var ci *graph.CISnapshot
	var windowed []graph.Comment
	step("graph.Snapshot", func() { ci = l.proj.Snapshot() })
	step("detectd.copy_log", func() { windowed = append(windowed, l.log[l.logStart:]...) })
	hyperDirty := l.hyperDirty
	l.hyperDirty = nil

	var btm *graph.BTM
	if windowed != nil {
		step("graph.BuildBTM", func() { btm = graph.BuildBTM(windowed, 0, 0) })
	}

	cut := l.sut.cut
	sopts := tripoll.Options{MinTriangleWeight: cut}
	var (
		dirty       map[graph.VertexID]bool
		dirtyShards int
		delta       bool
		pruned      *graph.CISnapshot
		oriented    *tripoll.Oriented
		tris        []tripoll.Triangle
	)
	if l.snap != nil {
		step("graph.DirtyVertices", func() { dirty, dirtyShards, delta = ci.DirtyVertices(l.snap) })
	}
	if delta {
		step("graph.ThresholdDelta", func() { pruned = ci.ThresholdDelta(l.snap, l.pruned, cut) })
		var kept []tripoll.Triangle
		step("detectd.keep_clean", func() {
			kept = make([]tripoll.Triangle, 0, len(l.tris))
			for _, t := range l.tris {
				if !dirty[t.X] && !dirty[t.Y] && !dirty[t.Z] {
					kept = append(kept, t)
				}
			}
		})
		var patches []graph.EdgePatch
		var ok bool
		step("graph.EdgePatches", func() { patches, _, ok = pruned.EdgePatches(l.pruned) })
		if !ok {
			return fmt.Errorf("cycle %d: pruned snapshots not comparable", id)
		}
		oriented = l.oriented
		step("tripoll.ApplyPatches", func() { oriented.ApplyPatches(patches) })
		var fresh []tripoll.Triangle
		step("tripoll.SurveyDirty", func() {
			oriented.SurveyDirty(sopts, dirty, nil, func(t tripoll.Triangle) { fresh = append(fresh, t) })
		})
		step("tripoll.MergeSorted", func() {
			tripoll.SortTriangles(fresh)
			tris = tripoll.MergeSorted(kept, fresh)
		})
		l.cached += int64(len(kept))
		l.resurveyed += int64(len(fresh))
		l.cycles++
		l.dirtyVerts += int64(len(dirty))
		l.dirtyShards += int64(dirtyShards)
	} else {
		step("graph.ThresholdView", func() { pruned = ci.ThresholdView(cut).(*graph.CISnapshot) })
		var adj *graph.Adjacency
		step("graph.BuildAdjacency", func() { adj = pruned.BuildAdjacency() })
		step("tripoll.Orient", func() { oriented = tripoll.Orient(adj) })
		step("tripoll.SurveyParallel", func() { tris = oriented.SurveyParallel(sopts, nil) })
	}

	hyper := l.hyper
	step("detectd.memo_invalidate", func() {
		if hyper == nil {
			hyper = make(map[hypergraph.Triplet]hypergraph.Score)
		}
		for t := range hyper {
			if hyperDirty[t.X] || hyperDirty[t.Y] || hyperDirty[t.Z] {
				delete(hyper, t)
			}
		}
	})

	var res *pipeline.Result
	var err error
	step("pipeline.RunOnTriangles", func() {
		res, err = pipeline.RunOnTriangles(ci, pruned, tris, btm, pipeline.Config{
			Window:            window,
			MinTriangleWeight: cut,
		}, hyper)
	})
	if err != nil {
		return err
	}
	if delta {
		l.hyperHits += int64(res.HyperCacheHits)
		l.hypN += int64(len(res.Triangles))
	}

	var partition *community.Partition
	if l.sut.communities {
		ccfg := communityConfig.Defaults()
		var prev *community.Partition
		var warmDirty map[graph.VertexID]bool
		name := "community.Detect"
		if delta {
			prev, warmDirty, name = l.partition, dirty, "community.DetectWarm"
		}
		step(name, func() { partition = community.DetectWarm(res.Thresholded, ccfg, prev, warmDirty) })
		step("community.ScoreCommunities", func() {
			kept := make([]tripoll.Triangle, len(res.Triangles))
			for i := range res.Triangles {
				kept[i] = res.Triangles[i].Triangle
			}
			res.Partition = partition
			res.Communities = community.ScoreCommunities(partition, res.Thresholded, btm, kept, ccfg.MinSize)
		})
		if delta {
			l.compReused += int64(partition.ReusedComponents)
			l.compClustered += int64(partition.ClusteredComponents)
		}
	}
	l.snap, l.pruned, l.tris, l.hyper, l.oriented, l.partition, l.last = ci, pruned, tris, hyper, oriented, partition, res
	return nil
}

// layersPass replays the run through the staged chain on the same
// schedule as servicePass.
func layersPass(tr *tracer, p *plan, steps []int) (*passResult, *layers, error) {
	l, err := newLayers(tr, p.sut)
	if err != nil {
		return nil, nil, err
	}
	root := tr.begin("pass.layers", -1, 0)
	defer tr.end(root)

	setup := tr.begin(spSetup, root, 0)
	for i, b := range p.warm {
		if err := l.ingest(setup, i, b.body, p.frame); err != nil {
			return nil, nil, err
		}
	}
	if err := l.cycle(setup, 0); err != nil {
		return nil, nil, err
	}
	tr.end(setup)
	// Only the timed phase feeds the per-comment and per-cycle ratios.
	l.comments, l.bytes, l.keys, l.newIDs = 0, 0, 0, 0

	timed := tr.begin(spTimed, root, 0)
	lo := 0
	for ci, hi := range steps {
		for ; lo < hi; lo++ {
			if err := l.ingest(timed, lo, p.timed[lo].body, p.frame); err != nil {
				return nil, nil, err
			}
		}
		if err := l.cycle(timed, ci+1); err != nil {
			return nil, nil, err
		}
	}
	tr.end(timed)

	// The staged chain numbers authors as the daemon does; check rather
	// than assume, since the census comparison relies on it.
	for id, name := range p.corpus.authors {
		if id < l.authors.Len() && l.authors.Name(interner.ID(id)) != name {
			return nil, nil, fmt.Errorf("author %d is %q in the staged interner, %q in the corpus", id, l.authors.Name(interner.ID(id)), name)
		}
	}
	return &passResult{
		census:    censusOf(l.last),
		pairs:     l.proj.LivePairs() + l.proj.EvictedPairs(),
		liveEdges: l.proj.NumEdges(),
	}, l, nil
}

// childSum totals the spans whose parent is named parentName and, when
// root >= 0, lies under root.
func (t *tracer) childSum(parentName string, root int) float64 {
	var total float64
	for _, s := range t.spans {
		if s.Parent >= 0 && t.spans[s.Parent].Name == parentName && (root < 0 || t.under(s.Parent, root)) {
			total += float64(s.End - s.Start)
		}
	}
	return total
}

// spanIndex finds the first span with this name directly under parent.
func (t *tracer) spanIndex(name string, parent int) int {
	for i, s := range t.spans {
		if s.Name == name && s.Parent == parent {
			return i
		}
	}
	return -1
}
