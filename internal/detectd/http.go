// HTTP/JSON API of the daemon:
//
//	POST /v1/ingest     — body: JSON array (or NDJSON stream, or any
//	                      whitespace-separated mix of the two) of
//	                      {"author":"x","page":"p","ts":1577836800}, each
//	                      optionally carrying "urls", "tags" and
//	                      "reply_to" signal attributes (used by the
//	                      urlshare / hashtag / reply signals, dropped on a
//	                      co-comment-only daemon). With Content-Type
//	                      application/x-coordbot-frame the body is instead
//	                      one binary frame built by wire.Encoder — same
//	                      comments, no JSON escaping or parsing on either
//	                      side. 202 {"accepted":n}; 400 on malformed input
//	                      (a rejected batch interns nothing); 413 above 64
//	                      MiB; 429 when the queue is full; 503 while
//	                      shutting down.
//	GET  /v1/triangles  — latest survey cycle, strongest first (min weight,
//	                      then T, then author IDs: a total order, ranked
//	                      once per published census). ?min_t=0.5 filters
//	                      on the T score, ?limit=50 truncates.
//	GET  /v1/score      — ?users=a,b,...: live P' counts for up to 512
//	                      users, pairwise CI weights for up to 64, group
//	                      metrics w_S / C(S) against the latest survey's
//	                      windowed comment log, and for exactly three
//	                      users the triangle min-weight and T score —
//	                      served from the survey's cached triangle census
//	                      when the triplet is in it, live point reads
//	                      otherwise.
//	GET  /v1/communities — latest cycle's community partition, strongest
//	                      coordination score first. ?min_c=0.5 filters on
//	                      the community C score, ?limit=20 truncates,
//	                      ?members=false omits the member lists. 404 until
//	                      a survey completes, 501 when the daemon runs
//	                      without the community layer.
//	GET  /v1/stats      — ingest counters, live-graph gauges, survey
//	                      cadence, per-endpoint latency/throughput.
//	GET  /healthz       — liveness (503 once shutdown has begun).
package detectd

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/interner"
	"coordbot/internal/wire"
)

// maxIngestBody bounds one ingest request (64 MiB of JSON).
const maxIngestBody = 64 << 20

// TriangleOut is the wire form of one surveyed triangle.
type TriangleOut struct {
	Authors   [3]string `json:"authors"`
	MinWeight uint32    `json:"min_weight"`
	T         float64   `json:"t"`
	// WXYZ / C are the hypergraph validation (present when the daemon
	// keeps a windowed comment log).
	WXYZ *int     `json:"w_xyz,omitempty"`
	C    *float64 `json:"c,omitempty"`
}

// TrianglesOut is the /v1/triangles response.
type TrianglesOut struct {
	Cycle      int64         `json:"cycle"`
	Watermark  int64         `json:"watermark"`
	TakenAt    time.Time     `json:"taken_at"`
	DurationMS float64       `json:"duration_ms"`
	Edges      int           `json:"snapshot_edges"`
	Vertices   int           `json:"snapshot_vertices"`
	Total      int           `json:"total"`
	Triangles  []TriangleOut `json:"triangles"`
}

// StatsOut is the /v1/stats response.
type StatsOut struct {
	UptimeSec        float64 `json:"uptime_sec"`
	Ingested         int64   `json:"ingested"`
	Dropped          int64   `json:"dropped"`
	LateClamped      int64   `json:"late_clamped"`
	QueueDepth       int     `json:"queue_depth"`
	QueueCap         int     `json:"queue_cap"`
	Watermark        int64   `json:"watermark"`
	HorizonSec       int64   `json:"horizon_sec"`
	WindowMin        int64   `json:"window_min_sec"`
	WindowMax        int64   `json:"window_max_sec"`
	LiveEdges        int     `json:"live_edges"`
	LivePairs        int64   `json:"live_pairs"`
	EvictedPairs     int64   `json:"evicted_pairs"`
	BufferedComments int     `json:"buffered_comments"`
	LoggedComments   int     `json:"logged_comments"`
	Cycles           int64   `json:"cycles"`
	SurveysReused    int64   `json:"surveys_reused"`
	Shards           int     `json:"shards"`
	SurveyErrors     int64   `json:"survey_errors"`
	LastSurveyMS     float64 `json:"last_survey_ms"`
	LastTriangles    int     `json:"last_triangles"`
	// Incremental-survey counters: cycles split by path, cumulative
	// triangle cache reuse vs re-enumeration, Step-3 memo hits, and the
	// size of the last cycle's dirty diff.
	DeltaCycles         int64 `json:"delta_cycles"`
	FullResurveys       int64 `json:"full_resurveys"`
	TrianglesCached     int64 `json:"triangles_cached"`
	TrianglesResurveyed int64 `json:"triangles_resurveyed"`
	HyperCacheHits      int64 `json:"hyper_cache_hits"`
	LastDirtyShards     int64 `json:"last_dirty_shards"`
	LastDirtyVertices   int64 `json:"last_dirty_vertices"`
	// Persistent-orientation counters: stable-order epoch, cumulative edge
	// patches applied in place, and drift-triggered re-orientations — all
	// of the current orientation (reset by a from-scratch rebuild).
	OrientEpoch        int64 `json:"orient_epoch"`
	OrientPatchedEdges int64 `json:"orient_patched_edges"`
	OrientRebuilds     int64 `json:"orient_rebuilds"`
	// Community-layer counters (zero without Config.Communities): scored
	// communities in the latest cycle, and the cumulative warm-start
	// split of connected components between verbatim reuse and fresh
	// clustering.
	LastCommunities     int64 `json:"last_communities"`
	ComponentsReused    int64 `json:"components_reused"`
	ComponentsClustered int64 `json:"components_clustered"`
	// Signals breaks the live gauges down per coordination signal (always
	// at least the default co-comment signal).
	Signals []SignalStatsOut `json:"signals"`

	Endpoints map[string]EndpointSnapshot `json:"endpoints"`
}

// SignalStatsOut is one signal's block of the stats response.
type SignalStatsOut struct {
	Name         string `json:"name"`
	WindowMin    int64  `json:"window_min_sec"`
	WindowMax    int64  `json:"window_max_sec"`
	HorizonSec   int64  `json:"horizon_sec"`
	LivePairs    int64  `json:"live_pairs"`
	EvictedPairs int64  `json:"evicted_pairs"`
	LiveObjects  int    `json:"live_objects"`
	// RingEntries is the signal's expiry-ring occupancy (one entry per
	// live pair); Rearmed the entries pushed back behind a refreshed lease.
	RingEntries int   `json:"ring_entries"`
	Rearmed     int64 `json:"rearmed"`
}

// Handler returns the daemon's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/ingest", s.metrics.instrument("/v1/ingest", s.handleIngest))
	mux.HandleFunc("/v1/triangles", s.metrics.instrument("/v1/triangles", s.handleTriangles))
	mux.HandleFunc("/v1/score", s.metrics.instrument("/v1/score", s.handleScore))
	mux.HandleFunc("/v1/communities", s.metrics.instrument("/v1/communities", s.handleCommunities))
	mux.HandleFunc("/v1/stats", s.metrics.instrument("/v1/stats", s.handleStats))
	mux.HandleFunc("/healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// ingestScratch pools the per-request decode state of the ingest fast
// path: the body buffer, the zero-copy scanner (with its escape arena),
// the decoded field views, and the batch-interning key/ID staging. None
// of it escapes the request — only the final interned batch (fresh
// allocations, since the queue and the validation log retain it) leaves.
type ingestScratch struct {
	body  []byte
	scan  wire.Scanner
	views []wire.Comment

	authorK [][]byte
	pageK   [][]byte
	urlK    [][]byte
	tagK    [][]byte
	authorI []interner.ID
	pageI   []interner.ID
	urlI    []interner.ID
	tagI    []interner.ID
}

var ingestPool = sync.Pool{New: func() any { return &ingestScratch{} }}

func growIDs(s []interner.ID, n int) []interner.ID {
	if cap(s) < n {
		return make([]interner.ID, n)
	}
	return s[:n]
}

// errBodyTooLarge marks a request body over maxIngestBody (413, not 400:
// the content may be perfectly well-formed).
var errBodyTooLarge = fmt.Errorf("detectd: ingest body too large")

// readBody reads r into buf (reused across requests) up to maxIngestBody.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	buf = buf[:0]
	if cap(buf) == 0 {
		buf = make([]byte, 0, 64<<10)
	}
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxIngestBody {
			return buf, errBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.stopping.Load() {
		writeErr(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	sc := ingestPool.Get().(*ingestScratch)
	defer ingestPool.Put(sc)
	var err error
	sc.body, err = readBody(r.Body, sc.body)
	if err != nil {
		if errors.Is(err, errBodyTooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxIngestBody)
			return
		}
		writeErr(w, http.StatusBadRequest, "read: %v", err)
		return
	}
	batch, err := s.decodeBatch(r.Header.Get("Content-Type"), sc.body, sc)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	switch err := s.Enqueue(batch); {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, "ingest queue full")
	case errors.Is(err, ErrStopped):
		writeErr(w, http.StatusServiceUnavailable, "shutting down")
	default:
		writeJSON(w, http.StatusAccepted, map[string]int{"accepted": len(batch)})
	}
}

// IngestBytes decodes, validates, interns, and synchronously applies one
// ingest body, bypassing HTTP transport and the queue — the embedding
// equivalent of POST /v1/ingest and the path the ingest benchmarks
// measure. contentType selects the decoder exactly as the endpoint does
// (wire.ContentTypeFrame for binary frames, anything else for JSON).
// Returns the number of comments applied.
func (s *Service) IngestBytes(contentType string, body []byte) (int, error) {
	sc := ingestPool.Get().(*ingestScratch)
	defer ingestPool.Put(sc)
	batch, err := s.decodeBatch(contentType, body, sc)
	if err != nil {
		return 0, err
	}
	return s.Apply(batch), nil
}

// decodeBatch turns one ingest body into an interned comment batch in
// three strict stages: decode EVERY comment into zero-copy views,
// validate EVERY view, and only then intern — so a rejected batch leaves
// the author/page/url/tag tables exactly as it found them, and each
// table's write lock is taken at most once per batch rather than once
// per string. The returned batch is freshly allocated (callers retain
// it); everything else lives in sc.
func (s *Service) decodeBatch(contentType string, body []byte, sc *ingestScratch) ([]graph.Comment, error) {
	var rd wire.Reader
	isFrame := strings.HasPrefix(contentType, wire.ContentTypeFrame)
	if isFrame {
		f, err := wire.NewFrameScanner(body)
		if err != nil {
			return nil, fmt.Errorf("decode: %v", err)
		}
		rd = f
	} else {
		sc.scan.Reset(body)
		rd = &sc.scan
	}
	sc.views = sc.views[:0]
	var c wire.Comment
	for {
		ok, err := rd.Next(&c)
		if err != nil {
			return nil, fmt.Errorf("decode: %v", err)
		}
		if !ok {
			break
		}
		sc.views = append(sc.views, c)
	}
	if len(sc.views) == 0 {
		if !isFrame && !hasJSONContent(body) {
			return nil, fmt.Errorf("decode: empty body")
		}
		return nil, nil
	}

	// Validate the whole batch before interning anything.
	nattrs, nurls, ntags := 0, 0, 0
	for i := range sc.views {
		v := &sc.views[i]
		if len(v.Author) == 0 || len(v.Page) == 0 {
			return nil, fmt.Errorf("comment %d: empty author or page", i)
		}
		if v.HasAttrs() {
			nattrs++
			nurls += len(v.URLs)
			ntags += len(v.Tags)
		}
	}

	// Stage the interning keys: authors and reply targets share the author
	// ID space (reply objects stay meaningful across comments by the same
	// target), in first-appearance order.
	sc.authorK, sc.pageK = sc.authorK[:0], sc.pageK[:0]
	sc.urlK, sc.tagK = sc.urlK[:0], sc.tagK[:0]
	for i := range sc.views {
		v := &sc.views[i]
		sc.authorK = append(sc.authorK, v.Author)
		sc.pageK = append(sc.pageK, v.Page)
		if len(v.ReplyTo) > 0 {
			sc.authorK = append(sc.authorK, v.ReplyTo)
		}
		sc.urlK = append(sc.urlK, v.URLs...)
		sc.tagK = append(sc.tagK, v.Tags...)
	}
	sc.authorI = growIDs(sc.authorI, len(sc.authorK))
	sc.pageI = growIDs(sc.pageI, len(sc.pageK))
	sc.urlI = growIDs(sc.urlI, len(sc.urlK))
	sc.tagI = growIDs(sc.tagI, len(sc.tagK))
	s.authors.InternBatchBytes(sc.authorK, sc.authorI)
	s.pageIDs.InternBatchBytes(sc.pageK, sc.pageI)
	s.urlIDs.InternBatchBytes(sc.urlK, sc.urlI)
	s.tagIDs.InternBatchBytes(sc.tagK, sc.tagI)

	// Assemble the batch: one allocation each for the comments, the attrs
	// structs, and the attr ID backing — nothing per comment.
	comments := make([]graph.Comment, len(sc.views))
	var attrsBuf []graph.CommentAttrs
	var attrIDs []graph.VertexID
	if nattrs > 0 {
		attrsBuf = make([]graph.CommentAttrs, nattrs)
		attrIDs = make([]graph.VertexID, nurls+ntags)
	}
	ak, uc, tc, ac, ic := 0, 0, 0, 0, 0
	for i := range sc.views {
		v := &sc.views[i]
		comments[i] = graph.Comment{
			Author: graph.VertexID(sc.authorI[ak]),
			Page:   graph.VertexID(sc.pageI[i]),
			TS:     v.TS,
		}
		ak++
		hasReply := len(v.ReplyTo) > 0
		if hasReply || len(v.URLs) > 0 || len(v.Tags) > 0 {
			attrs := &attrsBuf[ac]
			ac++
			if n := len(v.URLs); n > 0 {
				ids := attrIDs[ic : ic+n : ic+n]
				for j := range ids {
					ids[j] = graph.VertexID(sc.urlI[uc+j])
				}
				uc += n
				ic += n
				attrs.URLs = ids
			}
			if n := len(v.Tags); n > 0 {
				ids := attrIDs[ic : ic+n : ic+n]
				for j := range ids {
					ids[j] = graph.VertexID(sc.tagI[tc+j])
				}
				tc += n
				ic += n
				attrs.Tags = ids
			}
			if hasReply {
				attrs.ReplyTo = graph.VertexID(sc.authorI[ak])
				ak++
				attrs.IsReply = true
			}
			comments[i].Attrs = attrs
		}
	}
	return comments, nil
}

// hasJSONContent distinguishes a deliberately empty batch ("[]") from an
// empty or all-whitespace body (a client bug, rejected).
func hasJSONContent(body []byte) bool {
	for _, b := range body {
		switch b {
		case ' ', '\t', '\n', '\r':
		default:
			return true
		}
	}
	return false
}

func (s *Service) handleTriangles(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	sr := s.Latest()
	if sr == nil {
		writeErr(w, http.StatusNotFound, "no survey has completed yet")
		return
	}
	minT := 0.0
	if v := r.URL.Query().Get("min_t"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad min_t: %v", err)
			return
		}
		minT = f
	}
	limit := -1
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}

	out := TrianglesOut{
		Cycle:      sr.Cycle,
		Watermark:  sr.Watermark,
		TakenAt:    sr.TakenAt,
		DurationMS: float64(sr.Duration) / 1e6,
		Edges:      sr.Edges,
		Vertices:   sr.Vertices,
	}
	hyper := !sr.Result.Config.SkipHypergraph
	tris := sr.Result.Triangles
	out.Total = len(tris)
	for _, i := range sr.strongestFirst() {
		tr := tris[i]
		if tr.T < minT {
			continue
		}
		if limit >= 0 && len(out.Triangles) >= limit {
			break
		}
		to := TriangleOut{
			Authors: [3]string{
				s.nameOf(tr.X), s.nameOf(tr.Y), s.nameOf(tr.Z),
			},
			MinWeight: tr.MinWeight(),
			T:         tr.T,
		}
		if hyper {
			wxyz, c := tr.Hyper.W, tr.Hyper.C
			to.WXYZ, to.C = &wxyz, &c
		}
		out.Triangles = append(out.Triangles, to)
	}
	writeJSON(w, http.StatusOK, out)
}

// triangleRank is the strongest-first order of one published census. It is
// computed at most once, by the first /v1/triangles read of that census —
// never on the survey goroutine — and held by pointer so the idle-cycle
// copy of a SurveyResult shares it (and copies no lock).
type triangleRank struct {
	once  sync.Once
	order []int32
}

// strongestFirst returns the indices of sr.Result.Triangles by min weight
// descending, then T descending, then (X, Y, Z) — the census is sorted and
// unique by triplet, so that last key is the index itself. The order is
// total: which rows a ?limit returns depends on those rows alone, not on
// the sort's pivots or on what else the census holds.
func (sr *SurveyResult) strongestFirst() []int32 {
	sr.rank.once.Do(func() {
		tris := sr.Result.Triangles
		order := make([]int32, len(tris))
		for i := range order {
			order[i] = int32(i)
		}
		slices.SortFunc(order, func(a, b int32) int {
			ta, tb := &tris[a], &tris[b]
			if c := cmp.Compare(tb.MinWeight(), ta.MinWeight()); c != 0 {
				return c
			}
			if c := cmp.Compare(tb.T, ta.T); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		sr.rank.order = order
	})
	return sr.rank.order
}

// nameOf maps an author ID back to its name; IDs outside the table (never
// the case for API-fed data) render numerically.
func (s *Service) nameOf(id graph.VertexID) string {
	if int(id) < s.authors.Len() {
		return s.authors.Name(id)
	}
	return fmt.Sprintf("#%d", id)
}

// scoreMaxUsers / scorePairUsers bound the /v1/score query: page counts
// and group metrics scale linearly and are served up to scoreMaxUsers;
// the pairwise weight matrix is quadratic, so it is only materialized up
// to scorePairUsers.
const (
	scoreMaxUsers  = 512
	scorePairUsers = 64
)

// ScoreOut is the /v1/score response.
type ScoreOut struct {
	Users      []string          `json:"users"`
	Unknown    []string          `json:"unknown,omitempty"`
	PageCounts map[string]uint32 `json:"page_counts"`
	// Pairs is the pairwise CI weight matrix, present only for up to 64
	// users (it is quadratic in the group size).
	Pairs []PairOut `json:"pairs,omitempty"`
	// MinWeight / T are set for exactly three known users. Source reports
	// where they came from: "survey" when the triplet was found in the
	// latest cycle's triangle census (as-of that cycle's watermark),
	// "live" when computed from current point reads.
	MinWeight *uint32  `json:"min_weight,omitempty"`
	T         *float64 `json:"t,omitempty"`
	Source    string   `json:"source,omitempty"`
	// Group carries the generalized group metrics w_S (pages every member
	// commented on) and C(S) (equation 4 extended to k members), computed
	// against the latest survey's windowed comment log. Present only when
	// the daemon validates hypergraphs and a survey has completed.
	Group *GroupOut `json:"group,omitempty"`
	// Signals attributes the group's summed pairwise CI weight to the
	// coordination signals that produced it. Present only on multi-signal
	// daemons, and only for groups small enough for the pair matrix.
	Signals map[string]uint64 `json:"signals,omitempty"`
}

// GroupOut is the group-metric block of a score response.
type GroupOut struct {
	// Size is the deduplicated group size.
	Size int `json:"size"`
	// Watermark is the event time of the survey the metrics are as of.
	Watermark int64    `json:"watermark"`
	WS        int      `json:"w_s"`
	CS        *float64 `json:"c_s,omitempty"`
}

// PairOut is one pairwise CI weight.
type PairOut struct {
	U      string `json:"u"`
	V      string `json:"v"`
	Weight uint32 `json:"weight"`
}

func (s *Service) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	raw := r.URL.Query().Get("users")
	if raw == "" {
		writeErr(w, http.StatusBadRequest, "missing users=a,b,...")
		return
	}
	names := strings.Split(raw, ",")
	if len(names) < 2 || len(names) > scoreMaxUsers {
		writeErr(w, http.StatusBadRequest, "need 2..%d users, got %d", scoreMaxUsers, len(names))
		return
	}
	out := ScoreOut{Users: names, PageCounts: make(map[string]uint32)}
	// Known users are scored exactly as in an all-known query; unknown
	// ones have no edges and no pages by definition, so they contribute
	// zeros (pos -1) and are named in Unknown.
	var ids []graph.VertexID
	pos := make([]int, len(names))
	for i, n := range names {
		id, ok := s.authors.Lookup(n)
		if !ok {
			out.Unknown = append(out.Unknown, n)
			pos[i] = -1
			continue
		}
		pos[i] = len(ids)
		ids = append(ids, id)
	}

	if len(names) == 3 && len(ids) == 3 {
		s.scoreTriple(&out, ids)
	}
	if len(names) <= scorePairUsers {
		weights, counts := s.PairScore(ids)
		count := func(i int) uint32 {
			if pos[i] < 0 {
				return 0
			}
			return counts[pos[i]]
		}
		for i, n := range names {
			out.PageCounts[n] = count(i)
		}
		var minW uint32
		first := true
		for i := 0; i < len(names); i++ {
			for j := i + 1; j < len(names); j++ {
				var wgt uint32
				if pos[i] >= 0 && pos[j] >= 0 {
					wgt = weights[[2]int{pos[i], pos[j]}]
				}
				out.Pairs = append(out.Pairs, PairOut{U: names[i], V: names[j], Weight: wgt})
				if first || wgt < minW {
					minW, first = wgt, false
				}
			}
		}
		if len(names) == 3 && out.MinWeight == nil {
			den := float64(count(0)) + float64(count(1)) + float64(count(2))
			t := 0.0
			if den > 0 {
				t = 3 * float64(minW) / den
			}
			out.MinWeight, out.T, out.Source = &minW, &t, "live"
		}
		out.Signals = s.signalMix(s.PairSignalMix(ids))
	} else {
		// Too many users for the quadratic pair matrix: page counts only.
		for i, n := range names {
			out.PageCounts[n] = 0
			if pos[i] >= 0 {
				out.PageCounts[n] = s.proj.PageCount(ids[pos[i]])
			}
		}
	}
	s.scoreGroup(&out, ids, out.Unknown)
	writeJSON(w, http.StatusOK, out)
}

// scoreTriple fills MinWeight/T from the latest survey's triangle census
// when the triplet is in it: a binary search over the (X, Y, Z)-sorted
// results instead of three live edge reads. Misses (no survey yet, or the
// triplet fell below a threshold) leave out untouched for the live path.
func (s *Service) scoreTriple(out *ScoreOut, ids []graph.VertexID) {
	sr := s.Latest()
	if sr == nil {
		return
	}
	x, y, z := ids[0], ids[1], ids[2]
	if y < x {
		x, y = y, x
	}
	if z < y {
		y, z = z, y
		if y < x {
			x, y = y, x
		}
	}
	tris := sr.Result.Triangles
	i := sort.Search(len(tris), func(i int) bool {
		tr := tris[i]
		if tr.X != x {
			return tr.X > x
		}
		if tr.Y != y {
			return tr.Y > y
		}
		return tr.Z >= z
	})
	if i >= len(tris) || tris[i].X != x || tris[i].Y != y || tris[i].Z != z {
		return
	}
	mw, t := tris[i].MinWeight(), tris[i].T
	out.MinWeight, out.T, out.Source = &mw, &t, "survey"
}

// scoreGroup fills the group-metric block from the latest survey's
// windowed BTM for the known members ids plus the unknown names. Unknown
// members, and authors outside the BTM (interned but silent within the
// horizon), force w_S = 0 without touching it.
func (s *Service) scoreGroup(out *ScoreOut, ids []graph.VertexID, unknown []string) {
	sr := s.Latest()
	if sr == nil || sr.btm == nil {
		return
	}
	g := hypergraph.NewGroup(ids...)
	distinct := make(map[string]bool, len(unknown))
	for _, n := range unknown {
		distinct[n] = true
	}
	go2 := &GroupOut{Size: len(g) + len(distinct), Watermark: sr.Watermark}
	inRange := len(unknown) == 0
	for _, m := range g {
		if int(m) >= sr.btm.NumAuthors() {
			inRange = false
			break
		}
	}
	if inRange {
		go2.WS = hypergraph.GroupWeight(sr.btm, g)
		cs := hypergraph.GroupCScore(sr.btm, g)
		go2.CS = &cs
	} else {
		cs := 0.0
		go2.CS = &cs
	}
	out.Group = go2
}

// CommunityOut is the wire form of one scored community.
type CommunityOut struct {
	ID   int `json:"id"`
	Size int `json:"size"`
	// Members are author names, present unless ?members=false.
	Members []string `json:"members,omitempty"`
	// InternalWeight / Density / C are the CI-level metrics; WS / CS the
	// strict hypergraph group metrics (0 without a windowed comment log);
	// Triangles counts census triangles inside the community.
	InternalWeight uint64  `json:"internal_weight"`
	Density        float64 `json:"density"`
	C              float64 `json:"c"`
	WS             int     `json:"w_s"`
	CS             float64 `json:"c_s"`
	Triangles      int     `json:"triangles"`
	// Signals attributes the community's internal CI weight (as of the
	// survey snapshot) to the coordination signals that produced it.
	// Present only on multi-signal daemons, for communities small enough
	// for the quadratic member-pair scan.
	Signals map[string]uint64 `json:"signals,omitempty"`
}

// CommunitiesOut is the /v1/communities response.
type CommunitiesOut struct {
	Cycle     int64     `json:"cycle"`
	Watermark int64     `json:"watermark"`
	TakenAt   time.Time `json:"taken_at"`
	// Algorithm / Resolution / MinSize echo the clustering knobs.
	Algorithm  string  `json:"algorithm"`
	Resolution float64 `json:"resolution"`
	MinSize    int     `json:"min_size"`
	// Total counts every scored community of the cycle; Communities may
	// be shorter (min_c / limit filters). ReusedComponents and
	// ClusteredComponents report how much of the partition the warm
	// start carried over.
	Total               int            `json:"total"`
	ReusedComponents    int            `json:"reused_components"`
	ClusteredComponents int            `json:"clustered_components"`
	Communities         []CommunityOut `json:"communities"`
}

func (s *Service) handleCommunities(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	if !s.cfg.Communities {
		writeErr(w, http.StatusNotImplemented, "community layer disabled (start with -communities)")
		return
	}
	sr := s.Latest()
	if sr == nil || sr.Result.Partition == nil {
		writeErr(w, http.StatusNotFound, "no survey has completed yet")
		return
	}
	q := r.URL.Query()
	minC := 0.0
	if v := q.Get("min_c"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad min_c: %v", err)
			return
		}
		minC = f
	}
	limit := -1
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	withMembers := q.Get("members") != "false"

	ccfg := s.cfg.Community.Defaults()
	part := sr.Result.Partition
	out := CommunitiesOut{
		Cycle:               sr.Cycle,
		Watermark:           sr.Watermark,
		TakenAt:             sr.TakenAt,
		Algorithm:           part.Algorithm.String(),
		Resolution:          part.Resolution,
		MinSize:             ccfg.MinSize,
		Total:               len(sr.Result.Communities),
		ReusedComponents:    part.ReusedComponents,
		ClusteredComponents: part.ClusteredComponents,
	}
	// Already sorted by C descending (community.ScoreCommunities).
	for _, cs := range sr.Result.Communities {
		if cs.C < minC {
			continue
		}
		if limit >= 0 && len(out.Communities) >= limit {
			break
		}
		co := CommunityOut{
			ID:             cs.ID,
			Size:           cs.Size,
			InternalWeight: cs.InternalWeight,
			Density:        cs.Density,
			C:              cs.C,
			WS:             cs.WS,
			CS:             cs.CS,
			Triangles:      cs.Triangles,
		}
		if sr.snap.NumSignals() >= 2 && len(cs.Members) <= scorePairUsers {
			co.Signals = s.signalMix(sr.snap.SignalMix(cs.Members))
		}
		if withMembers {
			co.Members = make([]string, len(cs.Members))
			for i, m := range cs.Members {
				co.Members[i] = s.nameOf(m)
			}
		}
		out.Communities = append(out.Communities, co)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	live := s.liveStats()
	out := StatsOut{
		UptimeSec:        time.Since(s.started).Seconds(),
		Ingested:         s.ingested.Load(),
		Dropped:          s.dropped.Load(),
		LateClamped:      s.lateClamped.Load(),
		QueueDepth:       len(s.queue),
		QueueCap:         cap(s.queue),
		Watermark:        live.watermark,
		HorizonSec:       s.cfg.Horizon,
		WindowMin:        s.cfg.Window.Min,
		WindowMax:        s.cfg.Window.Max,
		LiveEdges:        live.liveEdges,
		LivePairs:        live.livePairs,
		EvictedPairs:     live.evictedPairs,
		BufferedComments: live.buffered,
		LoggedComments:   live.logged,
		Shards:           s.proj.NumShards(),
		SurveyErrors:     s.surveyErrs.Load(),
		Endpoints:        s.metrics.snapshot(),
	}
	// The survey block comes from one published result: its cumulative
	// totals and its own per-cycle gauges describe the same cycle.
	if sr := s.Latest(); sr != nil {
		tot := sr.totals
		out.Cycles = sr.Cycle
		out.SurveysReused = tot.reused
		out.LastSurveyMS = float64(sr.Duration) / 1e6
		out.LastTriangles = len(sr.Result.Triangles)
		out.DeltaCycles = tot.delta
		out.FullResurveys = tot.full
		out.TrianglesCached = tot.trianglesCached
		out.TrianglesResurveyed = tot.trianglesResurveyed
		out.HyperCacheHits = tot.hyperCacheHits
		out.LastDirtyShards = int64(sr.DirtyShards)
		out.LastDirtyVertices = int64(sr.DirtyVertices)
		out.OrientEpoch = sr.OrientEpoch
		out.OrientPatchedEdges = sr.OrientPatchedEdges
		out.OrientRebuilds = sr.OrientRebuilds
		out.LastCommunities = int64(sr.Communities)
		out.ComponentsReused = tot.componentsReused
		out.ComponentsClustered = tot.componentsClustered
	}
	for _, sg := range live.signals {
		out.Signals = append(out.Signals, SignalStatsOut{
			Name:         sg.Name,
			WindowMin:    sg.Window.Min,
			WindowMax:    sg.Window.Max,
			HorizonSec:   sg.Horizon,
			LivePairs:    sg.LivePairs,
			EvictedPairs: sg.EvictedPairs,
			LiveObjects:  sg.LiveObjects,
			RingEntries:  sg.RingEntries,
			Rearmed:      sg.Rearmed,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Service) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.stopping.Load() {
		writeErr(w, http.StatusServiceUnavailable, "shutting down")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
