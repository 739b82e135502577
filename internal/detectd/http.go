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
//	GET  /v1/triangles  — the census, strongest first (min weight, then
//	                      T, then author IDs: a total order, ranked once
//	                      per cycle). ?min_t=0.5 filters on the T score,
//	                      ?limit=50 truncates.
//	GET  /v1/score      — ?users=a,b,... (2 to 512 names): P' counts for
//	                      every user; pairwise CI weights and the signal
//	                      mix for up to 64; group metrics w_S / C(S); and
//	                      for exactly three users the triangle min weight
//	                      and T score, computed from those same pair
//	                      weights and counts. Unknown names score zero.
//	GET  /v1/communities — the community partition, strongest coordination
//	                      score first. ?min_c=0.5 filters on the community
//	                      C score, ?limit=20 truncates, ?members=false
//	                      omits the member lists. 501 when the daemon runs
//	                      without the community layer.
//	GET  /v1/stats      — ingest counters, live-graph gauges, the latest
//	                      cycle's survey counters, per-endpoint latency and
//	                      throughput.
//	GET  /healthz       — liveness (503 once shutdown has begun).
//
// The three census reads (triangles, score, communities) answer from one
// published survey cycle: its pinned CI snapshot, its windowed comment
// log and its census. Each body carries that cycle's cycle number and
// watermark, and each read is 404 until the first survey completes.
// /v1/stats and /healthz describe the running daemon and read live state.
// A bad or repeated query parameter is a 400 whose body names it, as in
// {"error": "...", "param": "limit"}; a wrong method is a 405. Every
// endpoint is a row of routes(), and a test diffs this list against it.
package detectd

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"slices"
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

// route is one endpoint: the method it answers and its handler. A census
// route has no handler of its own: it answers from one published cycle
// and the query parameters it declares.
type route struct {
	method, path string
	serve        http.HandlerFunc
	params       []string
	answer       func(*SurveyResult, query) (any, *apiError)
}

func (s *Service) routes() []route {
	return []route{
		{method: http.MethodPost, path: "/v1/ingest", serve: s.handleIngest},
		{method: http.MethodGet, path: "/v1/triangles", params: []string{"min_t", "limit"}, answer: s.triangles},
		{method: http.MethodGet, path: "/v1/score", params: []string{"users"}, answer: s.score},
		{method: http.MethodGet, path: "/v1/communities", params: []string{"min_c", "limit", "members"}, answer: s.communities},
		{method: http.MethodGet, path: "/v1/stats", serve: s.handleStats},
		{method: http.MethodGet, path: "/healthz", serve: s.handleHealth},
	}
}

// Handler returns the daemon's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		serve := rt.serve
		if rt.answer != nil {
			serve = s.serveCensus(rt)
		}
		mux.HandleFunc(rt.path, s.metrics.instrument(rt.path, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != rt.method {
				writeErr(w, http.StatusMethodNotAllowed, "%s only", rt.method)
				return
			}
			serve(w, r)
		}))
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Msg: fmt.Sprintf(format, args...)})
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

// query is one parsed read request. Parameters a route does not declare
// keep these defaults: no filter, no limit, members listed.
type query struct {
	users   []string // as given, duplicates and unknown names included
	limit   int      // -1: no limit
	floor   float64  // min_t or min_c: the floor on the route's score
	members bool
}

// apiError is an error response: its status and its JSON body. Param
// names the query parameter at fault in a 400.
type apiError struct {
	status int
	Msg    string `json:"error"`
	Param  string `json:"param,omitempty"`
}

var errNoSurvey = &apiError{status: http.StatusNotFound, Msg: "no survey has completed yet"}

func badParam(param, format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, Param: param,
		Msg: "bad " + param + ": " + fmt.Sprintf(format, args...)}
}

// parseQuery reads the parameters a route declares and ignores the rest.
// An empty value is an absent one; a repeated parameter is an error.
func parseQuery(vals url.Values, params []string) (query, *apiError) {
	q := query{limit: -1, members: true}
	for _, p := range params {
		vs := vals[p]
		if len(vs) > 1 {
			return q, badParam(p, "given %d times", len(vs))
		}
		if len(vs) == 0 || vs[0] == "" {
			if p == "users" {
				return q, badParam(p, "missing users=a,b,...")
			}
			continue
		}
		v := vs[0]
		switch p {
		case "users":
			q.users = strings.Split(v, ",")
			if n := len(q.users); n < 2 || n > scoreMaxUsers {
				return q, badParam(p, "need 2..%d users, got %d", scoreMaxUsers, n)
			}
		case "limit":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return q, badParam(p, "want a non-negative integer, got %q", v)
			}
			q.limit = n
		case "min_t", "min_c":
			f, err := strconv.ParseFloat(v, 64)
			if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
				return q, badParam(p, "want a finite number, got %q", v)
			}
			q.floor = f
		case "members":
			b, err := strconv.ParseBool(v)
			if err != nil {
				return q, badParam(p, "want true or false, got %q", v)
			}
			q.members = b
		}
	}
	return q, nil
}

// serveCensus serves a census route: parse, answer from the latest
// published cycle, encode. Nothing here reads the live store.
func (s *Service) serveCensus(rt route) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q, err := parseQuery(r.URL.Query(), rt.params)
		var out any
		if err == nil {
			out, err = rt.answer(s.Latest(), q)
		}
		if err != nil {
			writeJSON(w, err.status, err)
			return
		}
		writeJSON(w, http.StatusOK, out)
	}
}

func (s *Service) triangles(sr *SurveyResult, q query) (any, *apiError) {
	if sr == nil {
		return nil, errNoSurvey
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
		if tr.T < q.floor {
			continue
		}
		if q.limit >= 0 && len(out.Triangles) >= q.limit {
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
	return out, nil
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

// ScoreOut is the /v1/score response. Every number in it is read from
// the CI snapshot and windowed comment log of the one published cycle
// named by Cycle and Watermark.
type ScoreOut struct {
	Cycle      int64             `json:"cycle"`
	Watermark  int64             `json:"watermark"`
	Users      []string          `json:"users"`
	Unknown    []string          `json:"unknown,omitempty"`
	PageCounts map[string]uint32 `json:"page_counts"`
	// Pairs is the pairwise CI weight matrix, present only for up to 64
	// users (it is quadratic in the group size).
	Pairs []PairOut `json:"pairs,omitempty"`
	// MinWeight / T are set for exactly three users: the minimum of the
	// three pair weights and the paper's T score 3·MinWeight / Σ P'.
	MinWeight *uint32  `json:"min_weight,omitempty"`
	T         *float64 `json:"t,omitempty"`
	// Group carries the generalized group metrics w_S (pages every member
	// commented on) and C(S) (equation 4 extended to k members). Present
	// only when the daemon validates hypergraphs.
	Group *GroupOut `json:"group,omitempty"`
	// Signals attributes the group's summed pairwise CI weight to the
	// coordination signals that produced it. Present only on multi-signal
	// daemons, and only for groups small enough for the pair matrix.
	Signals map[string]uint64 `json:"signals,omitempty"`
}

// GroupOut is the group-metric block of a score response.
type GroupOut struct {
	// Size is the deduplicated group size.
	Size int      `json:"size"`
	WS   int      `json:"w_s"`
	CS   *float64 `json:"c_s,omitempty"`
}

// PairOut is one pairwise CI weight.
type PairOut struct {
	U      string `json:"u"`
	V      string `json:"v"`
	Weight uint32 `json:"weight"`
}

func (s *Service) score(sr *SurveyResult, q query) (any, *apiError) {
	if sr == nil {
		return nil, errNoSurvey
	}
	names := q.users
	out := ScoreOut{Cycle: sr.Cycle, Watermark: sr.Watermark, Users: names,
		PageCounts: make(map[string]uint32, len(names))}
	// Unknown names have no edges and no pages by definition: they read
	// zeros, are listed in Unknown, and leave the known users' numbers as
	// an all-known query would give them.
	ids := make([]graph.VertexID, len(names))
	known := make([]bool, len(names))
	counts := make([]uint32, len(names))
	var knownIDs []graph.VertexID
	for i, n := range names {
		if ids[i], known[i] = s.authors.Lookup(n); known[i] {
			knownIDs = append(knownIDs, ids[i])
			counts[i] = sr.snap.PageCount(ids[i])
		} else {
			out.Unknown = append(out.Unknown, n)
		}
		out.PageCounts[n] = counts[i]
	}
	if len(names) <= scorePairUsers {
		var minW uint32
		for i := range names {
			for j := i + 1; j < len(names); j++ {
				var wgt uint32
				if known[i] && known[j] {
					wgt = sr.snap.Weight(ids[i], ids[j])
				}
				if len(out.Pairs) == 0 || wgt < minW {
					minW = wgt
				}
				out.Pairs = append(out.Pairs, PairOut{U: names[i], V: names[j], Weight: wgt})
			}
		}
		if len(names) == 3 {
			den := float64(counts[0]) + float64(counts[1]) + float64(counts[2])
			t := 0.0
			if den > 0 {
				t = 3 * float64(minW) / den
			}
			out.MinWeight, out.T = &minW, &t
		}
		out.Signals = s.signalMix(sr.snap.SignalMix(knownIDs))
	}
	out.Group = groupOf(sr, knownIDs, out.Unknown)
	return out, nil
}

// groupOf is the group-metric block on the cycle's windowed BTM for the
// known members ids plus the unknown names; nil without a BTM. Unknown
// members, and authors outside the BTM (interned but silent within the
// horizon), force w_S = 0 without touching it.
func groupOf(sr *SurveyResult, ids []graph.VertexID, unknown []string) *GroupOut {
	if sr.btm == nil {
		return nil
	}
	g := hypergraph.NewGroup(ids...)
	distinct := make(map[string]bool, len(unknown))
	for _, n := range unknown {
		distinct[n] = true
	}
	out := &GroupOut{Size: len(g) + len(distinct)}
	inRange := len(unknown) == 0
	for _, m := range g {
		if int(m) >= sr.btm.NumAuthors() {
			inRange = false
			break
		}
	}
	cs := 0.0
	if inRange {
		out.WS = hypergraph.GroupWeight(sr.btm, g)
		cs = hypergraph.GroupCScore(sr.btm, g)
	}
	out.CS = &cs
	return out
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

func (s *Service) communities(sr *SurveyResult, q query) (any, *apiError) {
	if !s.cfg.Communities {
		return nil, &apiError{status: http.StatusNotImplemented, Msg: "community layer disabled (start with -communities)"}
	}
	if sr == nil || sr.Result.Partition == nil {
		return nil, errNoSurvey
	}
	part := sr.Result.Partition
	out := CommunitiesOut{
		Cycle:               sr.Cycle,
		Watermark:           sr.Watermark,
		TakenAt:             sr.TakenAt,
		Algorithm:           part.Algorithm.String(),
		Resolution:          part.Resolution,
		MinSize:             s.cfg.Community.Defaults().MinSize,
		Total:               len(sr.Result.Communities),
		ReusedComponents:    part.ReusedComponents,
		ClusteredComponents: part.ClusteredComponents,
	}
	// Already sorted by C descending (community.ScoreCommunities).
	for _, cs := range sr.Result.Communities {
		if cs.C < q.floor {
			continue
		}
		if q.limit >= 0 && len(out.Communities) >= q.limit {
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
		if len(cs.Members) <= scorePairUsers {
			co.Signals = s.signalMix(sr.snap.SignalMix(cs.Members))
		}
		if q.members {
			co.Members = make([]string, len(cs.Members))
			for i, m := range cs.Members {
				co.Members[i] = s.nameOf(m)
			}
		}
		out.Communities = append(out.Communities, co)
	}
	return out, nil
}

func (s *Service) handleStats(w http.ResponseWriter, r *http.Request) {
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
		sv := sr.Result.Survey
		out.LastDirtyShards = int64(sv.DirtyShards)
		out.LastDirtyVertices = int64(sv.DirtyVertices)
		out.OrientEpoch = sv.OrientEpoch
		out.OrientPatchedEdges = sv.OrientPatchedEdges
		out.OrientRebuilds = sv.OrientRebuilds
		out.LastCommunities = int64(len(sr.Result.Communities))
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
