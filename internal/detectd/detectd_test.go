package detectd

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"coordbot/internal/graph"
	"coordbot/internal/pipeline"
	"coordbot/internal/projection"
	"coordbot/internal/tripoll"
)

func testConfig() Config {
	return Config{
		Window:             projection.Window{Min: 0, Max: 60},
		Horizon:            24 * 3600,
		MinTriangleWeight:  2,
		ValidateHypergraph: true,
		ClampLate:          true,
	}
}

func newTestService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		srv.Close()
		s.Close()
	})
	return s, srv
}

func postJSON(t *testing.T, url string, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeBody[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

// ingestAndSettle posts a body and waits until the worker has drained it.
func ingestAndSettle(t *testing.T, s *Service, url, body string, want int64) {
	t.Helper()
	resp := postJSON(t, url+"/v1/ingest", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.ingested.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("worker did not drain: ingested=%d want>=%d", s.ingested.Load(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestIngestScoreSurveyRoundtrip(t *testing.T) {
	s, srv := newTestService(t, testConfig())
	// Three authors co-commenting on three pages within the window.
	var sb strings.Builder
	sb.WriteString("[")
	ts := int64(1000)
	for p := 0; p < 3; p++ {
		for i, a := range []string{"alice", "bob", "carol"} {
			if p > 0 || i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, `{"author":%q,"page":"p%d","ts":%d}`, a, p, ts)
			ts += 5
		}
		ts += 3600 // pages well apart
	}
	sb.WriteString("]")
	ingestAndSettle(t, s, srv.URL, sb.String(), 9)

	// Live score endpoint reads the sliding graph directly.
	resp, err := http.Get(srv.URL + "/v1/score?users=alice,bob,carol")
	if err != nil {
		t.Fatal(err)
	}
	score := decodeBody[ScoreOut](t, resp)
	if score.MinWeight == nil || *score.MinWeight != 3 {
		t.Fatalf("min_weight = %v, want 3", score.MinWeight)
	}
	if score.T == nil || *score.T != 1.0 {
		t.Fatalf("t = %v, want 1.0 (perfect coordination)", score.T)
	}

	// A survey cycle must find the triangle with hypergraph validation.
	if _, err := s.SurveyNow(); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(srv.URL + "/v1/triangles")
	if err != nil {
		t.Fatal(err)
	}
	tri := decodeBody[TrianglesOut](t, resp)
	if tri.Cycle != 1 || len(tri.Triangles) != 1 {
		t.Fatalf("cycle=%d triangles=%d, want 1/1", tri.Cycle, len(tri.Triangles))
	}
	got := tri.Triangles[0]
	if got.MinWeight != 3 {
		t.Fatalf("triangle min_weight = %d, want 3", got.MinWeight)
	}
	if got.WXYZ == nil || *got.WXYZ != 3 {
		t.Fatalf("w_xyz = %v, want 3 (hypergraph validated)", got.WXYZ)
	}
	members := strings.Join(got.Authors[:], ",")
	for _, a := range []string{"alice", "bob", "carol"} {
		if !strings.Contains(members, a) {
			t.Fatalf("triangle authors %v missing %s", got.Authors, a)
		}
	}
}

func TestIngestBackpressure429(t *testing.T) {
	cfg := testConfig()
	cfg.QueueSize = 1
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Deliberately NOT started: the queue cannot drain, so the second
	// batch must be pushed back with 429.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Close()

	body := `[{"author":"a","page":"p","ts":1}]`
	resp := postJSON(t, srv.URL+"/v1/ingest", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first ingest = %d, want 202", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, srv.URL+"/v1/ingest", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second ingest = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()
}

func TestIngestNDJSON(t *testing.T) {
	s, srv := newTestService(t, testConfig())
	body := "{\"author\":\"x\",\"page\":\"p\",\"ts\":1}\n{\"author\":\"y\",\"page\":\"p\",\"ts\":2}\n"
	ingestAndSettle(t, s, srv.URL, body, 2)
	if s.ingested.Load() != 2 {
		t.Fatalf("ingested = %d", s.ingested.Load())
	}
}

func TestIngestRejectsBadInput(t *testing.T) {
	_, srv := newTestService(t, testConfig())
	for _, body := range []string{
		`42`,
		`[{"author":"","page":"p","ts":1}]`,
		`{"author":"a","page":"p","ts":`,
	} {
		resp := postJSON(t, srv.URL+"/v1/ingest", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// GET on ingest is a method error.
	resp, err := http.Get(srv.URL + "/v1/ingest")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET ingest = %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestLateCommentsClampedNotDropped(t *testing.T) {
	s, srv := newTestService(t, testConfig())
	body := `[{"author":"a","page":"p","ts":100},{"author":"b","page":"p","ts":90}]`
	ingestAndSettle(t, s, srv.URL, body, 2)
	if s.lateClamped.Load() != 1 || s.dropped.Load() != 0 {
		t.Fatalf("clamped=%d dropped=%d, want 1/0", s.lateClamped.Load(), s.dropped.Load())
	}
	// The clamped comment still pairs (both now at ts=100, delay 0 ∈ [0,60)).
	if w := s.proj.EdgeWeight(s.authors.Intern("a"), s.authors.Intern("b")); w != 1 {
		t.Fatalf("clamped pair weight = %d, want 1", w)
	}
}

func TestStatsAndHealth(t *testing.T) {
	s, srv := newTestService(t, testConfig())
	ingestAndSettle(t, s, srv.URL, `[{"author":"a","page":"p","ts":5}]`, 1)
	if _, err := s.SurveyNow(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	st := decodeBody[StatsOut](t, resp)
	if st.Ingested != 1 || st.Cycles != 1 || st.Watermark != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Endpoints["/v1/ingest"].Count != 1 {
		t.Fatalf("ingest endpoint count = %d, want 1", st.Endpoints["/v1/ingest"].Count)
	}
	if st.HorizonSec != 24*3600 || st.WindowMax != 60 {
		t.Fatal("config echo wrong in stats")
	}
	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestGracefulShutdownRejectsIngest(t *testing.T) {
	cfg := testConfig()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Accepted before shutdown…
	resp := postJSON(t, srv.URL+"/v1/ingest", `[{"author":"a","page":"p","ts":1}]`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pre-close ingest = %d", resp.StatusCode)
	}
	resp.Body.Close()

	s.Close() // drains the queue, stops workers
	if got := s.ingested.Load(); got != 1 {
		t.Fatalf("queued batch lost on shutdown: ingested=%d", got)
	}
	// …rejected with 503 after.
	resp = postJSON(t, srv.URL+"/v1/ingest", `[{"author":"b","page":"p","ts":2}]`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-close ingest = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	// Health flips to 503 too.
	hresp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after close = %d, want 503", hresp.StatusCode)
	}
	hresp.Body.Close()
	s.Close() // idempotent
}

// TestEnqueueRacingCloseLosesNothing: every batch Enqueue accepts while
// Close runs is applied before Close returns. A Close that ran between
// Enqueue's stopping check and its queue send used to let the send land
// after the ingest loop's final drain: acknowledged, never applied. The
// window is narrow, so the test races many short-lived services on eight
// Ps.
func TestEnqueueRacingCloseLosesNothing(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	cfg := testConfig()
	cfg.ValidateHypergraph = false
	const trials, senders, sends = 3000, 4, 200
	for trial := 0; trial < trials; trial++ {
		s, err := NewService(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.Start()
		var accepted atomic.Int64
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < sends; i++ {
					c := graph.Comment{Author: graph.VertexID(g), Page: graph.VertexID(i), TS: int64(i)}
					if s.Enqueue([]graph.Comment{c}) == nil {
						accepted.Add(1)
					}
				}
			}(g)
		}
		close(start)
		s.Close()
		wg.Wait()
		if got, want := s.Ingested(), accepted.Load(); got != want {
			t.Fatalf("trial %d: %d comments accepted, %d applied", trial, want, got)
		}
	}
}

func TestScoreUnknownUsers(t *testing.T) {
	s, srv := newTestService(t, testConfig())
	ingestAndSettle(t, s, srv.URL, `[{"author":"a","page":"p","ts":1}]`, 1)
	resp, err := http.Get(srv.URL + "/v1/score?users=a,ghost")
	if err != nil {
		t.Fatal(err)
	}
	out := decodeBody[ScoreOut](t, resp)
	if len(out.Unknown) != 1 || out.Unknown[0] != "ghost" {
		t.Fatalf("unknown = %v", out.Unknown)
	}
	// Malformed queries.
	for _, q := range []string{"/v1/score", "/v1/score?users=a"} {
		resp, err := http.Get(srv.URL + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s = %d, want 400", q, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestTrianglesBeforeFirstSurvey(t *testing.T) {
	_, srv := newTestService(t, testConfig())
	resp, err := http.Get(srv.URL + "/v1/triangles")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewService(Config{Window: projection.Window{Min: 0, Max: 60}}); err == nil {
		t.Fatal("zero horizon accepted")
	}
	if _, err := NewService(Config{Window: projection.Window{Min: 9, Max: 9}, Horizon: 10}); err == nil {
		t.Fatal("bad window accepted")
	}
}

func TestExcludedAuthorNeverProjects(t *testing.T) {
	cfg := testConfig()
	cfg.Exclude = []string{"AutoModerator"}
	s, srv := newTestService(t, cfg)
	body := `[
		{"author":"AutoModerator","page":"p","ts":1},
		{"author":"a","page":"p","ts":2},
		{"author":"b","page":"p","ts":3}
	]`
	ingestAndSettle(t, s, srv.URL, body, 3)
	am, _ := s.authors.Lookup("AutoModerator")
	a, _ := s.authors.Lookup("a")
	if w := s.proj.EdgeWeight(am, a); w != 0 {
		t.Fatalf("excluded author projected: weight %d", w)
	}
	b, _ := s.authors.Lookup("b")
	if w := s.proj.EdgeWeight(a, b); w != 1 {
		t.Fatalf("organic pair weight = %d, want 1", w)
	}
}

// TestExcludedIDNeverProjects: the numeric-ID exclude list skips helpers
// the same way the name list does — the replayed-archive path where
// comments carry pre-interned IDs and no name table exists.
func TestExcludedIDNeverProjects(t *testing.T) {
	cfg := testConfig()
	// The first author the stream interns receives ID 0.
	cfg.ExcludeIDs = []graph.VertexID{0}
	s, srv := newTestService(t, cfg)
	body := `[
		{"author":"helper","page":"p","ts":1},
		{"author":"a","page":"p","ts":2},
		{"author":"b","page":"p","ts":3}
	]`
	ingestAndSettle(t, s, srv.URL, body, 3)
	helper, _ := s.authors.Lookup("helper")
	if helper != 0 {
		t.Fatalf("helper interned as %d, want 0", helper)
	}
	a, _ := s.authors.Lookup("a")
	if w := s.proj.EdgeWeight(helper, a); w != 0 {
		t.Fatalf("excluded ID projected: weight %d", w)
	}
	b, _ := s.authors.Lookup("b")
	if w := s.proj.EdgeWeight(a, b); w != 1 {
		t.Fatalf("organic pair weight = %d, want 1", w)
	}
}

// TestSurveyLoopPublishes exercises the background wall-clock loop.
func TestSurveyLoopPublishes(t *testing.T) {
	cfg := testConfig()
	cfg.SurveyInterval = 10 * time.Millisecond
	s, srv := newTestService(t, cfg)
	ingestAndSettle(t, s, srv.URL, `[{"author":"a","page":"p","ts":1},{"author":"b","page":"p","ts":2}]`, 2)
	deadline := time.Now().Add(5 * time.Second)
	for s.Cycles() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("survey loop stalled at %d cycles", s.Cycles())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if s.Latest() == nil {
		t.Fatal("no published result")
	}
}

// publishCensus installs tris (sorted by triplet, as every survey leaves
// them) as the service's latest survey, bypassing ingest and survey.
func publishCensus(s *Service, tris []pipeline.TriangleResult) {
	s.latest.Store(&SurveyResult{
		Cycle:  1,
		Result: &pipeline.Result{Config: pipeline.Config{SkipHypergraph: true}, Triangles: tris},
		rank:   new(triangleRank),
	})
}

// campaignCensus returns n triangles over consecutive author triples that
// tie by the hundred on (min weight, T), the way a campaign's do.
func campaignCensus(n int) []pipeline.TriangleResult {
	tris := make([]pipeline.TriangleResult, n)
	for i := range tris {
		w := uint32(9 + i%3)
		x := graph.VertexID(10 + i)
		tris[i] = pipeline.TriangleResult{
			Triangle: tripoll.Triangle{X: x, Y: x + 1, Z: x + 2, WXY: w, WXZ: w + 1, WYZ: w + 2},
			T:        0.25 * float64(1+i%2),
		}
	}
	return tris
}

func getTriangles(t testing.TB, s *Service, query string) TrianglesOut {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/triangles"+query, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/triangles%s = %d", query, rec.Code)
	}
	var out TrianglesOut
	if err := json.NewDecoder(rec.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTrianglesOrderIsTotal: the strongest-first order breaks (min weight,
// T) ties by author IDs, so the rows a ?limit returns depend on those rows
// alone — a census that gains one weak triangle (here with the lowest IDs,
// shifting every index) serves the same head, in ascending ID order within
// a tie.
func TestTrianglesOrderIsTotal(t *testing.T) {
	s, err := NewService(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	base := campaignCensus(1000)
	weak := pipeline.TriangleResult{Triangle: tripoll.Triangle{X: 1, Y: 2, Z: 3, WXY: 2, WXZ: 2, WYZ: 2}, T: 0.01}
	grown := append([]pipeline.TriangleResult{weak}, base...)

	publishCensus(s, base)
	if zero := getTriangles(t, s, "?limit=0"); zero.Total != 1000 || len(zero.Triangles) != 0 {
		t.Fatalf("?limit=0: total %d, %d rows; want 1000, 0", zero.Total, len(zero.Triangles))
	}
	want := getTriangles(t, s, "?limit=50")
	if want.Total != 1000 || len(want.Triangles) != 50 {
		t.Fatalf("total %d, %d rows", want.Total, len(want.Triangles))
	}
	for i, tr := range want.Triangles {
		if tr.MinWeight != 11 || tr.T != 0.5 {
			t.Fatalf("row %d = %+v, want the strongest tie group", i, tr)
		}
		// The group is every sixth triple from X = 15 ("#15") on.
		if name := fmt.Sprintf("#%d", 15+6*i); tr.Authors[0] != name {
			t.Fatalf("row %d leads with %s, want %s (ties in ID order)", i, tr.Authors[0], name)
		}
	}

	publishCensus(s, grown)
	got := getTriangles(t, s, "?limit=50")
	if got.Total != 1001 {
		t.Fatalf("total %d", got.Total)
	}
	for i := range want.Triangles {
		if got.Triangles[i] != want.Triangles[i] {
			t.Fatalf("row %d changed with the census: %+v, was %+v", i, got.Triangles[i], want.Triangles[i])
		}
	}

	// min_t and limit walk the same order; the weak triangle comes last.
	all := getTriangles(t, s, "")
	if last := all.Triangles[len(all.Triangles)-1]; last.Authors != [3]string{"#1", "#2", "#3"} {
		t.Fatalf("weakest row = %+v", last)
	}
	if half := getTriangles(t, s, "?min_t=0.4"); len(half.Triangles) != 500 {
		t.Fatalf("min_t=0.4 kept %d rows, want 500", len(half.Triangles))
	}
}

// BenchmarkTrianglesHandler reads a 10k-triangle census at several limits:
// the census is ranked once when first read, so a request costs what its
// rows cost to render.
func BenchmarkTrianglesHandler(b *testing.B) {
	s, err := NewService(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	publishCensus(s, campaignCensus(10000))
	h := s.Handler()
	for _, q := range []string{"?limit=50", "?limit=500", "?limit=5000"} {
		b.Run(strings.TrimPrefix(q, "?"), func(b *testing.B) {
			b.ReportAllocs()
			req := httptest.NewRequest(http.MethodGet, "/v1/triangles"+q, nil)
			for i := 0; i < b.N; i++ {
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatal(rec.Code)
				}
			}
		})
	}
}
