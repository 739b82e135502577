// Tests for the read API as a contract: every census endpoint answers
// from one published cycle and equals the reference pipeline run over the
// comments that cycle saw, the query parser names the parameter it
// rejects, and the package comment lists exactly the routes served.
package detectd

import (
	"cmp"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"coordbot/internal/community"
	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/pipeline"
	"coordbot/internal/redditgen"
	"coordbot/internal/tripoll"
)

// serveGet runs one GET through h in-process.
func serveGet(h http.Handler, target string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, target, nil))
	return rec
}

// readCensus hits the three census endpoints once (the concurrency
// tests' reader).
func readCensus(h http.Handler) {
	serveGet(h, "/v1/triangles?limit=5")
	serveGet(h, "/v1/score?users=a,b,c")
	serveGet(h, "/v1/communities?limit=3")
}

func decodeRec[T any](t testing.TB, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.NewDecoder(rec.Body).Decode(&v); err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return v
}

// checkScoreBody asserts what a 200 score body promises on its own: the
// triangle metrics are the minimum pair weight and 3·min / Σ P'.
func checkScoreBody(t testing.TB, out ScoreOut) {
	t.Helper()
	if out.MinWeight == nil {
		return
	}
	if len(out.Pairs) != 3 || out.T == nil {
		t.Fatalf("min_weight without three pairs and a t: %+v", out)
	}
	minW := out.Pairs[0].Weight
	for _, p := range out.Pairs[1:] {
		minW = min(minW, p.Weight)
	}
	den := 0.0
	for _, u := range out.Users {
		den += float64(out.PageCounts[u])
	}
	t3 := 0.0
	if den > 0 {
		t3 = 3 * float64(minW) / den
	}
	if *out.MinWeight != minW || *out.T != t3 {
		t.Fatalf("min_weight %d t %v, but the pairs give %d and %v: %+v", *out.MinWeight, *out.T, minW, t3, out)
	}
}

// TestScoreReadsOnePublishedCycle: comments ingested after a survey do
// not leak into a score until a cycle publishes them. Before, the body
// took min_weight / t from the census and the pairs from the live store,
// so the two disagreed.
func TestScoreReadsOnePublishedCycle(t *testing.T) {
	s, srv := newTestService(t, testConfig())
	ingestTrio(t, s, srv.URL)
	sr, err := s.SurveyNow()
	if err != nil {
		t.Fatal(err)
	}
	// Two more shared pages for the trio, no new cycle.
	var rows []string
	for p, ts := 3, int64(40000); p < 5; p, ts = p+1, ts+3600 {
		for i, a := range []string{"alice", "bob", "carol"} {
			rows = append(rows, fmt.Sprintf(`{"author":%q,"page":"p%d","ts":%d}`, a, p, ts+int64(5*i)))
		}
	}
	ingestAndSettle(t, s, srv.URL, "["+strings.Join(rows, ",")+"]", 16)

	h := s.Handler()
	score := decodeRec[ScoreOut](t, serveGet(h, "/v1/score?users=alice,bob,carol"))
	tris := decodeRec[TrianglesOut](t, serveGet(h, "/v1/triangles"))
	checkScoreBody(t, score)
	if score.Cycle != tris.Cycle || score.Watermark != tris.Watermark || score.Cycle != sr.Cycle {
		t.Fatalf("score answers for cycle %d watermark %d, triangles for %d / %d",
			score.Cycle, score.Watermark, tris.Cycle, tris.Watermark)
	}
	if *score.MinWeight != 3 || *score.T != 1 || score.PageCounts["alice"] != 3 {
		t.Fatalf("score leaked unsurveyed comments: %+v", score)
	}
	if len(tris.Triangles) != 1 || tris.Triangles[0].MinWeight != *score.MinWeight || tris.Triangles[0].T != *score.T {
		t.Fatalf("census %+v disagrees with score %+v", tris.Triangles, score)
	}

	// The next cycle publishes them to both endpoints at once.
	if _, err := s.SurveyNow(); err != nil {
		t.Fatal(err)
	}
	score = decodeRec[ScoreOut](t, serveGet(h, "/v1/score?users=alice,bob,carol"))
	checkScoreBody(t, score)
	if score.Cycle != sr.Cycle+1 || *score.MinWeight != 5 || score.PageCounts["carol"] != 5 {
		t.Fatalf("second cycle score: %+v", score)
	}
}

// TestQueryErrorsNameTheParameter: every malformed read is a 400 that
// names the parameter at fault, including values strconv accepts but no
// filter can use (NaN, infinities) and non-boolean members flags.
func TestQueryErrorsNameTheParameter(t *testing.T) {
	s := surveyedService(t, 5)
	h := s.Handler()
	many := make([]string, scoreMaxUsers+1)
	for i := range many {
		many[i] = fmt.Sprintf("u%d", i)
	}
	for _, tc := range []struct {
		target string
		param  string // "" expects 200
	}{
		{"/v1/triangles?min_t=NaN", "min_t"},
		{"/v1/triangles?min_t=nan", "min_t"},
		{"/v1/triangles?min_t=Inf", "min_t"},
		{"/v1/triangles?min_t=-Inf", "min_t"},
		{"/v1/triangles?min_t=1e999", "min_t"},
		{"/v1/triangles?min_t=high", "min_t"},
		{"/v1/triangles?limit=-1", "limit"},
		{"/v1/triangles?limit=ten", "limit"},
		{"/v1/triangles?limit=1&limit=2", "limit"},
		{"/v1/communities?min_c=NaN", "min_c"},
		{"/v1/communities?min_c=+Inf", "min_c"},
		{"/v1/communities?members=maybe", "members"},
		{"/v1/communities?members=no", "members"},
		{"/v1/communities?limit=1.5", "limit"},
		{"/v1/score", "users"},
		{"/v1/score?users=", "users"},
		{"/v1/score?users=a", "users"},
		{"/v1/score?users=a,b&users=c,d", "users"},
		{"/v1/score?users=" + strings.Join(many, ","), "users"},

		{"/v1/triangles?min_t=0.5&limit=0", ""},
		{"/v1/triangles?min_t=&limit=", ""},
		{"/v1/triangles?users=a&members=maybe", ""}, // not this route's parameters
		{"/v1/communities?members=false&min_c=-1", ""},
		{"/v1/communities?members=0", ""},
		{"/v1/score?users=a,b&limit=ten", ""},
		{"/v1/score?users=" + strings.Join(many[:scoreMaxUsers], ","), ""},
	} {
		rec := serveGet(h, tc.target)
		if tc.param == "" {
			if rec.Code != http.StatusOK {
				t.Errorf("%.60s: status %d, want 200: %s", tc.target, rec.Code, rec.Body)
			}
			continue
		}
		e := decodeRec[apiError](t, rec)
		if rec.Code != http.StatusBadRequest || e.Param != tc.param || !strings.Contains(e.Msg, tc.param) {
			t.Errorf("%.60s: status %d body %+v, want 400 naming %s", tc.target, rec.Code, e, tc.param)
		}
	}

	// Methods are checked in one place, with a JSON body.
	for _, tc := range []struct{ method, target, want string }{
		{http.MethodPost, "/v1/triangles", "GET only"},
		{http.MethodDelete, "/v1/score?users=a,b", "GET only"},
		{http.MethodPut, "/healthz", "GET only"},
		{http.MethodGet, "/v1/ingest", "POST only"},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(tc.method, tc.target, nil))
		if e := decodeRec[apiError](t, rec); rec.Code != http.StatusMethodNotAllowed || e.Msg != tc.want {
			t.Errorf("%s %s: status %d body %+v, want 405 %q", tc.method, tc.target, rec.Code, e, tc.want)
		}
	}
}

// TestCensusReadsTakeNoServiceLock: with the ingest-side service lock
// held, every census read still completes — none of them touches live
// state.
func TestCensusReadsTakeNoServiceLock(t *testing.T) {
	s := surveyedService(t, 5)
	h := s.Handler()
	s.mu.Lock()
	defer s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		readCensus(h)
		serveGet(h, "/v1/triangles")
		serveGet(h, "/v1/communities")
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a census read blocked on the service lock")
	}
}

// diffCorpus is a seeded stream with a sockpuppet chain and a GPT-2 ring
// (so the community layer has something to find), short enough to run in
// a test and long enough to evict under deltaConfig's 12 h horizon.
func diffCorpus(seed int64) *redditgen.Dataset {
	return redditgen.Generate(redditgen.Config{
		Seed:  seed,
		Start: 0,
		End:   20 * 3600,
		Organic: redditgen.OrganicConfig{
			Authors: 70, Pages: 35, Comments: 1800, PageHalfLife: 2 * 3600,
		},
		Botnets: []redditgen.BotnetSpec{
			{
				Kind: redditgen.SockpuppetChain, Name: "pups",
				Bots: 3, Pages: 30, SubsetSize: 3,
				MinDelay: 5, MaxDelay: 25,
			},
			{
				Kind: redditgen.GPT2Ring, Name: "ring",
				Bots: 6, Pages: 40, SubsetSize: 4,
				MinDelay: 0, MaxDelay: 30,
			},
		},
	})
}

// ingestNamed applies comments through the JSON ingest path, by name, in
// batches of random size.
func ingestNamed(t testing.TB, s *Service, ds *redditgen.Dataset, cs []graph.Comment, rng *rand.Rand) {
	t.Helper()
	for lo := 0; lo < len(cs); {
		hi := min(len(cs), lo+1+rng.Intn(300))
		var sb strings.Builder
		for _, c := range cs[lo:hi] {
			fmt.Fprintf(&sb, "{\"author\":%q,\"page\":\"p%d\",\"ts\":%d}\n", ds.Authors.Name(c.Author), c.Page, c.TS)
		}
		if _, err := s.IngestBytes("application/json", []byte(sb.String())); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
}

// surveyedService is a community-layer daemon holding diffCorpus(seed),
// surveyed once.
func surveyedService(t testing.TB, seed int64) *Service {
	t.Helper()
	s, err := NewService(communityConfig())
	if err != nil {
		t.Fatal(err)
	}
	ds := diffCorpus(seed)
	ingestNamed(t, s, ds, ds.Comments, rand.New(rand.NewSource(seed)))
	if _, err := s.SurveyNow(); err != nil {
		t.Fatal(err)
	}
	return s
}

// reference is the batch pipeline's answer over the comments a published
// cycle saw: the applied ones still inside the horizon at its watermark,
// in the daemon's ID space.
type reference struct {
	res   *pipeline.Result
	btm   *graph.BTM
	comms []community.CommunityScore
}

func referenceOf(t *testing.T, s *Service, ds *redditgen.Dataset, applied []graph.Comment, wm int64) reference {
	t.Helper()
	cfg := s.cfg
	var windowed []graph.Comment
	for _, c := range applied {
		if c.TS <= wm-cfg.Horizon {
			continue
		}
		a, ok := s.authors.Lookup(ds.Authors.Name(c.Author))
		p, ok2 := s.pageIDs.Lookup(fmt.Sprintf("p%d", c.Page))
		if !ok || !ok2 {
			t.Fatalf("comment %+v never interned", c)
		}
		windowed = append(windowed, graph.Comment{Author: a, Page: p, TS: c.TS})
	}
	btm := graph.BuildBTM(windowed, 0, 0)
	res, err := pipeline.Run(btm, pipeline.Config{
		Window:            cfg.Window,
		MinTriangleWeight: cfg.MinTriangleWeight,
		MinTScore:         cfg.MinTScore,
		Sequential:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cfg.Community.Defaults()
	kept := make([]tripoll.Triangle, len(res.Triangles))
	for i := range res.Triangles {
		kept[i] = res.Triangles[i].Triangle
	}
	part := community.Detect(res.Thresholded, ccfg)
	return reference{res: res, btm: btm, comms: community.ScoreCommunities(part, res.Thresholded, btm, kept, ccfg.MinSize)}
}

// TestCensusEndpointsMatchReference is endpoint ≡ reference: for seeded
// corpora, every census endpoint equals the reference pipeline over the
// comments its cycle saw — both right after a survey and after more
// comments have been applied without one.
func TestCensusEndpointsMatchReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		ds := diffCorpus(seed)
		s, err := NewService(communityConfig())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		cut := len(ds.Comments) * 4 / 5
		ingestNamed(t, s, ds, ds.Comments[:cut], rng)
		sr, err := s.SurveyNow()
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceOf(t, s, ds, ds.Comments[:cut], sr.Watermark)
		checkAgainstReference(t, s, sr, ref, rng)

		// More comments, no cycle: every endpoint still answers for sr.
		ingestNamed(t, s, ds, ds.Comments[cut:], rng)
		checkAgainstReference(t, s, sr, ref, rng)

		sr, err = s.SurveyNow()
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, s, sr, referenceOf(t, s, ds, ds.Comments, sr.Watermark), rng)
	}
}

func checkAgainstReference(t *testing.T, s *Service, sr *SurveyResult, ref reference, rng *rand.Rand) {
	t.Helper()
	h := s.Handler()
	stamp := func(target string, cycle, wm int64) {
		t.Helper()
		if cycle != sr.Cycle || wm != sr.Watermark {
			t.Fatalf("%.60s answers for cycle %d watermark %d, want %d / %d", target, cycle, wm, sr.Cycle, sr.Watermark)
		}
	}

	// /v1/triangles: the reference census, strongest first. Its rows are
	// sorted by triplet, so a stable sort leaves ties in triplet order.
	want := slices.Clone(ref.res.Triangles)
	slices.SortStableFunc(want, func(a, b pipeline.TriangleResult) int {
		if c := cmp.Compare(b.MinWeight(), a.MinWeight()); c != 0 {
			return c
		}
		return cmp.Compare(b.T, a.T)
	})
	if len(want) < 2 {
		t.Fatalf("corpus gives %d triangles; the limit rows need two", len(want))
	}
	// limit 0 once returned one row.
	for _, limit := range []int{-1, 0, 1, len(want), len(want) + 1} {
		target := "/v1/triangles"
		if limit >= 0 {
			target += fmt.Sprintf("?limit=%d", limit)
		}
		out := decodeRec[TrianglesOut](t, serveGet(h, target))
		stamp(target, out.Cycle, out.Watermark)
		rows := want
		if limit >= 0 && limit < len(rows) {
			rows = rows[:limit]
		}
		if out.Total != len(want) || len(out.Triangles) != len(rows) {
			t.Fatalf("%s: %d rows of %d, want %d of %d", target, len(out.Triangles), out.Total, len(rows), len(want))
		}
		for i, w := range rows {
			g := out.Triangles[i]
			names := [3]string{s.nameOf(w.X), s.nameOf(w.Y), s.nameOf(w.Z)}
			if g.Authors != names || g.MinWeight != w.MinWeight() || g.T != w.T || *g.WXYZ != w.Hyper.W || *g.C != w.Hyper.C {
				t.Fatalf("%s row %d: got %+v, reference %+v", target, i, g, w)
			}
		}
	}
	minT := want[len(want)/2].T
	out := decodeRec[TrianglesOut](t, serveGet(h, fmt.Sprintf("/v1/triangles?min_t=%v", minT)))
	n := 0
	for _, w := range want {
		if w.T >= minT {
			n++
		}
	}
	if len(out.Triangles) != n {
		t.Fatalf("min_t=%v: %d rows, reference %d", minT, len(out.Triangles), n)
	}

	// /v1/score: every census trio reads its census values; then random
	// groups of 2, 3, 64 and 65 names, with unknown and repeated ones,
	// read the reference graph and comment log.
	score := func(users []string) ScoreOut {
		t.Helper()
		target := "/v1/score?users=" + url.QueryEscape(strings.Join(users, ","))
		rec := serveGet(h, target)
		if rec.Code != http.StatusOK {
			t.Fatalf("%.60s: status %d: %s", target, rec.Code, rec.Body)
		}
		out := decodeRec[ScoreOut](t, rec)
		stamp(target, out.Cycle, out.Watermark)
		checkScoreBody(t, out)
		return out
	}
	for _, w := range want[:min(len(want), 20)] {
		out := score([]string{s.nameOf(w.Z), s.nameOf(w.X), s.nameOf(w.Y)})
		if *out.MinWeight != w.MinWeight() || *out.T != w.T {
			t.Fatalf("census trio %+v scored min %d t %v", w.Triangle, *out.MinWeight, *out.T)
		}
	}
	var everyone []string
	for id := graph.VertexID(0); int(id) < s.authors.Len(); id++ {
		everyone = append(everyone, s.nameOf(id))
	}
	groups := [][]string{
		// One unknown name once zeroed every known user.
		{everyone[0], everyone[1], "ghost"},
		{everyone[2], everyone[2]},
		{"ghost", "phantom"},
	}
	for _, k := range []int{2, 3, 3, 64, 65} {
		g := make([]string, k)
		for i := range g {
			switch r := rng.Intn(20); {
			case r == 0:
				g[i] = "ghost"
			case r == 1 && i > 0:
				g[i] = g[rng.Intn(i)]
			default:
				g[i] = everyone[rng.Intn(len(everyone))]
			}
		}
		groups = append(groups, g)
	}
	for _, g := range groups {
		out := score(g)
		ids := make([]graph.VertexID, len(g))
		known := make([]bool, len(g))
		var knownIDs []graph.VertexID
		distinctUnknown := map[string]bool{}
		for i, n := range g {
			if ids[i], known[i] = s.authors.Lookup(n); known[i] {
				knownIDs = append(knownIDs, ids[i])
			} else {
				distinctUnknown[n] = true
			}
			want := uint32(0)
			if known[i] {
				want = ref.res.CI.PageCount(ids[i])
			}
			if out.PageCounts[n] != want {
				t.Fatalf("group %v: page count of %s = %d, reference %d", g, n, out.PageCounts[n], want)
			}
		}
		if len(g) > scorePairUsers {
			if out.Pairs != nil || out.MinWeight != nil {
				t.Fatalf("%d-user score carries pairs", len(g))
			}
		} else {
			k := 0
			for i := range g {
				for j := i + 1; j < len(g); j++ {
					want := uint32(0)
					if known[i] && known[j] {
						want = ref.res.CI.Weight(ids[i], ids[j])
					}
					if p := out.Pairs[k]; p.U != g[i] || p.V != g[j] || p.Weight != want {
						t.Fatalf("group %v pair %d: %+v, reference weight %d", g, k, p, want)
					}
					k++
				}
			}
			if k != len(out.Pairs) || (len(g) == 3) != (out.MinWeight != nil) {
				t.Fatalf("group %v: %d pairs, min_weight %v", g, len(out.Pairs), out.MinWeight)
			}
		}
		grp := hypergraph.NewGroup(knownIDs...)
		wantWS, wantCS := 0, 0.0
		inRange := len(distinctUnknown) == 0
		for _, m := range grp {
			inRange = inRange && int(m) < ref.btm.NumAuthors()
		}
		if inRange {
			wantWS, wantCS = hypergraph.GroupWeight(ref.btm, grp), hypergraph.GroupCScore(ref.btm, grp)
		}
		if out.Group == nil || out.Group.Size != len(grp)+len(distinctUnknown) || out.Group.WS != wantWS || *out.Group.CS != wantCS {
			t.Fatalf("group %v: block %+v, reference size %d w_s %d c_s %v",
				g, out.Group, len(grp)+len(distinctUnknown), wantWS, wantCS)
		}
	}

	// /v1/communities: the cold reference partition, scored.
	if len(ref.comms) < 2 {
		t.Fatalf("corpus gives %d communities; the limit rows need two", len(ref.comms))
	}
	for _, limit := range []int{-1, 0, 1, len(ref.comms), len(ref.comms) + 1} {
		target := "/v1/communities"
		if limit >= 0 {
			target += fmt.Sprintf("?limit=%d", limit)
		}
		out := decodeRec[CommunitiesOut](t, serveGet(h, target))
		stamp(target, out.Cycle, out.Watermark)
		rows := ref.comms
		if limit >= 0 && limit < len(rows) {
			rows = rows[:limit]
		}
		if out.Total != len(ref.comms) || len(out.Communities) != len(rows) {
			t.Fatalf("%s: %d rows of %d, want %d of %d", target, len(out.Communities), out.Total, len(rows), len(ref.comms))
		}
		for i, w := range rows {
			members := make([]string, len(w.Members))
			for j, m := range w.Members {
				members[j] = s.nameOf(m)
			}
			got := out.Communities[i]
			wantRow := CommunityOut{ID: w.ID, Size: w.Size, Members: members, InternalWeight: w.InternalWeight,
				Density: w.Density, C: w.C, WS: w.WS, CS: w.CS, Triangles: w.Triangles}
			if !reflect.DeepEqual(got, wantRow) {
				t.Fatalf("%s row %d:\n got       %+v\n reference %+v", target, i, got, wantRow)
			}
		}
	}
	out2 := decodeRec[CommunitiesOut](t, serveGet(h, "/v1/communities?members=false"))
	for _, c := range out2.Communities {
		if c.Members != nil {
			t.Fatalf("members=false listed members of community %d", c.ID)
		}
	}
}

// TestPackageDocListsRoutes: the package comment is the API's spec, so
// its endpoint list must name exactly the routes served, each with the
// query parameters the route reads.
func TestPackageDocListsRoutes(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "http.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	endpoint := regexp.MustCompile(`^\t(GET|POST) +(\S+)`)
	param := regexp.MustCompile(`\?(\w+)=`)
	var doc []string
	for _, line := range strings.Split(f.Doc.Text(), "\n") {
		if m := endpoint.FindStringSubmatch(line); m != nil {
			doc = append(doc, m[1]+" "+m[2])
		} else if len(doc) > 0 && strings.TrimSpace(line) == "" {
			break // the list ends at a blank line
		}
		if len(doc) > 0 {
			for _, m := range param.FindAllStringSubmatch(line, -1) {
				doc[len(doc)-1] += " ?" + m[1]
			}
		}
	}
	s, err := NewService(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var served []string
	for _, rt := range s.routes() {
		row := rt.method + " " + rt.path
		for _, p := range rt.params {
			row += " ?" + p
		}
		served = append(served, row)
	}
	if !slices.Equal(doc, served) {
		t.Fatalf("package comment lists\n  %s\nroutes() serves\n  %s", strings.Join(doc, "\n  "), strings.Join(served, "\n  "))
	}
}

// FuzzReadQuery throws raw query strings at the census endpoints of a
// surveyed daemon: no answer is a 5xx, every 4xx names one of the
// route's parameters, and every score body is consistent with itself.
func FuzzReadQuery(f *testing.F) {
	for _, seed := range []struct {
		route byte
		raw   string
	}{
		{0, "min_t=0.5&limit=3"}, {0, "min_t=NaN"}, {0, "limit=0"}, {0, "limit=1&limit=1"},
		{1, "users=a,b,c"}, {1, "users=a,a,b"}, {1, "users=ghost,a"}, {1, "users="}, {1, "users=%zz"},
		{2, "min_c=0.1&members=false&limit=2"}, {2, "members=maybe"}, {2, "min_c=-Inf"}, {2, ";;&="},
	} {
		f.Add(seed.route, seed.raw)
	}
	s := surveyedService(f, 5)
	h := s.Handler()
	var census []route
	for _, rt := range s.routes() {
		if rt.answer != nil {
			census = append(census, rt)
		}
	}
	// Real names, so the fuzzer reaches nonzero weights.
	names := []string{s.nameOf(0), s.nameOf(1), s.nameOf(2)}
	f.Fuzz(func(t *testing.T, route byte, raw string) {
		rt := census[int(route)%len(census)]
		raw = strings.NewReplacer("a", names[0], "b", names[1], "c", names[2]).Replace(raw)
		req := httptest.NewRequest(http.MethodGet, rt.path, nil)
		req.URL.RawQuery = raw
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		switch {
		case rec.Code >= 500:
			t.Fatalf("%s?%q: status %d: %s", rt.path, raw, rec.Code, rec.Body)
		case rec.Code >= 400:
			e := decodeRec[apiError](t, rec)
			if !slices.Contains(rt.params, e.Param) || !strings.Contains(e.Msg, e.Param) {
				t.Fatalf("%s?%q: status %d names no parameter of the route: %+v", rt.path, raw, rec.Code, e)
			}
		case rt.path == "/v1/score":
			checkScoreBody(t, decodeRec[ScoreOut](t, rec))
		}
	})
}
