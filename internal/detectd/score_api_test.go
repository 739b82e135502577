// Tests for the extended /v1/score surface: triangle metrics read from
// the published cycle, group w_S / C(S) blocks, wide user lists without
// the quadratic pair matrix, and the incremental-survey counters in
// /v1/stats.
package detectd

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// ingestTrio posts the canonical alice/bob/carol trio (3 shared pages,
// in-window co-comments) plus dave commenting alone, then settles.
func ingestTrio(t *testing.T, s *Service, url string) {
	t.Helper()
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
		ts += 3600
	}
	fmt.Fprintf(&sb, `,{"author":"dave","page":"solo","ts":%d}`, ts)
	sb.WriteString("]")
	ingestAndSettle(t, s, url, sb.String(), 10)
}

func getScore(t *testing.T, url, users string) (ScoreOut, int) {
	t.Helper()
	resp, err := http.Get(url + "/v1/score?users=" + users)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return ScoreOut{}, resp.StatusCode
	}
	return decodeBody[ScoreOut](t, resp), http.StatusOK
}

func TestScoreServedFromSurveyCache(t *testing.T) {
	s, srv := newTestService(t, testConfig())
	ingestTrio(t, s, srv.URL)

	// Before any survey there is no cycle to answer for.
	if _, code := getScore(t, srv.URL, "alice,bob,carol"); code != http.StatusNotFound {
		t.Fatalf("pre-survey score: code=%d, want 404", code)
	}

	sr, err := s.SurveyNow()
	if err != nil {
		t.Fatal(err)
	}

	// The surveyed triplet reads the census's values off the same cycle.
	score, code := getScore(t, srv.URL, "alice,bob,carol")
	if code != http.StatusOK {
		t.Fatalf("score status %d", code)
	}
	if score.Cycle != sr.Cycle || score.Watermark != sr.Watermark {
		t.Fatalf("score answers for cycle %d watermark %d, want %d / %d",
			score.Cycle, score.Watermark, sr.Cycle, sr.Watermark)
	}
	if score.MinWeight == nil || *score.MinWeight != 3 || score.T == nil || *score.T != 1.0 {
		t.Fatalf("triangle metrics wrong: min=%v t=%v", score.MinWeight, score.T)
	}
	if score.Group == nil || score.Group.Size != 3 || score.Group.WS != 3 {
		t.Fatalf("group block wrong: %+v", score.Group)
	}
	if score.Group.CS == nil || *score.Group.CS != 1.0 {
		t.Fatalf("group C(S) = %v, want 1.0 (perfect coordination)", score.Group.CS)
	}

	// A triplet with no surveyed triangle reads the same snapshot, and its
	// group shares no common page.
	score, code = getScore(t, srv.URL, "alice,bob,dave")
	if code != http.StatusOK || score.Cycle != sr.Cycle {
		t.Fatalf("non-triangle triplet: code=%d cycle=%d", code, score.Cycle)
	}
	if score.MinWeight == nil || *score.MinWeight != 0 {
		t.Fatalf("non-triangle min weight = %v, want 0", score.MinWeight)
	}
	if score.Group == nil || score.Group.WS != 0 {
		t.Fatalf("disjoint group block wrong: %+v", score.Group)
	}

	// Pairs still carry the group metrics.
	score, _ = getScore(t, srv.URL, "alice,bob")
	if score.Group == nil || score.Group.WS != 3 || score.Group.CS == nil || *score.Group.CS != 1.0 {
		t.Fatalf("pair group block wrong: %+v", score.Group)
	}
}

func TestScoreWideUserListSkipsPairs(t *testing.T) {
	s, srv := newTestService(t, testConfig())
	const n = 70
	var sb strings.Builder
	sb.WriteString("[")
	names := make([]string, n)
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("u%02d", i)
		if i > 0 {
			sb.WriteString(",")
		}
		// Each user co-comments with a disposable partner on their own
		// page (P' counts pages with co-activity), all within the horizon.
		ts := int64(i) * 120
		fmt.Fprintf(&sb, `{"author":%q,"page":"q%d","ts":%d},{"author":"x%02d","page":"q%d","ts":%d}`,
			names[i], i, ts, i, i, ts+5)
	}
	sb.WriteString("]")
	ingestAndSettle(t, s, srv.URL, sb.String(), 2*n)
	if _, err := s.SurveyNow(); err != nil {
		t.Fatal(err)
	}

	score, code := getScore(t, srv.URL, strings.Join(names, ","))
	if code != http.StatusOK {
		t.Fatalf("wide score status %d", code)
	}
	if len(score.Pairs) != 0 {
		t.Fatalf("wide score materialized %d pairs, want none above %d users", len(score.Pairs), scorePairUsers)
	}
	if len(score.PageCounts) != n {
		t.Fatalf("page counts for %d of %d users", len(score.PageCounts), n)
	}
	for _, name := range names {
		if score.PageCounts[name] != 1 {
			t.Fatalf("page count for %s = %d, want 1", name, score.PageCounts[name])
		}
	}
	if score.MinWeight != nil {
		t.Fatal("wide score set triangle metrics")
	}

	// Above the hard cap: rejected.
	over := make([]string, scoreMaxUsers+1)
	for i := range over {
		over[i] = fmt.Sprintf("v%d", i)
	}
	if _, code := getScore(t, srv.URL, strings.Join(over, ",")); code != http.StatusBadRequest {
		t.Fatalf("oversized user list got status %d, want 400", code)
	}
}

func TestStatsExposeIncrementalCounters(t *testing.T) {
	s, srv := newTestService(t, testConfig())
	ingestTrio(t, s, srv.URL)
	if _, err := s.SurveyNow(); err != nil {
		t.Fatal(err)
	}
	// A second, dirtying batch — authors disjoint from the trio, inside
	// the horizon — and a second cycle: the delta path runs, the trio's
	// triangle and its memoized hypergraph score survive untouched.
	ingestAndSettle(t, s, srv.URL,
		`[{"author":"erin","page":"px","ts":50000},{"author":"frank","page":"px","ts":50010}]`, 12)
	if _, err := s.SurveyNow(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"triangles_cached", "triangles_resurveyed", "delta_cycles",
		"full_resurveys", "hyper_cache_hits", "last_dirty_shards", "last_dirty_vertices"} {
		if !strings.Contains(string(raw), `"`+key+`"`) {
			t.Fatalf("stats JSON missing %q: %s", key, raw)
		}
	}
	var st StatsOut
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.FullResurveys != 1 || st.DeltaCycles != 1 {
		t.Fatalf("cycle split: %d full, %d delta, want 1/1", st.FullResurveys, st.DeltaCycles)
	}
	if st.TrianglesCached != 1 {
		t.Fatalf("triangles cached = %d, want 1 (trio untouched by the dirty batch)", st.TrianglesCached)
	}
	if st.HyperCacheHits != 1 {
		t.Fatalf("hyper cache hits = %d, want 1", st.HyperCacheHits)
	}
}

// statsSurveyBlock is the survey part of /v1/stats: the cumulative cycle
// counters and the gauges of the cycle they count up to.
type statsSurveyBlock struct {
	Cycles, SurveysReused, DeltaCycles, FullResurveys      int64
	TrianglesCached, TrianglesResurveyed, HyperCacheHits   int64
	LastDirtyShards, LastDirtyVertices                     int64
	OrientEpoch, OrientPatchedEdges, OrientRebuilds        int64
	LastCommunities, ComponentsReused, ComponentsClustered int64
	LastSurveyMS                                           float64
	LastTriangles                                          int
}

func surveyBlockOf(st StatsOut) statsSurveyBlock {
	return statsSurveyBlock{
		st.Cycles, st.SurveysReused, st.DeltaCycles, st.FullResurveys,
		st.TrianglesCached, st.TrianglesResurveyed, st.HyperCacheHits,
		st.LastDirtyShards, st.LastDirtyVertices,
		st.OrientEpoch, st.OrientPatchedEdges, st.OrientRebuilds,
		st.LastCommunities, st.ComponentsReused, st.ComponentsClustered,
		st.LastSurveyMS, st.LastTriangles,
	}
}

// TestStatsReadOnePublishedCycle hammers /v1/stats while survey cycles
// publish — each dirty cycle followed by a run of idle ones — and requires
// every response to describe exactly one cycle: delta + full + reused ==
// cycles, and the whole survey block equals what the results of cycles
// 1..cycles add up to, gauges taken from result number `cycles` itself.
func TestStatsReadOnePublishedCycle(t *testing.T) {
	ds := snapshotDataset()
	s, err := NewService(communityConfig())
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	var (
		mu    sync.Mutex
		reads []StatsOut
		wg    sync.WaitGroup
	)
	stop := make(chan struct{})
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/stats", nil))
				var st StatsOut
				if err := json.NewDecoder(rec.Body).Decode(&st); err != nil {
					t.Error(err)
					return
				}
				if st.DeltaCycles+st.FullResurveys+st.SurveysReused != st.Cycles {
					t.Errorf("%d delta + %d full + %d reused cycles != %d cycles",
						st.DeltaCycles, st.FullResurveys, st.SurveysReused, st.Cycles)
					return
				}
				mu.Lock()
				reads = append(reads, st)
				mu.Unlock()
			}
		}()
	}

	// want[c] is the survey block as of cycle c, built from the results.
	want := []statsSurveyBlock{{}}
	const batch, idle = 250, 300
	for lo := 0; lo < len(ds.Comments); lo += batch {
		s.Apply(ds.Comments[lo:min(lo+batch, len(ds.Comments))])
		for k := 0; k <= idle; k++ {
			sr, err := s.SurveyNow()
			if err != nil {
				t.Fatal(err)
			}
			b, sv := want[len(want)-1], sr.Result.Survey
			b.Cycles++
			switch {
			case sr.Reused:
				b.SurveysReused++
			case sr.Result.Survey.Delta:
				b.DeltaCycles++
			default:
				b.FullResurveys++
			}
			if !sr.Reused {
				b.TrianglesCached += int64(sv.CachedTriangles)
				b.TrianglesResurveyed += int64(sv.ResurveyedTriangles)
				b.HyperCacheHits += int64(sr.Result.HyperCacheHits)
				if p := sr.Result.Partition; p != nil {
					b.ComponentsReused += int64(p.ReusedComponents)
					b.ComponentsClustered += int64(p.ClusteredComponents)
				}
			}
			b.LastDirtyShards, b.LastDirtyVertices = int64(sv.DirtyShards), int64(sv.DirtyVertices)
			b.OrientEpoch, b.OrientPatchedEdges, b.OrientRebuilds = sv.OrientEpoch, sv.OrientPatchedEdges, sv.OrientRebuilds
			b.LastCommunities = int64(len(sr.Result.Communities))
			b.LastSurveyMS = float64(sr.Duration) / 1e6
			b.LastTriangles = len(sr.Result.Triangles)
			if b.Cycles != sr.Cycle {
				t.Fatalf("result numbered %d published as cycle %d", sr.Cycle, b.Cycles)
			}
			want = append(want, b)
		}
	}
	close(stop)
	wg.Wait()

	if len(reads) == 0 {
		t.Fatal("no /v1/stats read completed")
	}
	for _, st := range reads {
		if got := surveyBlockOf(st); got != want[st.Cycles] {
			t.Fatalf("stats read at cycle %d:\n got  %+v\n want %+v", st.Cycles, got, want[st.Cycles])
		}
	}
}
