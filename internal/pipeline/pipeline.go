// Package pipeline is the public face of the library: it chains the
// paper's three steps — bipartite projection, high-weight triangle survey,
// hypergraph validation — into a single configured run over a bipartite
// temporal multigraph, and evaluates detections against ground truth when
// one is available.
//
// A typical run:
//
//	res, err := pipeline.Run(btm, pipeline.Config{
//	        Window:            projection.Window{Min: 0, Max: 60},
//	        MinTriangleWeight: 25,
//	        Exclude:           helpers,
//	})
//
// res.Triangles carries, for every surviving triangle, both the CI-graph
// metrics (min edge weight, T score) and the hypergraph metrics (w_xyz,
// C score) — the paired series behind the paper's Figures 3–10.
package pipeline

import (
	"fmt"
	"time"

	"coordbot/internal/community"
	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/projection"
	"coordbot/internal/tripoll"
)

// Config parameterizes a full three-step run.
type Config struct {
	// Window is the projection delay window (δ1, δ2).
	Window projection.Window
	// MinTriangleWeight is the triangle min-edge-weight cutoff (the
	// paper uses 10 for the hexbin figures and 25 for the component
	// anecdotes). CI edges below it are pruned before the survey.
	MinTriangleWeight uint32
	// MinTScore optionally thresholds on the normalized CI score.
	MinTScore float64
	// Exclude removes authors before projection (§3 helpers).
	Exclude map[graph.VertexID]bool
	// Restrict, when non-nil, projects only the listed authors — the
	// paper's §2.2 targeted re-run: take a group of interest found with
	// a short window and re-project just those users with a longer one.
	Restrict map[graph.VertexID]bool
	// Sequential forces the single-threaded reference implementations
	// instead of each step's GOMAXPROCS-sized goroutine pool: Step 1 into
	// the map-backed CIGraph rather than projection.ProjectSharded's
	// lock-striped store, the one the streaming daemon runs on.
	Sequential bool
	// Sharded has no effect: Step 1 takes the sharded path whenever
	// Sequential is unset, whatever this says. The field remains only
	// because bench/coordbench/batch.go sets it; the next
	// benchmark-archetype PR can drop it from both.
	Sharded bool
	// SkipHypergraph skips Step 3 (for projection/survey-only studies).
	SkipHypergraph bool
	// Communities enables the clustering stage: after the survey, the
	// thresholded CI graph is partitioned (Leiden or Label Propagation
	// per Community.Algorithm) and each community scored with the
	// generalized coordination metrics — the layer between the triangle
	// census and the operator. Off by default: triangle-only studies pay
	// nothing.
	Communities bool
	// Community parameterizes the clustering stage (zero value = Leiden,
	// resolution 1.0, min size 3, seed 1).
	Community community.Config
}

// TriangleResult pairs one triangle's CI-graph metrics with its hypergraph
// validation.
type TriangleResult struct {
	tripoll.Triangle
	// T is the normalized CI coordination score T(x,y,z), equation 7.
	T float64
	// Hyper is the Step-3 record (W = w_xyz, C = equation 4). Zero when
	// SkipHypergraph is set.
	Hyper hypergraph.Score
}

// Timings records wall time per step.
type Timings struct {
	Project   time.Duration
	Survey    time.Duration
	Validate  time.Duration
	Component time.Duration
	Cluster   time.Duration
}

// Result is the output of a Run.
type Result struct {
	Config Config
	// CI is the full projected common interaction graph: a sharded
	// *graph.ShardedCI for batch runs (a map-backed *graph.CIGraph under
	// Sequential), or a *graph.CISnapshot for daemon snapshot surveys —
	// all behind the read-only view interface.
	CI graph.CIView
	// Thresholded is CI restricted to edges >= MinTriangleWeight — the
	// graph whose components the paper draws in Figures 1–2.
	Thresholded graph.CIView
	// Components of the thresholded graph, largest first.
	Components []graph.Component
	// Triangles that survived the survey, each with hypergraph scores.
	Triangles []TriangleResult
	// HyperCacheHits counts Step-3 evaluations served from the caller's
	// cross-cycle cache (RunOnTriangles only; 0 elsewhere).
	HyperCacheHits int
	// Partition is the community assignment of the thresholded graph
	// (nil unless Config.Communities). The daemon fills these two fields
	// itself when it warm-starts clustering from a cached partition.
	Partition *community.Partition
	// Communities are the scored communities (>= Community.MinSize
	// members), ordered by coordination score descending.
	Communities []community.CommunityScore
	Timings     Timings
}

// Run executes the three-step pipeline on b.
func Run(b *graph.BTM, cfg Config) (*Result, error) {
	if err := cfg.Window.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Config: cfg}

	// Step 1: projection.
	t0 := time.Now()
	var ci graph.CIView
	var err error
	popts := projection.Options{Exclude: cfg.Exclude, Restrict: cfg.Restrict}
	if cfg.Sequential {
		ci, err = projection.ProjectSequential(b, cfg.Window, popts)
	} else {
		ci, err = projection.ProjectSharded(b, cfg.Window, popts)
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: projection: %w", err)
	}
	res.CI = ci
	res.Timings.Project = time.Since(t0)
	finish(res, b, cfg)
	return res, nil
}

// RunOnCI executes Steps 2–3 (triangle survey, hypergraph validation) and
// the component census on an already-projected CI graph — the entry point
// for snapshot surveys: a streaming projector hands over a copy of its live
// graph and the batch machinery runs on it unchanged. b is the bipartite
// multigraph the validation checks against (for a sliding window, a BTM of
// just the trailing-horizon comments); it may be nil, which skips Step 3 as
// if cfg.SkipHypergraph were set. cfg.Window is recorded but not re-applied
// — the graph is taken as projected.
func RunOnCI(ci graph.CIView, b *graph.BTM, cfg Config) (*Result, error) {
	if ci == nil {
		return nil, fmt.Errorf("pipeline: RunOnCI on nil CI graph")
	}
	if b == nil {
		cfg.SkipHypergraph = true
	}
	res := &Result{Config: cfg, CI: ci}
	finish(res, b, cfg)
	return res, nil
}

// RunOnTriangles executes Step 3 (hypergraph validation) and the
// component census on an already-surveyed triangle list — the delta-
// survey entry point: a daemon that merged cache-surviving and
// re-surveyed triangles hands the result here instead of re-enumerating
// the snapshot. tris must be weight-thresholded and SortTriangles-sorted
// but NOT T-score filtered: cfg.MinTScore is applied here against ci's
// current page counts, so cached triangles re-filter correctly as P'
// drifts between cycles. thresholded, when non-nil, is ci restricted to
// edges >= the effective cut (e.g. a ThresholdDelta product, so the
// component census needn't rescan the full snapshot); nil recomputes it.
// hyperCache, when non-nil, memoizes Step-3 scores across calls keyed by
// triplet; the caller is responsible for invalidating entries whose
// authors' windowed comments changed. Hits are reported in
// Result.HyperCacheHits. The output is identical to RunOnCI over the same
// graph when tris is a full weight-only survey of it.
func RunOnTriangles(ci, thresholded graph.CIView, tris []tripoll.Triangle, b *graph.BTM, cfg Config, hyperCache map[hypergraph.Triplet]hypergraph.Score) (*Result, error) {
	if ci == nil {
		return nil, fmt.Errorf("pipeline: RunOnTriangles on nil CI graph")
	}
	if b == nil {
		cfg.SkipHypergraph = true
	}
	res := &Result{Config: cfg, CI: ci}
	validate(res, thresholded, tris, b, cfg, hyperCache, time.Now())
	return res, nil
}

// validate runs everything after a weight-only survey: the T-score cut
// the survey deferred, Step 3 (cache-aware when hyperCache is non-nil),
// the component census on thresholded (nil recomputes it from res.CI) and
// the optional community stage. Timings.Survey runs from surveyStart to
// the end of the cut.
func validate(res *Result, thresholded graph.CIView, tris []tripoll.Triangle, b *graph.BTM, cfg Config, hyperCache map[hypergraph.Triplet]hypergraph.Score, surveyStart time.Time) {
	ci := res.CI
	if cfg.MinTScore > 0 {
		kept := make([]tripoll.Triangle, 0, len(tris))
		for _, tr := range tris {
			if tr.TScore(ci.PageCount) >= cfg.MinTScore {
				kept = append(kept, tr)
			}
		}
		tris = kept
	}
	res.Timings.Survey = time.Since(surveyStart)

	// Step 3: hypergraph validation.
	t0 := time.Now()
	res.Triangles = make([]TriangleResult, len(tris))
	for i, tr := range tris {
		res.Triangles[i] = TriangleResult{Triangle: tr, T: tr.TScore(ci.PageCount)}
	}
	if !cfg.SkipHypergraph && len(tris) > 0 {
		var missing []hypergraph.Triplet
		var missingAt []int
		for i, tr := range tris {
			t := hypergraph.Triplet{X: tr.X, Y: tr.Y, Z: tr.Z}
			if sc, ok := hyperCache[t]; ok {
				res.Triangles[i].Hyper = sc
				res.HyperCacheHits++
				continue
			}
			missing = append(missing, t)
			missingAt = append(missingAt, i)
		}
		if len(missing) > 0 {
			// missing preserves the sorted triplet order of tris, so the
			// sorted outputs of both evaluators zip back 1:1.
			var scores []hypergraph.Score
			if cfg.Sequential {
				scores = make([]hypergraph.Score, len(missing))
				for i, t := range missing {
					scores[i] = hypergraph.Evaluate(b, t)
				}
			} else {
				scores = hypergraph.EvaluateAll(b, missing, 0)
			}
			for k, sc := range scores {
				res.Triangles[missingAt[k]].Hyper = sc
				if hyperCache != nil {
					hyperCache[missing[k]] = sc
				}
			}
		}
	}
	res.Timings.Validate = time.Since(t0)

	// Components of the thresholded graph (Figures 1–2 artifacts).
	t0 = time.Now()
	if thresholded == nil {
		thresholded = ci.ThresholdView(tripoll.EffectiveEdgeCut(tripoll.Options{MinTriangleWeight: cfg.MinTriangleWeight}))
	}
	res.Thresholded = thresholded
	res.Components = graph.ConnectedComponents(res.Thresholded)
	res.Timings.Component = time.Since(t0)
	cluster(res, b, cfg, tris)
}

// cluster runs the optional community stage: a cold Detect over the
// thresholded view, scored against the hypergraph and the surviving
// census. The daemon skips this (Communities false) and warm-starts its
// own clustering from the cached partition, filling the same fields.
func cluster(res *Result, b *graph.BTM, cfg Config, tris []tripoll.Triangle) {
	if !cfg.Communities {
		return
	}
	t0 := time.Now()
	ccfg := cfg.Community.Defaults()
	res.Partition = community.Detect(res.Thresholded, ccfg)
	res.Communities = community.ScoreCommunities(res.Partition, res.Thresholded, b, tris, ccfg.MinSize)
	res.Timings.Cluster = time.Since(t0)
}

// finish runs Step 2 on res.CI — a weight-only survey of the graph
// thresholded and oriented exactly once — and hands the census to
// validate, which cuts, validates and counts components on the same
// pruned view, so the O(edges) filter is paid a single time.
func finish(res *Result, b *graph.BTM, cfg Config) {
	ci := res.CI
	t0 := time.Now()
	sopts := tripoll.Options{MinTriangleWeight: cfg.MinTriangleWeight}
	thresholded := ci.ThresholdView(tripoll.EffectiveEdgeCut(sopts))
	o := tripoll.Orient(thresholded.BuildAdjacency())
	var tris []tripoll.Triangle
	if cfg.Sequential {
		o.SurveyAll(sopts, nil, func(tr tripoll.Triangle) {
			tris = append(tris, tr)
		})
		tripoll.SortTriangles(tris)
	} else {
		tris = o.SurveyParallel(sopts, nil)
	}
	validate(res, thresholded, tris, b, cfg, nil, t0)
}

// FlaggedAuthors returns the union of authors appearing in surviving
// triangles — the pipeline's detection set.
func (r *Result) FlaggedAuthors() map[graph.VertexID]bool {
	out := make(map[graph.VertexID]bool)
	for _, tr := range r.Triangles {
		out[tr.X] = true
		out[tr.Y] = true
		out[tr.Z] = true
	}
	return out
}

// MetricSeries extracts the paired metric vectors behind the paper's
// figures: (T, C) for the score hexbins (Figures 3/5/7/9) and
// (minWeight, w_xyz) for the weight hexbins (Figures 4/6/8/10).
func (r *Result) MetricSeries() (ts, cs, minW, hyperW []float64) {
	n := len(r.Triangles)
	ts = make([]float64, n)
	cs = make([]float64, n)
	minW = make([]float64, n)
	hyperW = make([]float64, n)
	for i, tr := range r.Triangles {
		ts[i] = tr.T
		cs[i] = tr.Hyper.C
		minW[i] = float64(tr.MinWeight())
		hyperW[i] = float64(tr.Hyper.W)
	}
	return ts, cs, minW, hyperW
}

// Metrics scores a detection against ground truth.
type Metrics struct {
	TP, FP, FN        int
	Precision, Recall float64
	F1                float64
}

// Evaluate compares flagged authors to the true bot set.
func Evaluate(flagged, truth map[graph.VertexID]bool) Metrics {
	var m Metrics
	for a := range flagged {
		if truth[a] {
			m.TP++
		} else {
			m.FP++
		}
	}
	for a := range truth {
		if !flagged[a] {
			m.FN++
		}
	}
	if m.TP+m.FP > 0 {
		m.Precision = float64(m.TP) / float64(m.TP+m.FP)
	}
	if m.TP+m.FN > 0 {
		m.Recall = float64(m.TP) / float64(m.TP+m.FN)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// String renders metrics compactly.
func (m Metrics) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f (tp=%d fp=%d fn=%d)",
		m.Precision, m.Recall, m.F1, m.TP, m.FP, m.FN)
}
