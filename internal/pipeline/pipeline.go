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
//
// Steps 2–3 have two implementations. The engine is Survey: it runs on a
// snapshot of the sharded store with GOMAXPROCS-sized worker pools, and
// returns with its Result a Carry — the pruned snapshot, triangle census,
// oriented adjacency, Step-3 memo and community partition — from which
// the next Survey of a later snapshot runs only the changed part. Run and
// RunOnCI make one cold Survey call; the streaming daemon (package
// detectd) makes one per cycle, handing each carry to the next. The
// reference is single-threaded and map-backed (SurveySequential,
// per-triplet Evaluate, cold Detect); Config.Sequential selects it, and
// every engine equivalence test compares against it.
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
	// Sequential runs the single-threaded reference implementations
	// instead of the engine: Step 1 into the map-backed CIGraph rather
	// than projection.ProjectSharded's lock-striped store, and the
	// reference Steps 2–3 instead of Survey. Run and RunOnCI read it;
	// RunOnTriangles ignores it.
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
	// CI is the full projected common interaction graph: the
	// *graph.CISnapshot of the sharded store for batch runs and daemon
	// surveys alike, or a map-backed *graph.CIGraph under Sequential —
	// both behind the read-only view interface.
	CI graph.CIView
	// Thresholded is CI restricted to edges >= MinTriangleWeight — the
	// graph whose components the paper draws in Figures 1–2.
	Thresholded graph.CIView
	// Components of the thresholded graph, largest first.
	Components []graph.Component
	// Triangles that survived the survey, each with hypergraph scores.
	Triangles []TriangleResult
	// HyperCacheHits counts Step-3 evaluations served from a memo carried
	// across calls (a delta Survey or RunOnTriangles; 0 elsewhere).
	HyperCacheHits int
	// Survey holds the engine's per-survey counters (zero from the
	// reference and RunOnTriangles).
	Survey SurveyStats
	// Partition is the community assignment of the thresholded graph
	// (nil unless Config.Communities); its ReusedComponents and
	// ClusteredComponents split a warm start's components.
	Partition *community.Partition
	// Communities are the scored communities (>= Community.MinSize
	// members), ordered by coordination score descending.
	Communities []community.CommunityScore
	Timings     Timings
}

// Run executes the three-step pipeline on b: Step 1 projects into the
// sharded store and RunOnCI runs a cold Survey of its snapshot, or, under
// Sequential, the reference projection and the reference Steps 2–3.
func Run(b *graph.BTM, cfg Config) (*Result, error) {
	if err := cfg.Window.Validate(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	popts := projection.Options{Exclude: cfg.Exclude, Restrict: cfg.Restrict}
	var ci graph.CIView
	var err error
	if cfg.Sequential {
		ci, err = projection.ProjectSequential(b, cfg.Window, popts)
	} else {
		var g *graph.ShardedCI
		if g, err = projection.ProjectSharded(b, cfg.Window, popts); err == nil {
			ci = g.Snapshot()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("pipeline: projection: %w", err)
	}
	project := time.Since(t0)
	res, err := RunOnCI(ci, b, cfg)
	if err != nil {
		return nil, err
	}
	res.Timings.Project = project
	return res, nil
}

// RunOnCI executes Steps 2–3 (triangle survey, hypergraph validation) and
// the component census on an already-projected CI graph. b is the
// bipartite multigraph the validation checks against; it may be nil, which
// skips Step 3 as if cfg.SkipHypergraph were set. cfg.Window is recorded
// but not re-applied — the graph is taken as projected. A snapshot of the
// sharded store gets a cold Survey; under Sequential, or for any other
// view (a map-backed CIGraph), the reference runs instead. Both give the
// same Result.
func RunOnCI(ci graph.CIView, b *graph.BTM, cfg Config) (*Result, error) {
	if ci == nil {
		return nil, fmt.Errorf("pipeline: RunOnCI on nil CI graph")
	}
	if snap, ok := ci.(*graph.CISnapshot); ok && !cfg.Sequential {
		res, _ := Survey(snap, b, cfg, nil, nil)
		return res, nil
	}
	return reference(ci, b, cfg), nil
}

// RunOnTriangles executes the T-score cut, Step 3 and the component
// census on tris, a weight-only SortTriangles-ordered survey of ci, as
// Survey does after its own survey. thresholded is ci at the edge cut (nil
// recomputes it); hyperCache, when non-nil, memoizes Step-3 scores across
// calls by triplet, and the caller invalidates entries whose authors'
// windowed comments changed. It remains for the benchmark's staged pass,
// which times this stage on its own.
func RunOnTriangles(ci, thresholded graph.CIView, tris []tripoll.Triangle, b *graph.BTM, cfg Config, hyperCache map[hypergraph.Triplet]hypergraph.Score) (*Result, error) {
	if ci == nil {
		return nil, fmt.Errorf("pipeline: RunOnTriangles on nil CI graph")
	}
	if b == nil {
		cfg.SkipHypergraph = true
	}
	res := &Result{Config: cfg, CI: ci}
	if thresholded == nil {
		thresholded = ci.ThresholdView(tripoll.EffectiveEdgeCut(tripoll.Options{MinTriangleWeight: cfg.MinTriangleWeight}))
	}
	kept := validate(res, thresholded, tris, b, cfg, hyperCache, time.Now())
	cluster(res, b, cfg, kept, nil, nil)
	return res, nil
}

// reference runs Steps 2–3, the component census and the community stage
// with the single-threaded reference implementations: SurveySequential,
// one hypergraph.Evaluate per triplet, a cold community.Detect. It is the
// oracle every engine equivalence test and the benchmark compare against.
func reference(ci graph.CIView, b *graph.BTM, cfg Config) *Result {
	if b == nil {
		cfg.SkipHypergraph = true
	}
	res := &Result{Config: cfg, CI: ci}
	sopts := tripoll.Options{MinTriangleWeight: cfg.MinTriangleWeight, MinTScore: cfg.MinTScore}
	t0 := time.Now()
	res.Thresholded = ci.ThresholdView(tripoll.EffectiveEdgeCut(sopts))
	var tris []tripoll.Triangle
	tripoll.SurveySequential(res.Thresholded, sopts, func(tr tripoll.Triangle) { tris = append(tris, tr) })
	tripoll.SortTriangles(tris)
	res.Timings.Survey = time.Since(t0)

	t0 = time.Now()
	res.Triangles = make([]TriangleResult, len(tris))
	for i, tr := range tris {
		res.Triangles[i] = TriangleResult{Triangle: tr, T: tr.TScore(ci.PageCount)}
		if !cfg.SkipHypergraph {
			res.Triangles[i].Hyper = hypergraph.Evaluate(b, hypergraph.Triplet{X: tr.X, Y: tr.Y, Z: tr.Z})
		}
	}
	res.Timings.Validate = time.Since(t0)

	t0 = time.Now()
	res.Components = graph.ConnectedComponents(res.Thresholded)
	res.Timings.Component = time.Since(t0)
	if cfg.Communities {
		t0 = time.Now()
		ccfg := cfg.Community.Defaults()
		res.Partition = community.Detect(res.Thresholded, ccfg)
		res.Communities = community.ScoreCommunities(res.Partition, res.Thresholded, b, tris, ccfg.MinSize)
		res.Timings.Cluster = time.Since(t0)
	}
	return res
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
