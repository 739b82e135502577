package pipeline

import (
	"context"
	"runtime/pprof"
	"time"

	"coordbot/internal/community"
	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/tripoll"
)

// Carry is the engine's cross-survey state, which one Survey hands the
// next Survey of a later snapshot of the same store. It is immutable once
// returned except for the orientation, which the next Survey patches in
// place, so a carry is passed to at most one Survey.
type Carry struct {
	// snap is the snapshot surveyed: the version-vector baseline of the
	// next diff. pruned is snap at the edge cut, re-filtered per dirty
	// shard by ThresholdDelta.
	snap, pruned *graph.CISnapshot
	// tris is pruned's weight-thresholded census in SortTriangles order,
	// NOT T-score filtered: page counts drift, so the cut reruns.
	tris []tripoll.Triangle
	// hyper memoizes Step-3 scores per triplet (nil under SkipHypergraph).
	hyper map[hypergraph.Triplet]hypergraph.Score
	// oriented is pruned's persistent stable-epoch orientation. The next
	// delta survey takes it out of the carry before patching it, so no
	// carry holds a half-patched orientation.
	oriented *tripoll.Oriented
	// partition is pruned's community assignment (nil without
	// Config.Communities), the next delta survey's warm start.
	partition *community.Partition
}

// SurveyStats are one Survey's counters.
type SurveyStats struct {
	// Delta reports that the survey ran the delta path.
	Delta bool
	// DirtyShards / DirtyVertices size the diff a delta survey covered
	// (for a full survey: the whole snapshot's shard and author counts).
	DirtyShards, DirtyVertices int
	// CachedTriangles / ResurveyedTriangles split the census before the
	// T-score cut between carried triangles and fresh enumerations.
	CachedTriangles, ResurveyedTriangles int
	// OrientEpoch / OrientPatchedEdges / OrientRebuilds are the persistent
	// orientation's stable-order epoch, cumulative edge patches and
	// drift-triggered re-orientations; a full survey resets them.
	OrientEpoch, OrientPatchedEdges, OrientRebuilds int64
}

// Survey is the engine's Steps 2–3 on a snapshot of the sharded store:
// threshold, orient, triangle survey, T-score cut, hypergraph validation
// against b (nil skips it), component census and, with cfg.Communities,
// the community stage. With prev == nil it runs the full pass. With the
// carry of an earlier survey of the same store it runs the delta path:
// the version vectors give the dirty vertices; carried triangles touching
// none survive verbatim; dirty shards are re-thresholded, the carried
// orientation patched and the dirty frontier re-enumerated and merged;
// memoized Step-3 scores are dropped for the authors in logDirty (whose
// windowed comments changed since prev); clustering warm-starts from the
// carried partition. An incomparable carry (another store or shard
// geometry) gets the full pass but keeps its memo. Either way the Result
// equals the reference's. Survey consumes prev and returns the next carry.
func Survey(ci *graph.CISnapshot, b *graph.BTM, cfg Config, prev *Carry, logDirty map[graph.VertexID]bool) (*Result, *Carry) {
	if b == nil {
		cfg.SkipHypergraph = true
	}
	res := &Result{Config: cfg, CI: ci}
	st := &res.Survey
	t0 := time.Now()
	sopts := tripoll.Options{MinTriangleWeight: cfg.MinTriangleWeight}
	cut := tripoll.EffectiveEdgeCut(sopts)
	next := &Carry{snap: ci}
	var dirty map[graph.VertexID]bool
	if prev != nil {
		dirty, st.DirtyShards, st.Delta = ci.DirtyVertices(prev.snap)
	}
	if st.Delta {
		// A changed edge dirties both endpoints, so carried triangles with
		// no dirty vertex are exact, and SurveyDirty emits precisely the
		// rest: the two sets partition the new census.
		next.pruned = ci.ThresholdDelta(prev.snap, prev.pruned, cut)
		kept := make([]tripoll.Triangle, 0, len(prev.tris))
		for _, tr := range prev.tris {
			if !dirty[tr.X] && !dirty[tr.Y] && !dirty[tr.Z] {
				kept = append(kept, tr)
			}
		}
		if o := prev.oriented; o != nil {
			if patches, _, ok := next.pruned.EdgePatches(prev.pruned); ok {
				prev.oriented = nil
				o.ApplyPatches(patches)
				next.oriented = o
			}
		}
		if next.oriented == nil {
			next.oriented = tripoll.Orient(next.pruned.BuildAdjacency())
		}
		var fresh []tripoll.Triangle
		next.oriented.SurveyDirty(sopts, dirty, nil, func(tr tripoll.Triangle) {
			fresh = append(fresh, tr)
		})
		tripoll.SortTriangles(fresh)
		next.tris = tripoll.MergeSorted(kept, fresh)
		st.DirtyVertices = len(dirty)
		st.CachedTriangles, st.ResurveyedTriangles = len(kept), len(fresh)
	} else {
		next.pruned = ci.ThresholdView(cut).(*graph.CISnapshot)
		next.oriented = tripoll.Orient(next.pruned.BuildAdjacency())
		next.tris = next.oriented.SurveyParallel(sopts, nil)
		st.DirtyShards, st.DirtyVertices = ci.NumShards(), ci.NumAuthors()
		st.ResurveyedTriangles = len(next.tris)
	}
	st.OrientEpoch, st.OrientPatchedEdges, st.OrientRebuilds = next.oriented.Epoch(), next.oriented.PatchedEdges(), next.oriented.Rebuilds()

	if !cfg.SkipHypergraph {
		if prev != nil && prev.hyper != nil {
			next.hyper = prev.hyper
			for t := range next.hyper {
				if logDirty[t.X] || logDirty[t.Y] || logDirty[t.Z] {
					delete(next.hyper, t)
				}
			}
		} else {
			next.hyper = make(map[hypergraph.Triplet]hypergraph.Score, len(next.tris))
		}
	}
	kept := validate(res, next.pruned, next.tris, b, cfg, next.hyper, t0)
	var prevPart *community.Partition
	if st.Delta {
		prevPart = prev.partition
	}
	cluster(res, b, cfg, kept, prevPart, dirty)
	next.partition = res.Partition
	return res, next
}

// validate runs everything after a weight-only survey: the T-score cut
// the survey deferred, Step 3 (cache-aware when hyperCache is non-nil) and
// the component census on thresholded. It returns the triangles that
// survived the cut. Timings.Survey runs from surveyStart to the end of the
// cut.
func validate(res *Result, thresholded graph.CIView, tris []tripoll.Triangle, b *graph.BTM, cfg Config, hyperCache map[hypergraph.Triplet]hypergraph.Score, surveyStart time.Time) []tripoll.Triangle {
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
		// missing preserves the sorted triplet order of tris, so the
		// kernel's sorted output zips back 1:1.
		for k, sc := range hypergraph.EvaluateAll(b, missing, 0) {
			res.Triangles[missingAt[k]].Hyper = sc
			if hyperCache != nil {
				hyperCache[missing[k]] = sc
			}
		}
	}
	res.Timings.Validate = time.Since(t0)

	// Components of the thresholded graph (Figures 1–2 artifacts).
	t0 = time.Now()
	res.Thresholded = thresholded
	res.Components = graph.ConnectedComponents(thresholded)
	res.Timings.Component = time.Since(t0)
	return tris
}

// cluster runs the optional community stage over the thresholded view,
// warm-started from prev (reusing components with no vertex in dirty;
// nil prev clusters cold — the result is the same), scored against the
// hypergraph and the surviving census tris. The section carries its own
// pprof phase label so profiles split it out of the surrounding survey.
func cluster(res *Result, b *graph.BTM, cfg Config, tris []tripoll.Triangle, prev *community.Partition, dirty map[graph.VertexID]bool) {
	if !cfg.Communities {
		return
	}
	t0 := time.Now()
	pprof.Do(context.Background(), pprof.Labels("phase", "communities"), func(context.Context) {
		ccfg := cfg.Community.Defaults()
		res.Partition = community.DetectWarm(res.Thresholded, ccfg, prev, dirty)
		res.Communities = community.ScoreCommunities(res.Partition, res.Thresholded, b, tris, ccfg.MinSize)
	})
	res.Timings.Cluster = time.Since(t0)
}
