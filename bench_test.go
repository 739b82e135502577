package coordbot_test

// One benchmark per paper artifact (Figures 1–10 and the in-text S/X
// studies; see the DESIGN.md experiment index), plus micro-benchmarks for
// each pipeline stage and the ablations DESIGN.md calls out. Figure
// benchmarks run the experiment end to end at a reduced organic scale;
// absolute times are machine-local, the point is regeneration and relative
// cost.

import (
	"sync"
	"testing"

	"coordbot/internal/backbone"
	"coordbot/internal/baseline"
	"coordbot/internal/experiments"
	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
	"coordbot/internal/stream"
	"coordbot/internal/tripoll"
	"coordbot/internal/ygmnet"
)

const benchScale = 0.08

func benchFigure(b *testing.B, id string) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lab := experiments.NewLab(benchScale)
		if _, err := lab.Figure(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1GPT2Network(b *testing.B)      { benchFigure(b, "f1") }
func BenchmarkFig2ReshareNetwork(b *testing.B)   { benchFigure(b, "f2") }
func BenchmarkFig3ScoreHexbin(b *testing.B)      { benchFigure(b, "f3") }
func BenchmarkFig4WeightHexbin(b *testing.B)     { benchFigure(b, "f4") }
func BenchmarkFig5ScoreHexbin(b *testing.B)      { benchFigure(b, "f5") }
func BenchmarkFig6WeightHexbin(b *testing.B)     { benchFigure(b, "f6") }
func BenchmarkFig7ScoreHexbin(b *testing.B)      { benchFigure(b, "f7") }
func BenchmarkFig8WeightHexbin(b *testing.B)     { benchFigure(b, "f8") }
func BenchmarkFig9ScoreHexbin(b *testing.B)      { benchFigure(b, "f9") }
func BenchmarkFig10WeightHexbin(b *testing.B)    { benchFigure(b, "f10") }
func BenchmarkS1TextStatistics(b *testing.B)     { benchFigure(b, "s1") }
func BenchmarkS3ExclusionAblation(b *testing.B)  { benchFigure(b, "s3") }
func BenchmarkS4Backbone(b *testing.B)           { benchFigure(b, "s4") }
func BenchmarkX1WindowedHyperedges(b *testing.B) { benchFigure(b, "x1") }
func BenchmarkX2DetectionQuality(b *testing.B)   { benchFigure(b, "x2") }
func BenchmarkX4BaselineComparison(b *testing.B) { benchFigure(b, "x4") }
func BenchmarkX5Classification(b *testing.B)     { benchFigure(b, "x5") }
func BenchmarkX6Sockpuppets(b *testing.B)        { benchFigure(b, "x6") }

// --- shared fixtures -------------------------------------------------------

var (
	fixtureOnce sync.Once
	fixBTM      *graph.BTM
	fixHelpers  map[graph.VertexID]bool
	fixCI       *graph.CIGraph
)

func fixtures(b *testing.B) (*graph.BTM, map[graph.VertexID]bool, *graph.CIGraph) {
	b.Helper()
	fixtureOnce.Do(func() {
		d := redditgen.Generate(redditgen.DenseWeek(7))
		fixBTM = d.BTM()
		fixHelpers = d.Helpers
		g, err := projection.ProjectSequential(fixBTM,
			projection.Window{Min: 0, Max: 600}, projection.Options{Exclude: fixHelpers})
		if err != nil {
			panic(err)
		}
		fixCI = g
	})
	return fixBTM, fixHelpers, fixCI
}

// --- stage micro-benchmarks ------------------------------------------------

func BenchmarkBTMBuild(b *testing.B) {
	d := redditgen.Generate(redditgen.DenseWeek(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.BuildBTM(d.Comments, d.Authors.Len(), d.NumPages)
	}
}

func BenchmarkProjectionSequential(b *testing.B) {
	btm, helpers, _ := fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := projection.ProjectSequential(btm,
			projection.Window{Min: 0, Max: 60}, projection.Options{Exclude: helpers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProjectionParallel(b *testing.B) {
	btm, helpers, _ := fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := projection.ProjectSharded(btm,
			projection.Window{Min: 0, Max: 60}, projection.Options{Exclude: helpers}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkProjectionBucketed is the S2 ablation: the §3 bucket workaround
// versus the direct projection it must equal.
func BenchmarkProjectionBucketed(b *testing.B) {
	btm, helpers, _ := fixtures(b)
	buckets := projection.UniformBuckets(0, 600, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := projection.ProjectBucketed(btm, buckets,
			projection.Options{Exclude: helpers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkProjectionDirect600(b *testing.B) {
	btm, helpers, _ := fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := projection.ProjectSequential(btm,
			projection.Window{Min: 0, Max: 600}, projection.Options{Exclude: helpers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTriangleSurveySequential(b *testing.B) {
	_, _, ci := fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		tripoll.SurveySequential(ci, tripoll.Options{MinTriangleWeight: 10},
			func(tripoll.Triangle) { n++ })
		if n == 0 {
			b.Fatal("no triangles")
		}
	}
}

func BenchmarkTriangleSurveyParallel(b *testing.B) {
	_, _, ci := fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := tripoll.Survey(ci, tripoll.Options{MinTriangleWeight: 10}); len(out) == 0 {
			b.Fatal("no triangles")
		}
	}
}

// BenchmarkTriangleNaive is the orientation ablation: the O(n³) triple
// test the degree-ordered wedge check replaces, paying the same per-
// iteration thresholding cost the survey pays. Run on the thresholded
// graph only — it is hopeless on the full CI graph (the wedge check's
// advantage grows with graph size; compare BenchmarkTriangleSurveySequential).
func BenchmarkTriangleNaive(b *testing.B) {
	_, _, ci := fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pruned := ci.Threshold(10)
		if tripoll.CountNaive(pruned, 10) == 0 {
			b.Fatal("no triangles")
		}
	}
}

func BenchmarkHypergraphEvaluate(b *testing.B) {
	btm, _, ci := fixtures(b)
	var triplets []hypergraph.Triplet
	tripoll.SurveySequential(ci, tripoll.Options{MinTriangleWeight: 10},
		func(tr tripoll.Triangle) {
			triplets = append(triplets, hypergraph.Triplet{X: tr.X, Y: tr.Y, Z: tr.Z})
		})
	if len(triplets) == 0 {
		b.Fatal("no triplets")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hypergraph.Evaluate(btm, triplets[i%len(triplets)])
	}
}

func BenchmarkWindowedHyperedges(b *testing.B) {
	btm, _, ci := fixtures(b)
	var triplets []hypergraph.Triplet
	tripoll.SurveySequential(ci, tripoll.Options{MinTriangleWeight: 10},
		func(tr tripoll.Triangle) {
			triplets = append(triplets, hypergraph.Triplet{X: tr.X, Y: tr.Y, Z: tr.Z})
		})
	if len(triplets) == 0 {
		b.Fatal("no triplets")
	}
	btm.AuthorPageTimes(0) // force the timed index outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hypergraph.WindowedTripletWeight(btm, triplets[i%len(triplets)], 600)
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	_, _, ci := fixtures(b)
	pruned := ci.Threshold(10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(graph.ConnectedComponents(pruned)) == 0 {
			b.Fatal("no components")
		}
	}
}

// streamProject feeds time-ordered comments through one stream.Projector.
func streamProject(comments []graph.Comment, w projection.Window, opts projection.Options) (*graph.CIGraph, error) {
	p, err := stream.NewProjector(w, opts)
	if err != nil {
		return nil, err
	}
	for _, c := range comments {
		if err := p.Add(c); err != nil {
			return nil, err
		}
	}
	return p.Result(), nil
}

func BenchmarkStreamingProjection(b *testing.B) {
	d := redditgen.Generate(redditgen.DenseWeek(7))
	helpers := d.Helpers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := streamProject(d.Comments, projection.Window{Min: 0, Max: 60},
			projection.Options{Exclude: helpers}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineSimilarity(b *testing.B) {
	btm, helpers, _ := fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := baseline.SimilarityNetwork(btm, baseline.Options{
			Method: baseline.TFIDFCosine, Exclude: helpers,
		}); len(out) == 0 {
			b.Fatal("no edges")
		}
	}
}

func BenchmarkBackboneExtract(b *testing.B) {
	btm, _, ci := fixtures(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		backbone.Extract(ci, btm.NumPages(), 1e-9)
	}
}

// BenchmarkDistributedProjectionTCP measures Algorithm 1 over the real TCP
// transport (serialized owner-computes messages) for comparison with the
// in-process sharded path (BenchmarkProjectionParallel).
func BenchmarkDistributedProjectionTCP(b *testing.B) {
	btm, helpers, _ := fixtures(b)
	pc, err := ygmnet.NewProjectionCluster(4)
	if err != nil {
		b.Fatal(err)
	}
	defer pc.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pc.Project(btm, projection.Window{Min: 0, Max: 60},
			projection.Options{Exclude: helpers}); err != nil {
			b.Fatal(err)
		}
	}
}
