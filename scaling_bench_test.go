package coordbot_test

// Scaling studies: how each stage's cost grows with corpus size and window
// length — the paper's central engineering trade-off ("the projected graph
// tends to get much larger for longer windows of time", §3). Run with
//
//	go test -bench Scaling -benchmem
//
// and read the per-size ns/op series.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"coordbot/internal/detectd"
	"coordbot/internal/graph"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
	"coordbot/internal/tripoll"
)

// corpusOf builds a synthetic corpus with n organic comments.
func corpusOf(n int) *redditgen.Dataset {
	return redditgen.Generate(redditgen.Config{
		Seed: 1234, Start: 0, End: 14 * 24 * 3600,
		Organic: redditgen.OrganicConfig{
			Authors:      n / 20,
			Pages:        n / 40,
			Comments:     n,
			PageHalfLife: 3 * 3600,
		},
		AutoModerator: true,
	})
}

func BenchmarkScalingProjectionComments(b *testing.B) {
	for _, n := range []int{20000, 80000, 320000} {
		d := corpusOf(n)
		btm := d.BTM()
		b.Run(fmt.Sprintf("comments=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := projection.ProjectSequential(btm,
					projection.Window{Min: 0, Max: 60},
					projection.Options{Exclude: d.Helpers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScalingProjectionWindow(b *testing.B) {
	d := corpusOf(80000)
	btm := d.BTM()
	for _, max := range []int64{60, 600, 3600} {
		max := max
		b.Run(fmt.Sprintf("window=%ds", max), func(b *testing.B) {
			b.ReportAllocs()
			var edges int
			for i := 0; i < b.N; i++ {
				g, err := projection.ProjectSequential(btm,
					projection.Window{Min: 0, Max: max},
					projection.Options{Exclude: d.Helpers})
				if err != nil {
					b.Fatal(err)
				}
				edges = g.NumEdges()
			}
			b.ReportMetric(float64(edges), "edges")
		})
	}
}

func BenchmarkScalingStreamVsBatch(b *testing.B) {
	d := corpusOf(80000)
	btm := d.BTM()
	w := projection.Window{Min: 0, Max: 60}
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := projection.ProjectSequential(btm, w,
				projection.Options{Exclude: d.Helpers}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := streamProject(d.Comments, w,
				projection.Options{Exclude: d.Helpers}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkScalingTriangleRanks(b *testing.B) {
	d := corpusOf(160000)
	btm := d.BTM()
	g, err := projection.ProjectSequential(btm, projection.Window{Min: 0, Max: 600},
		projection.Options{Exclude: d.Helpers})
	if err != nil {
		b.Fatal(err)
	}
	// The survey pool is GOMAXPROCS workers.
	for _, ranks := range []int{1, 2, 4, 8} {
		ranks := ranks
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(ranks))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tripoll.Survey(g, tripoll.Options{MinTriangleWeight: 3})
			}
		})
	}
}

func BenchmarkScalingComponents(b *testing.B) {
	d := corpusOf(160000)
	btm := d.BTM()
	g, err := projection.ProjectSequential(btm, projection.Window{Min: 0, Max: 600},
		projection.Options{Exclude: d.Helpers})
	if err != nil {
		b.Fatal(err)
	}
	pruned := g.Threshold(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.ConnectedComponents(pruned)
	}
}

// --- daemon benchmarks -------------------------------------------------
//
// Sustained ingest throughput and survey latency of the detectd service:
// the two numbers that decide whether the daemon keeps up with a live
// feed. The corpus spans 14 days but the horizon is 6 hours, so the
// sliding projector is constantly evicting — the steady-state regime.

const detectdBenchComments = 80000

func detectdBenchConfig(validate bool) detectd.Config {
	return detectd.Config{
		Window:             projection.Window{Min: 0, Max: 60},
		Horizon:            6 * 3600,
		MinTriangleWeight:  3,
		ValidateHypergraph: validate,
		ClampLate:          true,
	}
}

// detectdBatches slices the corpus into ingest-sized batches.
func detectdBatches(d *redditgen.Dataset) [][]graph.Comment {
	const size = 512
	var out [][]graph.Comment
	for lo := 0; lo < len(d.Comments); lo += size {
		hi := lo + size
		if hi > len(d.Comments) {
			hi = len(d.Comments)
		}
		out = append(out, d.Comments[lo:hi])
	}
	return out
}

func BenchmarkDetectdIngest(b *testing.B) {
	d := corpusOf(detectdBenchComments)
	batches := detectdBatches(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := detectd.NewService(detectdBenchConfig(false))
		if err != nil {
			b.Fatal(err)
		}
		for _, batch := range batches {
			s.Apply(batch)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(d.Comments)*b.N)/b.Elapsed().Seconds(), "comments/s")
}

func BenchmarkDetectdSurvey(b *testing.B) {
	d := corpusOf(detectdBenchComments)
	s, err := detectd.NewService(detectdBenchConfig(true))
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range detectdBatches(d) {
		s.Apply(batch)
	}
	// One fresh comment per cycle keeps the idle-reuse short-circuit out
	// of the measurement: this benchmark is the cost of a real survey.
	last := d.Comments[len(d.Comments)-1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		last.TS++
		s.Apply([]graph.Comment{last})
		if _, err := s.SurveyNow(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDetectdSurveyIdle is the reuse path: nothing ingested between
// cycles, so the daemon republishes the previous result — O(1), no graph
// walk. The gap to BenchmarkDetectdSurvey is what the version stamp buys.
func BenchmarkDetectdSurveyIdle(b *testing.B) {
	d := corpusOf(detectdBenchComments)
	s, err := detectd.NewService(detectdBenchConfig(true))
	if err != nil {
		b.Fatal(err)
	}
	for _, batch := range detectdBatches(d) {
		s.Apply(batch)
	}
	if _, err := s.SurveyNow(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SurveyNow(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteDetectdBench records the daemon benchmarks to the JSON file
// named by BENCH_DETECTD_OUT (skipped otherwise):
//
//	BENCH_DETECTD_OUT=BENCH_detectd.json go test -run TestWriteDetectdBench .
func TestWriteDetectdBench(t *testing.T) {
	out := os.Getenv("BENCH_DETECTD_OUT")
	if out == "" {
		t.Skip("set BENCH_DETECTD_OUT=<path> to record the daemon benchmark")
	}
	ingest := testing.Benchmark(BenchmarkDetectdIngest)
	survey := testing.Benchmark(BenchmarkDetectdSurvey)
	report := map[string]any{
		"benchmark": "detectd",
		"corpus": benchRuntime(map[string]any{
			"comments":    detectdBenchComments,
			"span_days":   14,
			"horizon_sec": 6 * 3600,
			"window_sec":  60,
		}, 0),
		"ingest": map[string]any{
			"comments_per_sec":   ingest.Extra["comments/s"],
			"ns_per_pass":        ingest.NsPerOp(),
			"passes":             ingest.N,
			"allocs_per_pass":    ingest.AllocsPerOp(),
			"allocs_per_comment": float64(ingest.AllocsPerOp()) / float64(detectdBenchComments),
			"bytes_per_comment":  float64(ingest.AllocedBytesPerOp()) / float64(detectdBenchComments),
		},
		"survey": map[string]any{
			"latency_ms":      float64(survey.NsPerOp()) / 1e6,
			"cycles":          survey.N,
			"allocs_per_op":   survey.AllocsPerOp(),
			"hypergraph":      true,
			"min_tri_weight":  3,
			"validate_window": true,
		},
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("ingest %.0f comments/s, survey %.2f ms/cycle -> %s",
		ingest.Extra["comments/s"], float64(survey.NsPerOp())/1e6, out)
}
