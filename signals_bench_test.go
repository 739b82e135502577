package coordbot_test

// Multi-signal overhead benchmark: the cost of fanning one comment stream
// out to several coordination signals, against the single-signal
// (co-comment only) baseline, for both the streaming ingest path
// (SlidingProjector) and the batch projection path
// (ProjectSignalsSharded). The acceptance bar is throughput within 2x of
// the baseline per added signal — the fan-out must stay linear in the
// number of signals, not blow up on shared state. Run with
//
//	go test -bench Signals -benchmem
//
// or record the JSON report via TestWriteSignalsBench.

import (
	"encoding/json"
	"os"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
	"coordbot/internal/stream"
)

const signalsBenchHorizon = 12 * 3600

// signalsBenchCorpus is the multi-signal campaign preset at full scale:
// ~80k organic comments carrying URL and hashtag noise, three planted
// campaigns (URL ring, hashtag burst, reply dogpile), and a benign
// URL-sharing cohort.
func signalsBenchCorpus() *redditgen.Dataset {
	return redditgen.Generate(redditgen.MultiSignalCampaign(1.0))
}

func signalsBenchSingle() []stream.SignalConfig {
	return []stream.SignalConfig{
		{Signal: projection.CoComment{W: projection.Window{Min: 0, Max: 60}}},
	}
}

func signalsBenchMulti() []stream.SignalConfig {
	return []stream.SignalConfig{
		{Signal: projection.CoComment{W: projection.Window{Min: 0, Max: 60}}},
		{Signal: projection.URLShare{W: projection.Window{Min: 0, Max: 300}}},
		{Signal: projection.HashtagShare{W: projection.Window{Min: 0, Max: 300}}},
		{Signal: projection.ReplyTarget{W: projection.Window{Min: 0, Max: 120}}},
	}
}

func signalList(cfgs []stream.SignalConfig) []projection.Signal {
	out := make([]projection.Signal, len(cfgs))
	for i, sc := range cfgs {
		out[i] = sc.Signal
	}
	return out
}

// benchSignalsIngest streams the whole corpus through a fresh sliding
// projector per iteration — setup included, since projector construction
// is O(signals) and negligible against 80k Adds.
func benchSignalsIngest(b *testing.B, d *redditgen.Dataset, cfgs []stream.SignalConfig) {
	opts := projection.Options{Exclude: d.Helpers}
	b.ReportAllocs()
	b.ResetTimer()
	var pairs int64
	for i := 0; i < b.N; i++ {
		p, err := stream.NewMultiSlidingProjectorWorkers(cfgs, signalsBenchHorizon, opts, 0, 1)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range d.Comments {
			if err := p.Add(c); err != nil {
				b.Fatal(err)
			}
		}
		// Live pairs at stream end can legitimately be sparse (the horizon
		// trails the last watermark); cumulative evictions prove the stream
		// actually built and churned a graph.
		pairs = p.LivePairs() + p.EvictedPairs()
	}
	b.StopTimer()
	if pairs == 0 {
		b.Fatal("ingest never counted a pair")
	}
	b.ReportMetric(float64(len(d.Comments))*float64(b.N)/b.Elapsed().Seconds(), "comments/s")
}

func benchSignalsProject(b *testing.B, d *redditgen.Dataset, cfgs []stream.SignalConfig) {
	sigs := signalList(cfgs)
	opts := projection.Options{Exclude: d.Helpers}
	b.ReportAllocs()
	b.ResetTimer()
	var g *graph.ShardedCI
	for i := 0; i < b.N; i++ {
		var err error
		g, err = projection.ProjectSignalsSharded(d.Comments, sigs, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if g.NumEdges() == 0 {
		b.Fatal("projection produced an empty graph")
	}
	b.ReportMetric(float64(len(d.Comments))*float64(b.N)/b.Elapsed().Seconds(), "comments/s")
}

func BenchmarkSignals(b *testing.B) {
	d := signalsBenchCorpus()
	b.Run("ingest/single", func(b *testing.B) { benchSignalsIngest(b, d, signalsBenchSingle()) })
	b.Run("ingest/multi4", func(b *testing.B) { benchSignalsIngest(b, d, signalsBenchMulti()) })
	b.Run("project/single", func(b *testing.B) { benchSignalsProject(b, d, signalsBenchSingle()) })
	b.Run("project/multi4", func(b *testing.B) { benchSignalsProject(b, d, signalsBenchMulti()) })
}

// TestWriteSignalsBench records single-vs-multi-signal throughput to the
// JSON file named by BENCH_SIGNALS_OUT (skipped otherwise) and enforces
// the linearity bar: total slowdown divided by the number of ADDED
// signals must stay within 2x, on both paths.
//
//	BENCH_SIGNALS_OUT=BENCH_signals.json go test -run TestWriteSignalsBench .
func TestWriteSignalsBench(t *testing.T) {
	out := os.Getenv("BENCH_SIGNALS_OUT")
	if out == "" {
		t.Skip("set BENCH_SIGNALS_OUT=<path> to record the signals benchmark")
	}
	d := signalsBenchCorpus()
	single, multi := signalsBenchSingle(), signalsBenchMulti()
	added := len(multi) - len(single)

	measure := func(fn func(b *testing.B)) (nsPerOp float64, commentsPerSec float64, allocs int64) {
		r := testing.Benchmark(fn)
		return float64(r.NsPerOp()),
			float64(len(d.Comments)) / (float64(r.NsPerOp()) / 1e9),
			r.AllocsPerOp()
	}
	ingestSingleNs, ingestSingleTput, ingestSingleAllocs := measure(func(b *testing.B) { benchSignalsIngest(b, d, single) })
	ingestMultiNs, ingestMultiTput, ingestMultiAllocs := measure(func(b *testing.B) { benchSignalsIngest(b, d, multi) })
	projSingleNs, projSingleTput, projSingleAllocs := measure(func(b *testing.B) { benchSignalsProject(b, d, single) })
	projMultiNs, projMultiTput, projMultiAllocs := measure(func(b *testing.B) { benchSignalsProject(b, d, multi) })

	ingestSlowdown := ingestMultiNs / ingestSingleNs
	projSlowdown := projMultiNs / projSingleNs
	sigNames := make([]string, len(multi))
	for i, sc := range multi {
		sigNames[i] = sc.Signal.Name()
	}
	report := map[string]any{
		"benchmark": "multi-signal-overhead",
		"corpus": benchRuntime(map[string]any{
			"comments":     len(d.Comments),
			"authors":      d.Authors.Len(),
			"urls":         d.NumURLs,
			"tags":         d.NumTags,
			"span_days":    14,
			"horizon_sec":  signalsBenchHorizon,
			"multi_signal": sigNames,
		}, 0),
		"ingest": map[string]any{
			"single_ms":          ingestSingleNs / 1e6,
			"multi_ms":           ingestMultiNs / 1e6,
			"single_comments_s":  ingestSingleTput,
			"multi_comments_s":   ingestMultiTput,
			"single_allocs":      ingestSingleAllocs,
			"multi_allocs":       ingestMultiAllocs,
			"slowdown":           ingestSlowdown,
			"slowdown_per_added": ingestSlowdown / float64(added),
			"added_signals":      added,
		},
		"projection": map[string]any{
			"single_ms":          projSingleNs / 1e6,
			"multi_ms":           projMultiNs / 1e6,
			"single_comments_s":  projSingleTput,
			"multi_comments_s":   projMultiTput,
			"single_allocs":      projSingleAllocs,
			"multi_allocs":       projMultiAllocs,
			"slowdown":           projSlowdown,
			"slowdown_per_added": projSlowdown / float64(added),
			"added_signals":      added,
		},
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("ingest %.0f -> %.0f comments/s (%.2fx, %.2fx per added signal); projection %.0f -> %.0f comments/s (%.2fx, %.2fx per added signal) -> %s",
		ingestSingleTput, ingestMultiTput, ingestSlowdown, ingestSlowdown/float64(added),
		projSingleTput, projMultiTput, projSlowdown, projSlowdown/float64(added), out)
	if perAdded := ingestSlowdown / float64(added); perAdded > 2.0 {
		t.Errorf("multi-signal ingest slowdown %.2fx per added signal exceeds the 2x bar", perAdded)
	}
	if perAdded := projSlowdown / float64(added); perAdded > 2.0 {
		t.Errorf("multi-signal projection slowdown %.2fx per added signal exceeds the 2x bar", perAdded)
	}
}
