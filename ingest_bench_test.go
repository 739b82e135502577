package coordbot_test

// Ingest fast-path benchmarks: end-to-end cost of one ingest body — wire
// decode, batch interning, and sliding-projector apply — via
// Service.IngestBytes, the embedding equivalent of POST /v1/ingest.
// Unlike BenchmarkDetectdIngest (which applies pre-interned comments),
// these start from the bytes a client actually sends, in both wire
// formats. Run with
//
//	go test -bench BenchmarkIngest -benchmem .
//
// or record BENCH_ingest.json with
//
//	BENCH_INGEST_OUT=BENCH_ingest.json go test -run TestWriteIngestBench -v .

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"coordbot/internal/detectd"
	"coordbot/internal/redditgen"
	"coordbot/internal/wire"
)

// ingestBenchBodies pre-encodes the corpus into 512-comment request
// bodies in one wire format, outside the timed region.
func ingestBenchBodies(d *redditgen.Dataset, frame bool) (bodies [][]byte, total int) {
	const size = 512
	enc := wire.NewEncoder()
	var buf bytes.Buffer
	for lo := 0; lo < len(d.Comments); lo += size {
		hi := lo + size
		if hi > len(d.Comments) {
			hi = len(d.Comments)
		}
		if frame {
			enc.Reset()
			for _, c := range d.Comments[lo:hi] {
				enc.Add(d.Authors.Name(c.Author), fmt.Sprintf("p%d", c.Page), c.TS)
			}
			bodies = append(bodies, append([]byte(nil), enc.Bytes()...))
		} else {
			buf.Reset()
			buf.WriteByte('[')
			for i, c := range d.Comments[lo:hi] {
				if i > 0 {
					buf.WriteByte(',')
				}
				fmt.Fprintf(&buf, `{"author":%q,"page":"p%d","ts":%d}`,
					d.Authors.Name(c.Author), c.Page, c.TS)
			}
			buf.WriteByte(']')
			bodies = append(bodies, append([]byte(nil), buf.Bytes()...))
		}
	}
	return bodies, len(d.Comments)
}

// benchmarkIngest replays the pre-encoded bodies through a fresh service
// per pass: the full decode → intern → project pipeline, steady-state
// eviction included (14-day corpus, 6-hour horizon).
func benchmarkIngest(b *testing.B, frame bool) {
	d := corpusOf(detectdBenchComments)
	bodies, total := ingestBenchBodies(d, frame)
	contentType := "application/json"
	if frame {
		contentType = wire.ContentTypeFrame
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := detectd.NewService(detectdBenchConfig(false))
		if err != nil {
			b.Fatal(err)
		}
		for _, body := range bodies {
			if _, err := s.IngestBytes(contentType, body); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "comments/s")
}

func BenchmarkIngestJSONSerial(b *testing.B)  { benchmarkIngest(b, false) }
func BenchmarkIngestFrameSerial(b *testing.B) { benchmarkIngest(b, true) }

// ingestBaselineCommentsPerSec is the pre-fast-path ingest throughput
// recorded in BENCH_detectd.json at the previous release (per-comment
// json.Decoder, per-string interning, heap-based eviction).
const ingestBaselineCommentsPerSec = 204768.28

// TestWriteIngestBench records the ingest fast-path benchmarks to the
// JSON file named by BENCH_INGEST_OUT (skipped otherwise):
//
//	BENCH_INGEST_OUT=BENCH_ingest.json go test -run TestWriteIngestBench -v .
//
// It also enforces the fast path's allocation budget: a pass — a fresh
// service growing its window to working size, then steady state — must
// stay at or under 0.4 heap allocations per comment (measured 0.24, plus
// two thirds).
func TestWriteIngestBench(t *testing.T) {
	out := os.Getenv("BENCH_INGEST_OUT")
	if out == "" {
		t.Skip("set BENCH_INGEST_OUT=<path> to record the ingest benchmark")
	}
	d := corpusOf(detectdBenchComments)
	total := float64(len(d.Comments))
	variants := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"json_serial", BenchmarkIngestJSONSerial},
		{"frame_serial", BenchmarkIngestFrameSerial},
	}
	results := map[string]any{}
	best := 0.0
	for _, v := range variants {
		r := testing.Benchmark(v.fn)
		cps := r.Extra["comments/s"]
		apc := float64(r.AllocsPerOp()) / total
		bpc := float64(r.AllocedBytesPerOp()) / total
		results[v.name] = map[string]any{
			"comments_per_sec":   cps,
			"allocs_per_comment": apc,
			"bytes_per_comment":  bpc,
			"passes":             r.N,
		}
		if cps > best {
			best = cps
		}
		t.Logf("%s: %.0f comments/s, %.2f allocs/comment, %.0f B/comment",
			v.name, cps, apc, bpc)
		if apc > 0.4 {
			t.Errorf("%s: %.2f allocs/comment exceeds the budget of 0.4", v.name, apc)
		}
	}
	report := map[string]any{
		"benchmark": "ingest",
		"corpus": benchRuntime(map[string]any{
			"comments":    len(d.Comments),
			"span_days":   14,
			"horizon_sec": 6 * 3600,
			"window_sec":  60,
			"batch_size":  512,
		}, 0),
		"variants":                  results,
		"baseline_comments_per_sec": ingestBaselineCommentsPerSec,
		"best_comments_per_sec":     best,
		"speedup_vs_baseline":       best / ingestBaselineCommentsPerSec,
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("best %.0f comments/s (%.2fx baseline %.0f) -> %s",
		best, best/ingestBaselineCommentsPerSec, ingestBaselineCommentsPerSec, out)
}
