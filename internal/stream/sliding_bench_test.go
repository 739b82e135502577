package stream

import (
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
)

// BenchmarkSlidingAddBatch is a daemon's warm-up ingest with the kernel
// alone: a fresh projector takes a whole corpus in 2000-comment batches,
// window growth, eviction and object GC included. It reports ns and
// lease-table lookups per comment, and the bytes of lease and incident
// tables held at the end.
//
//   - four-signals: the multi-signal campaign corpus through
//     cocomment, urlshare, hashtag and reply over a seven-day horizon.
//   - hot-object: one object holding most live leases — a thread a few
//     hundred authors comment on every second, beside a sparse background
//     over two thousand objects.
func BenchmarkSlidingAddBatch(b *testing.B) {
	w := projection.Window{Min: 0, Max: 60}
	four, err := projection.ParseSignals("cocomment,urlshare,hashtag,reply", w)
	if err != nil {
		b.Fatal(err)
	}
	var fourCfg []SignalConfig
	for _, sg := range four {
		fourCfg = append(fourCfg, SignalConfig{Signal: sg})
	}
	campaign := redditgen.Generate(redditgen.MultiSignalCampaign(1))
	cases := []struct {
		name     string
		sigs     []SignalConfig
		horizon  int64
		comments []graph.Comment
		exclude  map[graph.VertexID]bool
	}{
		{"four-signals", fourCfg, 7 * 24 * 3600, campaign.Comments, campaign.Helpers},
		{"hot-object", []SignalConfig{{Signal: projection.CoComment{W: w}}}, 3600, hotObjectStream(40_000), nil},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var probes int64
			var bytes int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := NewMultiSlidingProjectorWorkers(tc.sigs, tc.horizon, projection.Options{Exclude: tc.exclude}, 0, 1)
				if err != nil {
					b.Fatal(err)
				}
				for lo := 0; lo < len(tc.comments); lo += 2000 {
					if err := p.AddBatch(tc.comments[lo:min(lo+2000, len(tc.comments))]); err != nil {
						b.Fatal(err)
					}
				}
				for si := range p.cells {
					probes += p.cells[si].probes
				}
				bytes = p.leaseTableBytes()
			}
			n := float64(b.N) * float64(len(tc.comments))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/comment")
			b.ReportMetric(float64(probes)/n, "probes/comment")
			b.ReportMetric(float64(bytes), "table-bytes")
		})
	}
}

// leaseTableBytes is the slot memory of every lease and incident table the
// projector holds, free slab slots' kept tables included.
func (p *SlidingProjector) leaseTableBytes() int {
	n := 0
	for si := range p.cells {
		for pi := range p.cells[si].pages {
			ps := &p.cells[si].pages[pi]
			n += 16 * (len(ps.leases.slots) + len(ps.incident.slots))
		}
	}
	return n
}

// hotObjectStream is n time-ordered comments: per second, one on object 0
// by one of 400 authors and one on one of 2000 background objects by one of
// 3000 others.
func hotObjectStream(n int) []graph.Comment {
	out := make([]graph.Comment, 0, n)
	x := uint64(1)
	next := func(k uint64) graph.VertexID {
		x = x*6364136223846793005 + 1442695040888963407
		return graph.VertexID((x >> 33) % k)
	}
	for ts := int64(0); len(out) < n; ts++ {
		out = append(out,
			graph.Comment{Author: next(400), Page: 0, TS: ts},
			graph.Comment{Author: 400 + next(3000), Page: 1 + next(2000), TS: ts})
	}
	return out[:n]
}
