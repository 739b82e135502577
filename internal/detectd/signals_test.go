// Tests for the daemon in multi-signal mode: with three coordination
// signals fused into one live graph, the incremental survey machinery —
// dirty-shard deltas, cached triangles, patched orientation — must keep
// publishing results byte-identical to a full batch survey of each
// cycle's snapshot, and the HTTP surface must report the per-signal
// counters and signal mixes.
package detectd

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
	"coordbot/internal/stream"
)

func multiSignalConfig() Config {
	cfg := deltaConfig()
	cfg.Signals = []stream.SignalConfig{
		{Signal: projection.CoComment{W: projection.Window{Min: 0, Max: 60}}},
		{Signal: projection.URLShare{W: projection.Window{Min: 0, Max: 300}}},
		{Signal: projection.ReplyTarget{W: projection.Window{Min: 0, Max: 120}}, Horizon: 6 * 3600},
	}
	return cfg
}

func multiSignalDataset(scale float64) *redditgen.Dataset {
	return redditgen.Generate(redditgen.MultiSignalCampaign(scale))
}

// TestMultiSignalDeltaMatchesFullOracle extends the delta-survey tentpole
// to a three-signal daemon: randomized ingest batches over a stream that
// churns all three signals' horizons, a survey after every batch, and
// every published cycle byte-identical to the full batch survey of its
// own merged snapshot — while the delta path, triangle cache, and
// persistent orientation demonstrably engage.
func TestMultiSignalDeltaMatchesFullOracle(t *testing.T) {
	ds := multiSignalDataset(0.04)
	cfg := multiSignalConfig()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	var surveyed int
	for lo := 0; lo < len(ds.Comments); {
		hi := lo + rng.Intn(250) + 1
		if hi > len(ds.Comments) {
			hi = len(ds.Comments)
		}
		s.Apply(ds.Comments[lo:hi])
		lo = hi
		sr, err := s.SurveyNow()
		if err != nil {
			t.Fatal(err)
		}
		if sr.Reused {
			continue
		}
		surveyed++
		if surveyed > 1 && !sr.Result.Survey.Delta {
			t.Fatalf("cycle %d fell back to a full resurvey", sr.Cycle)
		}
		surveysEqual(t, sr.Cycle, sr.Result, surveyOracle(t, cfg, sr))
		if width := len(sr.snap.SignalMix(nil)); width != len(cfg.Signals) {
			t.Fatalf("cycle %d: snapshot breakdown width %d, want %d",
				sr.Cycle, width, len(cfg.Signals))
		}
	}
	if surveyed < 10 {
		t.Fatalf("stream too short: only %d live cycles", surveyed)
	}
	last := s.Latest()
	if tot := last.totals; tot.delta == 0 || tot.full != 1 {
		t.Fatalf("path split wrong: %d delta, %d full", tot.delta, tot.full)
	}
	if last.Result.Survey.OrientPatchedEdges == 0 {
		t.Fatal("multi-signal eviction waves never patched the persistent orientation")
	}
}

// TestMultiSignalHTTPSurface drives a two-signal daemon over the wire:
// NDJSON ingest with URL attributes, then /v1/stats must expose one
// counter block per signal and /v1/score must attribute the flagged
// group's weight to the signals that produced it.
func TestMultiSignalHTTPSurface(t *testing.T) {
	s, err := NewService(Config{
		Window: projection.Window{Min: 0, Max: 60},
		Signals: []stream.SignalConfig{
			{Signal: projection.CoComment{W: projection.Window{Min: 0, Max: 60}}},
			{Signal: projection.URLShare{W: projection.Window{Min: 0, Max: 300}}},
		},
		Horizon:           24 * 3600,
		MinTriangleWeight: 2,
		QueueSize:         16,
		ClampLate:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Close()

	// Ten waves of three accounts hitting a fresh page AND sharing a fresh
	// URL per wave: pairwise weight 10 from each signal.
	var sb strings.Builder
	total := 0
	for wave := 0; wave < 10; wave++ {
		for i, a := range []string{"alfa", "bravo", "charlie"} {
			fmt.Fprintf(&sb, "{\"author\":%q,\"page\":\"p%d\",\"ts\":%d,\"urls\":[\"u%d\"]}\n",
				a, wave, wave*1000+i*10, wave)
			total++
		}
	}
	resp, err := http.Post(srv.URL+"/v1/ingest", "application/x-ndjson", strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for s.ingested.Load() < int64(total) {
		if time.Now().After(deadline) {
			t.Fatalf("ingest stalled: %d/%d", s.ingested.Load(), total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, err := s.SurveyNow(); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	stats := decodeBody[StatsOut](t, resp)
	if len(stats.Signals) != 2 {
		t.Fatalf("stats reports %d signals, want 2", len(stats.Signals))
	}
	for _, want := range []struct {
		name string
		max  int64
	}{{"cocomment", 60}, {"urlshare", 300}} {
		var found *SignalStatsOut
		for i := range stats.Signals {
			if stats.Signals[i].Name == want.name {
				found = &stats.Signals[i]
			}
		}
		if found == nil {
			t.Fatalf("signal %s missing from /v1/stats: %+v", want.name, stats.Signals)
		}
		if found.WindowMax != want.max {
			t.Fatalf("signal %s: window max %d, want %d", want.name, found.WindowMax, want.max)
		}
		if found.LivePairs != 30 { // 3 pairs x 10 objects, nothing evicted
			t.Fatalf("signal %s: %d live pairs, want 30", want.name, found.LivePairs)
		}
		if found.RingEntries != 30 || found.Rearmed != 0 {
			t.Fatalf("signal %s: %d ring entries, %d rearmed; want 30, 0", want.name, found.RingEntries, found.Rearmed)
		}
	}

	resp, err = http.Get(srv.URL + "/v1/score?users=alfa,bravo,charlie")
	if err != nil {
		t.Fatal(err)
	}
	score := decodeBody[ScoreOut](t, resp)
	if score.Signals == nil {
		t.Fatalf("score carries no signal mix: %+v", score)
	}
	// 3 unordered pairs x 10 objects per signal.
	if score.Signals["cocomment"] != 30 || score.Signals["urlshare"] != 30 {
		t.Fatalf("signal mix %v, want cocomment=30 urlshare=30", score.Signals)
	}
}
