package detectd

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
)

// TestDaemonEndToEnd is the acceptance test for the daemon: a redditgen
// sockpuppet stream is fed through POST /v1/ingest (batched, with 429
// retry), and the planted botnet must surface in /v1/triangles within two
// survey cycles of the stream completing.
func TestDaemonEndToEnd(t *testing.T) {
	ds := redditgen.Generate(redditgen.Config{
		Seed:  7,
		Start: 0,
		End:   2 * 24 * 3600,
		Organic: redditgen.OrganicConfig{
			Authors: 80, Pages: 50, Comments: 2000,
			PageHalfLife: 2 * 3600, DeletedFraction: 0.02,
		},
		Botnets: []redditgen.BotnetSpec{{
			Kind: redditgen.SockpuppetChain, Name: "pups",
			Bots: 3, Pages: 40, SubsetSize: 3,
			MinDelay: 5, MaxDelay: 25,
		}},
		AutoModerator: true,
	})
	puppets := make(map[string]bool)
	for _, id := range ds.Truth["pups"] {
		puppets[ds.Authors.Name(id)] = true
	}
	if len(puppets) != 3 {
		t.Fatalf("expected 3 puppets, got %v", puppets)
	}

	s, err := NewService(Config{
		Window:             projection.Window{Min: 0, Max: 60},
		Horizon:            3 * 24 * 3600,
		SurveyInterval:     50 * time.Millisecond,
		MinTriangleWeight:  10,
		MinTScore:          0.5,
		ValidateHypergraph: true,
		Exclude:            []string{"AutoModerator", "[deleted]"},
		QueueSize:          16,
		ClampLate:          true,
	})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	defer s.Close()

	// Stream the dataset over the wire in batches, honoring backpressure.
	const batchSize = 250
	total := len(ds.Comments)
	for lo := 0; lo < total; lo += batchSize {
		hi := lo + batchSize
		if hi > total {
			hi = total
		}
		var sb strings.Builder
		sb.WriteString("[")
		for i, c := range ds.Comments[lo:hi] {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, `{"author":%q,"page":"p%d","ts":%d}`,
				ds.Authors.Name(c.Author), c.Page, c.TS)
		}
		sb.WriteString("]")
		for attempt := 0; ; attempt++ {
			resp, err := http.Post(srv.URL+"/v1/ingest", "application/json",
				strings.NewReader(sb.String()))
			if err != nil {
				t.Fatal(err)
			}
			code := resp.StatusCode
			resp.Body.Close()
			if code == http.StatusAccepted {
				break
			}
			if code != http.StatusTooManyRequests {
				t.Fatalf("ingest batch at %d: status %d", lo, code)
			}
			if attempt > 1000 {
				t.Fatalf("ingest batch at %d: backpressure never cleared", lo)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Wait for the worker to drain the queue.
	deadline := time.Now().Add(10 * time.Second)
	for s.ingested.Load()+s.dropped.Load() < int64(total) {
		if time.Now().After(deadline) {
			t.Fatalf("ingest stalled: %d/%d", s.ingested.Load(), total)
		}
		time.Sleep(2 * time.Millisecond)
	}
	ingestDoneCycle := s.Cycles()

	// The planted trio must appear within two full survey cycles from here.
	var found *TriangleOut
	var foundCycle int64
	for time.Now().Before(deadline) && found == nil {
		resp, err := http.Get(srv.URL + "/v1/triangles")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			out := decodeBody[TrianglesOut](t, resp)
			for i, tr := range out.Triangles {
				if puppets[tr.Authors[0]] && puppets[tr.Authors[1]] && puppets[tr.Authors[2]] {
					found = &out.Triangles[i]
					foundCycle = out.Cycle
					break
				}
			}
			if found == nil && out.Cycle > ingestDoneCycle+2 {
				t.Fatalf("botnet not detected by cycle %d (ingest done at cycle %d); %d triangles published",
					out.Cycle, ingestDoneCycle, out.Total)
			}
		} else {
			resp.Body.Close()
		}
		if found == nil {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if found == nil {
		t.Fatal("botnet never surfaced in /v1/triangles")
	}
	if foundCycle > ingestDoneCycle+2 {
		t.Fatalf("detected at cycle %d, later than two cycles after ingest (%d)",
			foundCycle, ingestDoneCycle)
	}
	if found.T < 0.5 {
		t.Fatalf("planted trio T=%.3f below threshold", found.T)
	}
	if found.WXYZ == nil || *found.WXYZ < 1 {
		t.Fatalf("planted trio failed hypergraph validation: %+v", found)
	}

	// No benign author may ride along in the same triangle.
	for _, a := range found.Authors {
		if !puppets[a] {
			t.Fatalf("non-puppet %q in detected triangle %v", a, found.Authors)
		}
	}

	// The score endpoint agrees with the survey about the trio.
	names := make([]string, 0, 3)
	for n := range puppets {
		names = append(names, n)
	}
	resp, err := http.Get(srv.URL + "/v1/score?users=" + strings.Join(names, ","))
	if err != nil {
		t.Fatal(err)
	}
	score := decodeBody[ScoreOut](t, resp)
	if score.Cycle < foundCycle {
		t.Fatalf("score answers for cycle %d, before the detecting cycle %d", score.Cycle, foundCycle)
	}
	if score.T == nil || *score.T < 0.5 {
		t.Fatalf("score for planted trio = %v, want >= 0.5", score.T)
	}
}
