// Daemon example: start the detectd streaming service in-process, feed it
// a synthetic sockpuppet stream over its own HTTP ingest endpoint, poll
// the query API, and print the detected triplets.
//
//	go run ./examples/daemon
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"time"

	"coordbot/internal/detectd"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
	"coordbot/internal/wire"
)

func main() {
	// 1. Two days of synthetic traffic with a planted sockpuppet cast:
	//    three accounts staging threaded exchanges on organic pages.
	dataset := redditgen.Generate(redditgen.Config{
		Seed:  11,
		Start: 0,
		End:   2 * 24 * 3600,
		Organic: redditgen.OrganicConfig{
			Authors: 120, Pages: 60, Comments: 3000,
			PageHalfLife: 2 * 3600,
		},
		Botnets: []redditgen.BotnetSpec{{
			Kind: redditgen.SockpuppetChain, Name: "pups",
			Bots: 3, Pages: 40, SubsetSize: 3,
			MinDelay: 5, MaxDelay: 25,
		}},
		AutoModerator: true,
	})
	fmt.Printf("dataset: %d comments, %d authors, %d pages\n",
		len(dataset.Comments), dataset.Authors.Len(), dataset.NumPages)

	// 2. The daemon: sliding 3-day horizon, fast survey cadence so the
	//    example finishes quickly. In production run `coordbotd` instead
	//    and point the same HTTP calls at it.
	svc, err := detectd.NewService(detectd.Config{
		Window:             projection.Window{Min: 0, Max: 60},
		Horizon:            3 * 24 * 3600,
		SurveyInterval:     100 * time.Millisecond,
		MinTriangleWeight:  10,
		MinTScore:          0.5,
		ValidateHypergraph: true,
		Exclude:            []string{"AutoModerator", "[deleted]"},
		Shards:             32,
	})
	if err != nil {
		log.Fatal(err)
	}
	svc.Start()
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	fmt.Printf("daemon: listening at %s\n", srv.URL)

	// 3. Stream the dataset through POST /v1/ingest in batches, retrying
	//    on 429 (the daemon pushes back when its queue is full). Batches
	//    go as binary frames (wire.Encoder + the x-coordbot-frame content
	//    type) — no JSON escaping or parsing on either side; a plain JSON
	//    array body would work identically.
	const batchSize = 500
	enc := wire.NewEncoder()
	for lo := 0; lo < len(dataset.Comments); lo += batchSize {
		hi := lo + batchSize
		if hi > len(dataset.Comments) {
			hi = len(dataset.Comments)
		}
		enc.Reset()
		for _, c := range dataset.Comments[lo:hi] {
			enc.Add(dataset.Authors.Name(c.Author), fmt.Sprintf("p%d", c.Page), c.TS)
		}
		for {
			resp, err := http.Post(srv.URL+"/v1/ingest", wire.ContentTypeFrame,
				bytes.NewReader(enc.Bytes()))
			if err != nil {
				log.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode == http.StatusAccepted {
				break
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				log.Fatalf("ingest: unexpected status %d", resp.StatusCode)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// 4. Wait for the stream to drain, then for a survey that started
	//    after it: the reads below answer from the latest published
	//    cycle, and only such a cycle has seen every comment. (A cycle
	//    already running at the drain may lack the last batch.)
	for svc.Ingested() < int64(len(dataset.Comments)) {
		time.Sleep(5 * time.Millisecond)
	}
	drained := time.Now()
	for sr := svc.Latest(); sr == nil || !sr.TakenAt.After(drained); sr = svc.Latest() {
		time.Sleep(10 * time.Millisecond)
	}

	// 5. Query the API like any other client would.
	var stats detectd.StatsOut
	get(srv.URL+"/v1/stats", &stats)
	fmt.Printf("stats: ingested=%d live_edges=%d shards=%d cycles=%d (reused %d) last_survey=%.1fms\n",
		stats.Ingested, stats.LiveEdges, stats.Shards, stats.Cycles,
		stats.SurveysReused, stats.LastSurveyMS)

	var tris detectd.TrianglesOut
	get(srv.URL+"/v1/triangles?min_t=0.5", &tris)
	fmt.Printf("detected triplets (cycle %d, %d total):\n", tris.Cycle, tris.Total)
	for _, tr := range tris.Triangles {
		fmt.Printf("  (%s, %s, %s)  min weight %d, T=%.2f",
			tr.Authors[0], tr.Authors[1], tr.Authors[2], tr.MinWeight, tr.T)
		if tr.WXYZ != nil {
			fmt.Printf(", w_xyz=%d, C=%.2f", *tr.WXYZ, *tr.C)
		}
		fmt.Println()
	}

	var score detectd.ScoreOut
	get(srv.URL+"/v1/score?users=pups_000,pups_001,pups_002", &score)
	if score.T != nil {
		fmt.Printf("live score for the cast: min weight %d, T=%.2f\n",
			*score.MinWeight, *score.T)
	}
}

func get(url string, v any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		log.Fatal(err)
	}
}
