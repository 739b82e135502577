// Tests for the clustering stage of the survey loop: warm-started
// partitions must be byte-identical to a cold Leiden run over the same
// published snapshot (the community layer's core invariant), and the
// /v1/communities endpoint must stay consistent under concurrent ingest
// (run under -race in `make check`).
package detectd

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"coordbot/internal/community"
	"coordbot/internal/redditgen"
)

func communityConfig() Config {
	cfg := deltaConfig()
	cfg.Communities = true
	cfg.Community = community.Config{MinSize: 2}
	return cfg
}

// TestWarmCommunitiesMatchCold is the property behind the warm start:
// drive the daemon with randomized batches long enough to churn the
// sliding window (so shards go dirty from both ingest and eviction), and
// require every published partition to equal a cold Detect over the same
// thresholded snapshot. The warm path must also demonstrably engage —
// across the run some components are reused verbatim, others re-clustered.
func TestWarmCommunitiesMatchCold(t *testing.T) {
	ds := redditgen.Generate(redditgen.Config{
		Seed:  31,
		Start: 0,
		End:   2 * 24 * 3600,
		Organic: redditgen.OrganicConfig{
			Authors: 80, Pages: 40, Comments: 2500, PageHalfLife: 2 * 3600,
		},
		Botnets: []redditgen.BotnetSpec{
			{
				Kind: redditgen.SockpuppetChain, Name: "pups",
				Bots: 3, Pages: 30, SubsetSize: 3,
				MinDelay: 5, MaxDelay: 25,
			},
			{
				Kind: redditgen.GPT2Ring, Name: "ring",
				Bots: 8, Pages: 60, SubsetSize: 5,
				MinDelay: 0, MaxDelay: 30,
			},
		},
	})
	cfg := communityConfig()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ccfg := cfg.Community.Defaults()
	rng := rand.New(rand.NewSource(7))
	var surveyed, reused, clustered int
	for lo := 0; lo < len(ds.Comments); {
		hi := lo + rng.Intn(200) + 1
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
		if sr.Result.Partition == nil {
			t.Fatalf("cycle %d published no partition", sr.Cycle)
		}
		cold := community.Detect(sr.Result.Thresholded, ccfg)
		if !reflect.DeepEqual(sr.Result.Partition.Communities, cold.Communities) {
			t.Fatalf("cycle %d: warm partition differs from cold Detect (warm %d communities, cold %d)",
				sr.Cycle, len(sr.Result.Partition.Communities), len(cold.Communities))
		}
		reused += sr.ReusedComponents
		clustered += sr.ClusteredComponents
	}
	if surveyed < 10 {
		t.Fatalf("stream too short: only %d live cycles", surveyed)
	}
	if reused == 0 {
		t.Fatal("warm path never reused a component — cache inert")
	}
	if clustered == 0 {
		t.Fatal("no component was ever re-clustered — churn not exercised")
	}
}

// TestIngestDuringCommunitiesQuery hammers /v1/communities over HTTP
// while batches stream in and survey cycles run concurrently; every
// response must be well-formed (200 with a decodable body, or 404 before
// the first partition exists). Detects torn reads under -race.
func TestIngestDuringCommunitiesQuery(t *testing.T) {
	ds := snapshotDataset()
	cfg := communityConfig()
	s, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.SurveyNow(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + "/v1/communities?min_c=0.1&limit=5")
				if err != nil {
					t.Error(err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
					var out CommunitiesOut
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
						t.Errorf("decode /v1/communities: %v", err)
					}
					for _, c := range out.Communities {
						if c.Size < cfg.Community.MinSize {
							t.Errorf("community %d smaller than min size: %d", c.ID, c.Size)
						}
					}
				case http.StatusNotFound: // no partition published yet
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
				resp.Body.Close()
				if t.Failed() {
					return
				}
			}
		}()
	}
	const batch = 100
	for lo := 0; lo < len(ds.Comments); lo += batch {
		hi := lo + batch
		if hi > len(ds.Comments) {
			hi = len(ds.Comments)
		}
		s.Apply(ds.Comments[lo:hi])
	}
	close(stop)
	wg.Wait()

	// Quiescent check: the final survey's partition equals cold Detect.
	sr, err := s.SurveyNow()
	if err != nil {
		t.Fatal(err)
	}
	if sr.Result.Partition == nil {
		t.Fatal("no partition after full stream")
	}
	cold := community.Detect(sr.Result.Thresholded, cfg.Community.Defaults())
	if !reflect.DeepEqual(sr.Result.Partition.Communities, cold.Communities) {
		t.Fatal("final warm partition differs from cold Detect")
	}
	// ?limit=n returns the first n rows, none for n = 0; total counts all.
	for _, limit := range []int{0, 1} {
		resp, err := http.Get(fmt.Sprintf("%s/v1/communities?limit=%d", srv.URL, limit))
		if err != nil {
			t.Fatal(err)
		}
		var out CommunitiesOut
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || len(out.Communities) != limit || out.Total < 2 {
			t.Fatalf("?limit=%d: %d rows of %d (%v)", limit, len(out.Communities), out.Total, err)
		}
	}
}
