package pipeline

import (
	"sync"
	"testing"

	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
)

// concurrencyDataset builds a small corpus with helpers to exclude and a
// planted ring so the runs produce non-trivial triangle sets.
func concurrencyDataset() *redditgen.Dataset {
	return redditgen.Generate(redditgen.Config{
		Seed:  99,
		Start: 0,
		End:   5 * 24 * 3600,
		Organic: redditgen.OrganicConfig{
			Authors: 400, Pages: 200, Comments: 9000,
			PageHalfLife: 2 * 3600, DeletedFraction: 0.02,
		},
		Botnets: []redditgen.BotnetSpec{{
			Kind: redditgen.ReshareRing, Name: "ring",
			Bots: 8, Pages: 40, SubsetSize: 6,
			MinDelay: 1, MaxDelay: 5,
		}},
		AutoModerator: true,
	})
}

// TestRunConcurrentSharedBTM runs the full pipeline with Exclude from two
// goroutines against one shared BTM, concurrently with RunOnCI snapshot
// surveys of a shared CI graph. The BTM is read-only after construction
// (its lazy timed index is sync.Once-guarded) and Run must not mutate it;
// this test is the -race witness for that contract, which detectd relies
// on when survey cycles overlap ingestion.
func TestRunConcurrentSharedBTM(t *testing.T) {
	ds := concurrencyDataset()
	btm := ds.BTM()
	cfg := Config{
		Window:            projection.Window{Min: 0, Max: 60},
		MinTriangleWeight: 10,
		Exclude:           ds.Helpers,
	}

	ref, err := Run(btm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Triangles) == 0 {
		t.Fatal("reference run found no triangles; dataset too weak for the test")
	}
	snapCI := ref.CI // shared, read-only snapshot surveyed concurrently below

	const workers = 2
	results := make([]*Result, workers)
	snaps := make([]*Result, workers)
	var wg sync.WaitGroup
	errs := make(chan error, workers*2)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := Run(btm, cfg)
			if err != nil {
				errs <- err
				return
			}
			results[i] = r
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := RunOnCI(snapCI, btm, cfg)
			if err != nil {
				errs <- err
				return
			}
			snaps[i] = r
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i, r := range append(results, snaps...) {
		if !r.CI.Equal(ref.CI) {
			t.Fatalf("run %d: CI graph differs from reference", i)
		}
		if len(r.Triangles) != len(ref.Triangles) {
			t.Fatalf("run %d: %d triangles, reference has %d", i, len(r.Triangles), len(ref.Triangles))
		}
		for j := range r.Triangles {
			if r.Triangles[j].Triangle != ref.Triangles[j].Triangle ||
				r.Triangles[j].Hyper != ref.Triangles[j].Hyper {
				t.Fatalf("run %d: triangle %d differs: %+v vs %+v",
					i, j, r.Triangles[j], ref.Triangles[j])
			}
		}
	}

	// Excluded helpers must never surface in any run's detections.
	for _, r := range append(results, snaps...) {
		for a := range r.FlaggedAuthors() {
			if ds.Helpers[a] {
				t.Fatalf("excluded helper %d flagged", a)
			}
		}
	}
}
