package stream

import (
	"math/rand"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
)

// newSliding is the projector most tests here drive: Algorithm 1 over
// window w (the single co-comment signal) on the default shard count.
func newSliding(w projection.Window, horizon int64, opts projection.Options) (*SlidingProjector, error) {
	return NewMultiSlidingProjectorWorkers([]SignalConfig{{Signal: projection.CoComment{W: w}}}, horizon, opts, 0, 1)
}

// numObjectStates counts retained object states across signals (tests pin
// the GC behaviour with it).
func (p *SlidingProjector) numObjectStates() int {
	n := 0
	for si := range p.cells {
		n += len(p.cells[si].objects)
	}
	return n
}

// restrictedBatch projects, with the batch reference implementation, only
// the comments still inside the horizon at watermark: TS > watermark-H.
func restrictedBatch(t *testing.T, comments []graph.Comment, w projection.Window, watermark, horizon int64) *graph.CIGraph {
	t.Helper()
	var kept []graph.Comment
	for _, c := range comments {
		if c.TS > watermark-horizon {
			kept = append(kept, c)
		}
	}
	b := graph.BuildBTM(kept, 0, 0)
	g, err := projection.ProjectSequential(b, w, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestSlidingMatchesBatchRestricted is the tentpole property: at every
// checkpoint of a realistic stream, the sliding projector's live graph
// equals the batch projection of exactly the trailing-horizon comments.
func TestSlidingMatchesBatchRestricted(t *testing.T) {
	ds := redditgen.Generate(redditgen.Config{
		Seed:  42,
		Start: 0,
		End:   4 * 24 * 3600,
		Organic: redditgen.OrganicConfig{
			Authors: 300, Pages: 120, Comments: 8000,
			PageHalfLife: 2 * 3600, DeletedFraction: 0.02,
		},
		Botnets: []redditgen.BotnetSpec{{
			Kind: redditgen.SockpuppetChain, Name: "pups",
			Bots: 4, Pages: 30, SubsetSize: 3,
			MinDelay: 5, MaxDelay: 40,
		}},
		AutoModerator: true,
	})
	for _, tc := range []struct {
		name    string
		w       projection.Window
		horizon int64
	}{
		{"short-window-6h-horizon", projection.Window{Min: 0, Max: 60}, 6 * 3600},
		{"min-delay-window", projection.Window{Min: 10, Max: 300}, 12 * 3600},
		// horizon < w.Max: supports are born dead past the horizon, and a
		// batch drains on the horizon's cadence, not the window's.
		{"horizon-shorter-than-window", projection.Window{Min: 0, Max: 3600}, 600},
		{"horizon-shorter-than-window-min-delay", projection.Window{Min: 5, Max: 900}, 300},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := newSliding(tc.w, tc.horizon, projection.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// b takes the same stream through AddBatch, where expiry is read
			// off the leases between drains.
			b, err := newSliding(tc.w, tc.horizon, projection.Options{})
			if err != nil {
				t.Fatal(err)
			}
			step := len(ds.Comments) / 7
			fed := 0
			for i, c := range ds.Comments {
				if err := p.Add(c); err != nil {
					t.Fatal(err)
				}
				if i%50 == 0 {
					checkWindowState(t, p)
				}
				if i%step == step-1 {
					want := restrictedBatch(t, ds.Comments[:i+1], tc.w, p.Watermark(), tc.horizon)
					got := p.Snapshot()
					if !got.Equal(want) {
						t.Fatalf("checkpoint %d (watermark %d): sliding graph (%d edges) != batch restricted (%d edges)",
							i, p.Watermark(), got.NumEdges(), want.NumEdges())
					}
					// One small batch, then the rest of the step in one.
					for _, end := range []int{fed + 17, i + 1} {
						if err := b.AddBatch(ds.Comments[fed:end]); err != nil {
							t.Fatal(err)
						}
						fed = end
						checkWindowState(t, b)
					}
					if !b.Snapshot().Equal(want) {
						t.Fatalf("checkpoint %d: batch-fed sliding graph != batch restricted", i)
					}
					compareGauges(t, i, p, b)
				}
			}
			// Drain: advance far past the horizon; everything must decay.
			if err := p.AdvanceTo(p.Watermark() + tc.horizon + 1); err != nil {
				t.Fatal(err)
			}
			if n := p.Snapshot().NumEdges(); n != 0 {
				t.Fatalf("graph not empty after full decay: %d edges", n)
			}
			if p.LivePairs() != 0 {
				t.Fatalf("live pairs not zero after decay: %d", p.LivePairs())
			}
		})
	}
}

// TestSlidingMatchesBatchRandomStream fuzzes the equivalence with bursty
// random traffic (many same-timestamp collisions, repeated authors).
func TestSlidingMatchesBatchRandomStream(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := projection.Window{Min: 0, Max: 50}
	const horizon = 400
	p, err := newSliding(w, horizon, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var all []graph.Comment
	ts := int64(0)
	for i := 0; i < 6000; i++ {
		ts += rng.Int63n(4) // frequent duplicates, slow advance
		c := graph.Comment{
			Author: graph.VertexID(rng.Intn(25)),
			Page:   graph.VertexID(rng.Intn(12)),
			TS:     ts,
		}
		all = append(all, c)
		if err := p.Add(c); err != nil {
			t.Fatal(err)
		}
		checkWindowState(t, p)
		if i%997 == 0 {
			want := restrictedBatch(t, all, w, p.Watermark(), horizon)
			if !p.Snapshot().Equal(want) {
				t.Fatalf("divergence at comment %d (watermark %d)", i, p.Watermark())
			}
		}
	}
	want := restrictedBatch(t, all, w, p.Watermark(), horizon)
	if !p.Snapshot().Equal(want) {
		t.Fatal("final divergence")
	}
}

func TestSlidingEvictionDropsAndRestores(t *testing.T) {
	w := projection.Window{Min: 0, Max: 60}
	p, err := newSliding(w, 1000, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Pair {1,2} on page 0 at t≈0.
	mustAdd(t, p, graph.Comment{Author: 1, Page: 0, TS: 0})
	mustAdd(t, p, graph.Comment{Author: 2, Page: 0, TS: 10})
	if p.Snapshot().Weight(1, 2) != 1 || p.Snapshot().PageCount(1) != 1 {
		t.Fatal("pair not counted")
	}
	// Refresh the pair on the same page at t≈500: weight must stay 1
	// (once per page) but the lease extends.
	mustAdd(t, p, graph.Comment{Author: 1, Page: 0, TS: 500})
	mustAdd(t, p, graph.Comment{Author: 2, Page: 0, TS: 510})
	if p.Snapshot().Weight(1, 2) != 1 {
		t.Fatalf("weight = %d after refresh, want 1", p.Snapshot().Weight(1, 2))
	}
	// t=1005: the t=0 support is out of horizon, the t=500 one is not.
	if err := p.AdvanceTo(1005); err != nil {
		t.Fatal(err)
	}
	if p.Snapshot().Weight(1, 2) != 1 {
		t.Fatal("refreshed pair evicted too early")
	}
	// The pair's one ring entry came up at t=0's expiry and was re-armed
	// at the refreshed lease.
	if st := p.SignalStats()[0]; st.RingEntries != 1 || st.Rearmed != 1 {
		t.Fatalf("%d ring entries, %d rearmed; want 1, 1", st.RingEntries, st.Rearmed)
	}
	// t=1501: the t=500 support ages out too.
	if err := p.AdvanceTo(1501); err != nil {
		t.Fatal(err)
	}
	if p.Snapshot().Weight(1, 2) != 0 {
		t.Fatal("pair survived past its horizon")
	}
	if p.Snapshot().PageCount(1) != 0 || p.Snapshot().PageCount(2) != 0 {
		t.Fatal("page counts not withdrawn with the pair")
	}
	if p.EvictedPairs() != 1 {
		t.Fatalf("evicted = %d, want 1", p.EvictedPairs())
	}
	// The pair can be counted again by fresh activity.
	mustAdd(t, p, graph.Comment{Author: 1, Page: 0, TS: 2000})
	mustAdd(t, p, graph.Comment{Author: 2, Page: 0, TS: 2010})
	if p.Snapshot().Weight(1, 2) != 1 {
		t.Fatal("pair not recounted after eviction")
	}
}

func TestSlidingPageStateGC(t *testing.T) {
	w := projection.Window{Min: 0, Max: 60}
	p, err := newSliding(w, 300, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 200 single-commenter pages (never pair) plus one paired page.
	for i := 0; i < 200; i++ {
		mustAdd(t, p, graph.Comment{Author: graph.VertexID(i), Page: graph.VertexID(i), TS: int64(i)})
	}
	mustAdd(t, p, graph.Comment{Author: 500, Page: 500, TS: 200})
	mustAdd(t, p, graph.Comment{Author: 501, Page: 500, TS: 210})
	if err := p.AdvanceTo(5000); err != nil {
		t.Fatal(err)
	}
	if n := p.numObjectStates(); n != 0 {
		t.Fatalf("%d page states leaked after decay", n)
	}
	if p.BufferedComments() != 0 {
		t.Fatalf("buffered = %d after decay", p.BufferedComments())
	}
}

func TestSlidingRejectsOutOfOrder(t *testing.T) {
	p, _ := newSliding(projection.Window{Min: 0, Max: 60}, 100, projection.Options{})
	mustAdd(t, p, graph.Comment{Author: 1, Page: 0, TS: 50})
	if err := p.Add(graph.Comment{Author: 2, Page: 0, TS: 49}); err == nil {
		t.Fatal("out-of-order Add accepted")
	}
	if err := p.AdvanceTo(10); err == nil {
		t.Fatal("backwards AdvanceTo accepted")
	}
	if err := p.AdvanceTo(50); err != nil {
		t.Fatalf("no-op AdvanceTo rejected: %v", err)
	}
}

func TestSlidingRejectsBadConfig(t *testing.T) {
	if _, err := newSliding(projection.Window{Min: 5, Max: 5}, 100, projection.Options{}); err == nil {
		t.Fatal("bad window accepted")
	}
	if _, err := newSliding(projection.Window{Min: 0, Max: 60}, 0, projection.Options{}); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestSlidingSnapshotIsolation(t *testing.T) {
	p, _ := newSliding(projection.Window{Min: 0, Max: 60}, 1000, projection.Options{})
	mustAdd(t, p, graph.Comment{Author: 1, Page: 0, TS: 0})
	mustAdd(t, p, graph.Comment{Author: 2, Page: 0, TS: 10})
	snap := p.Snapshot()
	mustAdd(t, p, graph.Comment{Author: 3, Page: 0, TS: 20})
	if snap.NumEdges() != 1 {
		t.Fatalf("snapshot mutated: %d edges", snap.NumEdges())
	}
	if p.NumEdges() != 3 {
		t.Fatalf("live graph = %d edges, want 3", p.NumEdges())
	}
}

// TestSlidingExcludeRestrict checks Options scoping carries over.
func TestSlidingExcludeRestrict(t *testing.T) {
	opts := projection.Options{Exclude: map[graph.VertexID]bool{9: true}}
	p, _ := newSliding(projection.Window{Min: 0, Max: 60}, 1000, opts)
	mustAdd(t, p, graph.Comment{Author: 9, Page: 0, TS: 0})
	mustAdd(t, p, graph.Comment{Author: 1, Page: 0, TS: 5})
	mustAdd(t, p, graph.Comment{Author: 2, Page: 0, TS: 10})
	if p.Snapshot().Weight(9, 1) != 0 || p.Snapshot().Weight(1, 2) != 1 {
		t.Fatal("Exclude not honored by sliding projector")
	}
}

func mustAdd(t *testing.T, p *SlidingProjector, c graph.Comment) {
	t.Helper()
	if err := p.Add(c); err != nil {
		t.Fatal(err)
	}
}

// checkWindowState recounts, for every signal's cell, what the kernel
// maintains incrementally: the buffered-comment gauge, one ring entry per
// lease, the per-object lease counts, the incident table (from the
// leases), and the slab's bookkeeping.
func checkWindowState(t *testing.T, p *SlidingProjector) {
	t.Helper()
	for si := range p.cells {
		sl := &p.cells[si]
		buffered := 0
		var leases int32
		for obj, pi := range sl.objects {
			ps := &sl.pages[pi]
			buffered += len(ps.buf) - ps.start
			leases += ps.live
			if ps.live < 0 {
				t.Fatalf("signal %d object %d: %d leases", si, obj, ps.live)
			}
		}
		if sl.buffered != buffered {
			t.Fatalf("signal %d: buffered gauge %d, recount %d", si, sl.buffered, buffered)
		}
		if sl.exp.len() != int(sl.live) || sl.leases.len() != int(sl.live) || int64(leases) != sl.live {
			t.Fatalf("signal %d: %d ring entries, %d leases in the table, %d on the objects, live gauge %d",
				si, sl.exp.len(), sl.leases.len(), leases, sl.live)
		}
		if len(sl.objects)+len(sl.free) != len(sl.pages) {
			t.Fatalf("signal %d: %d objects + %d free != %d slab slots",
				si, len(sl.objects), len(sl.free), len(sl.pages))
		}
		type objAuthor struct{ obj, a graph.VertexID }
		incident := make(map[objAuthor]int64)
		perObj := make(map[graph.VertexID]int32)
		for _, s := range sl.leases.slots {
			if s.key == 0 {
				continue
			}
			u, v := graph.UnpackEdge(s.key)
			incident[objAuthor{s.obj, u}]++
			incident[objAuthor{s.obj, v}]++
			perObj[s.obj]++
		}
		for obj, n := range perObj {
			pi, ok := sl.objects[obj]
			if !ok || sl.pages[pi].live != n {
				t.Fatalf("signal %d object %d: %d leases in the table, state %v", si, obj, n, ok)
			}
		}
		if sl.incident.len() != len(incident) {
			t.Fatalf("signal %d: %d incident counts, leases imply %d", si, sl.incident.len(), len(incident))
		}
		for _, s := range sl.incident.slots {
			if s.key == 0 {
				continue
			}
			if want := incident[objAuthor{s.obj, graph.VertexID(s.key - 1)}]; s.val != want {
				t.Fatalf("signal %d object %d author %d: incident count %d, leases imply %d",
					si, s.obj, s.key-1, s.val, want)
			}
		}
	}
}

// compareGauges: two projectors fed the same stream, however it was cut
// into batches, report the same gauges whenever both are at rest.
func compareGauges(t *testing.T, at int, ref, got *SlidingProjector) {
	t.Helper()
	if r, g := ref.LivePairs(), got.LivePairs(); r != g {
		t.Fatalf("at %d: live pairs diverged: reference %d, got %d", at, r, g)
	}
	if r, g := ref.EvictedPairs(), got.EvictedPairs(); r != g {
		t.Fatalf("at %d: evicted pairs diverged: reference %d, got %d", at, r, g)
	}
	if r, g := ref.BufferedComments(), got.BufferedComments(); r != g {
		t.Fatalf("at %d: buffered comments diverged: reference %d, got %d", at, r, g)
	}
	if r, g := ref.numObjectStates(), got.numObjectStates(); r != g {
		t.Fatalf("at %d: object states diverged: reference %d, got %d", at, r, g)
	}
}

// TestBufferedCommentsTrimAtEvictionTime pins what an eviction trims: the
// object's comments a pairing window behind the comment at which the
// eviction was due, whenever the rings actually get drained. Object 0
// holds pair {1,2} from t=0 and two comments around t=1990; the pair
// expires at the t=2050 comment, which leaves t=1991 buffered (59 s old)
// beside the newer pair's lease.
func TestBufferedCommentsTrimAtEvictionTime(t *testing.T) {
	comments := []graph.Comment{
		{Author: 1, Page: 0, TS: 0},
		{Author: 2, Page: 0, TS: 1},
		{Author: 3, Page: 0, TS: 1990},
		{Author: 4, Page: 0, TS: 1991},
		{Author: 5, Page: 1, TS: 2050},
		{Author: 6, Page: 2, TS: 3000},
	}
	for _, feed := range []struct {
		name string
		add  func(p *SlidingProjector) error
	}{
		{"per-comment", func(p *SlidingProjector) error {
			for _, c := range comments {
				if err := p.Add(c); err != nil {
					return err
				}
			}
			return nil
		}},
		{"one-batch", func(p *SlidingProjector) error { return p.AddBatch(comments) }},
		{"two-batches", func(p *SlidingProjector) error {
			if err := p.AddBatch(comments[:3]); err != nil {
				return err
			}
			return p.AddBatch(comments[3:])
		}},
	} {
		p, err := newSliding(projection.Window{Min: 0, Max: 60}, 2000, projection.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := feed.add(p); err != nil {
			t.Fatal(err)
		}
		// Object 0 keeps t=1991, object 2 its only comment; object 1 idled out.
		if got := p.BufferedComments(); got != 2 {
			t.Errorf("%s: %d buffered comments, want 2", feed.name, got)
		}
		if p.LivePairs() != 1 || p.EvictedPairs() != 1 || p.numObjectStates() != 2 {
			t.Errorf("%s: %d live, %d evicted, %d object states; want 1, 1, 2",
				feed.name, p.LivePairs(), p.EvictedPairs(), p.numObjectStates())
		}
	}
}

// TestAddBatchSteadyStateAllocs: once the window has turned over — slab,
// tables, rings and wave scratch at their working size — batch ingest with
// eviction running allocates next to nothing: no per-object maps, no
// per-lease ring entries beyond the recycled buckets.
func TestAddBatchSteadyStateAllocs(t *testing.T) {
	const batchSize, runs, horizon = 2000, 10, 6 * 3600
	ds := redditgen.Generate(redditgen.Config{
		Seed:  5,
		Start: 0,
		End:   4 * 24 * 3600,
		Organic: redditgen.OrganicConfig{
			Authors: 2000, Pages: 1500, Comments: 60000,
			AuthorZipfS: 1.2, PageZipfS: 1.15, PageHalfLife: 2 * 3600,
		},
	})
	p, err := newSliding(projection.Window{Min: 0, Max: 60}, horizon, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun calls the function runs+1 times; everything before that
	// is warm-up, most of it past the first horizon.
	warm := len(ds.Comments) - (runs+1)*batchSize
	if err := p.AddBatch(ds.Comments[:warm]); err != nil {
		t.Fatal(err)
	}
	evicted := p.EvictedPairs()
	if evicted == 0 {
		t.Fatal("warm-up never evicted")
	}
	next := warm
	perBatch := testing.AllocsPerRun(runs, func() {
		if err := p.AddBatch(ds.Comments[next : next+batchSize]); err != nil {
			t.Fatal(err)
		}
		next += batchSize
	})
	if p.EvictedPairs() == evicted {
		t.Fatal("measured batches never evicted")
	}
	if perComment := perBatch / batchSize; perComment > 0.05 {
		t.Errorf("%.3f allocations per comment in steady state, want <= 0.05", perComment)
	} else {
		t.Logf("%.4f allocations per comment", perComment)
	}
}
