package stream

import (
	"math/rand"
	"sort"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
)

// drainAll collects one drain's entries.
func drainAll(r *expiryRing, cutoff int64) []expiryEntry {
	var out []expiryEntry
	r.drain(cutoff, func(e expiryEntry) { out = append(out, e) })
	return out
}

func sortEntries(es []expiryEntry) {
	sort.Slice(es, func(i, j int) bool {
		if es[i].oldTS != es[j].oldTS {
			return es[i].oldTS < es[j].oldTS
		}
		return es[i].key < es[j].key
	})
}

// TestExpiryRingMatchesReference drives a ring through the projector's
// access pattern — drain to a nondecreasing cutoff, then push entries
// strictly newer than it — against a brute-force reference set.
func TestExpiryRingMatchesReference(t *testing.T) {
	const span = 5000
	rng := rand.New(rand.NewSource(7))
	r := newExpiryRing(span)
	var ref []expiryEntry
	wm := int64(1_000_000)
	for step := 0; step < 3000; step++ {
		wm += int64(rng.Intn(40)) // frequently unmoved (short-circuit path)
		cutoff := wm - span
		got := drainAll(&r, cutoff)
		var want, keep []expiryEntry
		for _, e := range ref {
			if e.oldTS <= cutoff {
				want = append(want, e)
			} else {
				keep = append(keep, e)
			}
		}
		ref = keep
		sortEntries(got)
		sortEntries(want)
		if len(got) != len(want) {
			t.Fatalf("step %d: drained %d entries, want %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d entry %d: got %+v want %+v", step, i, got[i], want[i])
			}
		}
		if r.len() != len(ref) {
			t.Fatalf("step %d: ring len %d, reference %d", step, r.len(), len(ref))
		}
		for k := rng.Intn(5); k > 0; k-- {
			// Anywhere in (cutoff, wm] — including OLDER than entries
			// already pushed (the backward-anchor case).
			e := expiryEntry{oldTS: cutoff + 1 + rng.Int63n(wm-cutoff), key: uint64(step)<<8 | uint64(k)}
			r.push(e)
			ref = append(ref, e)
		}
	}
}

// TestExpiryRingRebaseAfterEmpty: once the ring drains empty, a push far
// ahead re-anchors it, and pushes OLDER than the first (but inside the
// span) must still land correctly rather than being evicted early.
func TestExpiryRingRebaseAfterEmpty(t *testing.T) {
	r := newExpiryRing(1000)
	r.push(expiryEntry{oldTS: 100, key: 1})
	if got := drainAll(&r, 2000); len(got) != 1 || r.len() != 0 {
		t.Fatalf("drain: %d entries, len %d", len(got), r.len())
	}
	// Ring empty; push newest-first around t=10000, cutoff still 2000.
	r.push(expiryEntry{oldTS: 10_000, key: 2})
	r.push(expiryEntry{oldTS: 9_050, key: 3}) // older than the re-anchoring push
	if got := drainAll(&r, 9_060); len(got) != 1 || got[0].key != 3 {
		t.Fatalf("partial drain after rebase: %+v", got)
	}
	if got := drainAll(&r, 10_000); len(got) != 1 || got[0].key != 2 {
		t.Fatalf("final drain after rebase: %+v", got)
	}
}

// TestExpiryRingGrow: entries spread far beyond the initial span force
// bucket-array doubling without losing or reordering anything.
func TestExpiryRingGrow(t *testing.T) {
	r := newExpiryRing(100)
	nb := r.mask + 1
	for i := int64(0); i < 5000; i += 7 {
		r.push(expiryEntry{oldTS: i, key: uint64(i)})
	}
	if r.mask+1 <= nb {
		t.Fatalf("ring never grew: %d buckets for a 5000s spread", r.mask+1)
	}
	got := drainAll(&r, 5000)
	if len(got) != 5000/7+1 || r.len() != 0 {
		t.Fatalf("drained %d entries, len %d", len(got), r.len())
	}
}

// TestExpiryRingPushBehindCutoffPanics: the projector's push invariant is
// load-bearing (an entry behind the drained cutoff would never expire or
// expire early); violating it must fail loudly.
func TestExpiryRingPushBehindCutoffPanics(t *testing.T) {
	r := newExpiryRing(1000)
	r.push(expiryEntry{oldTS: 500, key: 1})
	drainAll(&r, 400)
	defer func() {
		if recover() == nil {
			t.Fatal("push behind drained cutoff did not panic")
		}
	}()
	r.push(expiryEntry{oldTS: 399, key: 2})
}

// TestRingsStayBoundedInsideOneBatch: the batch path drains a cell's
// rings once per min(window, horizon) of event time, not once per batch,
// so however much event time ONE AddBatch covers, a ring never spans more
// than twice what it was sized for.
func TestRingsStayBoundedInsideOneBatch(t *testing.T) {
	for _, tc := range []struct {
		name    string
		w       projection.Window
		horizon int64
		span    int64 // event time the batch covers
	}{
		{"100x-horizon", projection.Window{Min: 0, Max: 60}, 600, 100 * 600},
		{"100x-window-idle-ring", projection.Window{Min: 0, Max: 60}, 1 << 20, 100 * 60},
		{"100x-horizon-inside-window", projection.Window{Min: 0, Max: 3600}, 600, 100 * 600},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, err := newSliding(tc.w, tc.horizon, projection.Options{})
			if err != nil {
				t.Fatal(err)
			}
			// A comment every other second; pages change every 20 comments, so
			// pairs are counted, refreshed and (horizon permitting) evicted
			// all along.
			var batch []graph.Comment
			for i := int64(0); 2*i < tc.span; i++ {
				batch = append(batch, graph.Comment{
					Author: graph.VertexID(i % 7), Page: graph.VertexID(i / 20 % 50), TS: 2 * i,
				})
			}
			if err := p.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
			if p.LivePairs() == 0 {
				t.Fatal("batch projected no pairs")
			}
			if tc.span > tc.horizon && p.EvictedPairs() == 0 {
				t.Fatal("batch evicted nothing")
			}
			sl := &p.cells[0]
			exp, idle := newExpiryRing(tc.horizon), newExpiryRing(tc.w.Max)
			if got, design := len(sl.exp.buckets), len(exp.buckets); got > 2*design {
				t.Errorf("expiry ring grew to %d buckets, sized for %d", got, design)
			}
			if got, design := len(sl.idle.buckets), len(idle.buckets); got > 2*design {
				t.Errorf("idle ring grew to %d buckets, sized for %d", got, design)
			}
		})
	}
}
