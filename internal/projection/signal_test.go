// Property tests for the pluggable-signal projection: the default
// co-comment signal must reproduce the legacy batch paths bit for bit,
// the sharded multi-signal path must equal the sequential reference
// (totals AND per-signal attribution), and the individual signal pieces
// (spec parsing, extractors, dedupe) must hold their contracts.
package projection

import (
	"math/rand"
	"strings"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/redditgen"
)

// TestDefaultSignalMatchesLegacy: projecting through DefaultSignals(w) —
// sequentially or sharded — is bit-identical to the pre-signal batch
// implementations, across window shapes and with exclusions applied.
func TestDefaultSignalMatchesLegacy(t *testing.T) {
	comments := randomComments(rand.New(rand.NewSource(11)), 3000, 150, 80)
	b := graph.BuildBTM(comments, 150, 80)
	exclude := map[graph.VertexID]bool{3: true, 17: true}
	for _, w := range []Window{{0, 60}, {30, 90}, {0, 600}} {
		for _, opts := range []Options{{}, {Exclude: exclude}} {
			legacy, err := ProjectSequential(b, w, opts)
			if err != nil {
				t.Fatal(err)
			}
			seq, err := ProjectSignals(comments, DefaultSignals(w), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !legacy.Equal(seq) {
				t.Fatalf("window %v: ProjectSignals(default) != ProjectSequential (%d vs %d edges)",
					w, seq.NumEdges(), legacy.NumEdges())
			}
			sh, err := ProjectSignalsSharded(comments, DefaultSignals(w), opts)
			if err != nil {
				t.Fatal(err)
			}
			snap := sh.Snapshot()
			if !legacy.Equal(snap) {
				t.Fatalf("window %v: ProjectSignalsSharded(default) != ProjectSequential", w)
			}
			if e := legacy.Edges(); len(e) > 0 && snap.SignalMix([]graph.VertexID{e[0].U, e[0].V}) != nil {
				t.Fatalf("window %v: single-signal store tracks a breakdown", w)
			}
		}
	}
}

// TestMultiSignalShardedMatchesSequential: on a stream carrying URL,
// hashtag, and reply attributes, the sharded multi-signal projection
// equals the sequential reference — same merged totals and page counts,
// and on every edge each signal's share equals that signal projected
// alone, with shares summing to the edge total.
func TestMultiSignalShardedMatchesSequential(t *testing.T) {
	ds := redditgen.Generate(redditgen.MultiSignalCampaign(0.05))
	sigs := []Signal{
		CoComment{W: Window{Min: 0, Max: 60}},
		URLShare{W: Window{Min: 0, Max: 300}},
		HashtagShare{W: Window{Min: 0, Max: 300}},
		ReplyTarget{W: Window{Min: 0, Max: 120}},
	}
	opts := Options{Exclude: ds.Helpers}
	seq, err := ProjectSignals(ds.Comments, sigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	shares := make([]*graph.CIGraph, len(sigs))
	for si, sig := range sigs {
		if shares[si], err = ProjectSignals(ds.Comments, []Signal{sig}, opts); err != nil {
			t.Fatal(err)
		}
	}
	for _, ranks := range []int{1, 4} {
		sh, err := projectSignalsSharded(ds.Comments, sigs, opts, ranks)
		if err != nil {
			t.Fatal(err)
		}
		snap := sh.Snapshot()
		if !seq.Equal(snap) {
			t.Fatalf("ranks %d: sharded multi-signal != sequential (%d vs %d edges)",
				ranks, sh.NumEdges(), seq.NumEdges())
		}
		for _, e := range seq.Edges() {
			got := snap.SignalMix([]graph.VertexID{e.U, e.V})
			var sum uint64
			for si := range sigs {
				want := uint64(shares[si].Weight(e.U, e.V))
				if got[si] != want {
					t.Fatalf("ranks %d: edge {%d,%d} signal %s: sharded %d, sequential %d",
						ranks, e.U, e.V, sigs[si].Name(), got[si], want)
				}
				sum += got[si]
			}
			if sum != uint64(e.W) {
				t.Fatalf("ranks %d: edge {%d,%d}: signal shares sum to %d, total %d",
					ranks, e.U, e.V, sum, e.W)
			}
		}
	}
	// The planted campaigns must actually exercise every non-default
	// signal, or the equivalence above is vacuous.
	for si, s := range sigs {
		if shares[si].NumEdges() == 0 {
			t.Fatalf("signal %s contributed no weight — dataset does not cover it", s.Name())
		}
	}
}

// TestParseSignals pins the spec grammar: defaults, per-signal window
// overrides in both forms, whitespace tolerance, and every error class.
func TestParseSignals(t *testing.T) {
	def := Window{Min: 0, Max: 60}
	sigs, err := ParseSignals("", def)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != 1 || sigs[0].Name() != "cocomment" || sigs[0].Window() != def {
		t.Fatalf("empty spec: got %v", sigs)
	}

	sigs, err = ParseSignals(" cocomment , urlshare=0:300 ,reply=120 ", def)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name string
		w    Window
	}{
		{"cocomment", Window{0, 60}},
		{"urlshare", Window{0, 300}},
		{"reply", Window{0, 120}},
	}
	if len(sigs) != len(want) {
		t.Fatalf("got %d signals, want %d", len(sigs), len(want))
	}
	for i, w := range want {
		if sigs[i].Name() != w.name || sigs[i].Window() != w.w {
			t.Fatalf("signal %d: got (%s, %v), want (%s, %v)",
				i, sigs[i].Name(), sigs[i].Window(), w.name, w.w)
		}
	}

	sigs, err = ParseSignals("timebucket=10", def)
	if err != nil {
		t.Fatal(err)
	}
	if tb, ok := sigs[0].(TimeBucket); !ok || tb.Bucket != 10 {
		t.Fatalf("timebucket=10: got %#v", sigs[0])
	}

	for _, bad := range []struct{ spec, wantErr string }{
		{"bogus", "unknown signal"},
		{"cocomment,cocomment", "duplicate signal"},
		{"urlshare=x:10", "bad window bound"},
		{"urlshare=10:x", "bad window bound"},
		{"urlshare=90:30", "window"},
		{"timebucket=5:10", "must start at 0"},
		{" , ", "empty signal spec"},
	} {
		if _, err := ParseSignals(bad.spec, def); err == nil {
			t.Errorf("spec %q: no error", bad.spec)
		} else if !strings.Contains(err.Error(), bad.wantErr) {
			t.Errorf("spec %q: error %q does not mention %q", bad.spec, err, bad.wantErr)
		}
	}
}

// TestTimeBucketFloor: the bucket index floors toward negative infinity,
// so pre-epoch timestamps land in stable buckets and two comments within
// the same width-B span always share one.
func TestTimeBucketFloor(t *testing.T) {
	s := TimeBucket{Bucket: 10}
	for _, tc := range []struct {
		ts     int64
		bucket int64
	}{
		{0, 0}, {9, 0}, {10, 1}, {-1, -1}, {-10, -1}, {-11, -2},
	} {
		got := s.AppendObjects(graph.Comment{TS: tc.ts}, nil)
		if len(got) != 1 || got[0] != graph.VertexID(tc.bucket) {
			t.Errorf("TS %d: bucket %v, want %d", tc.ts, got, tc.bucket)
		}
	}
	// Two authors in the same bucket pair up regardless of page.
	g, err := ProjectSignals([]graph.Comment{
		{Author: 1, Page: 10, TS: -7},
		{Author: 2, Page: 11, TS: -3},
	}, []Signal{s}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(1, 2) != 1 {
		t.Fatalf("same-bucket pair weight = %d, want 1", g.Weight(1, 2))
	}
}

// TestDedupeObjects: in-place, order-preserving, first occurrence wins.
func TestDedupeObjects(t *testing.T) {
	for _, tc := range []struct{ in, want []graph.VertexID }{
		{nil, nil},
		{[]graph.VertexID{5}, []graph.VertexID{5}},
		{[]graph.VertexID{5, 5, 5}, []graph.VertexID{5}},
		{[]graph.VertexID{3, 1, 3, 2, 1}, []graph.VertexID{3, 1, 2}},
	} {
		got := DedupeObjects(append([]graph.VertexID(nil), tc.in...))
		if len(got) != len(tc.want) {
			t.Fatalf("dedupe %v: got %v, want %v", tc.in, got, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Fatalf("dedupe %v: got %v, want %v", tc.in, got, tc.want)
			}
		}
	}
}
