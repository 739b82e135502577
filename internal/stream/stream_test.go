package stream

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
)

// sortedComments builds a random, globally time-sorted comment stream.
func sortedComments(rng *rand.Rand, n, authors, pages, span int) []graph.Comment {
	cs := make([]graph.Comment, n)
	for i := range cs {
		cs[i] = graph.Comment{
			Author: graph.VertexID(rng.Intn(authors)),
			Page:   graph.VertexID(rng.Intn(pages)),
			TS:     int64(rng.Intn(span)),
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].TS < cs[j].TS })
	return cs
}

// project streams time-ordered comments through one Projector.
func project(comments []graph.Comment, w projection.Window, opts projection.Options) (*graph.CIGraph, error) {
	p, err := NewProjector(w, opts)
	if err != nil {
		return nil, err
	}
	for _, c := range comments {
		if err := p.Add(c); err != nil {
			return nil, err
		}
	}
	return p.Result(), nil
}

func TestStreamEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cs := sortedComments(rng, 5000, 80, 50, 7200)
	b := graph.BuildBTM(cs, 80, 50)
	for _, w := range []projection.Window{{Min: 0, Max: 60}, {Min: 0, Max: 600}, {Min: 30, Max: 90}} {
		batch, err := projection.ProjectSequential(b, w, projection.Options{})
		if err != nil {
			t.Fatal(err)
		}
		streamed, err := project(cs, w, projection.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !batch.Equal(streamed) {
			t.Fatalf("window %v: stream != batch (%d vs %d edges)",
				w, streamed.NumEdges(), batch.NumEdges())
		}
	}
}

func TestStreamExclusionsAndRestrict(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cs := sortedComments(rng, 2000, 30, 20, 3600)
	b := graph.BuildBTM(cs, 30, 20)
	opts := projection.Options{
		Exclude:  map[graph.VertexID]bool{0: true},
		Restrict: map[graph.VertexID]bool{0: true, 1: true, 2: true, 3: true, 4: true},
	}
	w := projection.Window{Min: 0, Max: 300}
	batch, err := projection.ProjectSequential(b, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := project(cs, w, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !batch.Equal(streamed) {
		t.Fatal("scoped stream != scoped batch")
	}
}

func TestStreamRejectsOutOfOrder(t *testing.T) {
	p, err := NewProjector(projection.Window{Min: 0, Max: 60}, projection.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Add(graph.Comment{Author: 1, Page: 0, TS: 100}); err != nil {
		t.Fatal(err)
	}
	if err := p.Add(graph.Comment{Author: 2, Page: 0, TS: 99}); err == nil {
		t.Fatal("out-of-order accepted")
	}
	// Equal timestamps are fine.
	if err := p.Add(graph.Comment{Author: 3, Page: 0, TS: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStreamAddAfterResult(t *testing.T) {
	p, _ := NewProjector(projection.Window{Min: 0, Max: 60}, projection.Options{})
	_ = p.Result()
	if err := p.Add(graph.Comment{}); !errors.Is(err, ErrAddAfterResult) {
		t.Fatalf("Add after Result: got %v, want ErrAddAfterResult", err)
	}
}

func TestStreamRejectsBadWindow(t *testing.T) {
	if _, err := NewProjector(projection.Window{Min: 5, Max: 5}, projection.Options{}); err == nil {
		t.Fatal("bad window accepted")
	}
}

func TestBufferEviction(t *testing.T) {
	p, _ := NewProjector(projection.Window{Min: 0, Max: 60}, projection.Options{})
	// 1000 comments on one page, one per 10 seconds: the live buffer must
	// stay bounded by the window (6 comments), not grow with history.
	for i := 0; i < 1000; i++ {
		if err := p.Add(graph.Comment{Author: graph.VertexID(i % 7), Page: 0, TS: int64(i * 10)}); err != nil {
			t.Fatal(err)
		}
		buf := 0
		for _, ps := range p.pages {
			buf += len(ps.buf) - ps.start
		}
		if buf > 8 {
			t.Fatalf("buffer grew to %d at i=%d (window holds ~6)", buf, i)
		}
	}
	if p.Count() != 1000 {
		t.Fatalf("count = %d", p.Count())
	}
}

func TestStreamPairOncePerPage(t *testing.T) {
	// The same pair interacting repeatedly on one page counts once.
	p, _ := NewProjector(projection.Window{Min: 0, Max: 60}, projection.Options{})
	for i := 0; i < 10; i++ {
		p.Add(graph.Comment{Author: 1, Page: 0, TS: int64(i * 20)})
		p.Add(graph.Comment{Author: 2, Page: 0, TS: int64(i*20 + 5)})
	}
	g := p.Result()
	if got := g.Weight(1, 2); got != 1 {
		t.Fatalf("weight = %d, want 1 (once per page)", got)
	}
	if g.PageCount(1) != 1 || g.PageCount(2) != 1 {
		t.Fatal("page counts wrong")
	}
}

func TestQuickStreamEqualsBatch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cs := sortedComments(rng, 800, 20, 12, 2400)
		b := graph.BuildBTM(cs, 20, 12)
		w := projection.Window{Min: int64(rng.Intn(30)), Max: int64(60 + rng.Intn(600))}
		batch, err := projection.ProjectSequential(b, w, projection.Options{})
		if err != nil {
			return false
		}
		streamed, err := project(cs, w, projection.Options{})
		if err != nil {
			return false
		}
		return batch.Equal(streamed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
