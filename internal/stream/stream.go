// Package stream is an online variant of Step 1: a Projector consumes a
// comment stream in nondecreasing time order — the natural order of
// Pushshift archives and of live ingestion — and maintains the common
// interaction graph incrementally, without materializing the bipartite
// temporal multigraph.
//
// Per page it buffers only the comments of the trailing δ2 seconds (older
// entries can never pair with future arrivals), so the transient state is
// proportional to the traffic inside one window rather than the whole
// month. The persistent state is the output itself: the CI edge
// accumulator and the per-page pair/author dedupe sets that Algorithm 1's
// once-per-page counting semantics require.
//
// The result is exactly equal to projection.ProjectSequential on the same
// comments (property-tested), making this the substrate for the paper's
// "entire network" scale claim on machines that cannot hold a month of
// raw data.
package stream

import (
	"errors"
	"fmt"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
)

// ErrAddAfterResult is returned by Projector.Add once Result has
// finalized the accumulator. A daemon
// restart path that keeps a stale handle must see a hard error rather than
// silently corrupting — or silently dropping into — a finished graph.
var ErrAddAfterResult = errors.New("stream: Add after Result")

// Projector incrementally builds a CI graph from a time-ordered comment
// stream. Create with NewProjector; feed with Add; finish with Result.
type Projector struct {
	w    projection.Window
	opts projection.Options

	g     *graph.CIGraph
	pages map[graph.VertexID]*pageState

	lastTS   int64
	started  bool
	finished bool
	count    int64
}

type pageState struct {
	// buf holds the page's comments within the trailing window,
	// time-ordered (head at index start — a chunked ring).
	buf   []graph.AuthorTime
	start int
	// pairs dedupes counted pairs for this page (once per page, ever).
	pairs map[uint64]struct{}
	// authors dedupes the page's P' contribution.
	authors map[graph.VertexID]struct{}
}

// NewProjector creates a streaming projector for window w. The projector
// is single-writer by design; shard streams by page upstream to
// parallelize.
func NewProjector(w projection.Window, opts projection.Options) (*Projector, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	return &Projector{
		w:     w,
		opts:  opts,
		g:     graph.NewCIGraph(),
		pages: make(map[graph.VertexID]*pageState),
	}, nil
}

// Count returns the number of comments consumed.
func (p *Projector) Count() int64 { return p.count }

// skip mirrors projection.Options scoping (Exclude, Restrict).
func (p *Projector) skip(a graph.VertexID) bool {
	if p.opts.Exclude[a] {
		return true
	}
	return p.opts.Restrict != nil && !p.opts.Restrict[a]
}

// Add consumes one comment. Comments must arrive in nondecreasing global
// timestamp order; Add returns an error otherwise. Calling Add after
// Result is an error.
func (p *Projector) Add(c graph.Comment) error {
	if p.finished {
		return ErrAddAfterResult
	}
	if p.started && c.TS < p.lastTS {
		return fmt.Errorf("stream: out-of-order comment at t=%d after t=%d", c.TS, p.lastTS)
	}
	p.started = true
	p.lastTS = c.TS
	p.count++

	if p.skip(c.Author) {
		return nil
	}
	ps := p.pages[c.Page]
	if ps == nil {
		ps = &pageState{
			pairs:   make(map[uint64]struct{}),
			authors: make(map[graph.VertexID]struct{}),
		}
		p.pages[c.Page] = ps
	}

	// Evict buffered comments that can no longer pair with anything at or
	// after time c.TS: pairing requires t_new - t_old < w.Max.
	for ps.start < len(ps.buf) && c.TS-ps.buf[ps.start].TS >= p.w.Max {
		ps.start++
	}
	if ps.start > 64 && ps.start*2 > len(ps.buf) {
		// Compact the ring when more than half is dead.
		ps.buf = append(ps.buf[:0], ps.buf[ps.start:]...)
		ps.start = 0
	}

	// Pair the newcomer against the live buffer.
	for i := ps.start; i < len(ps.buf); i++ {
		old := ps.buf[i]
		d := c.TS - old.TS
		if d < p.w.Min || old.Author == c.Author {
			continue
		}
		key := graph.PackEdge(old.Author, c.Author)
		if _, dup := ps.pairs[key]; dup {
			continue
		}
		ps.pairs[key] = struct{}{}
		p.g.AddEdgeWeight(old.Author, c.Author, 1)
		if _, ok := ps.authors[old.Author]; !ok {
			ps.authors[old.Author] = struct{}{}
			p.g.AddPageCount(old.Author, 1)
		}
		if _, ok := ps.authors[c.Author]; !ok {
			ps.authors[c.Author] = struct{}{}
			p.g.AddPageCount(c.Author, 1)
		}
	}
	ps.buf = append(ps.buf, graph.AuthorTime{Author: c.Author, TS: c.TS})
	return nil
}

// Result finalizes and returns the CI graph. The projector must not be
// used afterwards.
func (p *Projector) Result() *graph.CIGraph {
	p.finished = true
	p.pages = nil
	return p.g
}
