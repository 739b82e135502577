// Package graph provides the data structures of the paper: the bipartite
// temporal multigraph (BTM) of user→page comments, the weighted common
// interaction (CI) graph produced by projection, and the standard graph
// machinery (union-find components, CSR views, degree ordering, cliques,
// k-cores) used to analyse them.
package graph

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// VertexID identifies an author or a page. Author and page ID spaces are
// independent (the BTM is bipartite).
type VertexID = uint32

// Comment is one edge of the bipartite temporal multigraph: author u
// commented on page p at unix time TS. Multi-edges (same author, same page,
// different times) are expected and meaningful.
//
// Attrs optionally carries the comment's coordination-signal payload
// (shared URLs, hashtags, reply target). It is nil for the plain
// co-comment workload, so existing code paths and literals are
// unaffected; only signal-aware projectors look at it. The BTM itself
// indexes pages only and drops attrs, which is fine because every
// non-page signal is projected straight from the comment stream, never
// from the BTM.
type Comment struct {
	Author VertexID
	Page   VertexID
	TS     int64
	Attrs  *CommentAttrs
}

// CommentAttrs is the optional per-comment payload the non-default
// coordination signals extract their objects from. IDs live in
// per-kind interner spaces (URL IDs and tag IDs are independent of page
// IDs; ReplyTo is an author ID).
type CommentAttrs struct {
	// URLs the comment shared (deduplicated by signal extractors).
	URLs []VertexID
	// Tags are the hashtags the comment used.
	Tags []VertexID
	// ReplyTo is the author being replied to; meaningful only when
	// IsReply is set (author ID 0 is a valid target).
	ReplyTo VertexID
	IsReply bool
}

// AuthorTime is a (author, timestamp) entry in a page's neighborhood.
type AuthorTime struct {
	Author VertexID
	TS     int64
}

// BTM is the bipartite temporal multigraph B = (U, P, E, t), stored in two
// CSR-style indexes: by page (each page's comments sorted by time — the
// order Algorithm 1 requires) and by author (each author's distinct pages,
// sorted — what the hypergraph step intersects).
type BTM struct {
	numAuthors int
	numPages   int
	numEdges   int

	// By-page index: pageOff[p]..pageOff[p+1] slices pageEntries, each
	// page's comments in ascending timestamp order.
	pageOff     []int
	pageEntries []AuthorTime

	// By-author index: authorOff[a]..authorOff[a+1] slices authorPages,
	// the sorted distinct pages author a commented on.
	authorOff   []int
	authorPages []VertexID

	// By-author timed index (built on demand): distinct pages with the
	// list of comment times, used by windowed hyperedge counting.
	timedOnce   sync.Once
	authorTimed [][]PageTimes
}

// PageTimes lists an author's comment times on one page (ascending).
type PageTimes struct {
	Page  VertexID
	Times []int64
}

// BuildBTM constructs a BTM from a comment stream. numAuthors/numPages may
// be 0 to derive them from the data. The input slice is not retained.
func BuildBTM(comments []Comment, numAuthors, numPages int) *BTM {
	for _, c := range comments {
		if int(c.Author)+1 > numAuthors {
			numAuthors = int(c.Author) + 1
		}
		if int(c.Page)+1 > numPages {
			numPages = int(c.Page) + 1
		}
	}

	b := &BTM{numAuthors: numAuthors, numPages: numPages, numEdges: len(comments)}

	// --- By-page CSR, time-sorted within page. ---
	b.pageOff = make([]int, numPages+1)
	for _, c := range comments {
		b.pageOff[c.Page+1]++
	}
	for p := 0; p < numPages; p++ {
		b.pageOff[p+1] += b.pageOff[p]
	}
	b.pageEntries = make([]AuthorTime, len(comments))
	cursor := make([]int, numPages)
	for _, c := range comments {
		i := b.pageOff[c.Page] + cursor[c.Page]
		b.pageEntries[i] = AuthorTime{Author: c.Author, TS: c.TS}
		cursor[c.Page]++
	}
	for p := 0; p < numPages; p++ {
		sortPage(b.pageEntries[b.pageOff[p]:b.pageOff[p+1]])
	}

	// --- By-author distinct-page CSR. ---
	// Each author gets room for every comment in one flat slice. Walking
	// the by-page index hands an author its pages in ascending order, so
	// the lists come out sorted and a repeated page is always the entry
	// just written; then the lists are closed up.
	start := make([]int, numAuthors+1)
	for _, c := range comments {
		start[c.Author+1]++
	}
	for a := 0; a < numAuthors; a++ {
		start[a+1] += start[a]
	}
	end := slices.Clone(start[:numAuthors])
	pages := make([]VertexID, len(comments))
	for p := 0; p < numPages; p++ {
		for _, at := range b.pageEntries[b.pageOff[p]:b.pageOff[p+1]] {
			a := at.Author
			if end[a] == start[a] || pages[end[a]-1] != VertexID(p) {
				pages[end[a]] = VertexID(p)
				end[a]++
			}
		}
	}
	b.authorOff = make([]int, numAuthors+1)
	total := 0
	for a := 0; a < numAuthors; a++ {
		total += copy(pages[total:], pages[start[a]:end[a]])
		b.authorOff[a+1] = total
	}
	b.authorPages = slices.Clone(pages[:total])
	return b
}

// maxTieRun is the longest run of equal timestamps sortPage orders by
// insertion; a longer one costs the page a full sort instead, which
// bounds the insertion work at maxTieRun moves per comment.
const maxTieRun = 32

// sortPage puts a page's comments in compareAuthorTime order. Archives
// and the daemon's windowed log arrive in time order, so a page is
// usually time-ordered already and only runs of equal timestamps can be
// out of author order: those are insertion-sorted as the scan meets
// them. A page with a timestamp out of order gets the full sort.
func sortPage(seg []AuthorTime) {
	run := 0 // start of the equal-timestamp run seg[i] extends
	for i := 1; i < len(seg); i++ {
		switch ts := seg[i].TS; {
		case ts > seg[i-1].TS:
			run = i
		case ts < seg[i-1].TS || i-run >= maxTieRun:
			slices.SortFunc(seg, compareAuthorTime)
			return
		default:
			for j := i; j > run && seg[j].Author < seg[j-1].Author; j-- {
				seg[j], seg[j-1] = seg[j-1], seg[j]
			}
		}
	}
}

// compareAuthorTime orders a page's comments by time, ties by author.
func compareAuthorTime(x, y AuthorTime) int {
	if c := cmp.Compare(x.TS, y.TS); c != 0 {
		return c
	}
	return cmp.Compare(x.Author, y.Author)
}

// NumAuthors returns |U|.
func (b *BTM) NumAuthors() int { return b.numAuthors }

// NumPages returns |P|.
func (b *BTM) NumPages() int { return b.numPages }

// NumEdges returns |E| (comments, counting multiplicity).
func (b *BTM) NumEdges() int { return b.numEdges }

// PageNeighborhood returns page p's comments in ascending time order. The
// returned slice aliases internal storage; callers must not mutate it.
func (b *BTM) PageNeighborhood(p VertexID) []AuthorTime {
	if int(p) >= b.numPages {
		panic(fmt.Sprintf("graph: page %d out of range (%d pages)", p, b.numPages))
	}
	return b.pageEntries[b.pageOff[p]:b.pageOff[p+1]]
}

// AuthorPages returns the sorted distinct pages author a commented on.
// The returned slice aliases internal storage; callers must not mutate it.
func (b *BTM) AuthorPages(a VertexID) []VertexID {
	if int(a) >= b.numAuthors {
		panic(fmt.Sprintf("graph: author %d out of range (%d authors)", a, b.numAuthors))
	}
	return b.authorPages[b.authorOff[a]:b.authorOff[a+1]]
}

// PageCount returns p_a — the number of distinct pages where author a has
// at least one comment (equation 3 of the paper).
func (b *BTM) PageCount(a VertexID) int { return len(b.AuthorPages(a)) }

// AuthorPageTimes returns author a's distinct pages, each with the sorted
// list of that author's comment times on the page. Built lazily for all
// authors on first use (the windowed-hyperedge extension needs it).
func (b *BTM) AuthorPageTimes(a VertexID) []PageTimes {
	b.timedOnce.Do(b.buildTimedIndex)
	return b.authorTimed[a]
}

func (b *BTM) buildTimedIndex() {
	timed := make([][]PageTimes, b.numAuthors)
	// Walk pages (already time-sorted) and append to each author's list.
	type cursorKey struct {
		a VertexID
		p VertexID
	}
	idx := make(map[cursorKey]int)
	for p := 0; p < b.numPages; p++ {
		for _, at := range b.pageEntries[b.pageOff[p]:b.pageOff[p+1]] {
			key := cursorKey{at.Author, VertexID(p)}
			if i, ok := idx[key]; ok {
				timed[at.Author][i].Times = append(timed[at.Author][i].Times, at.TS)
			} else {
				idx[key] = len(timed[at.Author])
				timed[at.Author] = append(timed[at.Author], PageTimes{
					Page:  VertexID(p),
					Times: []int64{at.TS},
				})
			}
		}
	}
	// Per-author lists are in page order of discovery; sort by page so
	// they can be merged/intersected.
	for a := range timed {
		slices.SortFunc(timed[a], func(x, y PageTimes) int { return cmp.Compare(x.Page, y.Page) })
	}
	b.authorTimed = timed
}
