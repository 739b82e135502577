package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func sampleComments() []Comment {
	return []Comment{
		{Author: 0, Page: 0, TS: 100},
		{Author: 1, Page: 0, TS: 110},
		{Author: 2, Page: 0, TS: 105},
		{Author: 0, Page: 1, TS: 200},
		{Author: 0, Page: 1, TS: 250}, // multi-edge: same author, same page
		{Author: 3, Page: 1, TS: 260},
		{Author: 1, Page: 2, TS: 300},
	}
}

func TestBTMCounts(t *testing.T) {
	b := BuildBTM(sampleComments(), 0, 0)
	if b.NumAuthors() != 4 {
		t.Errorf("NumAuthors = %d, want 4", b.NumAuthors())
	}
	if b.NumPages() != 3 {
		t.Errorf("NumPages = %d, want 3", b.NumPages())
	}
	if b.NumEdges() != 7 {
		t.Errorf("NumEdges = %d, want 7", b.NumEdges())
	}
}

func TestBTMPageNeighborhoodSortedByTime(t *testing.T) {
	b := BuildBTM(sampleComments(), 0, 0)
	n := b.PageNeighborhood(0)
	if len(n) != 3 {
		t.Fatalf("page 0 has %d comments, want 3", len(n))
	}
	for i := 1; i < len(n); i++ {
		if n[i-1].TS > n[i].TS {
			t.Fatalf("page 0 neighborhood not time-sorted: %+v", n)
		}
	}
	if n[0].Author != 0 || n[1].Author != 2 || n[2].Author != 1 {
		t.Fatalf("unexpected order: %+v", n)
	}
}

func TestBTMAuthorPagesDeduped(t *testing.T) {
	b := BuildBTM(sampleComments(), 0, 0)
	ps := b.AuthorPages(0)
	want := []VertexID{0, 1}
	if len(ps) != len(want) {
		t.Fatalf("author 0 pages = %v, want %v", ps, want)
	}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("author 0 pages = %v, want %v", ps, want)
		}
	}
	if b.PageCount(0) != 2 {
		t.Errorf("PageCount(0) = %d, want 2 (multi-edges collapse)", b.PageCount(0))
	}
}

func TestBTMAuthorPageTimes(t *testing.T) {
	b := BuildBTM(sampleComments(), 0, 0)
	pt := b.AuthorPageTimes(0)
	if len(pt) != 2 {
		t.Fatalf("author 0 has %d timed pages, want 2", len(pt))
	}
	if pt[1].Page != 1 || len(pt[1].Times) != 2 {
		t.Fatalf("author 0 page 1: %+v, want two times", pt[1])
	}
	if pt[1].Times[0] != 200 || pt[1].Times[1] != 250 {
		t.Fatalf("times not ascending: %+v", pt[1].Times)
	}
}

// TestBTMCommentsRoundTrip: the page neighborhoods hold every comment,
// so the BTM rebuilt from them is identical.
func TestBTMCommentsRoundTrip(t *testing.T) {
	orig := sampleComments()
	b := BuildBTM(orig, 0, 0)
	var back []Comment
	for p := VertexID(0); int(p) < b.NumPages(); p++ {
		for _, at := range b.PageNeighborhood(p) {
			back = append(back, Comment{Author: at.Author, Page: p, TS: at.TS})
		}
	}
	if len(back) != len(orig) {
		t.Fatalf("round trip length %d != %d", len(back), len(orig))
	}
	b2 := BuildBTM(back, 0, 0)
	for p := VertexID(0); int(p) < b.NumPages(); p++ {
		n1, n2 := b.PageNeighborhood(p), b2.PageNeighborhood(p)
		if len(n1) != len(n2) {
			t.Fatalf("page %d: %d vs %d entries", p, len(n1), len(n2))
		}
		for i := range n1 {
			if n1[i] != n2[i] {
				t.Fatalf("page %d entry %d: %+v vs %+v", p, i, n1[i], n2[i])
			}
		}
	}
}

func TestBTMEmpty(t *testing.T) {
	b := BuildBTM(nil, 0, 0)
	if b.NumAuthors() != 0 || b.NumPages() != 0 || b.NumEdges() != 0 {
		t.Fatal("empty BTM not empty")
	}
	b2 := BuildBTM(nil, 5, 7)
	if b2.NumAuthors() != 5 || b2.NumPages() != 7 {
		t.Fatal("explicit dimensions ignored")
	}
	if got := b2.PageCount(3); got != 0 {
		t.Fatalf("PageCount of silent author = %d", got)
	}
}

func TestQuickBTMInvariants(t *testing.T) {
	// Property: for random comment streams, (a) page neighborhoods are
	// time-sorted and their sizes sum to |E|; (b) author page lists are
	// sorted, unique, and PageCount matches a reference recount.
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%500) + 1
		cs := make([]Comment, n)
		for i := range cs {
			cs[i] = Comment{
				Author: VertexID(rng.Intn(40)),
				Page:   VertexID(rng.Intn(25)),
				TS:     int64(rng.Intn(1000)),
			}
		}
		b := BuildBTM(cs, 0, 0)
		total := 0
		for p := 0; p < b.NumPages(); p++ {
			nb := b.PageNeighborhood(VertexID(p))
			total += len(nb)
			for i := 1; i < len(nb); i++ {
				if nb[i-1].TS > nb[i].TS {
					return false
				}
			}
		}
		if total != n {
			return false
		}
		ref := make(map[VertexID]map[VertexID]bool)
		for _, c := range cs {
			if ref[c.Author] == nil {
				ref[c.Author] = make(map[VertexID]bool)
			}
			ref[c.Author][c.Page] = true
		}
		for a := 0; a < b.NumAuthors(); a++ {
			ps := b.AuthorPages(VertexID(a))
			if !sort.SliceIsSorted(ps, func(i, j int) bool { return ps[i] < ps[j] }) {
				return false
			}
			for i := 1; i < len(ps); i++ {
				if ps[i] == ps[i-1] {
					return false
				}
			}
			if len(ps) != len(ref[VertexID(a)]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// refBuildBTM is BuildBTM as it was before the counting-pass rewrite:
// sort every page, gather every author's pages by append, sort, dedupe.
func refBuildBTM(comments []Comment, numAuthors, numPages int) *BTM {
	for _, c := range comments {
		numAuthors = max(numAuthors, int(c.Author)+1)
		numPages = max(numPages, int(c.Page)+1)
	}
	b := &BTM{numAuthors: numAuthors, numPages: numPages, numEdges: len(comments)}
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
		b.pageEntries[b.pageOff[c.Page]+cursor[c.Page]] = AuthorTime{Author: c.Author, TS: c.TS}
		cursor[c.Page]++
	}
	for p := 0; p < numPages; p++ {
		seg := b.pageEntries[b.pageOff[p]:b.pageOff[p+1]]
		sort.Slice(seg, func(i, j int) bool {
			if seg[i].TS != seg[j].TS {
				return seg[i].TS < seg[j].TS
			}
			return seg[i].Author < seg[j].Author
		})
	}
	perAuthor := make([][]VertexID, numAuthors)
	for _, c := range comments {
		perAuthor[c.Author] = append(perAuthor[c.Author], c.Page)
	}
	b.authorOff = make([]int, numAuthors+1)
	b.authorPages = []VertexID{}
	for a, ps := range perAuthor {
		sort.Slice(ps, func(i, j int) bool { return ps[i] < ps[j] })
		for i, p := range ps {
			if i == 0 || p != ps[i-1] {
				b.authorPages = append(b.authorPages, p)
			}
		}
		b.authorOff[a+1] = len(b.authorPages)
	}
	return b
}

// TestBuildBTMMatchesReference: the same BTM, index for index, on
// shuffled, time-ordered and heavily tied streams, with the vertex counts
// given, given too small, or left to be derived; and on the pages that
// pick each of sortPage's paths: time-ordered with every tie run in
// descending author order (insertion-sorted runs), a tie run longer than
// maxTieRun, and one timestamp out of order (the full sort).
func TestBuildBTMMatchesReference(t *testing.T) {
	check := func(name string, comments []Comment, numAuthors, numPages int) {
		t.Helper()
		got, want := BuildBTM(comments, numAuthors, numPages), refBuildBTM(comments, numAuthors, numPages)
		if got.numAuthors != want.numAuthors || got.numPages != want.numPages || got.numEdges != want.numEdges ||
			!slices.Equal(got.pageOff, want.pageOff) || !slices.Equal(got.pageEntries, want.pageEntries) ||
			!slices.Equal(got.authorOff, want.authorOff) || !slices.Equal(got.authorPages, want.authorPages) {
			t.Fatalf("%s: %d comments, counts (%d, %d)\n got  %+v\n want %+v", name, len(comments), numAuthors, numPages, got, want)
		}
	}
	// descendingTies is one page, time-ordered, whose timestamps come in
	// runs of the given lengths, each run's authors in descending order.
	descendingTies := func(runs ...int) []Comment {
		var out []Comment
		for ts, n := range runs {
			for k := n - 1; k >= 0; k-- {
				out = append(out, Comment{Author: VertexID(k), Page: 0, TS: int64(10 * ts)})
			}
		}
		return out
	}
	check("descending tie runs", descendingTies(1, 3, 2, 7, 1, maxTieRun, 4), 0, 0)
	check("tie run past maxTieRun", descendingTies(2, maxTieRun+1, 3), 0, 0)
	outOfOrder := descendingTies(2, 1, 3, 1, 2)
	outOfOrder[6].TS = 5 // between the first two runs' timestamps
	check("one timestamp out of order", outOfOrder, 0, 0)

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		authors, pages := 1+rng.Intn(12), 1+rng.Intn(8)
		comments := make([]Comment, rng.Intn(120))
		for i := range comments {
			comments[i] = Comment{
				Author: VertexID(rng.Intn(authors)),
				Page:   VertexID(rng.Intn(pages)),
				TS:     rng.Int63n(1 + int64(rng.Intn(50))), // a small range ties often
			}
		}
		if trial%3 == 0 { // as an archive arrives
			sort.SliceStable(comments, func(i, j int) bool { return comments[i].TS < comments[j].TS })
		}
		numAuthors, numPages := []int{0, authors / 2, authors + 3}[trial%3], []int{0, pages + 2, pages / 2}[trial%3]
		check(fmt.Sprintf("trial %d", trial), comments, numAuthors, numPages)
	}
}
