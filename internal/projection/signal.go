// Pluggable coordination signals.
//
// The paper's Algorithm 1 hard-codes one notion of coordination: two
// authors commenting on the same page within a delay window. Weber &
// Falzon show the choice of coordinated object and window changes the
// semantics of the resulting network; practical detectors (Purisa,
// SNIPPETS.md §3) fuse several such notions — synchronized posting, URL
// co-sharing, hashtag overlap, reply patterns — into one weighted edge.
//
// Signal abstracts exactly the two things that vary: which objects a
// comment engages (the extractor) and how close in time two engagements
// must be to count (the per-signal window). Everything else — the
// windowed pairing kernel, the sharded owner-computes merge, the
// sliding-window eviction, the survey and validation layers — is shared
// verbatim with the co-comment path, which is itself just the default
// Signal.
//
// Pair semantics per signal mirror the page semantics of Algorithm 1:
// a pair of authors is counted once per distinct object they co-engaged
// within the window (not once per engagement pair), each counted object
// adds one unit to the pair's edge whatever the signal, and each object
// an author projected through adds one unit to the author's P'
// normalizer.
package projection

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"coordbot/internal/graph"
)

// Signal is one coordination channel: an object extractor with a delay
// window. Implementations must be immutable after construction (they are
// shared across goroutines).
type Signal interface {
	// Name is the stable identifier used by flags, stats, and the signal
	// mix of flagged groups. Lower-case, no commas.
	Name() string
	// Window is the per-signal delay window [δ1, δ2).
	Window() Window
	// AppendObjects appends the IDs of every object the comment engages
	// to dst and returns it. Extractors may emit duplicates; callers
	// dedupe (a comment engages an object once no matter how many times
	// it mentions it). Distinct signals use independent object ID spaces.
	AppendObjects(c graph.Comment, dst []graph.VertexID) []graph.VertexID
}

// CoComment is the paper's signal — the object is the page commented on.
// Projecting with exactly this signal reproduces Algorithm 1 bit for bit.
type CoComment struct{ W Window }

func (s CoComment) Name() string   { return "cocomment" }
func (s CoComment) Window() Window { return s.W }
func (s CoComment) AppendObjects(c graph.Comment, dst []graph.VertexID) []graph.VertexID {
	return append(dst, c.Page)
}

// URLShare coordinates on shared links: the objects are the URLs the
// comment carries (Comment.Attrs.URLs).
type URLShare struct{ W Window }

func (s URLShare) Name() string   { return "urlshare" }
func (s URLShare) Window() Window { return s.W }
func (s URLShare) AppendObjects(c graph.Comment, dst []graph.VertexID) []graph.VertexID {
	if c.Attrs == nil {
		return dst
	}
	return append(dst, c.Attrs.URLs...)
}

// HashtagShare coordinates on hashtag use (Comment.Attrs.Tags).
type HashtagShare struct{ W Window }

func (s HashtagShare) Name() string   { return "hashtag" }
func (s HashtagShare) Window() Window { return s.W }
func (s HashtagShare) AppendObjects(c graph.Comment, dst []graph.VertexID) []graph.VertexID {
	if c.Attrs == nil {
		return dst
	}
	return append(dst, c.Attrs.Tags...)
}

// ReplyTarget coordinates on who is being replied to: the object is the
// target author of a reply (brigading — many accounts replying to the
// same victim in tight windows).
type ReplyTarget struct{ W Window }

func (s ReplyTarget) Name() string   { return "reply" }
func (s ReplyTarget) Window() Window { return s.W }
func (s ReplyTarget) AppendObjects(c graph.Comment, dst []graph.VertexID) []graph.VertexID {
	if c.Attrs == nil || !c.Attrs.IsReply {
		return dst
	}
	return append(dst, c.Attrs.ReplyTo)
}

// TimeBucket coordinates on platform-wide posting synchrony: the object
// is the comment's time bucket TS/Bucket, the window [0, Bucket). Every
// pair of authors active in the same bucket pairs up, so the cost is
// quadratic in per-bucket volume with no early break — use narrow buckets
// (seconds) on corpora where platform-wide synchrony is meaningful, and
// keep it out of high-volume ingest paths.
type TimeBucket struct {
	// Bucket is the bucket width in seconds (> 0).
	Bucket int64
}

func (s TimeBucket) Name() string   { return "timebucket" }
func (s TimeBucket) Window() Window { return Window{Min: 0, Max: s.Bucket} }
func (s TimeBucket) AppendObjects(c graph.Comment, dst []graph.VertexID) []graph.VertexID {
	b := c.TS / s.Bucket
	if c.TS < 0 && c.TS%s.Bucket != 0 {
		b--
	}
	return append(dst, graph.VertexID(b))
}

// DefaultSignals is the legacy configuration: the co-comment signal alone
// over window w.
func DefaultSignals(w Window) []Signal { return []Signal{CoComment{W: w}} }

// SignalNames lists the built-in signal names NewSignal accepts.
var SignalNames = []string{"cocomment", "urlshare", "hashtag", "reply", "timebucket"}

// NewSignal constructs a built-in signal by name over window w. For
// "timebucket" the bucket width is w.Max (w.Min must be 0).
func NewSignal(name string, w Window) (Signal, error) {
	switch name {
	case "cocomment":
		return CoComment{W: w}, nil
	case "urlshare":
		return URLShare{W: w}, nil
	case "hashtag":
		return HashtagShare{W: w}, nil
	case "reply":
		return ReplyTarget{W: w}, nil
	case "timebucket":
		if w.Min != 0 {
			return nil, fmt.Errorf("projection: timebucket window must start at 0, got %v", w)
		}
		return TimeBucket{Bucket: w.Max}, nil
	default:
		return nil, fmt.Errorf("projection: unknown signal %q (known: %s)",
			name, strings.Join(SignalNames, ", "))
	}
}

// ParseSignals parses a comma-separated signal spec, e.g.
//
//	"cocomment,urlshare=0:300,hashtag=600"
//
// Each entry is name[=δ1:δ2] or name[=δ2]; entries without an override
// use def. An empty spec yields DefaultSignals(def). Unknown names and
// invalid windows are errors.
func ParseSignals(spec string, def Window) ([]Signal, error) {
	if strings.TrimSpace(spec) == "" {
		return DefaultSignals(def), nil
	}
	var out []Signal
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, arg, hasArg := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		w := def
		if hasArg {
			lo, hi, hasLo := strings.Cut(strings.TrimSpace(arg), ":")
			if !hasLo {
				hi, lo = lo, "0"
			}
			min, err := strconv.ParseInt(strings.TrimSpace(lo), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("projection: signal %q: bad window bound %q", name, lo)
			}
			max, err := strconv.ParseInt(strings.TrimSpace(hi), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("projection: signal %q: bad window bound %q", name, hi)
			}
			w = Window{Min: min, Max: max}
		}
		s, err := NewSignal(name, w)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("projection: empty signal spec %q", spec)
	}
	if err := ValidateSignals(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ValidateSignals checks a signal set: non-empty, unique names, valid
// windows.
func ValidateSignals(sigs []Signal) error {
	if len(sigs) == 0 {
		return fmt.Errorf("projection: no signals")
	}
	seen := make(map[string]bool, len(sigs))
	for _, s := range sigs {
		if seen[s.Name()] {
			return fmt.Errorf("projection: duplicate signal %q", s.Name())
		}
		seen[s.Name()] = true
		if err := s.Window().Validate(); err != nil {
			return fmt.Errorf("projection: signal %q: %w", s.Name(), err)
		}
	}
	return nil
}

// DedupeObjects removes duplicate IDs in place, preserving first-seen
// order — extractor output is tiny, so the quadratic scan beats sorting
// or a map.
func DedupeObjects(ids []graph.VertexID) []graph.VertexID {
	if len(ids) < 2 {
		return ids
	}
	w := 0
outer:
	for _, v := range ids {
		for j := 0; j < w; j++ {
			if ids[j] == v {
				continue outer
			}
		}
		ids[w] = v
		w++
	}
	return ids[:w]
}

// ObjectIndex is the per-signal analogue of the BTM's by-page index: one
// time-sorted author neighborhood per distinct object the signal
// extracted from the stream, in CSR form. Object rows are densely
// numbered in first-seen order; the original object IDs are not retained
// (projection only needs neighborhoods, never the IDs back).
type ObjectIndex struct {
	off     []int
	entries []graph.AuthorTime
}

// BuildObjectIndex extracts sig's objects from every comment and groups
// the (author, time) engagements by object, each row sorted by (TS,
// Author) like a BTM page neighborhood. Two extraction passes keep memory
// at one entry per engagement with no per-object slices.
func BuildObjectIndex(comments []graph.Comment, sig Signal) *ObjectIndex {
	var scratch []graph.VertexID
	rows := make(map[graph.VertexID]int32)
	var counts []int
	total := 0
	for _, c := range comments {
		scratch = DedupeObjects(sig.AppendObjects(c, scratch[:0]))
		for _, o := range scratch {
			row, ok := rows[o]
			if !ok {
				row = int32(len(counts))
				rows[o] = row
				counts = append(counts, 0)
			}
			counts[row]++
			total++
		}
	}
	x := &ObjectIndex{off: make([]int, len(counts)+1), entries: make([]graph.AuthorTime, total)}
	for i, n := range counts {
		x.off[i+1] = x.off[i] + n
	}
	cursor := make([]int, len(counts))
	for _, c := range comments {
		scratch = DedupeObjects(sig.AppendObjects(c, scratch[:0]))
		for _, o := range scratch {
			row := rows[o]
			x.entries[x.off[row]+cursor[row]] = graph.AuthorTime{Author: c.Author, TS: c.TS}
			cursor[row]++
		}
	}
	for i := range counts {
		seg := x.entries[x.off[i]:x.off[i+1]]
		sort.Slice(seg, func(a, b int) bool {
			if seg[a].TS != seg[b].TS {
				return seg[a].TS < seg[b].TS
			}
			return seg[a].Author < seg[b].Author
		})
	}
	return x
}

// NumObjects returns the number of distinct objects indexed.
func (x *ObjectIndex) NumObjects() int { return len(x.off) - 1 }

// Neighborhood returns object row o's engagements in ascending time
// order. Aliases internal storage; callers must not mutate it.
func (x *ObjectIndex) Neighborhood(o graph.VertexID) []graph.AuthorTime {
	return x.entries[x.off[o]:x.off[o+1]]
}

// ProjectSignals is the sequential multi-signal reference projection:
// every signal's objects run through the Algorithm 1 pairing kernel with
// that signal's window, accumulated independently into one merged CI
// graph — so projecting one signal alone yields that signal's share of
// every edge. It is to ProjectSignalsSharded what ProjectSequential is to
// ProjectSharded — the implementation the parallel and streaming paths
// are property-tested against. With exactly the default co-comment
// signal it equals ProjectSequential bit for bit.
func ProjectSignals(comments []graph.Comment, sigs []Signal, opts Options) (*graph.CIGraph, error) {
	if err := ValidateSignals(sigs); err != nil {
		return nil, err
	}
	g := graph.NewCIGraph()
	for _, sig := range sigs {
		idx := BuildObjectIndex(comments, sig)
		projectObjects(g, idx.NumObjects(), idx.Neighborhood, []Window{sig.Window()}, opts)
	}
	return g, nil
}
