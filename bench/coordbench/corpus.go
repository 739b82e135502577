package main

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"coordbot/internal/graph"
	"coordbot/internal/redditgen"
	"coordbot/internal/wire"
)

// excluded are the helper accounts every workload excludes. The daemon
// interns its -exclude list before any traffic, so they take author IDs 0
// and 1 there; the corpus reserves the same two IDs.
var excluded = []string{"AutoModerator", "[deleted]"}

// corpus is a seeded comment stream: one generated epoch, replayed back to
// back in event time until the stream is n comments long. Epoch e shifts timestamps by
// e*span and page/url/tag IDs by e times the epoch's object count (fresh
// objects, same authors), so the density of the stream — pairs per
// comment — is that of the epoch however long the stream gets. Growing a
// corpus with a preset's scale knob instead concentrates traffic on the
// hottest page and explodes the pair count.
//
// Author IDs are canonical: numbered by first appearance in the stream
// (author, then reply target, per comment) after the excluded names —
// exactly how the daemon's interner numbers them, so a census computed
// in-process from these comments and one read back from the daemon share
// an ID space.
type corpus struct {
	authors []string        // canonical author ID -> name
	base    []graph.Comment // epoch 0 in stream order
	span    int64           // event seconds per epoch; epochs never overlap
	pages   int             // object-space sizes of one epoch
	urls    int
	tags    int
	n       int // stream length in comments
	// truth maps every planted bot to true; rings lists them per network.
	truth map[graph.VertexID]bool
	rings [][]graph.VertexID
}

// density is the corpus property the cost of projection follows: per
// comment, how many later comments on the same page fall inside the
// window. A handful of hot pages carry most of it, so it is heavy-tailed
// across seeds — one page created just before the preset's End has its
// whole life clamped into the last second — and a run's throughput
// follows it.
func density(comments []graph.Comment, numPages int) float64 {
	recent := make([][]int64, numPages) // per page, timestamps still inside the window
	var total int
	for _, c := range comments {
		r := recent[c.Page]
		for len(r) > 0 && c.TS-r[0] >= window.Max {
			r = r[1:]
		}
		total += len(r)
		recent[c.Page] = append(r, c.TS)
	}
	return float64(total) / float64(len(comments))
}

// generate draws datasets from cfg under successive sub-seeds of seed
// until one's density lies in [lo, hi], so that every seed yields a
// different corpus of the same density: the benchmark controls pairs per
// comment rather than inheriting whatever a preset and a seed produce.
// hi <= 0 accepts the first draw.
func generate(cfg redditgen.Config, seed int64, lo, hi float64) (*redditgen.Dataset, error) {
	const tries = 64
	for i := int64(0); i < tries; i++ {
		cfg.Seed = seed*tries + i
		ds := redditgen.Generate(cfg)
		if d := density(ds.Comments, ds.NumPages); hi <= 0 || (d >= lo && d <= hi) {
			return ds, nil
		}
	}
	return nil, fmt.Errorf("no corpus with density in [%g, %g] in %d draws from seed %d: has redditgen changed?", lo, hi, tries, seed)
}

// newCorpus canonicalises a generated dataset, cut off at the config's
// End. Presets let cohorts and bot replies trail past End for days; tiled,
// that sparse tail would leave a stretch of every epoch with no campaign
// in it, and a horizon ending there would hold too few waves to flag one.
func newCorpus(ds *redditgen.Dataset, end int64) *corpus {
	base := ds.Comments
	for len(base) > 0 && base[len(base)-1].TS >= end {
		base = base[:len(base)-1]
	}
	c := &corpus{
		base:  base,
		pages: ds.NumPages,
		urls:  ds.NumURLs,
		tags:  ds.NumTags,
		n:     len(base),
		truth: make(map[graph.VertexID]bool),
	}
	canon := make([]int32, ds.Authors.Len())
	for i := range canon {
		canon[i] = -1
	}
	assign := func(id graph.VertexID) graph.VertexID {
		if canon[id] < 0 {
			canon[id] = int32(len(c.authors))
			c.authors = append(c.authors, ds.Authors.Name(id))
		}
		return graph.VertexID(canon[id])
	}
	for _, name := range excluded { // redditgen always interns both helpers
		id, _ := ds.Authors.Lookup(name)
		assign(id)
	}
	for i := range c.base {
		cm := &c.base[i]
		cm.Author = assign(cm.Author)
		if a := cm.Attrs; a != nil && a.IsReply {
			// Attrs are private to this dataset; rewrite in place.
			a.ReplyTo = assign(a.ReplyTo)
		}
	}
	lo, hi := c.base[0].TS, c.base[len(c.base)-1].TS
	c.span = hi - lo + 1
	for _, members := range ds.Truth {
		var ring []graph.VertexID
		for _, id := range members {
			if canon[id] >= 0 { // a bot that never commented cannot be found
				v := graph.VertexID(canon[id])
				c.truth[v] = true
				ring = append(ring, v)
			}
		}
		if len(ring) >= 3 {
			c.rings = append(c.rings, ring)
		}
	}
	// Map order is random; the reader's seeded request mix indexes rings.
	slices.SortFunc(c.rings, func(a, b []graph.VertexID) int { return cmp.Compare(a[0], b[0]) })
	return c
}

// at materialises stream position i (attributes of later epochs are
// fresh allocations; epoch 0 aliases the base).
func (c *corpus) at(i int) graph.Comment {
	e, k := i/len(c.base), i%len(c.base)
	cm := c.base[k]
	if e == 0 {
		return cm
	}
	cm.TS += int64(e) * c.span
	cm.Page += graph.VertexID(e * c.pages)
	if a := cm.Attrs; a != nil {
		b := &graph.CommentAttrs{ReplyTo: a.ReplyTo, IsReply: a.IsReply}
		for _, u := range a.URLs {
			b.URLs = append(b.URLs, u+graph.VertexID(e*c.urls))
		}
		for _, t := range a.Tags {
			b.Tags = append(b.Tags, t+graph.VertexID(e*c.tags))
		}
		cm.Attrs = b
	}
	return cm
}

// ts is at(i).TS without materialising the comment.
func (c *corpus) ts(i int) int64 {
	return c.base[i%len(c.base)].TS + int64(i/len(c.base))*c.span
}

// survivors returns the comments with TS > lastTS-horizon: the window a
// sliding projector still holds once the whole stream is applied.
func (c *corpus) survivors(horizon int64) []graph.Comment {
	cut := c.ts(c.n-1) - horizon
	i := c.n
	for i > 0 && c.ts(i-1) > cut {
		i--
	}
	out := make([]graph.Comment, 0, c.n-i)
	for ; i < c.n; i++ {
		out = append(out, c.at(i))
	}
	return out
}

// activeTruth is the planted bots with at least one surviving comment.
func (c *corpus) activeTruth(survivors []graph.Comment) map[graph.VertexID]bool {
	out := make(map[graph.VertexID]bool)
	for _, cm := range survivors {
		if c.truth[cm.Author] {
			out[cm.Author] = true
		}
	}
	return out
}

// batch is one pre-encoded ingest body.
type batch struct {
	body  []byte
	n     int
	maxTS int64
}

// encode cuts stream positions [from, to) into bodies of about size
// comments. A body never ends between two comments of equal timestamp, so
// every watermark the daemon publishes names exactly one batch boundary —
// which is what lets the harness recover, from outside, which batches a
// survey cycle covered.
func (c *corpus) encode(from, to, size int, frame bool) []batch {
	var out []batch
	enc := wire.NewEncoder()
	var buf []byte
	for i := from; i < to; {
		j := i + size
		if j > to {
			j = to
		}
		for j < to && c.ts(j) == c.ts(j-1) {
			j++
		}
		if frame {
			enc.Reset()
		} else {
			buf = append(buf[:0], '[')
		}
		for k := i; k < j; k++ {
			cm := c.at(k)
			if frame {
				c.encodeFrame(enc, cm)
				continue
			}
			if k > i {
				buf = append(buf, ',')
			}
			buf = c.appendJSON(buf, cm)
		}
		var body []byte
		if frame {
			body = append(body, enc.Bytes()...)
		} else {
			body = append(append(body, buf...), ']')
		}
		out = append(out, batch{body: body, n: j - i, maxTS: c.ts(j - 1)})
		i = j
	}
	return out
}

func appendName(dst []byte, prefix byte, n uint32) []byte {
	return strconv.AppendUint(append(dst, prefix), uint64(n), 10)
}

// appendJSON writes one comment object. Generated names contain nothing
// JSON would escape.
func (c *corpus) appendJSON(dst []byte, cm graph.Comment) []byte {
	dst = append(dst, `{"author":"`...)
	dst = append(dst, c.authors[cm.Author]...)
	dst = append(dst, `","page":"`...)
	dst = appendName(dst, 'p', cm.Page)
	dst = append(dst, `","ts":`...)
	dst = strconv.AppendInt(dst, cm.TS, 10)
	if a := cm.Attrs; a != nil {
		list := func(key string, prefix byte, ids []graph.VertexID) {
			if len(ids) == 0 {
				return
			}
			dst = append(append(dst, `,"`...), key...)
			dst = append(dst, `":[`...)
			for i, id := range ids {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = append(appendName(append(dst, '"'), prefix, id), '"')
			}
			dst = append(dst, ']')
		}
		list("urls", 'u', a.URLs)
		list("tags", 'h', a.Tags)
		if a.IsReply {
			dst = append(dst, `,"reply_to":"`...)
			dst = append(dst, c.authors[a.ReplyTo]...)
			dst = append(dst, '"')
		}
	}
	return append(dst, '}')
}

func (c *corpus) encodeFrame(enc *wire.Encoder, cm graph.Comment) {
	page := string(appendName(nil, 'p', cm.Page))
	a := cm.Attrs
	if a == nil {
		enc.Add(c.authors[cm.Author], page, cm.TS)
		return
	}
	var urls, tags []string
	for _, u := range a.URLs {
		urls = append(urls, string(appendName(nil, 'u', u)))
	}
	for _, t := range a.Tags {
		tags = append(tags, string(appendName(nil, 'h', t)))
	}
	reply := ""
	if a.IsReply {
		reply = c.authors[a.ReplyTo]
	}
	enc.AddAttrs(c.authors[cm.Author], page, cm.TS, urls, tags, reply)
}
