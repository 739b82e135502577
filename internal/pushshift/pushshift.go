// Package pushshift reads and writes comment records in the NDJSON format
// of the Pushshift Reddit archives (files.pushshift.io/reddit), the data
// source of the paper. Each line is a JSON object; the three fields the
// pipeline needs are the author name, the page ("link_id", the root
// submission of the comment tree), and the creation time ("created_utc").
// Everything else is ignored on read. Gzip streams are detected by magic
// bytes, matching the archives' compressed distribution.
package pushshift

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"coordbot/internal/graph"
	"coordbot/internal/interner"
	"coordbot/internal/wire"
)

// Record is one comment line of a Pushshift dump (the fields we use).
// URLs, Hashtags, and ParentAuthor are extension fields of this repo's
// exports (real archives carry them buried in the comment body); they
// feed the urlshare / hashtag / reply coordination signals and are
// simply absent from plain dumps.
type Record struct {
	Author       string   `json:"author"`
	LinkID       string   `json:"link_id"`
	CreatedUTC   int64    `json:"created_utc"`
	URLs         []string `json:"urls,omitempty"`
	Hashtags     []string `json:"hashtags,omitempty"`
	ParentAuthor string   `json:"parent_author,omitempty"`
}

// Corpus is an ingested comment stream with its interned identity tables.
type Corpus struct {
	Comments []graph.Comment
	Authors  *interner.Interner
	Pages    *interner.Interner
	// URLs / Tags intern the signal-attribute object spaces (empty for
	// plain dumps without extension fields). Reply targets intern into
	// Authors, the space they live in.
	URLs *interner.Interner
	Tags *interner.Interner
	// Skipped counts malformed lines that were dropped.
	Skipped int
}

// BTM builds the bipartite temporal multigraph of the corpus.
func (c *Corpus) BTM() *graph.BTM {
	return graph.BuildBTM(c.Comments, c.Authors.Len(), c.Pages.Len())
}

// blockSize is how much of the stream is in memory at a time; maxLine is
// what the buffer may grow to for one line before the line is given up on.
const (
	blockSize = 1 << 20
	maxLine   = 1 << 24
)

// scanLines is the one NDJSON line loop. It streams the (gzip-sniffed)
// input through a buffer of block bytes, carrying a partial last line
// over to the next fill, and hands fn a view of every line that scans
// cleanly with an author and a page; the view dies when fn returns.
// Blank lines are ignored. Every other line (malformed, or longer than
// maxLine) is counted in skipped and the read resumes at the next one.
func scanLines(r io.Reader, block, maxLine int, fn func(*wire.Comment) error) (skipped int, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var src io.Reader = br
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return 0, fmt.Errorf("pushshift: gzip: %w", err)
		}
		defer gz.Close()
		src = gz
	}
	sc := wire.Scanner{Format: wire.Pushshift}
	var c wire.Comment
	line := func(b []byte) error {
		over := len(b) >= maxLine // only a last line that filled the buffer
		b = bytes.TrimSuffix(b, []byte("\r"))
		if len(b) == 0 {
			return nil
		}
		if over || sc.One(b, &c) != nil || len(c.Author) == 0 || len(c.Page) == 0 {
			skipped++
			return nil
		}
		return fn(&c)
	}
	buf := make([]byte, block)
	n := 0           // buf[:n] is the carried-over start of a line
	tooLong := false // dropping the rest of a line that outgrew maxLine
	for {
		var rerr error
		for n < len(buf) && rerr == nil {
			var m int
			m, rerr = src.Read(buf[n:])
			n += m
		}
		start := 0
		for {
			i := bytes.IndexByte(buf[start:n], '\n')
			if i < 0 {
				break
			}
			if !tooLong {
				if err := line(buf[start : start+i]); err != nil {
					return skipped, err
				}
			}
			tooLong = false
			start += i + 1
		}
		switch {
		case rerr == io.EOF:
			if !tooLong {
				err = line(buf[start:n])
			}
			return skipped, err
		case rerr != nil:
			return skipped, fmt.Errorf("pushshift: read: %w", rerr)
		case tooLong:
			n = 0
		case start > 0:
			n = copy(buf, buf[start:n])
		case len(buf) < maxLine:
			buf = append(buf, make([]byte, min(len(buf), maxLine-len(buf)))...)
		default:
			skipped++
			tooLong, n = true, 0
		}
	}
}

// read ingests an NDJSON (optionally gzipped) comment stream with the
// line loop's sizes and a guess at the number of comments (0 for none)
// laid open. Malformed lines are counted and skipped, not fatal — real
// dumps contain them.
func read(r io.Reader, block, maxLine, comments int) (*Corpus, error) {
	c := &Corpus{
		Comments: make([]graph.Comment, 0, comments),
		Authors:  interner.New(1 << 12), Pages: interner.New(1 << 12),
		URLs: interner.New(1 << 8), Tags: interner.New(1 << 8),
	}
	var err error
	c.Skipped, err = scanLines(r, block, maxLine, func(wc *wire.Comment) error {
		// IDs are handed out in first-appearance order, per record in the
		// order author, page, urls, hashtags, parent_author.
		cm := graph.Comment{
			Author: c.Authors.InternBytes(wc.Author),
			Page:   c.Pages.InternBytes(wc.Page),
			TS:     wc.TS,
		}
		if wc.HasAttrs() {
			attrs := &graph.CommentAttrs{}
			for _, u := range wc.URLs {
				attrs.URLs = append(attrs.URLs, c.URLs.InternBytes(u))
			}
			for _, h := range wc.Tags {
				attrs.Tags = append(attrs.Tags, c.Tags.InternBytes(h))
			}
			if len(wc.ReplyTo) > 0 {
				attrs.ReplyTo = c.Authors.InternBytes(wc.ReplyTo)
				attrs.IsReply = true
			}
			cm.Attrs = attrs
		}
		c.Comments = append(c.Comments, cm)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return c, nil
}

// ReadFunc streams an NDJSON(.gz) comment stream record by record without
// materializing a corpus: fn is called once per well-formed record in file
// order. author and page are views into the read buffer, valid until fn
// returns: intern them or copy what is kept. Pair with stream.Projector
// for bounded-memory projection of dumps that do not fit in RAM. Returns
// the number of malformed lines skipped.
func ReadFunc(r io.Reader, fn func(author, page []byte, ts int64) error) (skipped int, err error) {
	return scanLines(r, blockSize, maxLine, func(wc *wire.Comment) error {
		return fn(wc.Author, wc.Page, wc.TS)
	})
}

// ReadFile ingests a file, transparently handling .gz.
func ReadFile(path string) (*Corpus, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Size the corpus once, from the file's size and the line length of its
	// head, so it is not regrown and recopied some thirty times. On a
	// gzipped file the guess comes out far too small, which costs nothing;
	// minLine keeps a head of short junk from making it far too large.
	const minLine = float64(len(`{"author":"a","link_id":"b"}`) + 1)
	head := make([]byte, 1<<16)
	n, _ := io.ReadFull(f, head) // an error shows again when read goes on from f
	head = head[:n]
	comments := 0
	if st, err := f.Stat(); err == nil && n > 0 {
		lines := float64(bytes.Count(head, []byte("\n"))+1) / float64(n)
		comments = int(min(lines*33/32, 1/minLine) * float64(st.Size()))
	}
	return read(io.MultiReader(bytes.NewReader(head), f), blockSize, maxLine, comments)
}

// AttrNames resolves signal-attribute IDs back to names on export. Nil
// interners (and IDs outside them) fall back to synthetic "url_<n>" /
// "tag_<n>" names, which is what generated datasets use — their URL and
// tag spaces are dense integers with no name table.
type AttrNames struct {
	URLs *interner.Interner
	Tags *interner.Interner
}

func attrName(in *interner.Interner, id graph.VertexID, prefix string) string {
	if in != nil && int(id) < in.Len() {
		return in.Name(id)
	}
	return fmt.Sprintf("%s%d", prefix, id)
}

// Write emits comments as NDJSON, resolving IDs through the interners.
// gzipped controls compression. Signal attributes export with synthetic
// URL/tag names; use WriteAttrs to resolve them through real interners.
func Write(w io.Writer, comments []graph.Comment, authors, pages *interner.Interner, gzipped bool) error {
	return WriteAttrs(w, comments, authors, pages, AttrNames{}, gzipped)
}

// WriteAttrs is Write with explicit name tables for the extension fields.
func WriteAttrs(w io.Writer, comments []graph.Comment, authors, pages *interner.Interner, names AttrNames, gzipped bool) error {
	var out io.Writer = w
	var gz *gzip.Writer
	if gzipped {
		gz = gzip.NewWriter(w)
		out = gz
	}
	bw := bufio.NewWriterSize(out, 1<<20)
	enc := json.NewEncoder(bw)
	for _, c := range comments {
		rec := Record{
			Author:     authors.Name(c.Author),
			LinkID:     pages.Name(c.Page),
			CreatedUTC: c.TS,
		}
		if a := c.Attrs; a != nil {
			for _, u := range a.URLs {
				rec.URLs = append(rec.URLs, attrName(names.URLs, u, "url_"))
			}
			for _, t := range a.Tags {
				rec.Hashtags = append(rec.Hashtags, attrName(names.Tags, t, "tag_"))
			}
			if a.IsReply {
				rec.ParentAuthor = attrName(authors, a.ReplyTo, "user#")
			}
		}
		if err := enc.Encode(&rec); err != nil {
			return fmt.Errorf("pushshift: encode: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	if gz != nil {
		return gz.Close()
	}
	return nil
}

// WriteFile writes comments to path; a ".gz" suffix enables compression.
func WriteFile(path string, comments []graph.Comment, authors, pages *interner.Interner) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	gzipped := len(path) > 3 && path[len(path)-3:] == ".gz"
	if err := Write(f, comments, authors, pages, gzipped); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// SyntheticPageNames returns an interner holding "t3_<n>" names for n
// pages, for exporting generated datasets in archive format.
func SyntheticPageNames(n int) *interner.Interner {
	in := interner.New(n)
	for i := 0; i < n; i++ {
		in.Intern(fmt.Sprintf("t3_%07d", i))
	}
	return in
}
