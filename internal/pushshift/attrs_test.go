// Round-trip tests for the signal-attribute extension fields: urls,
// hashtags, and parent_author must survive WriteAttrs → Read with their
// names intact, and plain dumps without attributes must stay byte-stable.
package pushshift

import (
	"bytes"
	"strings"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/interner"
)

const attrSample = `{"author":"alice","link_id":"t3_aaa","created_utc":100,"urls":["example.com/x","example.com/y"],"hashtags":["maga"]}
{"author":"bob","link_id":"t3_aaa","created_utc":105,"parent_author":"alice"}
{"author":"carol","link_id":"t3_bbb","created_utc":200}
`

func TestReadAttrs(t *testing.T) {
	c, err := readAll(strings.NewReader(attrSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Comments) != 3 {
		t.Fatalf("comments = %d, want 3", len(c.Comments))
	}
	if c.URLs.Len() != 2 || c.Tags.Len() != 1 {
		t.Fatalf("urls=%d tags=%d, want 2,1", c.URLs.Len(), c.Tags.Len())
	}
	a := c.Comments[0].Attrs
	if a == nil || len(a.URLs) != 2 || len(a.Tags) != 1 || a.IsReply {
		t.Fatalf("alice attrs = %+v", a)
	}
	if c.URLs.Name(a.URLs[0]) != "example.com/x" || c.Tags.Name(a.Tags[0]) != "maga" {
		t.Fatalf("attr names did not intern: %+v", a)
	}
	b := c.Comments[1].Attrs
	if b == nil || !b.IsReply {
		t.Fatalf("bob attrs = %+v", b)
	}
	// Reply targets live in the author ID space.
	if alice, ok := c.Authors.Lookup("alice"); !ok || b.ReplyTo != alice {
		t.Fatalf("bob ReplyTo = %d, want alice's author ID", b.ReplyTo)
	}
	if c.Comments[2].Attrs != nil {
		t.Fatalf("carol grew attrs: %+v", c.Comments[2].Attrs)
	}
}

// TestAttrsRoundTrip: WriteAttrs with real name tables, read back, and
// every attribute resolves to the same names in the same order.
func TestAttrsRoundTrip(t *testing.T) {
	for _, gz := range []bool{false, true} {
		c, err := readAll(strings.NewReader(attrSample))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		err = WriteAttrs(&buf, c.Comments, c.Authors, c.Pages,
			AttrNames{URLs: c.URLs, Tags: c.Tags}, gz)
		if err != nil {
			t.Fatal(err)
		}
		back, err := readAll(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(back.Comments) != len(c.Comments) {
			t.Fatalf("gz=%v: %d comments back, want %d", gz, len(back.Comments), len(c.Comments))
		}
		for i, orig := range c.Comments {
			got := back.Comments[i]
			if names(c, orig) != names(back, got) {
				t.Fatalf("gz=%v comment %d: attrs %q != %q", gz, i, names(back, got), names(c, orig))
			}
		}
	}
}

// TestWriteAttrsSyntheticNames: Write (no name tables) falls back to
// stable synthetic names instead of dropping the attributes.
func TestWriteAttrsSyntheticNames(t *testing.T) {
	comments := []graph.Comment{{
		Author: 0, Page: 0, TS: 1,
		Attrs: &graph.CommentAttrs{URLs: []graph.VertexID{7}, Tags: []graph.VertexID{3}},
	}}
	authors := interner.New(4)
	authors.Intern("alice")
	pages := interner.New(4)
	pages.Intern("t3_aaa")
	var buf bytes.Buffer
	if err := Write(&buf, comments, authors, pages, false); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, `"urls":["url_7"]`) || !strings.Contains(out, `"hashtags":["tag_3"]`) {
		t.Fatalf("synthetic names missing: %s", out)
	}
}

// names renders one comment's attributes through its corpus interners,
// canonically, for cross-corpus comparison.
func names(c *Corpus, cm graph.Comment) string {
	if cm.Attrs == nil {
		return "-"
	}
	var sb strings.Builder
	for _, u := range cm.Attrs.URLs {
		sb.WriteString("u:" + c.URLs.Name(u) + ";")
	}
	for _, tg := range cm.Attrs.Tags {
		sb.WriteString("t:" + c.Tags.Name(tg) + ";")
	}
	if cm.Attrs.IsReply {
		sb.WriteString("r:" + c.Authors.Name(cm.Attrs.ReplyTo) + ";")
	}
	return sb.String()
}
