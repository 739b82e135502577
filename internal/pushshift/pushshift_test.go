package pushshift

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"coordbot/internal/graph"
	"coordbot/internal/interner"
)

// readAll ingests r with the production line-loop sizes.
func readAll(r io.Reader) (*Corpus, error) { return read(r, blockSize, maxLine, 0) }

const sample = `{"author":"alice","link_id":"t3_aaa","created_utc":100}
{"author":"bob","link_id":"t3_aaa","created_utc":"105"}

{"author":"alice","link_id":"t3_bbb","created_utc":200.0}
not json at all
{"author":"","link_id":"t3_ccc","created_utc":1}
`

func TestReadBasic(t *testing.T) {
	c, err := readAll(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Comments) != 3 {
		t.Fatalf("comments = %d, want 3", len(c.Comments))
	}
	if c.Skipped != 2 {
		t.Fatalf("skipped = %d, want 2 (bad json + empty author)", c.Skipped)
	}
	if c.Authors.Len() != 2 || c.Pages.Len() != 2 {
		t.Fatalf("authors=%d pages=%d, want 2,2", c.Authors.Len(), c.Pages.Len())
	}
	// String created_utc must parse.
	bobID, _ := c.Authors.Lookup("bob")
	for _, cm := range c.Comments {
		if cm.Author == bobID && cm.TS != 105 {
			t.Fatalf("bob TS = %d, want 105", cm.TS)
		}
	}
	b := c.BTM()
	if b.NumEdges() != 3 {
		t.Fatalf("BTM edges = %d", b.NumEdges())
	}
}

func TestRoundTripPlain(t *testing.T) {
	roundTrip(t, false)
}

func TestRoundTripGzip(t *testing.T) {
	roundTrip(t, true)
}

func roundTrip(t *testing.T, gz bool) {
	t.Helper()
	authors := interner.New(4)
	pages := interner.New(4)
	comments := []graph.Comment{
		{Author: authors.Intern("alice"), Page: pages.Intern("t3_x"), TS: 10},
		{Author: authors.Intern("bob"), Page: pages.Intern("t3_y"), TS: 20},
		{Author: authors.Intern("alice"), Page: pages.Intern("t3_y"), TS: 30},
	}
	var buf bytes.Buffer
	if err := Write(&buf, comments, authors, pages, gz); err != nil {
		t.Fatal(err)
	}
	c, err := readAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Comments) != 3 || c.Skipped != 0 {
		t.Fatalf("read back %d comments, %d skipped", len(c.Comments), c.Skipped)
	}
	for i, cm := range c.Comments {
		if c.Authors.Name(cm.Author) != authors.Name(comments[i].Author) ||
			c.Pages.Name(cm.Page) != pages.Name(comments[i].Page) ||
			cm.TS != comments[i].TS {
			t.Fatalf("comment %d mismatch", i)
		}
	}
}

func TestReadWriteFile(t *testing.T) {
	dir := t.TempDir()
	authors := interner.New(2)
	pages := SyntheticPageNames(3)
	comments := []graph.Comment{
		{Author: authors.Intern("u1"), Page: 0, TS: 1},
		{Author: authors.Intern("u2"), Page: 2, TS: 2},
	}
	for _, fn := range []string{"d.ndjson", "d.ndjson.gz"} {
		path := filepath.Join(dir, fn)
		if err := WriteFile(path, comments, authors, pages); err != nil {
			t.Fatal(err)
		}
		c, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Comments) != 2 {
			t.Fatalf("%s: %d comments", fn, len(c.Comments))
		}
		if name := c.Pages.Name(c.Comments[1].Page); name != "t3_0000002" {
			t.Fatalf("%s: page name %q", fn, name)
		}
	}
	// gz file must actually be gzipped.
	raw, _ := os.ReadFile(filepath.Join(dir, "d.ndjson.gz"))
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatal("gz file missing gzip magic")
	}
}

func TestQuickRoundTripIdentity(t *testing.T) {
	// Property: write→read is the identity on arbitrary comment streams.
	f := func(seed int64, nRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%64) + 1
		authors := interner.New(8)
		pages := interner.New(8)
		comments := make([]graph.Comment, n)
		for i := range comments {
			comments[i] = graph.Comment{
				Author: authors.Intern(randName(rng, "u")),
				Page:   pages.Intern(randName(rng, "t3_")),
				TS:     rng.Int63n(1 << 40),
			}
		}
		var buf bytes.Buffer
		if err := Write(&buf, comments, authors, pages, seed%2 == 0); err != nil {
			return false
		}
		c, err := readAll(&buf)
		if err != nil || len(c.Comments) != n || c.Skipped != 0 {
			return false
		}
		for i, cm := range c.Comments {
			if c.Authors.Name(cm.Author) != authors.Name(comments[i].Author) ||
				c.Pages.Name(cm.Page) != pages.Name(comments[i].Page) ||
				cm.TS != comments[i].TS {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func randName(rng *rand.Rand, prefix string) string {
	const letters = "abcdefghij"
	b := make([]byte, 5)
	for i := range b {
		b[i] = letters[rng.Intn(len(letters))]
	}
	return prefix + string(b)
}

// The reference reader: the encoding/json line loop Read was before it
// moved onto wire.Scanner, kept as the oracle of the differential tests.

// refRecord is a dump line as encoding/json decodes it.
type refRecord struct {
	Author       string     `json:"author"`
	LinkID       string     `json:"link_id"`
	CreatedUTC   refFloat64 `json:"created_utc"`
	URLs         []string   `json:"urls,omitempty"`
	Hashtags     []string   `json:"hashtags,omitempty"`
	ParentAuthor string     `json:"parent_author,omitempty"`
}

// refFloat64 accepts created_utc as a number or a numeric string.
type refFloat64 float64

func (f *refFloat64) UnmarshalJSON(b []byte) error {
	if len(b) > 1 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		*f = refFloat64(v)
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = refFloat64(v)
	return nil
}

// refLine decodes one line; ok is whether the reference keeps it.
func refLine(line []byte) (rec refRecord, ok bool) {
	err := json.Unmarshal(line, &rec)
	return rec, err == nil && rec.Author != "" && rec.LinkID != ""
}

func refRead(r io.Reader) (*Corpus, error) {
	br := bufio.NewReader(r)
	var src io.Reader = br
	if b, err := br.Peek(2); err == nil && b[0] == 0x1f && b[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, err
		}
		defer gz.Close()
		src = gz
	}
	c := &Corpus{
		Authors: interner.New(0), Pages: interner.New(0),
		URLs: interner.New(0), Tags: interner.New(0),
	}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		rec, ok := refLine(line)
		if !ok {
			c.Skipped++
			continue
		}
		cm := graph.Comment{
			Author: c.Authors.Intern(rec.Author),
			Page:   c.Pages.Intern(rec.LinkID),
			TS:     int64(rec.CreatedUTC),
		}
		if len(rec.URLs) > 0 || len(rec.Hashtags) > 0 || rec.ParentAuthor != "" {
			attrs := &graph.CommentAttrs{}
			for _, u := range rec.URLs {
				attrs.URLs = append(attrs.URLs, c.URLs.Intern(u))
			}
			for _, h := range rec.Hashtags {
				attrs.Tags = append(attrs.Tags, c.Tags.Intern(h))
			}
			if rec.ParentAuthor != "" {
				attrs.ReplyTo = c.Authors.Intern(rec.ParentAuthor)
				attrs.IsReply = true
			}
			cm.Attrs = attrs
		}
		c.Comments = append(c.Comments, cm)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return c, nil
}

// diffCorpus reports the first difference between two corpora: records,
// IDs, name tables, skip counts.
func diffCorpus(got, want *Corpus) error {
	if got.Skipped != want.Skipped {
		return fmt.Errorf("skipped %d, want %d", got.Skipped, want.Skipped)
	}
	tables := []struct {
		name      string
		got, want *interner.Interner
	}{{"authors", got.Authors, want.Authors}, {"pages", got.Pages, want.Pages},
		{"urls", got.URLs, want.URLs}, {"tags", got.Tags, want.Tags}}
	names := func(in *interner.Interner) []string {
		out := make([]string, in.Len())
		for i := range out {
			out[i] = in.Name(interner.ID(i))
		}
		return out
	}
	for _, tb := range tables {
		if g, w := names(tb.got), names(tb.want); !slices.Equal(g, w) {
			return fmt.Errorf("%s %q, want %q", tb.name, g, w)
		}
	}
	if len(got.Comments) != len(want.Comments) {
		return fmt.Errorf("%d comments, want %d", len(got.Comments), len(want.Comments))
	}
	for i, g := range got.Comments {
		w := want.Comments[i]
		if g.Author != w.Author || g.Page != w.Page || g.TS != w.TS || !reflect.DeepEqual(g.Attrs, w.Attrs) {
			return fmt.Errorf("comment %d: %+v (attrs %+v), want %+v (attrs %+v)", i, g, g.Attrs, w, w.Attrs)
		}
	}
	return nil
}

// TestReadFileSizesCorpusOnce: a regular dump lands in the capacity
// guessed from its head, and a head of blank lines cannot blow the guess
// up past what the file's size allows.
func TestReadFileSizesCorpusOnce(t *testing.T) {
	dir := t.TempDir()
	var dump, junk bytes.Buffer
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&dump, `{"author":"user_%d","link_id":"t3_%07d","created_utc":%d}`+"\n", i%300, i%70, 1577836800+i)
	}
	junk.WriteString(strings.Repeat("\n", 1<<16))
	junk.Write(dump.Bytes())
	for name, tc := range map[string]struct {
		data   []byte
		maxCap int
	}{
		"dump": {dump.Bytes(), 5000 * 11 / 10},
		"junk": {junk.Bytes(), junk.Len() / 29},
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := ReadFile(path)
		if err != nil || len(c.Comments) != 5000 {
			t.Fatalf("%s: %d comments, err %v", name, len(c.Comments), err)
		}
		if name == "dump" && cap(c.Comments) < 5000 {
			t.Errorf("%s: guessed %d comments, fewer than the 5000 there are", name, cap(c.Comments))
		}
		if cap(c.Comments) > tc.maxCap {
			t.Errorf("%s: room for %d comments, want at most %d", name, cap(c.Comments), tc.maxCap)
		}
	}
}
