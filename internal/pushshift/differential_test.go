package pushshift

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
	"unicode/utf8"
)

// fate is what a reader made of one line: the kept record with its names
// resolved, or the zero value for a skipped line.
type fate struct {
	kept                 bool
	author, page, parent string
	ts                   int64
	noTS                 bool // kept with a timestamp no int64 holds: ts is 0
	urls, tags           string
}

func (g fate) String() string {
	if !g.kept {
		return "skipped"
	}
	ts := fmt.Sprint(g.ts)
	if g.noTS {
		ts = "no-int64"
	}
	return fmt.Sprintf("%q %q %s urls=%s tags=%s parent=%q", g.author, g.page, ts, g.urls, g.tags, g.parent)
}

// fitsInt64 reports whether int64(f) is defined: f is not NaN and
// truncates to something an int64 holds.
func fitsInt64(f float64) bool { return f >= -1<<63 && f < 1<<63 }

// newLine is what Read makes of one line.
func newLine(t testing.TB, line string) fate {
	t.Helper()
	c, err := read(strings.NewReader(line), 64, maxLine, 0)
	if err != nil {
		t.Fatalf("line %q: %v", line, err)
	}
	if len(c.Comments)+c.Skipped > 1 {
		t.Fatalf("line %q read as %d comments, %d skipped", line, len(c.Comments), c.Skipped)
	}
	if len(c.Comments) == 0 {
		return fate{}
	}
	cm := c.Comments[0]
	g := fate{kept: true, author: c.Authors.Name(cm.Author), page: c.Pages.Name(cm.Page), ts: cm.TS, urls: "[]", tags: "[]"}
	if a := cm.Attrs; a != nil {
		var urls, tags []string
		for _, u := range a.URLs {
			urls = append(urls, c.URLs.Name(u))
		}
		for _, h := range a.Tags {
			tags = append(tags, c.Tags.Name(h))
		}
		g.urls, g.tags = fmt.Sprintf("%q", urls), fmt.Sprintf("%q", tags)
		if a.IsReply {
			g.parent = c.Authors.Name(a.ReplyTo)
		}
	}
	return g
}

// oldLine is what the encoding/json reference makes of one line.
func oldLine(line string) fate {
	rec, ok := refLine([]byte(line))
	if !ok {
		return fate{}
	}
	g := fate{kept: true, author: rec.Author, page: rec.LinkID, parent: rec.ParentAuthor, ts: int64(rec.CreatedUTC),
		urls: fmt.Sprintf("%q", rec.URLs), tags: fmt.Sprintf("%q", rec.Hashtags)}
	if !fitsInt64(float64(rec.CreatedUTC)) {
		g.ts, g.noTS = 0, true // the conversion above is the machine's choice
	}
	return g
}

// agreeing are edge lines the two readers must treat alike. %s is
// `"author":"a","link_id":"p"`.
var agreeing = []string{
	`{%s,"created_utc":1577836800}`,
	`{%s,"created_utc":1577836800.0}`,
	`{%s,"created_utc":1577836800.999}`,
	`{%s,"created_utc":1.5778368e9}`,
	`{%s,"created_utc":15778368E+2}`,
	`{%s,"created_utc":"1577836800"}`,
	`{%s,"created_utc":"1577836800.7"}`,
	`{%s,"created_utc":"1.5e3"}`,
	`{%s,"created_utc":"+15"}`,
	`{%s,"created_utc":"0x10"}`,
	`{%s,"created_utc":"10"}`,
	`{%s,"created_utc":-5}`,
	`{%s,"created_utc":-5.9}`,
	`{%s,"created_utc":"-5.9"}`,
	`{%s,"created_utc":-0}`,
	`{%s,"created_utc":0.0000001}`,
	`{%s,"created_utc":1e-400}`,
	`{%s,"created_utc":999999999999999}`,     // 15 digits: the integer path's last
	`{%s,"created_utc":9007199254740993}`,    // 2^53+1: rounds as a float does
	`{%s,"created_utc":9223372036854775295}`, // the largest that rounds down, to 2^63-1024
	`{%s,"created_utc":-9223372036854775808}`,
	`{%s,"created_utc":-9223372036854775809}`,
	`{%s}`, // absent: 0
	// Rejected by both: out of range, or not a number.
	`{%s,"created_utc":1e400}`,
	`{%s,"created_utc":"1e400"}`,
	`{%s,"created_utc":"abc"}`,
	`{%s,"created_utc":""}`,
	`{%s,"created_utc":" 1"}`,
	`{%s,"created_utc":true}`,
	`{%s,"created_utc":[1]}`,
	`{%s,"created_utc":{"v":1}}`,
	`{%s,"created_utc":1e}`,
	`{%s,"created_utc":-}`,
	`{%s,"created_utc":1x}`,
	`{%s,"created_utc":"1}`,
	// Strings: escapes, surrogate pairs and lone surrogates, raw UTF-8.
	`{"author":"a\"b\\c\/d\b\f\n\r\t","link_id":"p","created_utc":1}`,
	`{"author":"é世","link_id":"😀","created_utc":1}`,
	`{"author":"\ud800","link_id":"\ud800A","created_utc":1}`,
	`{"author":"\udc00x","link_id":"\ud83dx","created_utc":1}`,
	`{"author":"é世😀","link_id":"p","created_utc":1}`,
	`{"author":"a","link_id":"p","created_utc":1}`,
	`{"author":"a\u00","link_id":"p","created_utc":1}`,
	`{"author":"a\q","link_id":"p","created_utc":1}`,
	"{\"author\":\"a\tb\",\"link_id\":\"p\",\"created_utc\":1}", // raw control character
	`{"author":"a","link_id":"p","created_utc":1`,
	`{"author":"a","link_id":"p","created_utc":1}}`,
	`{"author":"a","link_id":"p","created_utc":1} {}`,
	`{"author":"a","link_id":"p","created_utc":1,}`,
	`{"author":"a" "link_id":"p"}`,
	`{author:"a","link_id":"p"}`,
	`[{"author":"a","link_id":"p","created_utc":1}]`,
	`null`,
	`"author"`,
	`{}`,
	`   `,
	` {%s,"created_utc":1} `,
	"\t{ \"author\" : \"a\" , \"link_id\" : \"p\" , \"created_utc\" : 1 }\t",
	// Wrong types and empties in the fields read.
	`{"author":1,"link_id":"p","created_utc":1}`,
	`{"author":["a"],"link_id":"p","created_utc":1}`,
	`{"author":"","link_id":"p","created_utc":1}`,
	`{"author":"a","link_id":"","created_utc":1}`,
	`{%s,"created_utc":1,"urls":"u"}`,
	`{%s,"created_utc":1,"urls":[1]}`,
	`{%s,"created_utc":1,"urls":["u",]}`,
	`{%s,"created_utc":1,"parent_author":7}`,
	// Attributes: present, empty, null, holding the empty string.
	`{%s,"created_utc":1,"urls":["u1","u2"],"hashtags":["h"],"parent_author":"b"}`,
	`{%s,"created_utc":1,"urls":[],"hashtags":[],"parent_author":""}`,
	`{%s,"created_utc":1,"urls":null,"hashtags":null}`,
	`{%s,"created_utc":1,"urls":[""],"hashtags":[ "h" , "h" ]}`,
	`{%s,"created_utc":1,"parent_author":"a"}`,
	// The daemon's spellings name nothing in an archive.
	`{%s,"created_utc":1,"page":"q","ts":2,"tags":["t"],"reply_to":"r"}`,
	`{"author":"a","page":"p","ts":1}`,
	// Unknown fields of every shape, wherever they sit.
	`{"id":"c1","body":"he said \"hi\" {[","score":-3,"edited":false,"gilded":null,%s,"created_utc":1}`,
	`{%s,"created_utc":1,"media":{"a":[1,{"b":"}"}],"c":{}},"flair":[[],[[]]]}`,
	`{"retrieved_on":1.5e9,%s,"distinguished":null,"created_utc":1,"controversiality":0}`,
	// A repeated key: the last one wins, in both readers.
	`{"author":"x","link_id":"p","created_utc":1,"author":"a","created_utc":2}`,
	`{%s,"created_utc":1,"urls":["u"],"urls":["v","w"]}`,
	`{%s,"created_utc":1,"urls":["u"],"urls":null}`,
	`{"author":"a","link_id":"p","author":""}`,
}

// divergences are the deliberate differences from encoding/json, each
// pinned from both sides. Nothing else may differ: FuzzRead holds every
// other line to the reference.
var divergences = []struct {
	why      string
	line     string
	old, new string
}{
	{"keys match in their exact case only",
		`{"Author":"a","LINK_ID":"p","created_utc":1}`,
		`"a" "p" 1 urls=[] tags=[] parent=""`, `skipped`},
	{"... so a key in another case does not overwrite the field",
		`{"author":"a","link_id":"p","created_utc":1,"Created_UTC":2}`,
		`"a" "p" 2 urls=[] tags=[] parent=""`, `"a" "p" 1 urls=[] tags=[] parent=""`},
	{"unknown fields are skipped structurally, not validated: a bad literal",
		`{"author":"a","link_id":"p","created_utc":1,"x":tru}`,
		`skipped`, `"a" "p" 1 urls=[] tags=[] parent=""`},
	{"... a bad escape in a string nobody reads",
		`{"author":"a","link_id":"p","created_utc":1,"x":"\q"}`,
		`skipped`, `"a" "p" 1 urls=[] tags=[] parent=""`},
	{"... a bracket closed by the wrong kind",
		`{"author":"a","link_id":"p","created_utc":1,"x":[1}}`,
		`skipped`, `"a" "p" 1 urls=[] tags=[] parent=""`},
	{"an unquoted timestamp is read in strconv.ParseFloat's grammar, wider than JSON's: a leading zero",
		`{"author":"a","link_id":"p","created_utc":01}`,
		`skipped`, `"a" "p" 1 urls=[] tags=[] parent=""`},
	{"... a plus sign, no digit on one side of the point",
		`{"author":"a","link_id":"p","created_utc":+.5}`,
		`skipped`, `"a" "p" 0 urls=[] tags=[] parent=""`},
	{"... or on the other",
		`{"author":"a","link_id":"p","created_utc":1.}`,
		`skipped`, `"a" "p" 1 urls=[] tags=[] parent=""`},
	{"null where a string or the timestamp is expected is malformed, not absent",
		`{"author":"a","link_id":"p","created_utc":1,"parent_author":null}`,
		`"a" "p" 1 urls=[] tags=[] parent=""`, `skipped`},
	{"... the timestamp",
		`{"author":"a","link_id":"p","created_utc":null}`,
		`"a" "p" 0 urls=[] tags=[] parent=""`, `skipped`},
	{"... a list element",
		`{"author":"a","link_id":"p","created_utc":1,"urls":[null]}`,
		`"a" "p" 1 urls=[""] tags=[] parent=""`, `skipped`},
	{"... after a value it would have left standing",
		`{"author":"a","link_id":"p","created_utc":1,"author":null}`,
		`"a" "p" 1 urls=[] tags=[] parent=""`, `skipped`},
	{"a timestamp no int64 holds once rounded to a float64 is malformed, not converted as the machine sees fit: 2^63-1 rounds up to 2^63",
		`{"author":"a","link_id":"p","created_utc":9223372036854775807}`,
		`"a" "p" no-int64 urls=[] tags=[] parent=""`, `skipped`},
	{"... 2^63 itself",
		`{"author":"a","link_id":"p","created_utc":9223372036854775808}`,
		`"a" "p" no-int64 urls=[] tags=[] parent=""`, `skipped`},
	{"... far outside",
		`{"author":"a","link_id":"p","created_utc":1e30}`,
		`"a" "p" no-int64 urls=[] tags=[] parent=""`, `skipped`},
	{"... not a number",
		`{"author":"a","link_id":"p","created_utc":"NaN"}`,
		`"a" "p" no-int64 urls=[] tags=[] parent=""`, `skipped`},
	{"... an infinity",
		`{"author":"a","link_id":"p","created_utc":"-Inf"}`,
		`"a" "p" no-int64 urls=[] tags=[] parent=""`, `skipped`},
	{"... even under a later value that would have replaced it",
		`{"author":"a","link_id":"p","created_utc":1e30,"created_utc":2}`,
		`"a" "p" 2 urls=[] tags=[] parent=""`, `skipped`},
	{"names keep their bytes: invalid UTF-8 is not rewritten to U+FFFD",
		"{\"author\":\"a\xff\",\"link_id\":\"p\",\"created_utc\":1}",
		"\"a�\" \"p\" 1 urls=[] tags=[] parent=\"\"", "\"a\\xff\" \"p\" 1 urls=[] tags=[] parent=\"\""},
}

// explained reports whether a row of the divergence table covers a line
// the readers disagreed on: oldKept is the reference's verdict.
func explained(line []byte, oldKept bool) bool {
	if !utf8.Valid(line) {
		return true
	}
	if !json.Valid(line) {
		return !oldKept // the new reader may have looked at less of it
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	for dec.More() {
		tok, err := dec.Token()
		key, _ := tok.(string)
		var val json.RawMessage
		if err != nil || dec.Decode(&val) != nil {
			return false
		}
		for _, known := range []string{"author", "link_id", "created_utc", "urls", "hashtags", "parent_author"} {
			switch {
			case key == known:
				var list []*string
				var ts refFloat64
				if known != "urls" && known != "hashtags" {
					if string(val) == "null" {
						return true
					}
					if known == "created_utc" && json.Unmarshal(val, &ts) == nil && !fitsInt64(float64(ts)) {
						return true
					}
				} else if json.Unmarshal(val, &list) == nil && slices.Contains(list, nil) {
					return true
				}
			case strings.EqualFold(key, known):
				return true
			}
		}
	}
	return false
}

// edgeLine fills in an agreeing template.
func edgeLine(tmpl, author, page string) string {
	return strings.ReplaceAll(tmpl, "%s", fmt.Sprintf(`"author":%q,"link_id":%q`, author, page))
}

func TestDifferentialEdgeLines(t *testing.T) {
	for _, tmpl := range agreeing {
		line := edgeLine(tmpl, "a", "p")
		if o, n := oldLine(line), newLine(t, line); o != n {
			t.Errorf("%s\n  reference: %v\n  Read:      %v", line, o, n)
		}
	}
}

func TestDivergenceTable(t *testing.T) {
	for _, d := range divergences {
		o, n := oldLine(d.line), newLine(t, d.line)
		if o.String() != d.old || n.String() != d.new {
			t.Errorf("%s: %s\n  reference: %v, table says %s\n  Read:      %v, table says %s", d.why, d.line, o, d.old, n, d.new)
		}
		if o == n || !explained([]byte(d.line), o.kept) {
			t.Errorf("%s: %s: the fuzzer's filter does not know this row", d.why, d.line)
		}
	}
}

// stream is input as a reader would meet it, gzipped or not.
func stream(input string, gz bool) io.Reader {
	if !gz {
		return strings.NewReader(input)
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte(input))
	zw.Close()
	return &buf
}

// manyLines is a file of every agreeing edge line, with blank lines,
// CRLF endings and attribute-carrying records mixed in.
func manyLines() string {
	var sb strings.Builder
	for i, tmpl := range agreeing {
		sb.WriteString(edgeLine(tmpl, fmt.Sprint("a", i%7), fmt.Sprint("p", i%5)))
		switch i % 4 {
		case 0:
			sb.WriteString("\r\n")
		case 1:
			sb.WriteString("\n\n\r\n")
		default:
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// TestReadMatchesReference: whole files, IDs and skip counts included,
// at block sizes that put every line across a boundary and make most
// lines longer than a block; plain, gzipped, and without the last newline.
func TestReadMatchesReference(t *testing.T) {
	file := manyLines()
	for _, input := range []string{file, strings.TrimRight(file, "\r\n"), attrSample, sample, "", "\n", "\r\n\r\n"} {
		want, err := refRead(strings.NewReader(input))
		if err != nil {
			t.Fatal(err)
		}
		for _, block := range []int{1, 2, 3, 7, 64, 1000, blockSize} {
			for _, gz := range []bool{false, true} {
				got, err := read(stream(input, gz), block, maxLine, 0)
				if err != nil {
					t.Fatalf("block %d gz %v: %v", block, gz, err)
				}
				if err := diffCorpus(got, want); err != nil {
					t.Fatalf("block %d gz %v: %v", block, gz, err)
				}
			}
		}
	}
}

// TestReadFuncMatchesRead: the streaming entry point sees the same
// records in the same order and skips the same lines.
func TestReadFuncMatchesRead(t *testing.T) {
	file := manyLines()
	c, err := readAll(strings.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	skipped, err := ReadFunc(strings.NewReader(file), func(author, page []byte, ts int64) error {
		cm := c.Comments[i]
		if string(author) != c.Authors.Name(cm.Author) || string(page) != c.Pages.Name(cm.Page) || ts != cm.TS {
			t.Fatalf("record %d: %q %q %d", i, author, page, ts)
		}
		i++
		return nil
	})
	if err != nil || skipped != c.Skipped || i != len(c.Comments) {
		t.Fatalf("ReadFunc: %d records, %d skipped, err %v; Read: %d, %d", i, skipped, err, len(c.Comments), c.Skipped)
	}
}

// TestReadSkipsOverlongLine: a line longer than maxLine is one skipped
// line, not the end of the read.
func TestReadSkipsOverlongLine(t *testing.T) {
	good := func(a string) string { return `{"author":"` + a + `","link_id":"t3_x","created_utc":1}` }
	long := `{"author":"big","link_id":"t3_x","created_utc":1,"body":"` + strings.Repeat("x", 17<<20) + `"}`
	input := good("a") + "\n" + long + "\n" + good("b") + "\n"
	for _, gz := range []bool{false, true} {
		c, err := readAll(stream(input, gz))
		if err != nil {
			t.Fatalf("gz %v: %v", gz, err)
		}
		if len(c.Comments) != 2 || c.Skipped != 1 || c.Authors.Name(c.Comments[1].Author) != "b" {
			t.Fatalf("gz %v: %d comments, %d skipped", gz, len(c.Comments), c.Skipped)
		}
	}
}

// TestReadLineLengthLimit pins the limit at small sizes: a line is too
// long from maxLine bytes on (its \r counted), wherever it sits, and the
// lines around it are untouched.
func TestReadLineLengthLimit(t *testing.T) {
	const limit = 80
	good := `{"author":"a","link_id":"p","created_utc":1}`
	padded := func(n int) string { // a good line of exactly n bytes
		return good[:len(good)-1] + strings.Repeat(" ", n-len(good)) + "}"
	}
	for _, tc := range []struct {
		input         string
		kept, skipped int
	}{
		{padded(limit-1) + "\n", 1, 0},
		{padded(limit) + "\n", 0, 1},
		{padded(limit-1) + "\r\n", 0, 1},
		{padded(limit - 1), 1, 0},
		{padded(limit), 0, 1},
		{padded(5*limit) + "\n" + good + "\n", 1, 1},
		{good + "\n" + padded(5*limit), 1, 1},
		{good + "\n" + padded(limit) + "\n" + padded(3*limit) + "\n\n" + good, 2, 2},
	} {
		for _, block := range []int{1, 7, limit, 2 * limit} {
			for _, r := range []io.Reader{strings.NewReader(tc.input), iotest.DataErrReader(strings.NewReader(tc.input)), iotest.OneByteReader(strings.NewReader(tc.input))} {
				c, err := read(r, block, limit, 0)
				if err != nil {
					t.Fatal(err)
				}
				if len(c.Comments) != tc.kept || c.Skipped != tc.skipped {
					t.Errorf("block %d, %d-byte input: %d kept, %d skipped, want %d, %d", block, len(tc.input), len(c.Comments), c.Skipped, tc.kept, tc.skipped)
				}
			}
		}
	}
}
