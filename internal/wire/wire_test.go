package wire

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// refComment is the JSON wire form of one ingested comment, decoded by
// encoding/json for the oracle.
type refComment struct {
	Author  string   `json:"author"`
	Page    string   `json:"page"`
	TS      int64    `json:"ts"`
	URLs    []string `json:"urls,omitempty"`
	Tags    []string `json:"tags,omitempty"`
	ReplyTo string   `json:"reply_to,omitempty"`
}

func scanAll(t *testing.T, body []byte) ([]refComment, error) {
	t.Helper()
	return readAll(&Scanner{buf: body})
}

func readAll(r Reader) ([]refComment, error) {
	var out []refComment
	var c Comment
	for {
		ok, err := r.Next(&c)
		if err != nil {
			return out, err
		}
		if !ok {
			return out, nil
		}
		rc := refComment{Author: string(c.Author), Page: string(c.Page), TS: c.TS, ReplyTo: string(c.ReplyTo)}
		for _, u := range c.URLs {
			rc.URLs = append(rc.URLs, string(u))
		}
		for _, tg := range c.Tags {
			rc.Tags = append(rc.Tags, string(tg))
		}
		out = append(out, rc)
	}
}

// oracle decodes with encoding/json the way the old handler did.
func oracle(body []byte) ([]refComment, error) {
	dec := json.NewDecoder(strings.NewReader(string(body)))
	var out []refComment
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		if d, ok := tok.(json.Delim); ok && d == '[' {
			for dec.More() {
				var c refComment
				if err := dec.Decode(&c); err != nil {
					return nil, err
				}
				out = append(out, c)
			}
			if _, err := dec.Token(); err != nil {
				return nil, err
			}
			continue
		}
		return nil, fmt.Errorf("oracle only handles arrays")
	}
	return out, nil
}

func TestScannerMatchesEncodingJSON(t *testing.T) {
	body := []byte(`[
		{"author":"alice","page":"p1","ts":100},
		{"author":"böb","page":"p/2","ts":-5,"urls":["http://x/y","u2"],"tags":[],"extra":{"nested":[1,2,{"k":"v"}]}},
		{"author":"c\td","page":"pthree","ts":9223372036854775807,"tags":["t1","はは"],"reply_to":"alice"},
		{}
	]`)
	got, err := scanAll(t, body)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	want, err := oracle(body)
	if err != nil {
		t.Fatalf("oracle: %v", err)
	}
	// encoding/json decodes "tags":[] into an empty non-nil slice; the
	// scanner reports absence and emptiness identically as nil.
	for i := range want {
		if len(want[i].URLs) == 0 {
			want[i].URLs = nil
		}
		if len(want[i].Tags) == 0 {
			want[i].Tags = nil
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("scan mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestScannerNDJSON(t *testing.T) {
	body := []byte("{\"author\":\"a\",\"page\":\"p\",\"ts\":1}\n{\"author\":\"b\",\"page\":\"p\",\"ts\":2}\n")
	got, err := scanAll(t, body)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if len(got) != 2 || got[0].Author != "a" || got[1].TS != 2 {
		t.Fatalf("got %+v", got)
	}
}

func TestScannerMixedArrayAndNDJSON(t *testing.T) {
	// One connection carrying an object, then an array, then another
	// object — a superset of the historical accepted grammar.
	body := []byte(`{"author":"a","page":"p","ts":1}
[{"author":"b","page":"p","ts":2},{"author":"c","page":"p","ts":3}]
{"author":"d","page":"p","ts":4}`)
	got, err := scanAll(t, body)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	want := []string{"a", "b", "c", "d"}
	if len(got) != 4 {
		t.Fatalf("got %d comments", len(got))
	}
	for i, w := range want {
		if got[i].Author != w || got[i].TS != int64(i+1) {
			t.Fatalf("comment %d = %+v", i, got[i])
		}
	}
}

func TestScannerEscapes(t *testing.T) {
	cases := map[string]string{
		`"a\"b"`:       "a\"b",
		`"a\\b\/c"`:    `a\b/c`,
		`"\b\f\n\r\t"`: "\b\f\n\r\t",
		`"Aé"`:         "Aé",
		`"😀"`:          "😀",
		`"\ud800x"`:    "�x", // lone high surrogate
		`"plain"`:      "plain",
		`"はたtag"`:      "はたtag",
	}
	for in, want := range cases {
		body := []byte(fmt.Sprintf(`{"author":%s,"page":"p","ts":1,"urls":[%s],"tags":[%s]}`, in, in, in))
		got, err := scanAll(t, body)
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if got[0].Author != want || got[0].URLs[0] != want || got[0].Tags[0] != want {
			t.Fatalf("%s: got author %q urls %q tags %q, want %q", in, got[0].Author, got[0].URLs[0], got[0].Tags[0], want)
		}
	}
}

func TestScannerArenaViewsSurviveGrowth(t *testing.T) {
	// Many escaped strings force repeated arena growth; earlier views
	// must keep their bytes.
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"author":"useré%d","page":"page\t%d","ts":%d}`, i, i, i)
	}
	sb.WriteByte(']')
	got, err := scanAll(t, []byte(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range got {
		if c.Author != fmt.Sprintf("useré%d", i) || c.Page != fmt.Sprintf("page\t%d", i) {
			t.Fatalf("comment %d corrupted: %+v", i, c)
		}
	}
}

func TestScannerEmptyInputs(t *testing.T) {
	for _, body := range []string{"", "   \n\t ", "[]", "[ ]"} {
		got, err := scanAll(t, []byte(body))
		if err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		if len(got) != 0 {
			t.Fatalf("%q: got %d comments", body, len(got))
		}
	}
}

func TestScannerTruncatedAtEveryPrefix(t *testing.T) {
	full := []byte(`[{"author":"alice","page":"p1","ts":100,"urls":["u"],"reply_to":"bob"},{"author":"b","page":"p","ts":2}]`)
	if _, err := scanAll(t, full); err != nil {
		t.Fatalf("full body must scan: %v", err)
	}
	// n=0 is the (valid) empty body; every other strict prefix sits
	// inside the never-closed array and must error.
	for n := 1; n < len(full); n++ {
		got, err := scanAll(t, full[:n])
		if err == nil {
			t.Fatalf("prefix %d (%q): no error, got %d comments", n, full[:n], len(got))
		}
	}
}

func TestScannerRejectsMalformed(t *testing.T) {
	for _, body := range []string{
		`42`,
		`"str"`,
		`[42]`,
		`[[{"author":"a","page":"p","ts":1}]]`,
		`{"author":}`,
		`{"author":"a","page":"p","ts":1.5}`,
		`{"author":"a" "page":"p"}`,
		`{"author":"a",}`,
		`[{"author":"a","page":"p","ts":1}{"author":"b","page":"p","ts":2}]`,
		`{"author":"a","page":"p","ts":99999999999999999999}`,
		"{\"author\":\"a\x01\",\"page\":\"p\",\"ts\":1}",
	} {
		if _, err := scanAll(t, []byte(body)); err == nil {
			t.Errorf("%q: expected error", body)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	e := NewEncoder()
	e.Add("alice", "p1", 100)
	e.AddAttrs("böb", "p/2", -5, []string{"http://x/y", "u2"}, nil, "")
	e.AddAttrs("c\td", "はた", 1<<62, nil, []string{"t1", "t2"}, "alice")
	e.AddAttrs("", "", 0, nil, nil, "")
	if e.count != 4 {
		t.Fatalf("count = %d", e.count)
	}
	f, err := NewFrameScanner(e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := readAll(f)
	if err != nil {
		t.Fatal(err)
	}
	want := []refComment{
		{Author: "alice", Page: "p1", TS: 100},
		{Author: "böb", Page: "p/2", TS: -5, URLs: []string{"http://x/y", "u2"}},
		{Author: "c\td", Page: "はた", TS: 1 << 62, Tags: []string{"t1", "t2"}, ReplyTo: "alice"},
		{},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
}

func TestFrameEncoderReset(t *testing.T) {
	e := NewEncoder()
	e.Add("a", "p", 1)
	first := len(e.Bytes())
	e.Reset()
	if e.count != 0 {
		t.Fatalf("count after Reset = %d", e.count)
	}
	e.Add("a", "p", 1)
	if len(e.Bytes()) != first {
		t.Fatalf("frame size changed across Reset: %d vs %d", len(e.Bytes()), first)
	}
}

func TestFrameTruncatedAtEveryPrefix(t *testing.T) {
	e := NewEncoder()
	e.AddAttrs("alice", "p1", 100, []string{"u1"}, []string{"t1"}, "bob")
	e.Add("b", "p", 200)
	full := e.Bytes()
	for n := 0; n < len(full); n++ {
		f, err := NewFrameScanner(full[:n])
		if err != nil {
			continue // truncated header: rejected up front
		}
		if _, err := readAll(f); err == nil {
			t.Fatalf("prefix %d: no error", n)
		}
	}
}

func TestFrameRejectsCorruptHeader(t *testing.T) {
	if _, err := NewFrameScanner([]byte("XXXX\x00\x00\x00\x00")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := NewFrameScanner([]byte("CB")); err == nil {
		t.Fatal("short header accepted")
	}
	// Count larger than the body.
	e := NewEncoder()
	e.Add("a", "p", 1)
	buf := append([]byte(nil), e.Bytes()...)
	buf[7] = 9
	f, err := NewFrameScanner(buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readAll(f); err == nil {
		t.Fatal("overdeclared count accepted")
	}
	// Trailing garbage after the declared count.
	buf2 := append(append([]byte(nil), e.Bytes()...), 0xff)
	f2, err := NewFrameScanner(buf2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := readAll(f2); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestScannerZeroAllocSteadyState(t *testing.T) {
	// The escape-free hot path must not allocate per comment (views
	// only). Allow the fixed attrs backing growth on the first pass.
	var sb strings.Builder
	sb.WriteByte('[')
	for i := 0; i < 256; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, `{"author":"user%d","page":"page%d","ts":%d}`, i, i, i)
	}
	sb.WriteByte(']')
	body := []byte(sb.String())
	var c Comment
	s := &Scanner{buf: body}
	allocs := testing.AllocsPerRun(50, func() {
		s.Reset(body)
		for {
			ok, err := s.Next(&c)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return
			}
		}
	})
	if allocs > 0 {
		t.Fatalf("scanner allocates %.1f per body on the escape-free path", allocs)
	}
}
