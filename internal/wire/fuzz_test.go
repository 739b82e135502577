package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// fuzzBodies are the bodies format_test.go pins, in either spelling.
func fuzzBodies() []string {
	bodies := append([]string{
		`{"author":"a","page":"p","ts":7,"urls":["u"],"tags":["t"],"reply_to":"r"}`,
		`[{"author":"a\n","page":"é","ts":-1},{"author":"b","page":"p","ts":2}]` + "\n{}",
	}, pushshiftRejects...)
	bodies = append(bodies, oneRejects...)
	for body := range pushshiftBodies {
		bodies = append(bodies, body)
	}
	return bodies
}

// FuzzLenientTS holds the digit fast path of scanLenientTS to the
// ParseInt/ParseFloat path behind it — same value, same verdict, same
// cursor — and what either keeps to the rule itself: the number, rounded
// to a float64 and truncated, and only if an int64 holds that.
func FuzzLenientTS(f *testing.F) {
	const key = `"created_utc":`
	for _, body := range fuzzBodies() {
		if i := strings.Index(body, key); i >= 0 {
			f.Add([]byte(body[i+len(key):]))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fast, slow := Scanner{buf: data}, Scanner{buf: data}
		v, err := fast.scanLenientTS()
		w, werr := slow.scanLenientTSSlow()
		if v != w || (err == nil) != (werr == nil) || fast.pos != slow.pos {
			t.Fatalf("%q: fast path %d, %v, cursor %d; reference %d, %v, cursor %d", data, v, err, fast.pos, w, werr, slow.pos)
		}
		if err != nil {
			return
		}
		tok := string(data[:fast.pos])
		if data[0] == '"' {
			if err := json.Unmarshal(data[:fast.pos], &tok); err != nil {
				t.Fatalf("%q: kept as %d, but the string does not decode: %v", data, v, err)
			}
		}
		x, err := strconv.ParseFloat(tok, 64)
		if err != nil || !(x >= -1<<63 && x < 1<<63) || int64(x) != v {
			t.Fatalf("%q: kept as %d; ParseFloat makes it %v, %v", data, v, x, err)
		}
	})
}

// wordStraddlers are bodies whose strings run 8 bytes or more with an
// escape across a word boundary of the string scan: a two-byte escape
// split 7|1, a \u escape and a surrogate pair starting at each offset
// around the first and second word ends.
func wordStraddlers() []string {
	var bodies []string
	for k := 5; k <= 17; k++ {
		clean := strings.Repeat("abcdefgh", 3)[:k]
		bodies = append(bodies,
			fmt.Sprintf(`{"author":"%s\"%s","page":"%s\\x","ts":1}`, clean, clean, clean),
			fmt.Sprintf(`{"author":"%s\u00e9tail","page":"p","ts":2,"urls":["%s\ud83d\ude00%s"]}`, clean, clean, clean),
			fmt.Sprintf(`{"author":"%s","link_id":"%s\n\t%s","created_utc":"%s"}`, clean, clean, clean, "1577836800"),
		)
	}
	return bodies
}

// FuzzScanner: on any bytes, in either format, One and a Reset+Next loop
// return instead of panicking and leave the cursor inside the buffer; a
// body that is one object reads the same through both; and from every
// '"' in the bytes, the word-at-a-time string scan agrees with the byte
// loop.
func FuzzScanner(f *testing.F) {
	for _, body := range append(fuzzBodies(), wordStraddlers()...) {
		f.Add([]byte(body), true)
		f.Add([]byte(body), false)
	}
	f.Fuzz(func(t *testing.T, data []byte, archive bool) {
		for i, b := range data {
			if b == '"' {
				if msg := sameScanString(data, i); msg != "" {
					t.Fatal(msg)
				}
			}
		}
		var format Format
		if archive {
			format = Pushshift
		}
		inside := func(s *Scanner) {
			if s.pos < 0 || s.pos > len(data) {
				t.Fatalf("%q: cursor %d outside the %d-byte buffer", data, s.pos, len(data))
			}
		}
		one := Scanner{Format: format}
		var c Comment
		oneErr := one.One(data, &c)
		inside(&one)

		loop := Scanner{Format: format}
		loop.Reset(data)
		var first, next Comment
		n := 0
		var loopErr error
		for {
			ok, err := loop.Next(&next)
			inside(&loop)
			if loopErr = err; err != nil || !ok {
				break
			}
			if n++; n == 1 {
				first = next
			} else if n > len(data) {
				t.Fatalf("%q: more comments than bytes", data)
			}
		}

		// Next takes what One takes, and arrays and runs of objects besides.
		bare := bytes.HasPrefix(bytes.TrimLeft(data, " \t\n\r"), []byte("{"))
		if loopOne := loopErr == nil && n == 1 && bare; loopOne != (oneErr == nil) {
			t.Fatalf("%q: One: %v; Next: %d comments, %v", data, oneErr, n, loopErr)
		}
		if oneErr == nil && !reflect.DeepEqual(c, first) {
			t.Fatalf("%q: One read %+v, Next %+v", data, c, first)
		}
	})
}

// FuzzFrameScanner: on any bytes, FrameScanner returns instead of
// panicking, every view it hands out lies inside the input, and a frame
// either fails or yields exactly its declared count; and any comment the
// fuzzer builds reads back from Encoder's frame field for field.
func FuzzFrameScanner(f *testing.F) {
	e := NewEncoder()
	e.Add("a", "p", 7)
	e.AddAttrs("böb", "p/2", -5, []string{"u1", ""}, []string{"t"}, "a")
	frame := e.Bytes()
	f.Add(frame, "a", "p", int64(1), "", "", "")
	f.Add(frame[:len(frame)-3], "c\td", "はた", int64(-1)<<62, "u1,u2", "t", "r")
	f.Add([]byte("CBF1\x00\x00\x00\x02\x07\x01a\x01p\x02\xff\xff\xff\xff\x0f"), "", "", int64(0), ",", ",", "")
	f.Fuzz(func(t *testing.T, data []byte, author, page string, ts int64, urls, tags, reply string) {
		inside := func(v []byte) {
			if len(v) == 0 {
				return
			}
			for i := range data {
				if &data[i] == &v[0] && i+len(v) <= len(data) {
					return
				}
			}
			t.Fatalf("%q: view %q outside the input", data, v)
		}
		if fs, err := NewFrameScanner(data); err == nil {
			var c Comment
			n := uint32(0)
			for {
				ok, err := fs.Next(&c)
				if err != nil {
					break
				} else if !ok {
					if want := binary.BigEndian.Uint32(data[4:8]); n != want {
						t.Fatalf("%q: clean end after %d comments, %d declared", data, n, want)
					}
					break
				}
				n++
				for _, v := range append([][]byte{c.Author, c.Page, c.ReplyTo}, append(c.URLs, c.Tags...)...) {
					inside(v)
				}
			}
		}

		list := func(s string) []string {
			if s == "" {
				return nil
			}
			return strings.Split(s, ",")
		}
		e := NewEncoder()
		e.AddAttrs(author, page, ts, list(urls), list(tags), reply)
		fs, err := NewFrameScanner(e.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var c Comment
		if ok, err := fs.Next(&c); !ok || err != nil {
			t.Fatalf("encoded comment does not read back: %v, %v", ok, err)
		}
		strs := func(vs [][]byte) (out []string) {
			for _, v := range vs {
				out = append(out, string(v))
			}
			return out
		}
		got := []any{string(c.Author), string(c.Page), c.TS, strs(c.URLs), strs(c.Tags), string(c.ReplyTo)}
		want := []any{author, page, ts, list(urls), list(tags), reply}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %q, want %q", got, want)
		}
		if ok, err := fs.Next(&c); ok || err != nil {
			t.Fatalf("one-comment frame: second Next = %v, %v", ok, err)
		}
	})
}
