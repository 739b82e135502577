package wire

import (
	"bytes"
	"encoding/json"
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

// FuzzScanner: on any bytes, in either format, One and a Reset+Next loop
// return instead of panicking and leave the cursor inside the buffer; and
// a body that is one object reads the same through both.
func FuzzScanner(f *testing.F) {
	for _, body := range fuzzBodies() {
		f.Add([]byte(body), true)
		f.Add([]byte(body), false)
	}
	f.Fuzz(func(t *testing.T, data []byte, archive bool) {
		format := Ingest
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
