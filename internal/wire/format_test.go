package wire

import (
	"reflect"
	"testing"
)

// The tables below are what the tests pin and what the fuzzers start from.

// pushshiftBodies are bodies in the archives' spelling and what each reads as.
var pushshiftBodies = map[string]refComment{
	`{"author":"a","link_id":"p","created_utc":7,"hashtags":["h"],"parent_author":"q","urls":["u"],"page":"x","ts":9,"tags":["t"],"reply_to":"r"}`: {Author: "a", Page: "p", TS: 7, URLs: []string{"u"}, Tags: []string{"h"}, ReplyTo: "q"},
	`{"author":"a","link_id":"p","created_utc":1577836800.9}`:                                                                                      {Author: "a", Page: "p", TS: 1577836800},
	`{"author":"a","link_id":"p","created_utc":-1.5778368e9}`:                                                                                      {Author: "a", Page: "p", TS: -1577836800},
	`{"author":"a","link_id":"p","created_utc":"1577836800"}`:                                                                                      {Author: "a", Page: "p", TS: 1577836800},
	`{"author":"a","link_id":"p","created_utc":"15778368e2"}`:                                                                                      {Author: "a", Page: "p", TS: 1577836800},
	`{"author":"a","link_id":"p","created_utc":"10"}`:                                                                                              {Author: "a", Page: "p", TS: 10},
	// Either side of the digit fast path's 15-digit limit, and the ends of int64 as a float64 reaches them.
	`{"author":"a","link_id":"p","created_utc":007}`:                  {Author: "a", Page: "p", TS: 7},
	`{"author":"a","link_id":"p","created_utc":999999999999999}`:      {Author: "a", Page: "p", TS: 999999999999999},
	`{"author":"a","link_id":"p","created_utc":1000000000000000 }`:    {Author: "a", Page: "p", TS: 1000000000000000},
	`{"author":"a","link_id":"p","created_utc":9007199254740993}`:     {Author: "a", Page: "p", TS: 9007199254740992},
	`{"author":"a","link_id":"p","created_utc":9223372036854775295}`:  {Author: "a", Page: "p", TS: 1<<63 - 1024},
	`{"author":"a","link_id":"p","created_utc":-9223372036854775809}`: {Author: "a", Page: "p", TS: -1 << 63},
}

// pushshiftRejects are bodies the archives' spelling refuses.
var pushshiftRejects = []string{
	`{"author":"a","link_id":"p","created_utc":1e}`,
	`{"author":"a","link_id":"p","created_utc":1-1}`,
	`{"author":"a","link_id":"p","created_utc":0x10}`,
	`{"author":"a","link_id":"p","created_utc":NaN}`,
	`{"author":"a","link_id":"p","created_utc":}`,
	`{"author":"a","link_id":"p","created_utc":1e999}`,
	`{"author":"a","link_id":"p","created_utc":"soon"}`,
	`{"author":"a","link_id":"p","created_utc":null}`,
	// Numbers no int64 holds: int64(float64) of these is the machine's choice.
	`{"author":"a","link_id":"p","created_utc":"NaN"}`,
	`{"author":"a","link_id":"p","created_utc":"-Inf"}`,
	`{"author":"a","link_id":"p","created_utc":"Infinity"}`,
	`{"author":"a","link_id":"p","created_utc":1e30}`,
	`{"author":"a","link_id":"p","created_utc":-1e30}`,
	`{"author":"a","link_id":"p","created_utc":9223372036854775807}`,
	`{"author":"a","link_id":"p","created_utc":9223372036854775808}`,
	`{"author":"a","link_id":"p","created_utc":"9223372036854775808"}`,
}

// oneRejects are bodies that are not exactly one comment object.
var oneRejects = []string{
	``, ` `, `[]`, `null`,
	`[{"author":"a","page":"p","ts":1}]`,
	`{"author":"a","page":"p","ts":1} {"author":"b","page":"p","ts":2}`,
	`{"author":"a","page":"p","ts":1},`,
	`{"author":"a","page":"p","ts":1}]`,
	`{"author":"a","page":"p","ts":1`,
}

// TestZeroScannerIsIngest: the zero Scanner, re-armed with Reset as the
// daemon does, still reads the ingest dialect and nothing of the
// archives' — their keys are unknown fields and a fraction is an error.
func TestZeroScannerIsIngest(t *testing.T) {
	var s Scanner
	s.Reset([]byte(`{"author":"a","page":"p","ts":7,"tags":["t"],"reply_to":"r","link_id":"x","created_utc":1.5,"hashtags":["h"],"parent_author":"q"}`))
	got, err := readAll(&s)
	want := []refComment{{Author: "a", Page: "p", TS: 7, Tags: []string{"t"}, ReplyTo: "r"}}
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("got %+v, %v; want %+v", got, err, want)
	}
	for _, body := range []string{
		`{"author":"a","page":"p","ts":1.5}`,
		`{"author":"a","page":"p","ts":1e3}`,
		`{"author":"a","page":"p","ts":"1"}`,
	} {
		s.Reset([]byte(body))
		if _, err := readAll(&s); err == nil {
			t.Errorf("%s: the ingest dialect took a non-integer ts", body)
		}
	}
}

// TestPushshiftFormat: the same scanner under the archives' spelling,
// where the daemon's keys are the unknown ones; Reset keeps the format.
func TestPushshiftFormat(t *testing.T) {
	s := Scanner{Format: Pushshift}
	for body, want := range pushshiftBodies {
		s.Reset([]byte(body))
		got, err := readAll(&s)
		if err != nil || len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Errorf("%s: got %+v, %v; want %+v", body, got, err, want)
		}
	}
	for _, body := range pushshiftRejects {
		s.Reset([]byte(body))
		if got, err := readAll(&s); err == nil {
			t.Errorf("%s: no error, got %+v", body, got)
		}
	}
}

// TestOne: exactly one object, whitespace around it and nothing else.
func TestOne(t *testing.T) {
	var s Scanner
	var c Comment
	if err := s.One([]byte(" \t{\"author\":\"a\",\"page\":\"p\",\"ts\":1}\r "), &c); err != nil || string(c.Author) != "a" || c.TS != 1 {
		t.Fatalf("got %+v, %v", c, err)
	}
	for _, body := range oneRejects {
		if err := s.One([]byte(body), &c); err == nil {
			t.Errorf("%q: no error", body)
		}
	}
}
