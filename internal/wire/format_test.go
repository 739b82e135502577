package wire

import (
	"reflect"
	"testing"
)

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
	for body, want := range map[string]refComment{
		`{"author":"a","link_id":"p","created_utc":7,"hashtags":["h"],"parent_author":"q","urls":["u"],"page":"x","ts":9,"tags":["t"],"reply_to":"r"}`: {Author: "a", Page: "p", TS: 7, URLs: []string{"u"}, Tags: []string{"h"}, ReplyTo: "q"},
		`{"author":"a","link_id":"p","created_utc":1577836800.9}`:                                                                                      {Author: "a", Page: "p", TS: 1577836800},
		`{"author":"a","link_id":"p","created_utc":-1.5778368e9}`:                                                                                      {Author: "a", Page: "p", TS: -1577836800},
		`{"author":"a","link_id":"p","created_utc":"1577836800"}`:                                                                                      {Author: "a", Page: "p", TS: 1577836800},
		`{"author":"a","link_id":"p","created_utc":"15778368e2"}`:                                                                                      {Author: "a", Page: "p", TS: 1577836800},
		`{"author":"a","link_id":"p","created_utc":"10"}`:                                                                                              {Author: "a", Page: "p", TS: 10},
	} {
		s.Reset([]byte(body))
		got, err := readAll(&s)
		if err != nil || len(got) != 1 || !reflect.DeepEqual(got[0], want) {
			t.Errorf("%s: got %+v, %v; want %+v", body, got, err, want)
		}
	}
	for _, body := range []string{
		`{"author":"a","link_id":"p","created_utc":1e}`,
		`{"author":"a","link_id":"p","created_utc":1-1}`,
		`{"author":"a","link_id":"p","created_utc":0x10}`,
		`{"author":"a","link_id":"p","created_utc":NaN}`,
		`{"author":"a","link_id":"p","created_utc":}`,
		`{"author":"a","link_id":"p","created_utc":1e999}`,
		`{"author":"a","link_id":"p","created_utc":"soon"}`,
		`{"author":"a","link_id":"p","created_utc":null}`,
	} {
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
	for _, body := range []string{
		``, ` `, `[]`, `null`,
		`[{"author":"a","page":"p","ts":1}]`,
		`{"author":"a","page":"p","ts":1} {"author":"b","page":"p","ts":2}`,
		`{"author":"a","page":"p","ts":1},`,
		`{"author":"a","page":"p","ts":1}]`,
		`{"author":"a","page":"p","ts":1`,
	} {
		if err := s.One([]byte(body), &c); err == nil {
			t.Errorf("%q: no error", body)
		}
	}
}
