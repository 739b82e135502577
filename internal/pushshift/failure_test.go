package pushshift

import (
	"bytes"
	"compress/gzip"
	"strings"
	"testing"
)

// Failure-injection tests: real archive files contain truncation, garbage,
// and mixed encodings; the reader must degrade predictably.

func TestReadTruncatedGzip(t *testing.T) {
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte(`{"author":"a","link_id":"t3_x","created_utc":1}` + "\n"))
	gz.Close()
	raw := buf.Bytes()
	_, err := readAll(bytes.NewReader(raw[:len(raw)-5])) // chop the tail
	if err == nil {
		t.Fatal("truncated gzip read without error")
	}
	if _, err := refRead(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Fatal("the reference reads a truncated gzip without error: the readers differ")
	}
}

func TestReadGarbageAfterMagic(t *testing.T) {
	// Starts with gzip magic but is not a gzip stream.
	junk := append([]byte{0x1f, 0x8b}, []byte("this is not gzip at all")...)
	if _, err := readAll(bytes.NewReader(junk)); err == nil {
		t.Fatal("bogus gzip accepted")
	}
}

func TestReadAllLinesMalformed(t *testing.T) {
	c, err := readAll(strings.NewReader("not json\nalso not json\n{\"broken\":\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Comments) != 0 || c.Skipped != 3 {
		t.Fatalf("comments=%d skipped=%d", len(c.Comments), c.Skipped)
	}
}

func TestReadVeryLongLine(t *testing.T) {
	// A single multi-megabyte record must fit the scanner buffer.
	pad := strings.Repeat("x", 2<<20)
	line := `{"author":"a","link_id":"t3_y","created_utc":5,"body":"` + pad + `"}`
	c, err := readAll(strings.NewReader(line + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Comments) != 1 {
		t.Fatalf("comments = %d", len(c.Comments))
	}
}

func TestReadFuncStopsOnCallbackError(t *testing.T) {
	input := `{"author":"a","link_id":"t3_x","created_utc":1}
{"author":"b","link_id":"t3_x","created_utc":2}
{"author":"c","link_id":"t3_x","created_utc":3}
`
	calls := 0
	_, err := ReadFunc(strings.NewReader(input), func(author, page []byte, ts int64) error {
		calls++
		if calls == 2 {
			return errStop
		}
		return nil
	})
	if err != errStop {
		t.Fatalf("err = %v, want errStop", err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

var errStop = &stopError{}

type stopError struct{}

func (*stopError) Error() string { return "stop" }

func TestReadFuncSkipsMalformed(t *testing.T) {
	input := "garbage\n" + `{"author":"a","link_id":"t3_x","created_utc":1}` + "\n"
	n := 0
	skipped, err := ReadFunc(strings.NewReader(input), func(_, _ []byte, _ int64) error {
		n++
		return nil
	})
	if err != nil || skipped != 1 || n != 1 {
		t.Fatalf("skipped=%d n=%d err=%v", skipped, n, err)
	}
}

func TestWriteFileToBadPath(t *testing.T) {
	if err := WriteFile("/nonexistent-dir/x.ndjson", nil, nil, nil); err == nil {
		t.Fatal("write to bad path accepted")
	}
}
