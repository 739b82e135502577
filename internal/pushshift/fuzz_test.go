package pushshift

import (
	"bytes"
	"testing"
)

// FuzzRead hardens the NDJSON reader against arbitrary inputs. It must
// never panic; whatever it parses must survive a write→read round trip
// unchanged; the block size must not show in the result; and it must
// agree with the encoding/json reference — line by line except where the
// divergence table says otherwise, and on the whole file (IDs and skip
// count included) whenever every line agrees.
func FuzzRead(f *testing.F) {
	f.Add([]byte(`{"author":"a","link_id":"t3_x","created_utc":1}` + "\n"))
	f.Add([]byte(`{"author":"b","link_id":"t3_y","created_utc":"77"}` + "\n"))
	f.Add([]byte("junk\n\n{\"author\":\"\x00\",\"link_id\":\"z\",\"created_utc\":0}\n"))
	f.Add([]byte{0x1f, 0x8b, 0xff})
	f.Add([]byte(attrSample))
	for _, line := range agreeing {
		f.Add([]byte(edgeLine(line, "a", "p") + "\r\n"))
	}
	for _, d := range divergences {
		f.Add([]byte(d.line))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := readAll(bytes.NewReader(data))
		want, werr := refRead(bytes.NewReader(data))
		if (err == nil) != (werr == nil) {
			t.Fatalf("Read: %v; reference: %v", err, werr)
		}
		if err != nil {
			return
		}
		readsBack(t, c)

		small, err := read(bytes.NewReader(data), 5, maxLine, 0)
		if err != nil {
			t.Fatalf("5-byte blocks: %v", err)
		}
		if err := diffCorpus(small, c); err != nil {
			t.Fatalf("5-byte blocks read it differently: %v", err)
		}

		diff := diffCorpus(c, want)
		if diff == nil {
			return
		}
		if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
			t.Fatalf("a gzip stream read differently from the reference: %v", diff)
		}
		agree := true
		for _, line := range bytes.Split(data, []byte("\n")) {
			if bytes.HasPrefix(line, []byte{0x1f, 0x8b}) {
				continue // read alone it would be taken for gzip; here it is one more malformed line
			}
			if o, n := oldLine(string(line)), newLine(t, string(line)); o != n {
				agree = false
				if !explained(line, o.kept) {
					t.Fatalf("%q\n  reference: %v\n  Read:      %v\nand no row of the divergence table covers it", line, o, n)
				}
			}
		}
		if agree {
			t.Fatalf("every line agrees with the reference, the file does not: %v", diff)
		}
	})
}

// readsBack checks that what Read kept reads back the same after Write,
// up to the U+FFFD Write puts in place of each byte of invalid UTF-8.
func readsBack(t *testing.T, c *Corpus) {
	written := func(name string) string { return string([]rune(name)) }
	var buf bytes.Buffer
	if err := Write(&buf, c.Comments, c.Authors, c.Pages, false); err != nil {
		t.Fatalf("write-back failed: %v", err)
	}
	c2, err := readAll(&buf)
	if err != nil {
		t.Fatalf("re-read failed: %v", err)
	}
	if len(c2.Comments) != len(c.Comments) || c2.Skipped != 0 {
		t.Fatalf("round trip lost records: %d vs %d (skipped %d)",
			len(c2.Comments), len(c.Comments), c2.Skipped)
	}
	for i := range c.Comments {
		if written(c.Authors.Name(c.Comments[i].Author)) != c2.Authors.Name(c2.Comments[i].Author) ||
			written(c.Pages.Name(c.Comments[i].Page)) != c2.Pages.Name(c2.Comments[i].Page) ||
			c.Comments[i].TS != c2.Comments[i].TS {
			t.Fatalf("record %d mutated in round trip", i)
		}
	}
}
