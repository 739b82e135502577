package pushshift

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"coordbot/internal/redditgen"
)

// benchDump is a generated Jan2020(0.1) month as a plain and a gzipped
// dump, with its line count.
var benchDump = sync.OnceValue(func() (d struct {
	plain, gz []byte
	lines     int
}) {
	ds := redditgen.Generate(redditgen.Jan2020(0.1))
	pages := SyntheticPageNames(ds.NumPages)
	for _, gz := range []bool{false, true} {
		var buf bytes.Buffer
		if err := Write(&buf, ds.Comments, ds.Authors, pages, gz); err != nil {
			panic(err)
		}
		if gz {
			d.gz = buf.Bytes()
		} else {
			d.plain = buf.Bytes()
		}
	}
	d.lines = len(ds.Comments)
	return d
})

// benchRead reports one reader's cost per comment over both dumps.
func benchRead(b *testing.B, read func(*bytes.Reader) (comments int, err error)) {
	d := benchDump()
	for _, in := range []struct {
		name string
		data []byte
	}{{"plain", d.plain}, {"gz", d.gz}} {
		b.Run(in.name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n, err := read(bytes.NewReader(in.data)); err != nil || n != d.lines {
					b.Fatalf("%d comments of %d, err %v", n, d.lines, err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			comments := float64(b.N) * float64(d.lines)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/comments, "ns/comment")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/comments, "B/comment")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/comments, "allocs/comment")
		})
	}
}

// TestReadAllocsPerComment: a plain dump costs allocations per new name
// and per growth of the corpus, not per comment (the encoding/json loop
// made about nine per comment).
func TestReadAllocsPerComment(t *testing.T) {
	d := benchDump()
	perRun := testing.AllocsPerRun(2, func() {
		if _, err := readAll(bytes.NewReader(d.plain)); err != nil {
			t.Fatal(err)
		}
	})
	if per := perRun / float64(d.lines); per > 0.2 {
		t.Fatalf("%.2f allocations per comment, want at most 0.2", per)
	}
}

func BenchmarkRead(b *testing.B) {
	benchRead(b, func(r *bytes.Reader) (int, error) {
		c, err := readAll(r)
		if err != nil {
			return 0, err
		}
		return len(c.Comments), nil
	})
}

func BenchmarkReadFunc(b *testing.B) {
	benchRead(b, func(r *bytes.Reader) (n int, err error) {
		_, err = ReadFunc(r, func(_, _ []byte, _ int64) error { n++; return nil })
		return n, err
	})
}
