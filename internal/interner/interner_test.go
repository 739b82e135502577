package interner

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestInternAssignsDenseIDs(t *testing.T) {
	in := New(4)
	a := in.Intern("alice")
	b := in.Intern("bob")
	a2 := in.Intern("alice")
	if a != 0 || b != 1 || a2 != a {
		t.Fatalf("ids = %d %d %d", a, b, a2)
	}
	if in.Len() != 2 {
		t.Fatalf("Len = %d", in.Len())
	}
	if in.Name(a) != "alice" || in.Name(b) != "bob" {
		t.Fatal("Name lookup wrong")
	}
}

func TestLookup(t *testing.T) {
	in := New(0)
	if _, ok := in.Lookup("missing"); ok {
		t.Fatal("found missing name")
	}
	id := in.Intern("x")
	got, ok := in.Lookup("x")
	if !ok || got != id {
		t.Fatal("lookup after intern failed")
	}
}

func TestNamePanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0).Name(5)
}

func TestZeroValueUsable(t *testing.T) {
	var in Interner
	if id := in.Intern("a"); id != 0 {
		t.Fatalf("zero-value intern = %d", id)
	}
}

func TestConcurrentIntern(t *testing.T) {
	in := New(0)
	var wg sync.WaitGroup
	const workers, n = 8, 200
	ids := make([][]ID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]ID, n)
			for i := 0; i < n; i++ {
				ids[w][i] = in.Intern(fmt.Sprintf("name%d", i))
			}
		}(w)
	}
	wg.Wait()
	if in.Len() != n {
		t.Fatalf("Len = %d, want %d", in.Len(), n)
	}
	for w := 1; w < workers; w++ {
		for i := 0; i < n; i++ {
			if ids[w][i] != ids[0][i] {
				t.Fatalf("worker %d got different id for name%d", w, i)
			}
		}
	}
}

func TestQuickInternBijection(t *testing.T) {
	// Property: Name(Intern(s)) == s for arbitrary strings.
	f := func(ss []string) bool {
		in := New(len(ss))
		for _, s := range ss {
			if in.Name(in.Intern(s)) != s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestInternBytesMatchesIntern(t *testing.T) {
	in := New(0)
	a := in.InternBytes([]byte("alice"))
	if got := in.Intern("alice"); got != a {
		t.Fatalf("Intern = %d, InternBytes = %d", got, a)
	}
	if got := in.InternBytes([]byte("alice")); got != a {
		t.Fatalf("repeat InternBytes = %d, want %d", got, a)
	}
	if in.Name(a) != "alice" {
		t.Fatalf("Name = %q", in.Name(a))
	}
}

func TestInternBatchBytesFirstAppearanceOrder(t *testing.T) {
	// Batch interning must assign IDs exactly as a sequential Intern loop:
	// dense, in first-appearance order, dupes within the batch collapsed.
	keys := [][]byte{
		[]byte("c"), []byte("a"), []byte("c"), []byte("b"), []byte("a"),
	}
	batch := New(0)
	got := make([]ID, len(keys))
	batch.InternBatchBytes(keys, got)

	seq := New(0)
	want := make([]ID, len(keys))
	for i, k := range keys {
		want[i] = seq.Intern(string(k))
	}
	for i := range keys {
		if got[i] != want[i] {
			t.Fatalf("key %d: batch id %d, sequential id %d", i, got[i], want[i])
		}
	}
	if batch.Len() != seq.Len() {
		t.Fatalf("Len: batch %d, sequential %d", batch.Len(), seq.Len())
	}
}

// TestInternHitsNeverAllocate: once a name is in the table — from the
// start or just added — finding it again allocates nothing, through any
// of the read paths. A read-side copy of the table refreshed every so
// many hits, however it is amortized, fails this.
func TestInternHitsNeverAllocate(t *testing.T) {
	const n, hits = 100_000, 400_000
	in := New(0)
	keys := make([][]byte, n)
	names := make([]string, n)
	for i := range keys {
		names[i] = fmt.Sprintf("name%d", i)
		keys[i] = []byte(names[i])
		in.InternBytes(keys[i])
	}
	// Old and just-added names alike: stride through the whole table.
	batch := make([][]byte, 1000)
	for i := range batch {
		batch[i] = keys[(i*97)%n]
	}
	out := make([]ID, len(batch))
	k := 0
	hit := func() {
		k = (k + 7919) % n
		if in.InternBytes(keys[k]) != ID(k) {
			t.Fatalf("InternBytes(%s) moved", keys[k])
		}
		if id, ok := in.Lookup(names[n-1-k]); !ok || id != ID(n-1-k) {
			t.Fatalf("Lookup(%s) = %d, %v", names[n-1-k], id, ok)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits/2/len(batch); i++ {
		in.InternBatchBytes(batch, out)
	}
	for i := 0; i < hits/4; i++ {
		hit()
	}
	runtime.ReadMemStats(&after)
	// TotalAlloc is the whole process's: the runtime's own goroutines may
	// put a few hundred bytes in. A copy of this table is megabytes.
	if got := after.TotalAlloc - before.TotalAlloc; got > 4096 {
		t.Errorf("%d hits allocated %d bytes", hits, got)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		hit()
		in.InternBatchBytes(batch, out)
	}); allocs != 0 {
		t.Errorf("%v allocations per hit", allocs)
	}
	if in.Len() != n || out[1] != 97 {
		t.Fatalf("Len = %d, out[1] = %d", in.Len(), out[1])
	}
}

func TestConcurrentBatchAndReads(t *testing.T) {
	in := New(0)
	var wg sync.WaitGroup
	const workers, rounds, batchN = 4, 50, 64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			keys := make([][]byte, batchN)
			out := make([]ID, batchN)
			for r := 0; r < rounds; r++ {
				for i := range keys {
					keys[i] = []byte(fmt.Sprintf("k%d", (r*batchN+i)%512))
				}
				in.InternBatchBytes(keys, out)
				for i := range keys {
					if id, ok := in.Lookup(string(keys[i])); !ok || id != out[i] {
						t.Errorf("lookup %s: %d/%v vs batch %d", keys[i], id, ok, out[i])
						return
					}
				}
			}
		}(w)
	}
	// Readers of the id→name side, while the table grows: every ID below a
	// Len already seen has its name, and Len never goes back.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seen := 0; seen < 512; {
				n := in.Len()
				if n < seen {
					t.Errorf("Len went from %d to %d", seen, n)
					return
				}
				seen = n
				for id := 0; id < n; id++ {
					if name := in.Name(ID(id)); !strings.HasPrefix(name, "k") {
						t.Errorf("Name(%d) = %q", id, name)
						return
					}
				}
				runtime.Gosched()
			}
		}()
	}
	wg.Wait()
	if in.Len() != 512 {
		t.Fatalf("Len = %d, want 512", in.Len())
	}
	// All names must round-trip after the dust settles.
	for i, name := range in.names {
		if id, ok := in.Lookup(name); !ok || id != ID(i) {
			t.Fatalf("name %q: id %d ok=%v, want %d", name, id, ok, i)
		}
	}
}

// BenchmarkInternBytesGrowing is the archive load's shape: a stream of
// names of which about one in ten is new, into a table that starts empty,
// so the table's growth is part of the cost.
func BenchmarkInternBytesGrowing(b *testing.B) {
	const n = 200_000
	keys := make([][]byte, n)
	for i, next := 0, 0; i < n; i++ {
		k := next
		if i%10 == 0 {
			next++
		} else {
			k = (i * 7919) % next
		}
		keys[i] = []byte(fmt.Sprintf("user_%d", k))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := New(1 << 12)
		for _, k := range keys {
			in.InternBytes(k)
		}
		if in.Len() != n/10 {
			b.Fatalf("Len = %d, want %d", in.Len(), n/10)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/key")
}
