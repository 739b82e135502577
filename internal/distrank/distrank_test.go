package distrank

import (
	"bytes"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/projection"
	"coordbot/internal/pushshift"
	"coordbot/internal/redditgen"
	"coordbot/internal/ygmnet"
)

// freeAddrs reserves n loopback addresses (same trick as ygmnet tests).
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

// runCluster executes Run for every rank concurrently (each rank would be
// its own process in deployment; goroutines exercise the identical code
// path over real TCP).
func runCluster(t *testing.T, addrs []string, input string, w projection.Window, exclude []string) *bytes.Buffer {
	t.Helper()
	outs := make([]bytes.Buffer, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for r := range addrs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = Run(Options{
				Rank: r, Addrs: addrs, Input: input,
				Window: w, ExcludeNames: exclude, Out: &outs[r],
			})
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	var all bytes.Buffer
	for r := range outs {
		all.Write(outs[r].Bytes())
	}
	return &all
}

// mergeShards parses concatenated rank shards, as Run writes them, back
// into one CIGraph, resolving names through intern.
func mergeShards(t *testing.T, shards *bytes.Buffer, intern func(string) graph.VertexID) *graph.CIGraph {
	t.Helper()
	g, counts := graph.NewCIGraph(), false
	for _, line := range strings.Split(strings.TrimSpace(shards.String()), "\n") {
		var u, v string
		var w uint32
		switch {
		case strings.HasPrefix(line, "#"):
			counts = strings.HasPrefix(line, "#pagecounts")
		case counts:
			if _, err := fmt.Sscan(line, &u, &w); err != nil {
				t.Fatalf("bad count line %q", line)
			}
			g.AddPageCount(intern(u), w)
		default:
			if _, err := fmt.Sscan(line, &u, &v, &w); err != nil {
				t.Fatalf("bad edge line %q", line)
			}
			g.AddEdgeWeight(intern(u), intern(v), w)
		}
	}
	return g
}

func TestMultiRankProjectionMatchesSequential(t *testing.T) {
	// Generate a dataset, write it as a shared archive, run a 3-rank
	// cluster with partitioned ingest, merge the shards, and compare to
	// the sequential projection with the same exclusions.
	d := redditgen.Generate(redditgen.Tiny(55))
	pages := pushshift.SyntheticPageNames(d.NumPages)
	input := filepath.Join(t.TempDir(), "month.ndjson.gz")
	if err := pushshift.WriteFile(input, d.Comments, d.Authors, pages); err != nil {
		t.Fatal(err)
	}
	w := projection.Window{Min: 0, Max: 60}
	exclude := []string{"AutoModerator", "[deleted]"}

	all := runCluster(t, freeAddrs(t, 3), input, w, exclude)

	merged := mergeShards(t, all, func(name string) graph.VertexID {
		id, ok := d.Authors.Lookup(name)
		if !ok {
			t.Fatalf("unknown author %q in shard output", name)
		}
		return id
	})

	want, err := projection.ProjectSequential(d.BTM(), w, projection.Options{Exclude: d.Helpers})
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equal(merged) {
		t.Fatalf("multi-rank projection differs: %d vs %d edges, %d vs %d page-count entries",
			merged.NumEdges(), want.NumEdges(),
			len(merged.PageCounts()), len(want.PageCounts()))
	}
}

func TestSingleRankDegenerate(t *testing.T) {
	d := redditgen.Generate(redditgen.Tiny(56))
	pages := pushshift.SyntheticPageNames(d.NumPages)
	input := filepath.Join(t.TempDir(), "m.ndjson")
	if err := pushshift.WriteFile(input, d.Comments, d.Authors, pages); err != nil {
		t.Fatal(err)
	}
	w := projection.Window{Min: 0, Max: 60}
	all := runCluster(t, freeAddrs(t, 1), input, w, nil)
	merged := mergeShards(t, all, func(name string) graph.VertexID {
		id, _ := d.Authors.Lookup(name)
		return id
	})
	want, _ := projection.ProjectSequential(d.BTM(), w, projection.Options{})
	if !want.Equal(merged) {
		t.Fatal("single-rank run differs from sequential")
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	addrs := freeAddrs(t, 1)
	err := Run(Options{Rank: 0, Addrs: addrs, Input: "/nonexistent.ndjson",
		Window: projection.Window{Min: 0, Max: 60}})
	if err == nil {
		t.Fatal("missing input accepted")
	}
	if err := Run(Options{Rank: 0, Addrs: addrs, Input: "x",
		Window: projection.Window{Min: 5, Max: 5}}); err == nil {
		t.Fatal("bad window accepted")
	}
}

// TestHashStringStable pins the page-ownership hash, ygmnet.HashString:
// rank processes built from different commits must still agree on who
// owns a page, so the values (taken from the retired internal/ygm
// HashString) may never change. Owning a page held as bytes allocates
// nothing.
func TestHashStringStable(t *testing.T) {
	for s, want := range map[string]uint64{
		"":              0xf52a15e9a9b5e89b,
		"t3_5ab1cd":     0x6ee306cf5c704d8e,
		"AutoModerator": 0xbf3cc2dac99e3164,
	} {
		if got := ygmnet.HashString(s); got != want {
			t.Errorf("HashString(%q) = %#x, want %#x", s, got, want)
		}
		if got := ygmnet.HashString([]byte(s)); got != want {
			t.Errorf("HashString([]byte(%q)) = %#x, want %#x", s, got, want)
		}
	}
	page := []byte("t3_5ab1cd")
	if allocs := testing.AllocsPerRun(100, func() { _ = pageOwner(page, 7) }); allocs != 0 {
		t.Errorf("pageOwner allocates %v times per page", allocs)
	}
}
