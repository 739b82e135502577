// Package distrank is the per-rank entry point for multi-process
// distributed projection: each rank (typically its own process, launched
// via cmd/coordbot-rank) ingests only the pages it owns from a shared
// Pushshift archive, projects them with Algorithm 1, and reduces edge
// weights and per-author page counts onto owner ranks over the ygmnet TCP
// transport. Identities travel as names, so ranks need no shared interner
// or coordination beyond the address list.
//
// Each rank writes its own shard of the result; concatenating the shards
// yields the full common interaction graph — the deployment shape of the
// paper's multi-node YGM runs.
package distrank

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"coordbot/internal/graph"
	"coordbot/internal/interner"
	"coordbot/internal/projection"
	"coordbot/internal/pushshift"
	"coordbot/internal/ygmnet"
)

// Options configures one rank's run.
type Options struct {
	// Rank and Addrs define the cluster (see ygmnet.Config).
	Rank  int
	Addrs []string
	// Input is the NDJSON(.gz) archive path. Every rank may read the
	// same shared file (each keeps only its own pages), or a pre-split
	// per-rank file.
	Input string
	// Window is the projection delay window.
	Window projection.Window
	// ExcludeNames are author names dropped before projection.
	ExcludeNames []string
	// Out receives this rank's shard as "authorA\tauthorB\tweight" lines
	// (sorted), preceded by a comment header, followed by "#pagecounts"
	// and "author\tcount" lines.
	Out io.Writer
}

// pageOwner owns pages by name hash, consistent across ranks.
func pageOwner(page []byte, n int) int {
	return int(ygmnet.HashString(page) % uint64(n))
}

// edgeKey is the canonical (lexicographic) name-pair key.
func edgeKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "\t" + b
}

// Run executes one rank of a distributed projection and blocks until the
// whole cluster has finished. Every rank must call Run with the same
// Addrs, Input semantics, Window, and ExcludeNames.
func Run(opts Options) error {
	if err := opts.Window.Validate(); err != nil {
		return err
	}
	n := len(opts.Addrs)
	node, err := ygmnet.Start(ygmnet.Config{Rank: opts.Rank, Addrs: opts.Addrs})
	if err != nil {
		return err
	}
	defer node.Close()
	edges := ygmnet.NewStrCounter(node)
	counts := ygmnet.NewStrCounter(node)
	node.Seal()

	excluded := make(map[string]bool, len(opts.ExcludeNames))
	for _, name := range opts.ExcludeNames {
		if name = strings.TrimSpace(name); name != "" {
			excluded[name] = true
		}
	}

	// Partitioned ingest: keep only owned pages; authors interned
	// rank-locally (names resolved back at send time).
	authors, pageIDs := interner.New(0), interner.New(0)
	var pages [][]graph.AuthorTime // by page ID
	f, err := os.Open(opts.Input)
	if err != nil {
		return err
	}
	_, err = pushshift.ReadFunc(f, func(author, page []byte, ts int64) error {
		if excluded[string(author)] || pageOwner(page, n) != opts.Rank {
			return nil
		}
		p := pageIDs.InternBytes(page)
		if int(p) == len(pages) {
			pages = append(pages, nil)
		}
		pages[p] = append(pages[p], graph.AuthorTime{Author: authors.InternBytes(author), TS: ts})
		return nil
	})
	f.Close()
	if err != nil {
		return err
	}

	// Project owned pages; reduce by name. Exclusions were applied by name
	// at ingest, so the pair rule runs unscoped.
	var st projection.PairStep
	for _, es := range pages {
		sort.Slice(es, func(i, j int) bool {
			if es[i].TS != es[j].TS {
				return es[i].TS < es[j].TS
			}
			return es[i].Author < es[j].Author
		})
		pairs, pageAuthors := st.Object(es, projection.Options{}, opts.Window)
		for _, key := range pairs {
			a, b := graph.UnpackEdge(key)
			edges.AsyncAdd(edgeKey(authors.Name(a), authors.Name(b)), 1)
		}
		for _, a := range pageAuthors {
			counts.AsyncAdd(authors.Name(a), 1)
		}
	}
	node.Barrier()

	// Emit this rank's shard.
	if opts.Out != nil {
		w := bufio.NewWriter(opts.Out)
		shard := edges.LocalShard()
		keys := make([]string, 0, len(shard))
		for k := range shard {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(w, "# rank %d/%d shard: %d edges, window [%d,%d)\n",
			opts.Rank, n, len(keys), opts.Window.Min, opts.Window.Max)
		for _, k := range keys {
			fmt.Fprintf(w, "%s\t%d\n", k, shard[k])
		}
		fmt.Fprintln(w, "#pagecounts")
		pc := counts.LocalShard()
		names := make([]string, 0, len(pc))
		for k := range pc {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			fmt.Fprintf(w, "%s\t%d\n", k, pc[k])
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	// Final barrier so no rank tears the mesh down while others still
	// need it.
	node.Barrier()
	return node.Err()
}
