// Command experiments regenerates the paper's evaluation artifacts —
// Figures 1–10, the §3.1 in-text statistics, and the extension studies —
// on the synthetic datasets, printing paper-vs-measured reports and writing
// per-figure CSV/DOT artifacts.
//
// Usage:
//
//	experiments [-scale 1.0] [-fig all|f1|f2|...|x2] [-out results/]
//
// At -scale 1.0 the full suite takes several minutes (the (0s,1hr)
// October 2016 projection dominates); smaller scales reproduce the same
// shapes faster.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"coordbot/internal/experiments"
)

func main() {
	scale := flag.Float64("scale", 1.0, "organic corpus scale")
	fig := flag.String("fig", "all", "experiment id or 'all' (see DESIGN.md index)")
	out := flag.String("out", "", "directory for CSV/DOT artifacts (empty = none)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-4s %s\n", id, experiments.Describe(id))
		}
		return
	}

	lab := experiments.NewLab(*scale)

	ids := experiments.IDs()
	if *fig != "all" {
		ids = strings.Split(*fig, ",")
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
	}
	start := time.Now()
	for _, id := range ids {
		t0 := time.Now()
		r, err := lab.Figure(strings.TrimSpace(id))
		if err != nil {
			fatal(err)
		}
		if err := r.WriteText(os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Printf("(%s in %v)\n\n", r.ID, time.Since(t0).Round(time.Millisecond))
		if *out != "" {
			if err := writeArtifacts(*out, r); err != nil {
				fatal(err)
			}
		}
	}
	fmt.Printf("suite complete in %v (scale %.2f)\n", time.Since(start).Round(time.Millisecond), *scale)
}

func writeArtifacts(dir string, r *experiments.Report) error {
	if r.Hist != nil {
		f, err := os.Create(filepath.Join(dir, r.ID+".csv"))
		if err != nil {
			return err
		}
		if err := r.Hist.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if r.DOT != "" {
		if err := os.WriteFile(filepath.Join(dir, r.ID+".dot"), []byte(r.DOT), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
