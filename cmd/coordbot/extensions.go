package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"coordbot/internal/backbone"
	"coordbot/internal/baseline"
	"coordbot/internal/graph"
	"coordbot/internal/hexbin"
	"coordbot/internal/interner"
	"coordbot/internal/pipeline"
	"coordbot/internal/projection"
	"coordbot/internal/pushshift"
	"coordbot/internal/stats"
	"coordbot/internal/stream"
	"coordbot/internal/temporal"
)

// cmdHexbin runs the pipeline and renders the paper's figure-style 2D
// histograms (T vs C, or min triangle weight vs w_xyz) for any dataset.
func cmdHexbin(args []string) error {
	fs := flag.NewFlagSet("hexbin", flag.ExitOnError)
	in := fs.String("in", "", "input NDJSON(.gz) comment stream")
	exclude := fs.String("exclude", "AutoModerator,[deleted]", "authors to exclude")
	cut := fs.Uint("cut", 10, "min triangle weight cutoff")
	kind := fs.String("kind", "scores", "scores (T vs C) or weights (minW vs w_xyz)")
	csv := fs.String("csv", "", "also write bin CSV to this file")
	minW, maxW := windowFlag(fs)
	fs.Parse(args)

	_, b, ex, err := loadCorpus(*in, *exclude)
	if err != nil {
		return err
	}
	res, err := pipeline.Run(b, pipeline.Config{
		Window:            projection.Window{Min: *minW, Max: *maxW},
		MinTriangleWeight: uint32(*cut),
		Exclude:           ex,
	})
	if err != nil {
		return err
	}
	ts, cs, mw, hw := res.MetricSeries()
	var h *hexbin.Hist2D
	var title string
	switch *kind {
	case "scores":
		h = hexbin.New(40, 20, 0, 1, 0, 1)
		for i := range ts {
			h.Add(ts[i], cs[i])
		}
		title = fmt.Sprintf("x=T, y=C  window [%d,%d) cutoff %d (r=%.3f)",
			*minW, *maxW, *cut, stats.Pearson(ts, cs))
	case "weights":
		hi := stats.Quantile(mw, 0.999)
		if q := stats.Quantile(hw, 0.999); q > hi {
			hi = q
		}
		if hi < 1 {
			hi = 1
		}
		h = hexbin.New(40, 20, 0, hi, 0, hi)
		for i := range mw {
			if mw[i] <= hi && hw[i] <= hi {
				h.Add(mw[i], hw[i])
			}
		}
		title = fmt.Sprintf("x=min triangle weight, y=w_xyz  window [%d,%d) cutoff %d (r=%.3f)",
			*minW, *maxW, *cut, stats.Pearson(mw, hw))
	default:
		return fmt.Errorf("unknown -kind %q", *kind)
	}
	if err := h.Render(os.Stdout, title); err != nil {
		return err
	}
	if *csv != "" {
		f, err := os.Create(*csv)
		if err != nil {
			return err
		}
		if err := h.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	return nil
}

// cmdStream projects an NDJSON stream with bounded memory: records are
// consumed in file order (Pushshift dumps are time-sorted) and never
// materialized as a corpus.
func cmdStream(args []string) error {
	fs := flag.NewFlagSet("stream", flag.ExitOnError)
	in := fs.String("in", "", "input NDJSON(.gz), time-sorted")
	exclude := fs.String("exclude", "AutoModerator,[deleted]", "authors to exclude (by name)")
	out := fs.String("out", "", "output edge TSV (default stdout)")
	minW, maxW := windowFlag(fs)
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("missing -in file")
	}

	excluded := make(map[string]bool)
	for _, n := range strings.Split(*exclude, ",") {
		if n = strings.TrimSpace(n); n != "" {
			excluded[n] = true
		}
	}
	authors := interner.New(1 << 12)
	pages := interner.New(1 << 12)
	proj, err := stream.NewProjector(projection.Window{Min: *minW, Max: *maxW}, projection.Options{})
	if err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	skipped, err := pushshift.ReadFunc(f, func(author, page []byte, ts int64) error {
		if excluded[string(author)] {
			return nil
		}
		return proj.Add(graph.Comment{
			Author: authors.InternBytes(author),
			Page:   pages.InternBytes(page),
			TS:     ts,
		})
	})
	if err != nil {
		return err
	}
	g := proj.Result()

	var w *bufio.Writer
	if *out == "" {
		w = bufio.NewWriter(os.Stdout)
	} else {
		of, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer of.Close()
		w = bufio.NewWriter(of)
	}
	fmt.Fprintf(w, "# streamed projection, window [%d,%d): %d comments, %d skipped, %d edges\n",
		*minW, *maxW, proj.Count(), skipped, g.NumEdges())
	for _, e := range g.Edges() {
		fmt.Fprintf(w, "%s\t%s\t%d\n", authors.Name(e.U), authors.Name(e.V), e.W)
	}
	return w.Flush()
}

// cmdClassify runs the pipeline and labels each detected component's
// coordination behaviour from its response-delay profile.
func cmdClassify(args []string) error {
	fs := flag.NewFlagSet("classify", flag.ExitOnError)
	in := fs.String("in", "", "input NDJSON(.gz) comment stream")
	exclude := fs.String("exclude", "AutoModerator,[deleted]", "authors to exclude")
	cut := fs.Uint("cut", 25, "min triangle weight cutoff")
	minW, maxW := windowFlag(fs)
	fs.Parse(args)

	c, b, ex, err := loadCorpus(*in, *exclude)
	if err != nil {
		return err
	}
	res, err := pipeline.Run(b, pipeline.Config{
		Window:            projection.Window{Min: *minW, Max: *maxW},
		MinTriangleWeight: uint32(*cut),
		Exclude:           ex,
		SkipHypergraph:    true,
	})
	if err != nil {
		return err
	}
	cls := temporal.DefaultClassifier()
	fmt.Printf("%d components at cutoff %d:\n", len(res.Components), *cut)
	for i, comp := range res.Components {
		p := temporal.ProfileGroup(b, comp.Authors)
		label := fmt.Sprintf("[%d] %d authors (%s…)", i, comp.Size(), c.Authors.Name(comp.Authors[0]))
		fmt.Println(" ", p.Report(label, cls.Classify(p)))
	}
	return nil
}

// cmdBaseline runs the Pacheco-style co-share similarity detector.
func cmdBaseline(args []string) error {
	fs := flag.NewFlagSet("baseline", flag.ExitOnError)
	in := fs.String("in", "", "input NDJSON(.gz) comment stream")
	exclude := fs.String("exclude", "AutoModerator,[deleted]", "authors to exclude")
	method := fs.String("method", "tfidf", "similarity: jaccard|cosine|tfidf")
	pct := fs.Float64("percentile", 0.99, "keep edges at or above this similarity percentile")
	minShared := fs.Int("minshared", 2, "minimum shared pages per candidate pair")
	fs.Parse(args)

	c, b, ex, err := loadCorpus(*in, *exclude)
	if err != nil {
		return err
	}
	var m baseline.Method
	switch *method {
	case "jaccard":
		m = baseline.Jaccard
	case "cosine":
		m = baseline.Cosine
	case "tfidf":
		m = baseline.TFIDFCosine
	default:
		return fmt.Errorf("unknown method %q", *method)
	}
	res := baseline.Detect(b, baseline.Options{
		Method: m, Percentile: *pct, MinSharedPages: *minShared, Exclude: ex,
	})
	fmt.Printf("similarity network: %d edges; threshold %.4f keeps %d; %d groups\n",
		len(res.Edges), res.Threshold, len(res.Kept), len(res.Groups))
	for i, g := range res.Groups {
		if i >= 10 {
			fmt.Printf("… %d more groups\n", len(res.Groups)-i)
			break
		}
		names := make([]string, 0, 5)
		for j, a := range g.Authors {
			if j == 5 {
				names = append(names, "…")
				break
			}
			names = append(names, c.Authors.Name(a))
		}
		fmt.Printf("  [%d] %d members: %s\n", i, g.Size(), strings.Join(names, ", "))
	}
	return nil
}

// cmdBackbone extracts the statistically significant projection edges.
func cmdBackbone(args []string) error {
	fs := flag.NewFlagSet("backbone", flag.ExitOnError)
	in := fs.String("in", "", "input NDJSON(.gz) comment stream")
	exclude := fs.String("exclude", "AutoModerator,[deleted]", "authors to exclude")
	alpha := fs.Float64("alpha", 1e-9, "significance level")
	top := fs.Int("top", 20, "most significant edges to print")
	minW, maxW := windowFlag(fs)
	fs.Parse(args)

	c, b, ex, err := loadCorpus(*in, *exclude)
	if err != nil {
		return err
	}
	sharded, err := projection.ProjectSharded(b, projection.Window{Min: *minW, Max: *maxW},
		projection.Options{Exclude: ex})
	if err != nil {
		return err
	}
	g := sharded.Snapshot()
	bb := backbone.Extract(g, b.NumPages(), *alpha)
	fmt.Printf("projection: %d edges; backbone at α=%.0e: %d edges\n",
		g.NumEdges(), *alpha, bb.NumEdges())
	scores := backbone.Scores(g, b.NumPages())
	for i, e := range scores {
		if i >= *top {
			break
		}
		fmt.Printf("  %s -- %s  w=%d  p=%.3e\n",
			c.Authors.Name(e.U), c.Authors.Name(e.V), e.W, e.P)
	}
	return nil
}

// cmdGroups runs the pipeline and assembles surviving triplets into
// maximal groups (§4.2).
func cmdGroups(args []string) error {
	fs := flag.NewFlagSet("groups", flag.ExitOnError)
	in := fs.String("in", "", "input NDJSON(.gz) comment stream")
	exclude := fs.String("exclude", "AutoModerator,[deleted]", "authors to exclude")
	cut := fs.Uint("cut", 25, "min triangle weight cutoff")
	tscore := fs.Float64("tscore", 0, "min T score (0 disables)")
	minW, maxW := windowFlag(fs)
	fs.Parse(args)

	c, b, ex, err := loadCorpus(*in, *exclude)
	if err != nil {
		return err
	}
	res, err := pipeline.Run(b, pipeline.Config{
		Window:            projection.Window{Min: *minW, Max: *maxW},
		MinTriangleWeight: uint32(*cut),
		MinTScore:         *tscore,
		Exclude:           ex,
	})
	if err != nil {
		return err
	}
	groups := res.ExpandGroups(b)
	fmt.Printf("%d triangles → %d groups\n", len(res.Triangles), len(groups))
	for i, g := range groups {
		if i >= 15 {
			fmt.Printf("… %d more\n", len(groups)-i)
			break
		}
		names := make([]string, 0, 6)
		for j, m := range g.Group {
			if j == 6 {
				names = append(names, "…")
				break
			}
			names = append(names, c.Authors.Name(m))
		}
		fmt.Printf("  %d members, w_S=%d, C=%.3f: %s\n",
			len(g.Group), g.W, g.C, strings.Join(names, ", "))
	}
	return nil
}
