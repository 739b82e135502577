package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"coordbot/internal/community"
	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/pipeline"
	"coordbot/internal/projection"
	"coordbot/internal/pushshift"
	"coordbot/internal/redditgen"
	"coordbot/internal/tripoll"
	"coordbot/internal/viz"
	"coordbot/internal/ygmnet"
)

// loadCorpus ingests an NDJSON(.gz) file and resolves the exclusion list.
func loadCorpus(path, exclude string) (*pushshift.Corpus, *graph.BTM, map[graph.VertexID]bool, error) {
	if path == "" {
		return nil, nil, nil, fmt.Errorf("missing -in file")
	}
	c, err := pushshift.ReadFile(path)
	if err != nil {
		return nil, nil, nil, err
	}
	ex := make(map[graph.VertexID]bool)
	for _, name := range strings.Split(exclude, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if id, ok := c.Authors.Lookup(name); ok {
			ex[id] = true
		}
	}
	return c, c.BTM(), ex, nil
}

func windowFlag(fs *flag.FlagSet) (min, max *int64) {
	min = fs.Int64("min", 0, "window start δ1 (seconds, inclusive)")
	max = fs.Int64("max", 60, "window end δ2 (seconds, exclusive)")
	return min, max
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	preset := fs.String("preset", "tiny", "dataset preset: tiny|dense|jan2020|oct2016|multisignal")
	scale := fs.Float64("scale", 1.0, "organic corpus scale (jan2020/oct2016/multisignal)")
	seed := fs.Int64("seed", 42, "seed (tiny/dense)")
	out := fs.String("out", "data.ndjson.gz", "output NDJSON file (.gz = compressed)")
	truthOut := fs.String("truth", "", "optional ground-truth TSV output")
	fs.Parse(args)

	var cfg redditgen.Config
	switch *preset {
	case "tiny":
		cfg = redditgen.Tiny(*seed)
	case "dense":
		cfg = redditgen.DenseWeek(*seed)
	case "jan2020":
		cfg = redditgen.Jan2020(*scale)
	case "oct2016":
		cfg = redditgen.Oct2016(*scale)
	case "multisignal":
		cfg = redditgen.MultiSignalCampaign(*scale)
	default:
		return fmt.Errorf("unknown preset %q", *preset)
	}
	d := redditgen.Generate(cfg)
	pages := pushshift.SyntheticPageNames(d.NumPages)
	if err := pushshift.WriteFile(*out, d.Comments, d.Authors, pages); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d comments, %d authors, %d pages, %d planted networks\n",
		*out, len(d.Comments), d.Authors.Len(), d.NumPages, len(d.Truth))
	if *truthOut != "" {
		f, err := os.Create(*truthOut)
		if err != nil {
			return err
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		names := make([]string, 0, len(d.Truth))
		for name := range d.Truth {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			for _, id := range d.Truth[name] {
				fmt.Fprintf(w, "%s\t%s\n", name, d.Authors.Name(id))
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *truthOut)
	}
	return nil
}

func cmdProject(args []string) error {
	fs := flag.NewFlagSet("project", flag.ExitOnError)
	in := fs.String("in", "", "input NDJSON(.gz) comment stream")
	exclude := fs.String("exclude", "AutoModerator,[deleted]", "authors to exclude")
	out := fs.String("out", "", "output edge TSV (default stdout)")
	ranks := fs.Int("ranks", 0, "TCP cluster size under -transport tcp (0 = 4); the sharded transport runs GOMAXPROCS workers")
	transport := fs.String("transport", "sharded", "sharded (in-process workers, owner-computes merge into the lock-striped store) or tcp (loopback rank cluster, serialized messages; co-comment only)")
	signals := fs.String("signals", "", "comma-separated coordination signals, each optionally with a window override (e.g. cocomment,urlshare=0:300,reply); empty = co-comment only")
	minW, maxW := windowFlag(fs)
	fs.Parse(args)

	switch *transport {
	case "sharded":
		if *ranks != 0 {
			return fmt.Errorf("-ranks sets the -transport tcp cluster size; -transport sharded runs GOMAXPROCS workers")
		}
	case "tcp":
		if *signals != "" {
			return fmt.Errorf("-transport tcp projects co-comments only; drop -signals or use -transport sharded")
		}
	default:
		return fmt.Errorf("unknown -transport %q (project supports sharded, tcp)", *transport)
	}
	c, b, ex, err := loadCorpus(*in, *exclude)
	if err != nil {
		return err
	}
	window := projection.Window{Min: *minW, Max: *maxW}
	opts := projection.Options{Exclude: ex}
	var g graph.CIView
	var sharded *graph.ShardedCI
	switch {
	case *signals != "":
		var sigs []projection.Signal
		sigs, err = projection.ParseSignals(*signals, window)
		if err != nil {
			return err
		}
		sharded, err = projection.ProjectSignalsSharded(c.Comments, sigs, opts)
	case *transport == "tcp":
		nr := *ranks
		if nr == 0 {
			nr = 4
		}
		var pc *ygmnet.ProjectionCluster
		pc, err = ygmnet.NewProjectionCluster(nr)
		if err != nil {
			return err
		}
		defer pc.Close()
		g, err = pc.Project(b, window, opts)
	default:
		sharded, err = projection.ProjectSharded(b, window, opts)
	}
	if err != nil {
		return err
	}
	if sharded != nil {
		g = sharded.Snapshot()
	}
	return writeEdges(*out, c, g, *minW, *maxW)
}

// writeEdges emits a projected CI graph as an edge TSV (default stdout).
func writeEdges(out string, c *pushshift.Corpus, g graph.CIView, minW, maxW int64) error {
	var w *bufio.Writer
	if out == "" {
		w = bufio.NewWriter(os.Stdout)
	} else {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = bufio.NewWriter(f)
	}
	fmt.Fprintf(w, "# common interaction graph, window [%d,%d): %d edges, %d authors\n",
		minW, maxW, g.NumEdges(), g.NumVertices())
	for _, e := range g.Edges() {
		fmt.Fprintf(w, "%s\t%s\t%d\n", c.Authors.Name(e.U), c.Authors.Name(e.V), e.W)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "projected %d edges over %d authors (max weight %d)\n",
		g.NumEdges(), g.NumVertices(), g.MaxWeight())
	return nil
}

func cmdTriangles(args []string) error {
	fs := flag.NewFlagSet("triangles", flag.ExitOnError)
	in := fs.String("in", "", "input NDJSON(.gz) comment stream")
	exclude := fs.String("exclude", "AutoModerator,[deleted]", "authors to exclude")
	cut := fs.Uint("cut", 25, "min triangle weight cutoff")
	tscore := fs.Float64("tscore", 0, "min T score (0 disables)")
	top := fs.Int("top", 0, "print only the top-K by min weight (0 = all)")
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
	tris := tripoll.Survey(g, tripoll.Options{
		MinTriangleWeight: uint32(*cut), MinTScore: *tscore,
	})
	if *top > 0 {
		tris = tripoll.TopKByMinWeight(tris, *top)
	}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "# %d triangles, cutoff %d, window [%d,%d)\n", len(tris), *cut, *minW, *maxW)
	for _, tr := range tris {
		fmt.Fprintf(w, "%s\t%s\t%s\tmin=%d\tT=%.4f\n",
			c.Authors.Name(tr.X), c.Authors.Name(tr.Y), c.Authors.Name(tr.Z),
			tr.MinWeight(), tr.TScore(g.PageCount))
	}
	return w.Flush()
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	in := fs.String("in", "", "input NDJSON(.gz) comment stream")
	triplet := fs.String("triplet", "", "comma-separated author names (exactly 3)")
	delta := fs.Int64("delta", 0, "also compute the windowed hyperedge weight for this Δ seconds")
	fs.Parse(args)

	c, b, _, err := loadCorpus(*in, "")
	if err != nil {
		return err
	}
	names := strings.Split(*triplet, ",")
	if len(names) != 3 {
		return fmt.Errorf("-triplet needs exactly 3 names, got %d", len(names))
	}
	ids := make([]graph.VertexID, 3)
	for i, n := range names {
		id, ok := c.Authors.Lookup(strings.TrimSpace(n))
		if !ok {
			return fmt.Errorf("unknown author %q", n)
		}
		ids[i] = id
	}
	t := hypergraph.NewTriplet(ids[0], ids[1], ids[2])
	s := hypergraph.Evaluate(b, t)
	fmt.Printf("triplet (%s, %s, %s)\n", names[0], names[1], names[2])
	fmt.Printf("  w_xyz (pages with all three) = %d\n", s.W)
	fmt.Printf("  page counts p = (%d, %d, %d)\n", s.PX, s.PY, s.PZ)
	fmt.Printf("  C(x,y,z) = %.4f\n", s.C)
	if *delta > 0 {
		fmt.Printf("  windowed w_xyz (Δ=%ds) = %d\n", *delta,
			hypergraph.WindowedTripletWeight(b, t, *delta))
	}
	return nil
}

func cmdPipeline(args []string) error {
	fs := flag.NewFlagSet("pipeline", flag.ExitOnError)
	in := fs.String("in", "", "input NDJSON(.gz) comment stream")
	exclude := fs.String("exclude", "AutoModerator,[deleted]", "authors to exclude")
	cut := fs.Uint("cut", 25, "min triangle weight cutoff")
	tscore := fs.Float64("tscore", 0, "min T score (0 disables)")
	dotDir := fs.String("dot", "", "write per-component DOT files to this directory")
	topComps := fs.Int("components", 10, "components to print")
	communities := fs.Bool("communities", false, "cluster the pruned graph and print the top communities")
	communityAlgo := fs.String("community-algo", "leiden", "clustering algorithm: leiden or labelprop")
	resolution := fs.Float64("resolution", 1.0, "Leiden CPM resolution γ")
	minCommunity := fs.Int("min-community", 3, "smallest community size reported")
	minW, maxW := windowFlag(fs)
	fs.Parse(args)

	algo, err := community.ParseAlgorithm(*communityAlgo)
	if err != nil {
		return err
	}
	c, b, ex, err := loadCorpus(*in, *exclude)
	if err != nil {
		return err
	}
	res, err := pipeline.Run(b, pipeline.Config{
		Window:            projection.Window{Min: *minW, Max: *maxW},
		MinTriangleWeight: uint32(*cut),
		MinTScore:         *tscore,
		Exclude:           ex,
		Communities:       *communities,
		Community: community.Config{
			Algorithm:  algo,
			Resolution: *resolution,
			MinSize:    *minCommunity,
		},
	})
	if err != nil {
		return err
	}
	names := func(v graph.VertexID) string { return c.Authors.Name(v) }
	fmt.Printf("step 1 (projection): %d edges, %d authors  [%v]\n",
		res.CI.NumEdges(), res.CI.NumVertices(), res.Timings.Project.Round(1e6))
	fmt.Printf("step 2 (triangles):  %d survivors at cutoff %d  [%v]\n",
		len(res.Triangles), *cut, res.Timings.Survey.Round(1e6))
	fmt.Printf("step 3 (hypergraph): validated  [%v]\n", res.Timings.Validate.Round(1e6))
	fmt.Printf("components at cutoff: %d\n", len(res.Components))
	for i, comp := range res.Components {
		if i >= *topComps {
			fmt.Printf("  … %d more\n", len(res.Components)-i)
			break
		}
		fmt.Printf("  [%d] %s\n", i, viz.Describe(&comp, names))
	}
	top := res.Triangles
	if len(top) > 10 {
		top = top[:10]
	}
	fmt.Println("sample triangles (CI metrics vs hypergraph):")
	for _, tr := range top {
		fmt.Printf("  (%s, %s, %s) min=%d T=%.3f | w_xyz=%d C=%.3f\n",
			names(tr.X), names(tr.Y), names(tr.Z),
			tr.MinWeight(), tr.T, tr.Hyper.W, tr.Hyper.C)
	}
	if res.Partition != nil {
		fmt.Printf("communities (%s, γ=%.2f): %d of size >= %d  [%v]\n",
			res.Partition.Algorithm, res.Partition.Resolution,
			len(res.Communities), *minCommunity, res.Timings.Cluster.Round(1e6))
		for i, cs := range res.Communities {
			if i >= 10 {
				fmt.Printf("  … %d more\n", len(res.Communities)-i)
				break
			}
			sample := cs.Members
			if len(sample) > 5 {
				sample = sample[:5]
			}
			label := make([]string, len(sample))
			for j, m := range sample {
				label[j] = names(m)
			}
			more := ""
			if len(cs.Members) > len(sample) {
				more = ", …"
			}
			fmt.Printf("  [%d] size=%d C=%.3f density=%.1f tris=%d w_s=%d (%s%s)\n",
				cs.ID, cs.Size, cs.C, cs.Density, cs.Triangles, cs.WS,
				strings.Join(label, ", "), more)
		}
	}
	if *dotDir != "" {
		if err := os.MkdirAll(*dotDir, 0o755); err != nil {
			return err
		}
		for i, comp := range res.Components {
			path := fmt.Sprintf("%s/component_%03d.dot", *dotDir, i)
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			err = viz.WriteDOT(f, &comp, fmt.Sprintf("component %d", i), names)
			f.Close()
			if err != nil {
				return err
			}
		}
		fmt.Printf("wrote %d DOT files to %s\n", len(res.Components), *dotDir)
	}
	return nil
}
