package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"syscall"
	"time"

	"coordbot/internal/community"
	"coordbot/internal/graph"
	"coordbot/internal/hypergraph"
	"coordbot/internal/pipeline"
	"coordbot/internal/projection"
	"coordbot/internal/pushshift"
	"coordbot/internal/redditgen"
	"coordbot/internal/tripoll"
)

// archives are batch-archive's inputs: the paper's two snapshots, each
// under its preset's own seed, at the share of full size that makes one
// round (both months) about a third of 20 s on the reference host. They
// are the one input -seed does not touch. Batch projection's cost follows
// no property of a corpus the harness could hold steady: six re-seeded
// January months of equal density and equal edge count (1.58M) ran at 14k
// to 78k comments/s, and one month under two author numberings in 12 s
// and 21 s. So every run measures the same two months, and two rather
// than one so that a change cannot be tuned to a single corpus.
var archives = []struct {
	name   string
	preset func(scale float64) redditgen.Config
	scale  float64
}{
	{"jan2020", redditgen.Jan2020, 0.6},
	{"oct2016", redditgen.Oct2016, 0.8},
}

// archiveShrink shrinks the months further for smoke runs only: from 15 s
// up they are as listed.
func archiveShrink(seconds float64) float64 { return math.Min(1, seconds/15) }

// archiveCut is the paper's component cutoff, the CLI's default.
const archiveCut = 25

// batchOut is what the batch worker prints: the census in the archive's
// first-appearance author IDs (which any reader of the same file
// reproduces), and its own phase timings.
type batchOut struct {
	Comments int        `json:"comments"`
	Edges    int        `json:"edges"`
	LoadS    float64    `json:"load_s"`   // read + BTM: the archive is in memory and indexed
	IngestS  float64    `json:"ingest_s"` // load + projection
	TotalS   float64    `json:"total_s"`  // ingest + survey, validation, components, clustering
	Tris     []tri      `json:"triangles"`
	Comms    [][]uint32 `json:"communities"`
}

// batchConfig is `coordbot pipeline -transport sharded -communities` at
// its default window and cut.
func batchConfig(c *pushshift.Corpus) pipeline.Config {
	exclude := make(map[graph.VertexID]bool)
	for _, name := range excluded {
		if id, ok := c.Authors.Lookup(name); ok {
			exclude[id] = true
		}
	}
	return pipeline.Config{
		Window:            window,
		MinTriangleWeight: archiveCut,
		Exclude:           exclude,
		Sharded:           true,
		Communities:       true,
		Community:         communityConfig,
	}
}

// batchWorker is the batch SUT: what the CLI's pipeline subcommand does,
// with the census on stdout (the CLI prints only samples of it). In mode
// "load" it stops once the archive is read and indexed.
func batchWorker(mode, archive string) error {
	t0 := time.Now()
	c, err := pushshift.ReadFile(archive)
	if err != nil {
		return err
	}
	btm := c.BTM()
	load := time.Since(t0)
	if mode == "load" {
		return json.NewEncoder(os.Stdout).Encode(batchOut{Comments: btm.NumEdges(), LoadS: load.Seconds()})
	}
	res, err := pipeline.Run(btm, batchConfig(c))
	if err != nil {
		return err
	}
	total := time.Since(t0)
	cs := censusOf(res)
	after := res.Timings.Survey + res.Timings.Validate + res.Timings.Component + res.Timings.Cluster
	return json.NewEncoder(os.Stdout).Encode(batchOut{
		Comments: len(c.Comments),
		Edges:    res.CI.NumEdges(),
		LoadS:    load.Seconds(),
		IngestS:  (total - after).Seconds(),
		TotalS:   total.Seconds(),
		Tris:     cs.tris,
		Comms:    cs.comms,
	})
}

// archiveFile is one archive on disk with its ground truth.
type archiveFile struct {
	name  string
	path  string
	truth []string // planted bot names
}

// writeArchives generates the archives and writes them as Pushshift NDJSON.
func writeArchives(outDir string, seconds float64) ([]*archiveFile, error) {
	var out []*archiveFile
	for _, a := range archives {
		ds := redditgen.Generate(a.preset(a.scale * archiveShrink(seconds)))
		af := &archiveFile{name: a.name, path: filepath.Join(outDir, a.name+".ndjson")}
		for id := range ds.AllBots() {
			af.truth = append(af.truth, ds.Authors.Name(id))
		}
		if err := pushshift.WriteFile(af.path, ds.Comments, ds.Authors, pushshift.SyntheticPageNames(ds.NumPages)); err != nil {
			return nil, err
		}
		out = append(out, af)
	}
	return out, nil
}

// archiveRun is the batch worker's run over one archive.
type archiveRun struct {
	out     batchOut
	census  *census
	wallS   float64 // child exec -> census on stdout
	cpuS    float64 // child user+sys
	peakRSS float64 // MB
}

// runWorker runs this binary as the batch worker ("batch", or "load" to
// stop after set-up), on the SUT's CPUs, over one archive.
func runWorker(mode string, af *archiveFile) (*archiveRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-worker", mode, "-archive", af.path)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	t := time.Now()
	if err := startSUT(cmd); err != nil {
		return nil, err
	}
	err = cmd.Wait()
	ar := &archiveRun{wallS: time.Since(t).Seconds()}
	if err != nil {
		return nil, fmt.Errorf("batch worker over %s: %w: %s", af.name, err, stderr.String())
	}
	if err := json.Unmarshal(stdout.Bytes(), &ar.out); err != nil {
		return nil, fmt.Errorf("batch worker output: %w", err)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	ar.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	ar.peakRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB
	ar.census = &census{tris: ar.out.Tris, comms: ar.out.Comms}
	return ar, nil
}

// score counts a census's hits and misses against the archive's planted
// bots, in the author IDs any reader of the file reproduces.
func (af *archiveFile) score(c *pushshift.Corpus, cs *census) pipeline.Metrics {
	truth := make(map[graph.VertexID]bool)
	for _, name := range af.truth {
		if id, ok := c.Authors.Lookup(name); ok {
			truth[id] = true
		}
	}
	return pipeline.Evaluate(cs.flagged(), truth)
}

// restrictedOracle checks an untraced batch census without paying for a
// second projection of the whole archive: the reference projection is
// re-run over the flagged authors only. A pair's weight does not depend
// on third parties, so every triangle's weights and hypergraph scores
// must match, and no triangle among flagged authors may be missing. T
// needs everybody's page counts and communities need the whole pruned
// graph; the traced run checks those against the full reference.
func restrictedOracle(c *pushshift.Corpus, cs *census) error {
	cfg := batchConfig(c)
	cfg.Sharded, cfg.Sequential, cfg.Communities = false, true, false
	cfg.Restrict = cs.flagged()
	res, err := pipeline.Run(c.BTM(), cfg)
	if err != nil {
		return err
	}
	got := &census{tris: cs.tris}
	return got.diff(censusOf(res), true)
}

// batchTrace stages the batch pipeline over one archive from the layers'
// public functions (its census must equal the worker's), then runs the
// single-threaded reference pipeline as the full oracle.
func batchTrace(tr *tracer, id int, af *archiveFile) (c *pushshift.Corpus, staged, reference *census, err error) {
	root := tr.begin("pass.layers", -1, id)
	step := func(name string, fn func()) { tr.timed(name, root, id, fn) }

	step("pushshift.ReadFile", func() { c, err = pushshift.ReadFile(af.path) })
	if err != nil {
		return nil, nil, nil, err
	}
	cfg := batchConfig(c)
	var btm *graph.BTM
	step("graph.BuildBTM", func() { btm = c.BTM() })
	var ci *graph.ShardedCI
	step("projection.ProjectSharded", func() {
		ci, err = projection.ProjectSharded(btm, window, projection.Options{Exclude: cfg.Exclude})
	})
	if err != nil {
		return nil, nil, nil, err
	}
	sopts := tripoll.Options{MinTriangleWeight: archiveCut}
	var pruned graph.CIView
	step("graph.ThresholdView", func() { pruned = ci.ThresholdView(archiveCut) })
	var adj *graph.Adjacency
	step("graph.BuildAdjacency", func() { adj = pruned.BuildAdjacency() })
	var o *tripoll.Oriented
	step("tripoll.Orient", func() { o = tripoll.Orient(adj) })
	var tris []tripoll.Triangle
	step("tripoll.SurveyParallel", func() { tris = o.SurveyParallel(sopts, ci.PageCount) })
	var scores []hypergraph.Score
	step("hypergraph.EvaluateAll", func() {
		triplets := make([]hypergraph.Triplet, len(tris))
		for i, t := range tris {
			triplets[i] = hypergraph.Triplet{X: t.X, Y: t.Y, Z: t.Z}
		}
		scores = hypergraph.EvaluateAll(btm, triplets, 0)
	})
	step("graph.ConnectedComponents", func() { graph.ConnectedComponents(pruned) })
	var part *community.Partition
	ccfg := communityConfig.Defaults()
	step("community.Detect", func() { part = community.Detect(pruned, ccfg) })
	var comms []community.CommunityScore
	step("community.ScoreCommunities", func() {
		comms = community.ScoreCommunities(part, pruned, btm, tris, ccfg.MinSize)
	})
	tr.end(root)

	staged = &census{}
	for i, t := range tris {
		staged.tris = append(staged.tris, tri{X: t.X, Y: t.Y, Z: t.Z, MinW: t.MinWeight(),
			T: t.TScore(ci.PageCount), W: scores[i].W, C: scores[i].C})
	}
	for _, cm := range comms {
		staged.comms = append(staged.comms, slices.Clone(cm.Members))
	}
	staged.normalise()

	cfg.Sharded, cfg.Sequential = false, true
	ref := tr.begin("oracle.sequential", -1, id)
	res, err := pipeline.Run(btm, cfg)
	tr.end(ref)
	if err != nil {
		return nil, nil, nil, err
	}
	return c, staged, censusOf(res), nil
}
