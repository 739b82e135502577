// Command coordbench is the repository's end-to-end benchmark: it builds
// cmd/coordbotd, drives it as a separate process over loopback HTTP with
// seeded workloads (and runs the batch pipeline as a child process),
// checks every run's detection output against an oracle, and prints the
// end-to-end metrics. With -trace 1 it replays the same inputs in-process
// and times the calls into each layer. See bench/README.md.
//
//	go -C bench run ./coordbench -seed 7                 # all four workloads
//	go -C bench run ./coordbench -workload survey-churn -trace 1
//	go -C bench run ./coordbench -aa 2                   # A/A calibration
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"coordbot/internal/graph"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run only this workload (default: all four)")
		seed         = flag.Int64("seed", 1, "seed for every generated input and schedule")
		seconds      = flag.Float64("seconds", 20, "length of the timed phase the workloads are sized for")
		trace        = flag.Int("trace", 0, "1 adds the in-process layer trace and reports per-layer metrics")
		aa           = flag.Int("aa", 0, "A/A calibration: this many alternating sets of -runs runs per workload")
		runs         = flag.Int("runs", 10, "runs per set in -aa mode")
		worker       = flag.String("worker", "", "internal: run as the batch SUT (batch: the pipeline; load: stop once the archive is read)")
		archive      = flag.String("archive", "", "internal: archive path for -worker")
	)
	flag.Parse()
	if *worker != "" {
		if err := batchWorker(*worker, *archive); err != nil {
			fmt.Fprintln(os.Stderr, "coordbench worker:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*workloadName, *seed, *seconds, *trace != 0, *aa, *runs); err != nil {
		fmt.Fprintln(os.Stderr, "coordbench:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, seconds float64, trace bool, aa, runs int) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	// Build outputs, the archives and span files all go here.
	outDir := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	selected := workloads
	if workloadName != "" {
		w := findWorkload(workloadName)
		if w == nil {
			return fmt.Errorf("unknown workload %q", workloadName)
		}
		selected = []workload{*w}
	}
	if aa > 0 {
		return calibrate(root, selected, seed, seconds, aa, runs)
	}

	if err := splitCPUs(); err != nil {
		// A sandbox may refuse affinity calls: measure unpinned, and say so.
		fmt.Fprintln(os.Stderr, "coordbench: running unpinned:", err)
	}
	e := &env{daemonBin: filepath.Join(outDir, "coordbotd"), outDir: outDir, setups: setupRepeats}
	if err := buildDaemon(root, e.daemonBin); err != nil {
		return err
	}
	printHeader(root, seed, seconds)
	ok := true
	for i := range selected {
		rep, err := e.run(context.Background(), &selected[i], seed, seconds, trace)
		if err != nil {
			return err
		}
		rep.print(trace)
		ok = ok && rep.correct()
	}
	if !ok {
		return fmt.Errorf("a run was incorrect (see PROBLEM lines)")
	}
	return nil
}

// repoRoot walks up from the working directory to the checkout that
// holds cmd/coordbotd.
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "coordbotd", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no cmd/coordbotd above the working directory: run from inside the repository")
		}
		dir = parent
	}
}

// buildDaemon compiles the SUT from the checkout's source.
func buildDaemon(root, out string) error {
	cmd := exec.Command("go", "build", "-o", out, "./cmd/coordbotd")
	cmd.Dir = root
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build cmd/coordbotd: %w: %s", err, msg)
	}
	return nil
}

func printHeader(root string, seed int64, seconds float64) {
	sha := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		sha = strings.TrimSpace(string(out))
	}
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), ":"))
				break
			}
		}
		f.Close()
	}
	// GOMAXPROCS, shards and lanes are the SUT's: it sizes them from the
	// CPUs it is confined to.
	procs := sutProcs()
	lanes := 1
	for procs > 1 && lanes < 2*procs && lanes < 64 {
		lanes <<= 1 // stream's lane rule: 2x workers, rounded up to a power of two
	}
	fmt.Printf("coordbench git=%s go=%s cpu=%q nproc=%d sut_cpus=%v harness_cpus=%v gomaxprocs=%d shards=%d lanes=%d seed=%d seconds=%g\n",
		sha, runtime.Version(), cpu, runtime.NumCPU(), sutCPUs, harnessCPUs, procs, graph.DefaultShards, lanes, seed, seconds)
}

// print writes the human-readable report, then the one-line JSON result
// the driver reads: the end-to-end metrics untraced, the per-layer ones
// traced.
func (r *report) print(trace bool) {
	fmt.Printf("\n== %s ==\n", r.workload)
	line := func(d metricDef) {
		v, ok := r.values[d.name]
		if !ok {
			fmt.Printf("  %-40s %14s %-6s\n", d.name, "n/a", d.unit)
			return
		}
		n := ""
		if c, ok := r.samples[d.name]; ok {
			n = fmt.Sprintf(" n=%d", c)
		}
		fmt.Printf("  %-40s %14.4f %-6s%s\n", d.name, v, d.unit, n)
	}
	// The readings behind an end-to-end median (one per round; one per
	// set-up for setup_s), so that a disturbed round can be told from a
	// slow program.
	perRound := func(d metricDef) {
		if vs := r.perRound[d.name]; len(vs) > 1 {
			fmt.Printf("  %-40s", "  readings")
			for _, v := range vs {
				fmt.Printf(" %.4g", v)
			}
			fmt.Println()
		}
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer[:unbounded]...) {
		line(d)
		perRound(d)
	}
	fmt.Printf("  ops attempted=%d failed=%d census=%s triangles=%d\n", r.attempted, r.failed, r.digest, r.triangles)
	reported := endToEnd
	if trace {
		fmt.Println("  -- per layer --")
		for _, d := range perLayer[unbounded:] {
			line(d)
		}
		reported = perLayer
	} else {
		for _, name := range []string{"stream.pairs_per_comment", "stream.live_edges_end", "host.ref_spin_ms", "loadgen.prepare_s"} {
			if v, ok := r.values[name]; ok {
				fmt.Printf("  %-40s %14.4f\n", name, v)
			}
		}
	}
	if r.disturbed() {
		fmt.Printf("  DISTURBED: the host sentinel read %.1f ms before this run and %.1f ms after\n", r.spin[0], r.spin[1])
	}
	for _, p := range r.problems {
		fmt.Println("  PROBLEM:", p)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, make(map[string]value)}
	for _, d := range reported {
		out.Metrics[d.name] = value{r.values[d.name], d.unit}
	}
	raw, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Println(string(raw))
}
