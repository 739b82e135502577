package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for coordbench when the
// batch-archive workload re-executes itself as its worker.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestSmoke runs all four workloads traced at about 1/27 size, so that
// `go test ./...` in bench/ keeps the benchmark compiling and correct as
// the layers change: every listed metric present, finite and well named,
// the oracle and both replays agreeing, and no failed operation.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a daemon and four workloads")
	}
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	e := &env{daemonBin: filepath.Join(out, "coordbotd"), outDir: out, setups: 1}
	if err := buildDaemon(root, e.daemonBin); err != nil {
		t.Fatal(err)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			rep, err := e.run(context.Background(), w, 42, 0.75, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range rep.problems {
				// A smoke run's span totals are normally too small to be
				// judged; under -race they pass the threshold and are
				// still too small to mean anything.
				if strings.HasPrefix(p, "trace.coverage") {
					t.Log(p)
					continue
				}
				t.Error(p)
			}
			if rep.failed != 0 || rep.attempted < 1 {
				t.Errorf("%d of %d operations failed", rep.failed, rep.attempted)
			}
			for _, d := range endToEnd {
				if v, ok := rep.values[d.name]; !ok || !(v > 0) || math.IsInf(v, 0) {
					t.Errorf("%s = %v (present: %v), want a finite value above 0", d.name, v, ok)
				}
			}
			// The unbounded end-to-end numbers: all but failed_ops_ratio
			// are above 0 wherever a reader (or anything) produces them.
			for _, d := range perLayer[:unbounded] {
				daemonOnly := d.name == "freshness_p50_ms" || d.name == "read_mean_ms"
				if d.name == "failed_ops_ratio" || (daemonOnly && w.build == nil) {
					continue
				}
				if v := rep.values[d.name]; !(v > 0) {
					t.Errorf("%s = %v, want a value above 0", d.name, v)
				}
			}
			// A per-layer metric is absent, and reported as 0, only on a
			// workload whose path skips the layer.
			for _, d := range perLayer {
				if v := rep.values[d.name]; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v", d.name, v)
				}
			}
			for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
				if !name.MatchString(d.name) {
					t.Errorf("metric name %q", d.name)
				}
			}
			if rep.values["failed_ops_ratio"] != 0 {
				t.Errorf("failed_ops_ratio = %v", rep.values["failed_ops_ratio"])
			}
		})
	}
}

// TestBenchmarkFile keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkFile(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the harness %d", len(bf.EndToEnd), len(endToEnd))
	}
	better := func(d metricDef) string {
		if d.higher {
			return "higher"
		}
		return "lower"
	}
	for i, m := range bf.EndToEnd {
		if d := endToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Better != better(d) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the harness %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if d := perLayer[i]; m.Name != d.name || m.Unit != d.unit || m.Better != better(d) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the harness %+v", i, m, d)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
