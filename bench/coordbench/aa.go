package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the calibration reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &b, nil
}

// calibrate is the A/A mode: `sets` sets of `runs` runs of this same
// binary, interleaved so slow drift of the host lands on every set alike,
// every run a fresh process. Run r of every set uses seed+r: within a set
// the seeds differ, as in the acceptance check, and the sets' medians
// compare like with like. It prints, as markdown, for every end-to-end
// number (bounded or not) the per-set medians, how far a later set's
// median is worse than the first's and the quartile spread within a set,
// and judges the bounded ones against BENCHMARK.json. Two runs of one seed
// must also end on the same census and the same work counts: that is the
// determinism guard across runs, and what catches a second ingest
// connection or an unseeded schedule.
func calibrate(root string, selected []workload, seed int64, seconds float64, sets, runs int) error {
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	bounds := make(map[string]float64)
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// failed_ops_ratio is 0 on every run that gets this far.
	judged := append(append([]metricDef{}, endToEnd...), perLayer[:unbounded-1]...)
	fmt.Printf("# A/A calibration\n\n%d interleaved sets of %d runs per workload, seeds %d.., %g s, %s.\n\n",
		sets, runs, seed, seconds, time.Now().UTC().Format("2006-01-02"))
	fmt.Println("`worse` is how far the set's median is worse than set 1's, `spread` the widest within-set")
	fmt.Println("(Q3-Q1)/median, both as a share. A bounded metric passes when both are within its bound")
	fmt.Println("(`setup_s` is held to `worse` only); an unbounded one is marked when either exceeds a tenth.")
	allPass := true
	for _, w := range selected {
		// values[set][metric] = one value per run
		values := make([]map[string][]float64, sets)
		for s := range values {
			values[s] = make(map[string][]float64)
		}
		disturbed, slowest := 0, 0.0
		for r := 0; r < runs; r++ {
			first := ""
			for s := 0; s < sets; s++ {
				t := time.Now()
				res, out, err := runSelf(self, w.name, seed+int64(r), seconds)
				if err != nil {
					return err
				}
				slowest = math.Max(slowest, time.Since(t).Seconds())
				if !res.Correct || res.Failed != 0 {
					return fmt.Errorf("%s seed %d: incorrect run:\n%s", w.name, seed+int64(r), out)
				}
				if id := identity(out); s == 0 {
					first = id
				} else if id != first {
					return fmt.Errorf("%s seed %d is not deterministic: one run ended on [%s], another on [%s]", w.name, seed+int64(r), first, id)
				}
				if strings.Contains(out, "DISTURBED") {
					disturbed++
				}
				for name, v := range reported(out) {
					values[s][name] = append(values[s][name], v)
				}
			}
		}
		fmt.Printf("\n## %s\n\n%d of %d runs marked disturbed by the host sentinel; slowest run %.1f s wall.\n\n", w.name, disturbed, sets*runs, slowest)
		fmt.Println("| metric | unit | set medians | worse | spread | bound | |")
		fmt.Println("|---|---|---|---|---|---|---|")
		for _, m := range judged {
			if len(values[0][m.name]) < runs {
				continue // not defined on this workload
			}
			var medians []string
			first, worst, spread := 0.0, 0.0, 0.0
			for s := range values {
				q1, q2, q3 := quartiles(values[s][m.name])
				medians = append(medians, fmt.Sprintf("%.4g", q2))
				spread = math.Max(spread, (q3-q1)/q2)
				if s == 0 {
					first = q2
					continue
				}
				worse := (q2 - first) / first
				if m.higher {
					worse = -worse
				}
				worst = math.Max(worst, worse)
			}
			bound, verdict := "none", ""
			if b, ok := bounds[m.name]; ok {
				bound, verdict = fmt.Sprintf("%.0f%%", 100*b), "pass"
				if worst > b || (spread > b && m.name != "setup_s") {
					verdict, allPass = "FAIL", false
				}
			} else if worst > 0.1 || spread > 0.1 {
				verdict = "over a tenth"
			}
			fmt.Printf("| %s | %s | %s | %.2f%% | %.2f%% | %s | %s |\n",
				m.name, m.unit, strings.Join(medians, " / "), 100*worst, 100*spread, bound, verdict)
		}
		fmt.Println("\nEvery run, in the order made within its set:")
		fmt.Println()
		for _, m := range judged {
			for s := range values {
				if len(values[s][m.name]) == 0 {
					continue
				}
				var vs []string
				for _, v := range values[s][m.name] {
					vs = append(vs, fmt.Sprintf("%.4g", v))
				}
				fmt.Printf("- `%s` set %d: %s\n", m.name, s+1, strings.Join(vs, " "))
			}
		}
	}
	if !allPass {
		return fmt.Errorf("a metric left its bound")
	}
	return nil
}

// reported reads the metric lines of a run's report ("  name  value unit").
func reported(out string) map[string]float64 {
	vals := make(map[string]float64)
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 || !strings.HasPrefix(line, "  ") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			vals[f[0]] = v
		}
	}
	return vals
}

// identity extracts from a run's report what must repeat exactly under one
// seed: the census digest and size, and the exact work counts the daemon
// reports. (The number of reads attempted follows the clock.)
func identity(out string) string {
	var id []string
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "ops":
			for _, kv := range f[1:] {
				if strings.HasPrefix(kv, "census=") || strings.HasPrefix(kv, "triangles=") {
					id = append(id, kv)
				}
			}
		case "stream.pairs_per_comment", "stream.live_edges_end":
			id = append(id, strings.Join(f, "="))
		}
	}
	return strings.Join(id, "; ")
}

// result is the JSON line a run ends with.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runSelf runs one untraced workload in a fresh process and parses the
// last line of its output.
func runSelf(self, workload string, seed int64, seconds float64) (*result, string, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds))
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, "", fmt.Errorf("%s seed %d: %w: %s%s", workload, seed, err, stdout.String(), stderr.String())
	}
	out := strings.TrimSpace(stdout.String())
	last := out[strings.LastIndexByte(out, '\n')+1:]
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, out, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	return &res, out, nil
}
