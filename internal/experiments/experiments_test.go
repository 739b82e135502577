package experiments

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"coordbot/internal/pipeline"
	"coordbot/internal/projection"
	"coordbot/internal/redditgen"
	"coordbot/internal/stats"
)

// Tests run at a reduced organic scale so the full suite stays fast; the
// shape claims under test are scale-invariant (see DESIGN.md).
const testScale = 0.08

func newTestLab(t *testing.T) *Lab {
	t.Helper()
	return NewLab(testScale)
}

func TestLabMemoizesRuns(t *testing.T) {
	lab := newTestLab(t)
	w := projection.Window{Min: 0, Max: 60}
	r1, err := lab.Run("oct2016", w, 10)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := lab.Run("oct2016", w, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("identical runs not memoized")
	}
	if lab.Dataset("oct2016") != lab.Dataset("oct2016") {
		t.Fatal("datasets not memoized")
	}
}

func TestLabUnknownDatasetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	newTestLab(t).Dataset("nov1989")
}

func TestFigureUnknownID(t *testing.T) {
	if _, err := newTestLab(t).Figure("f99"); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestFig1RecoversGPT2(t *testing.T) {
	lab := newTestLab(t)
	r, err := lab.Figure("f1")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Measured, "\n")
	if strings.Contains(joined, "NOT FOUND") {
		t.Fatalf("GPT-2 component not recovered:\n%s", joined)
	}
	if !strings.Contains(joined, "purity vs ground truth: 1.000") {
		t.Fatalf("GPT-2 component impure:\n%s", joined)
	}
	if r.DOT == "" || !strings.Contains(r.DOT, "gpt2") {
		t.Fatal("missing DOT rendering")
	}
}

func TestFig2ReshareDenserThanGPT(t *testing.T) {
	lab := newTestLab(t)
	r, err := lab.Figure("f2")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Measured, "\n")
	if strings.Contains(joined, "NOT FOUND") {
		t.Fatalf("reshare component not recovered:\n%s", joined)
	}
	// The paper's shape claim: reshare contains a large clique.
	var clique int
	for _, m := range r.Measured {
		if n, _ := fmt.Sscanf(m, "max clique in reshare component: %d", &clique); n == 1 {
			break
		}
	}
	if clique < 8 {
		t.Fatalf("reshare clique = %d, want >= 8:\n%s", clique, joined)
	}
}

func TestScoreHexbinCorrelationsPositive(t *testing.T) {
	// All window lengths must show the positive T–C relationship of
	// Figures 3/5/7/9.
	lab := newTestLab(t)
	for _, max := range []int64{60, 600} {
		res, err := lab.Run("oct2016", projection.Window{Min: 0, Max: max}, 10)
		if err != nil {
			t.Fatal(err)
		}
		ts, cs, _, _ := res.MetricSeries()
		if r := stats.Pearson(ts, cs); math.IsNaN(r) || r <= 0 {
			t.Fatalf("window %ds: correlation %v not positive", max, r)
		}
	}
}

func TestWindowConvergence(t *testing.T) {
	// The F5→F7→F9 narrative: longer windows bring T and C together.
	// The effect is driven by per-page comment density, so it is tested
	// on the dense preset (the oct2016 preset shows it at full organic
	// scale; see EXPERIMENTS.md).
	d := redditgen.Generate(redditgen.DenseWeek(5))
	b := d.BTM()
	prev := -1.0
	for _, max := range []int64{60, 600, 3600} {
		res, err := pipeline.Run(b, pipeline.Config{
			Window:            projection.Window{Min: 0, Max: max},
			MinTriangleWeight: 10,
			Exclude:           d.Helpers,
		})
		if err != nil {
			t.Fatal(err)
		}
		ts, cs, _, _ := res.MetricSeries()
		r := stats.Pearson(ts, cs)
		if math.IsNaN(r) {
			t.Fatalf("window %d: NaN correlation (%d triplets)", max, len(ts))
		}
		if r <= prev {
			t.Fatalf("correlation not increasing with window: %.3f after %.3f at %ds", r, prev, max)
		}
		prev = r
	}
}

func TestFig4OutlierIsReplyBots(t *testing.T) {
	lab := newTestLab(t)
	r, err := lab.Figure("f4")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Measured, "\n")
	if !strings.Contains(joined, "smiley") {
		t.Fatalf("max-min-weight triangle is not the smiley bots:\n%s", joined)
	}
	if r.Hist == nil || r.Hist.Total == 0 {
		t.Fatal("empty histogram")
	}
}

func TestS1ComponentCensus(t *testing.T) {
	lab := newTestLab(t)
	r, err := lab.Figure("s1")
	if err != nil {
		t.Fatal(err)
	}
	var comps int
	for _, m := range r.Measured {
		if n, _ := fmt.Sscanf(m, "components at cutoff 25: %d", &comps); n == 1 {
			break
		}
	}
	// 36 minor rings + 3 narrated networks; a couple may merge or drop
	// at reduced scale.
	if comps < 30 || comps > 45 {
		t.Fatalf("component census = %d, want ≈39", comps)
	}
}

func TestX1WindowingRestoresBound(t *testing.T) {
	lab := newTestLab(t)
	r, err := lab.Figure("x1")
	if err != nil {
		t.Fatal(err)
	}
	// Parse the two violation percentages.
	var a, b float64
	var n1, d1, n2, d2 int
	found := 0
	for _, m := range r.Measured {
		if n, _ := fmt.Sscanf(m, "triplets with w_xyz > min triangle weight (unwindowed): %d/%d (%f%%)", &n1, &d1, &a); n == 3 {
			found++
		}
		if n, _ := fmt.Sscanf(m, "triplets with windowed w_xyz(Δ=600s) > min triangle weight: %d/%d (%f%%)", &n2, &d2, &b); n == 3 {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("could not parse X1 output: %v", r.Measured)
	}
	if b >= a {
		t.Fatalf("windowing did not reduce bound violations: %.1f%% → %.1f%%", a, b)
	}
	if b > 5 {
		t.Fatalf("windowed violations %.1f%% too high", b)
	}
}

func TestX2NormalizedScoreGivesPerfectPrecision(t *testing.T) {
	lab := newTestLab(t)
	r, err := lab.Figure("x2")
	if err != nil {
		t.Fatal(err)
	}
	joined := strings.Join(r.Measured, "\n")
	if !strings.Contains(joined, "T >= 0.5   : P=1.000") {
		t.Fatalf("normalized filter precision != 1:\n%s", joined)
	}
}

func TestReportWriteText(t *testing.T) {
	lab := newTestLab(t)
	r, err := lab.Figure("f6")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"== f6:", "paper:", "measured:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("WriteText missing %q:\n%s", want, out)
		}
	}
}

func TestDescribeCoversAllIDs(t *testing.T) {
	for _, id := range IDs() {
		if Describe(id) == "" {
			t.Fatalf("no description for %q", id)
		}
	}
	if Describe("nope") != "" {
		t.Fatal("unknown id described")
	}
}

func TestAllFiguresRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure suite in -short mode")
	}
	lab := newTestLab(t)
	for _, id := range IDs() {
		r, err := lab.Figure(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(r.Measured) == 0 {
			t.Fatalf("%s: no measurements", id)
		}
	}
}
