package main

import (
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"coordbot/internal/graph"
	"coordbot/internal/interner"
	"coordbot/internal/pushshift"
)

func writeTestCorpus(t *testing.T) string {
	t.Helper()
	authors := interner.New(4)
	pages := pushshift.SyntheticPageNames(2)
	comments := []graph.Comment{
		{Author: authors.Intern("alice"), Page: 0, TS: 10},
		{Author: authors.Intern("AutoModerator"), Page: 0, TS: 11},
		{Author: authors.Intern("bob"), Page: 1, TS: 20},
	}
	path := filepath.Join(t.TempDir(), "c.ndjson")
	if err := pushshift.WriteFile(path, comments, authors, pages); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadCorpus(t *testing.T) {
	path := writeTestCorpus(t)
	c, b, ex, err := loadCorpus(path, "AutoModerator,[deleted], ,missing")
	if err != nil {
		t.Fatal(err)
	}
	if b.NumEdges() != 3 {
		t.Fatalf("edges = %d", b.NumEdges())
	}
	am, _ := c.Authors.Lookup("AutoModerator")
	if !ex[am] {
		t.Fatal("AutoModerator not excluded")
	}
	if len(ex) != 1 {
		t.Fatalf("exclusions = %d, want 1 (unknown names skipped)", len(ex))
	}
}

func TestLoadCorpusMissingFile(t *testing.T) {
	if _, _, _, err := loadCorpus("", ""); err == nil {
		t.Fatal("empty path accepted")
	}
	if _, _, _, err := loadCorpus("/nonexistent/file.ndjson", ""); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCmdGenAndPipeline(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "d.ndjson.gz")
	truth := filepath.Join(dir, "truth.tsv")
	if err := cmdGen([]string{"-preset", "tiny", "-seed", "7", "-out", data, "-truth", truth}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(data); err != nil {
		t.Fatal("data file missing")
	}
	if st, err := os.Stat(truth); err != nil || st.Size() == 0 {
		t.Fatal("truth file missing or empty")
	}
	dot := filepath.Join(dir, "dot")
	if err := cmdPipeline([]string{"-in", data, "-cut", "20", "-dot", dot}); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dot)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no DOT files written: %v", err)
	}
}

// TestCmdPipelineTransportFlagGone: pipeline has one in-process Step-1
// path and no -transport to pick another. The flag sets exit on a parse
// error, so the rejection is observed in a child run of this test.
func TestCmdPipelineTransportFlagGone(t *testing.T) {
	if flag.Arg(0) == "pipeline-transport-child" {
		cmdPipeline([]string{"-transport", "sharded"})
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestCmdPipelineTransportFlagGone$", "pipeline-transport-child").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
		!strings.Contains(string(out), "flag provided but not defined: -transport") {
		t.Fatalf("pipeline -transport: err %v, output:\n%s", err, out)
	}
}

func TestCmdGenUnknownPreset(t *testing.T) {
	if err := cmdGen([]string{"-preset", "nope", "-out", filepath.Join(t.TempDir(), "x")}); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestCmdVerify(t *testing.T) {
	path := writeTestCorpus(t)
	if err := cmdVerify([]string{"-in", path, "-triplet", "alice,bob,AutoModerator", "-delta", "60"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-in", path, "-triplet", "alice,bob"}); err == nil {
		t.Fatal("two-name triplet accepted")
	}
	if err := cmdVerify([]string{"-in", path, "-triplet", "alice,bob,ghost"}); err == nil {
		t.Fatal("unknown author accepted")
	}
}

func TestCmdProjectAndTriangles(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "d.ndjson.gz")
	if err := cmdGen([]string{"-preset", "tiny", "-seed", "9", "-out", data}); err != nil {
		t.Fatal(err)
	}
	edges := filepath.Join(dir, "edges.tsv")
	if err := cmdProject([]string{"-in", data, "-max", "60", "-out", edges}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(edges); err != nil || st.Size() == 0 {
		t.Fatal("edge file missing or empty")
	}
	if err := cmdTriangles([]string{"-in", data, "-cut", "20", "-top", "5"}); err != nil {
		t.Fatal(err)
	}
}
