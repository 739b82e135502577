package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func genTestData(t *testing.T) string {
	t.Helper()
	data := filepath.Join(t.TempDir(), "d.ndjson.gz")
	if err := cmdGen([]string{"-preset", "tiny", "-seed", "5", "-out", data}); err != nil {
		t.Fatal(err)
	}
	return data
}

func TestCmdStream(t *testing.T) {
	data := genTestData(t)
	out := filepath.Join(t.TempDir(), "edges.tsv")
	if err := cmdStream([]string{"-in", data, "-max", "60", "-out", out}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	content := string(raw)
	if !strings.Contains(content, "streamed projection") {
		t.Fatalf("header missing:\n%.200s", content)
	}
	if strings.Count(content, "\n") < 10 {
		t.Fatal("too few edges")
	}
	if err := cmdStream([]string{"-max", "60"}); err == nil {
		t.Fatal("missing -in accepted")
	}
}

func TestCmdStreamMatchesProject(t *testing.T) {
	// The streamed edge list must equal the batch projection's on the
	// same data (ignoring header/order).
	data := genTestData(t)
	dir := t.TempDir()
	a := filepath.Join(dir, "a.tsv")
	b := filepath.Join(dir, "b.tsv")
	if err := cmdStream([]string{"-in", data, "-max", "60", "-out", a}); err != nil {
		t.Fatal(err)
	}
	if err := cmdProject([]string{"-in", data, "-max", "60", "-out", b}); err != nil {
		t.Fatal(err)
	}
	parse := func(path string) map[string]bool {
		raw, _ := os.ReadFile(path)
		set := make(map[string]bool)
		for _, line := range strings.Split(string(raw), "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			f := strings.Split(line, "\t")
			if len(f) != 3 {
				continue
			}
			u, v := f[0], f[1]
			if u > v {
				u, v = v, u
			}
			set[u+"|"+v+"|"+f[2]] = true
		}
		return set
	}
	sa, sb := parse(a), parse(b)
	if len(sa) == 0 || len(sa) != len(sb) {
		t.Fatalf("edge sets differ in size: %d vs %d", len(sa), len(sb))
	}
	for k := range sa {
		if !sb[k] {
			t.Fatalf("edge %q only in stream output", k)
		}
	}
}

func TestCmdBaseline(t *testing.T) {
	data := genTestData(t)
	for _, m := range []string{"jaccard", "cosine", "tfidf"} {
		if err := cmdBaseline([]string{"-in", data, "-method", m, "-percentile", "0.99"}); err != nil {
			t.Fatalf("method %s: %v", m, err)
		}
	}
	if err := cmdBaseline([]string{"-in", data, "-method", "nope"}); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestCmdBackbone(t *testing.T) {
	data := genTestData(t)
	if err := cmdBackbone([]string{"-in", data, "-max", "60", "-alpha", "1e-9", "-top", "5"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdGroups(t *testing.T) {
	data := genTestData(t)
	if err := cmdGroups([]string{"-in", data, "-max", "60", "-cut", "20", "-tscore", "0.5"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdProjectTCPTransport(t *testing.T) {
	data := genTestData(t)
	dir := t.TempDir()
	local := filepath.Join(dir, "local.tsv")
	tcp := filepath.Join(dir, "tcp.tsv")
	if err := cmdProject([]string{"-in", data, "-max", "60", "-out", local}); err != nil {
		t.Fatal(err)
	}
	if err := cmdProject([]string{"-in", data, "-max", "60", "-transport", "tcp", "-ranks", "3", "-out", tcp}); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(local)
	b, _ := os.ReadFile(tcp)
	if string(a) != string(b) {
		t.Fatal("tcp transport produced different projection output")
	}
	for _, args := range [][]string{
		{"-in", data, "-transport", "carrier-pigeon"},
		{"-in", data, "-transport", "carrier-pigeon", "-signals", "cocomment"},
		{"-in", data, "-transport", "memory"},
	} {
		if err := cmdProject(args); err == nil || !strings.Contains(err.Error(), "unknown -transport") {
			t.Fatalf("project %v: err %v, want unknown -transport", args[2:], err)
		}
	}
	// The cluster projects co-comments only: -signals under tcp is refused,
	// not silently run in-process.
	if err := cmdProject([]string{"-in", data, "-transport", "tcp", "-signals", "cocomment"}); err == nil ||
		!strings.Contains(err.Error(), "co-comments only") {
		t.Fatalf("project -transport tcp -signals: err %v, want a co-comments-only rejection", err)
	}
	// -ranks sizes the tcp cluster only: under sharded it is refused, not
	// silently ignored.
	for _, args := range [][]string{
		{"-in", data, "-ranks", "3"},
		{"-in", data, "-transport", "sharded", "-ranks", "3"},
	} {
		if err := cmdProject(args); err == nil || !strings.Contains(err.Error(), "-ranks sets the -transport tcp cluster size") {
			t.Fatalf("project %v: err %v, want a -ranks rejection", args[2:], err)
		}
	}
	sig := filepath.Join(dir, "sig.tsv")
	if err := cmdProject([]string{"-in", data, "-max", "60", "-transport", "sharded", "-signals", "cocomment", "-out", sig}); err != nil {
		t.Fatal(err)
	}
	if c, _ := os.ReadFile(sig); string(c) != string(a) {
		t.Fatal("-signals cocomment produced a different projection than the default")
	}
}

func TestCmdClassify(t *testing.T) {
	data := genTestData(t)
	if err := cmdClassify([]string{"-in", data, "-max", "60", "-cut", "20"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdHexbin(t *testing.T) {
	data := genTestData(t)
	csv := filepath.Join(t.TempDir(), "bins.csv")
	for _, kind := range []string{"scores", "weights"} {
		if err := cmdHexbin([]string{"-in", data, "-max", "60", "-cut", "10",
			"-kind", kind, "-csv", csv}); err != nil {
			t.Fatalf("kind %s: %v", kind, err)
		}
		raw, err := os.ReadFile(csv)
		if err != nil || !strings.HasPrefix(string(raw), "x,y,count") {
			t.Fatalf("kind %s: bad csv (%v)", kind, err)
		}
	}
	if err := cmdHexbin([]string{"-in", data, "-kind", "nope"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
}
