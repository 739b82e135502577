package viz

import (
	"bytes"
	"strings"
	"testing"

	"coordbot/internal/graph"
)

func testComponent() *graph.Component {
	return &graph.Component{
		Authors: []graph.VertexID{1, 2, 3},
		Edges: []graph.WeightedEdge{
			{U: 1, V: 2, W: 25},
			{U: 2, V: 3, W: 33},
			{U: 1, V: 3, W: 28},
		},
	}
}

func TestWriteDOT(t *testing.T) {
	var buf bytes.Buffer
	names := func(v graph.VertexID) string { return map[graph.VertexID]string{1: "a", 2: "b", 3: "c"}[v] }
	if err := WriteDOT(&buf, testComponent(), "gpt2 \"ring\"", names); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"a" -- "b" [label=25`, `"b" -- "c" [label=33`, "graph "} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, `""ring""`) {
		t.Fatal("title not sanitized")
	}
}

func TestWriteDOTNilNames(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteDOT(&buf, testComponent(), "t", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"u1"`) {
		t.Fatal("numeric fallback names missing")
	}
}

func TestDescribe(t *testing.T) {
	d := Describe(testComponent(), nil)
	for _, want := range []string{"3 authors", "3 edges", "[25..33]", "max clique 3"} {
		if !strings.Contains(d, want) {
			t.Fatalf("describe missing %q: %s", want, d)
		}
	}
}
