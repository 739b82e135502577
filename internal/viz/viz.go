// Package viz exports detected components as Graphviz DOT (the paper uses
// Cytoscape; DOT is the portable equivalent for Figures 1–2 style network
// diagrams) and describes them in one line.
package viz

import (
	"fmt"
	"io"
	"strings"

	"coordbot/internal/graph"
)

// NameFunc resolves an author ID to a display name. Nil falls back to
// numeric IDs.
type NameFunc func(graph.VertexID) string

func name(f NameFunc, v graph.VertexID) string {
	if f == nil {
		return fmt.Sprintf("u%d", v)
	}
	return f(v)
}

// WriteDOT emits an undirected DOT graph of the component with edge weights
// as labels and penwidths scaled by weight — enough to reproduce the look
// of the thesis's Figure 1/2 network drawings in any DOT renderer.
func WriteDOT(w io.Writer, c *graph.Component, title string, names NameFunc) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %q {\n", sanitize(title))
	sb.WriteString("  layout=neato;\n  node [shape=circle, fontsize=10];\n")
	for _, a := range c.Authors {
		fmt.Fprintf(&sb, "  %q;\n", name(names, a))
	}
	maxW := c.MaxWeight()
	for _, e := range c.Edges {
		pen := 1.0
		if maxW > 0 {
			pen = 0.5 + 3.5*float64(e.W)/float64(maxW)
		}
		fmt.Fprintf(&sb, "  %q -- %q [label=%d, penwidth=%.2f];\n",
			name(names, e.U), name(names, e.V), e.W, pen)
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r == '"' || r == '\n' {
			return '_'
		}
		return r
	}, s)
}

// Describe renders a one-line component summary like the paper's prose:
// size, edge count, weight range, density, clique number.
func Describe(c *graph.Component, names NameFunc) string {
	g := graph.NewCIGraph()
	for _, e := range c.Edges {
		g.AddEdgeWeight(e.U, e.V, e.W)
	}
	clique := graph.MaxCliqueSize(g)
	diam := graph.ComponentDiameter(c)
	sample := make([]string, 0, 3)
	for i, a := range c.Authors {
		if i == 3 {
			sample = append(sample, "…")
			break
		}
		sample = append(sample, name(names, a))
	}
	return fmt.Sprintf("%d authors, %d edges, weights [%d..%d], density %.2f, max clique %d, diameter %d: %s",
		c.Size(), len(c.Edges), c.MinWeight(), c.MaxWeight(), c.Density(), clique, diam,
		strings.Join(sample, ", "))
}
