package analyzer

import (
	"fmt"
	"sort"
	"strings"

	"sgxperf/internal/perf/events"
)

// GraphNode is one call in the graph (Fig. 5: square = ecall, round =
// ocall; the bracketed number is the call ID).
type GraphNode struct {
	Name   string
	Kind   events.CallKind
	CallID int
	Count  int
}

// GraphEdge connects a parent call to a call issued under it. Direct
// edges (solid arrows in Fig. 5) link direct parents; indirect edges
// (dashed) link indirect parents.
type GraphEdge struct {
	From, To string
	Count    int
	Indirect bool
}

// CallGraph is the application's call-pattern graph (§4.3.1).
type CallGraph struct {
	Nodes []GraphNode
	Edges []GraphEdge
}

// sortGraphEdges fixes the edge order of a rendered graph: by (From,
// To), direct before indirect.
func sortGraphEdges(edges []GraphEdge) {
	sort.Slice(edges, func(i, j int) bool {
		a, b := edges[i], edges[j]
		if a.From != b.From {
			return a.From < b.From
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return !a.Indirect && b.Indirect
	})
}

// Node returns the named node, if present.
func (g *CallGraph) Node(name string) (GraphNode, bool) {
	for _, n := range g.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return GraphNode{}, false
}

// EdgeCount returns the count on the (from, to, indirect) edge, or 0.
func (g *CallGraph) EdgeCount(from, to string, indirect bool) int {
	for _, e := range g.Edges {
		if e.From == from && e.To == to && e.Indirect == indirect {
			return e.Count
		}
	}
	return 0
}

// DOT renders the graph in Graphviz format, styled like Fig. 5: square
// boxes for ecalls, ellipses for ocalls, solid edges for direct parents,
// dashed for indirect parents, edge labels carrying call counts.
func (g *CallGraph) DOT() string {
	var b strings.Builder
	b.WriteString("digraph calls {\n")
	b.WriteString("    rankdir=TB;\n")
	ids := make(map[string]string, len(g.Nodes))
	for i, n := range g.Nodes {
		id := fmt.Sprintf("n%d", i)
		ids[n.Name] = id
		shape := "box"
		if n.Kind == events.KindOcall {
			shape = "ellipse"
		}
		fmt.Fprintf(&b, "    %s [label=\"[%d] %s\\n%d calls\", shape=%s];\n",
			id, n.CallID, n.Name, n.Count, shape)
	}
	for _, e := range g.Edges {
		style := "solid"
		if e.Indirect {
			style = "dashed"
		}
		fmt.Fprintf(&b, "    %s -> %s [label=\"%d\", style=%s];\n",
			ids[e.From], ids[e.To], e.Count, style)
	}
	b.WriteString("}\n")
	return b.String()
}
