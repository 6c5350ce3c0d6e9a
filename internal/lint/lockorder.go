package lint

import (
	"fmt"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// lockOrderDirective marks an acquisition site as part of an intentional
// lock hierarchy, exempting the edges it creates from cycle detection:
//
//	//sgxperf:lockorder shard locks nest under the registry lock by design
//	sh.mu.Lock()
//
// Like //sgxperf:allow, the justification is mandatory and a directive
// that exempts no edge is reported as stale.
const lockOrderDirective = "//sgxperf:lockorder"

var lockOrderRE = regexp.MustCompile(`^//sgxperf:lockorder\s*(.*)$`)

// LockOrder builds the whole-repo lock-acquisition-order graph — an edge
// A→B for every site that acquires B while holding A, with locks named by
// their declaration (package, struct, field) so instances unify — and
// reports every cycle as a potential deadlock. Locks whose identity
// cannot be resolved to a declaration (locals, values reached through
// calls) never enter the graph.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc: "keep the whole-repo lock-acquisition-order graph acyclic; a cycle " +
		"is a potential deadlock the race detector only finds when the " +
		"schedule cooperates",
	Run: runLockOrder,
}

// A lockEdge is one ordered pair in the acquisition graph.
type lockEdge struct {
	from, to LockID
}

// edgeInfo keeps the earliest site witnessing an edge.
type edgeInfo struct {
	pos     token.Pos // where `to` was acquired
	fromPos token.Pos // where `from` was acquired on that path
	fn      string
}

type edgeSet struct {
	edges map[lockEdge]edgeInfo
	// exempt locates the //sgxperf:lockorder directives; nil means no
	// exemptions (the raw AnalyzeSyncTree path).
	exempt *directiveSet
}

func newEdgeSet(exempt *directiveSet) *edgeSet {
	return &edgeSet{edges: make(map[lockEdge]edgeInfo), exempt: exempt}
}

// add records held→op edges for one recorded acquisition.
func (es *edgeSet) add(fset *token.FileSet, a acquireSite) {
	if a.op.id.local {
		return
	}
	edgeWorthy := false
	for _, h := range a.held {
		if !h.id.local && h.id != a.op.id {
			edgeWorthy = true
		}
	}
	// The exempt check runs only when this site actually creates an edge,
	// so a directive on an outermost acquisition is correctly stale.
	if !edgeWorthy || es.exempt.covers("lockorder", a.pos) {
		return
	}
	for _, h := range a.held {
		if h.id.local || h.id == a.op.id {
			continue
		}
		e := lockEdge{from: h.id, to: a.op.id}
		if old, ok := es.edges[e]; ok {
			// Keep the earliest witness, by position, for determinism.
			if posLess(fset.Position(old.pos), fset.Position(a.pos)) {
				continue
			}
		}
		es.edges[e] = edgeInfo{pos: a.pos, fromPos: h.pos, fn: a.fn.name}
	}
}

func posLess(a, b token.Position) bool {
	if a.Filename != b.Filename {
		return a.Filename < b.Filename
	}
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Column < b.Column
}

// cycles runs Tarjan's SCC over the edge graph and renders every
// component with a cycle (more than one lock, or a self-edge) as a Cycle,
// sorted by report position.
func (es *edgeSet) cycles(fset *token.FileSet) []Cycle {
	adj := make(map[LockID][]LockID)
	nodes := make(map[LockID]bool)
	for e := range es.edges {
		adj[e.from] = append(adj[e.from], e.to)
		nodes[e.from], nodes[e.to] = true, true
	}
	order := make([]LockID, 0, len(nodes))
	for n := range nodes {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool { return lockIDLess(order[i], order[j]) })
	for _, out := range adj {
		sort.Slice(out, func(i, j int) bool { return lockIDLess(out[i], out[j]) })
	}

	t := &tarjan{adj: adj, index: make(map[LockID]int), low: make(map[LockID]int), onStack: make(map[LockID]bool)}
	for _, n := range order {
		if _, seen := t.index[n]; !seen {
			t.strongConnect(n)
		}
	}

	var out []Cycle
	for _, scc := range t.sccs {
		if len(scc) == 1 {
			self := lockEdge{from: scc[0], to: scc[0]}
			if _, ok := es.edges[self]; !ok {
				continue
			}
		}
		out = append(out, es.renderCycle(fset, scc))
	}
	sort.Slice(out, func(i, j int) bool { return posLess(out[i].Pos, out[j].Pos) })
	return out
}

func lockIDLess(a, b LockID) bool {
	if a.Pkg != b.Pkg {
		return a.Pkg < b.Pkg
	}
	if a.Owner != b.Owner {
		return a.Owner < b.Owner
	}
	return a.Field < b.Field
}

// renderCycle builds the report for one strongly-connected component:
// the member locks and every witnessed edge between them.
func (es *edgeSet) renderCycle(fset *token.FileSet, scc []LockID) Cycle {
	in := make(map[LockID]bool, len(scc))
	for _, l := range scc {
		in[l] = true
	}
	sort.Slice(scc, func(i, j int) bool { return lockIDLess(scc[i], scc[j]) })

	type edgeLine struct {
		pos  token.Position
		line string
	}
	var lines []edgeLine
	for e, info := range es.edges {
		if !in[e.from] || !in[e.to] {
			continue
		}
		p := fset.Position(info.pos)
		lines = append(lines, edgeLine{
			pos: p,
			line: fmt.Sprintf("%s acquired while holding %s in %s at %s:%d",
				e.to, e.from, info.fn, p.Filename, p.Line),
		})
	}
	sort.Slice(lines, func(i, j int) bool {
		if lines[i].pos != lines[j].pos {
			return posLess(lines[i].pos, lines[j].pos)
		}
		return lines[i].line < lines[j].line
	})

	c := Cycle{Pos: lines[0].pos, reportPos: token.NoPos}
	for _, l := range scc {
		c.Locks = append(c.Locks, l)
	}
	for e, info := range es.edges {
		if in[e.from] && in[e.to] && fset.Position(info.pos) == c.Pos {
			c.reportPos = info.pos
		}
	}
	for _, l := range lines {
		c.Edges = append(c.Edges, l.line)
	}
	return c
}

// runLockOrder reads the tree's recorded acquisitions in walk order,
// applying the //sgxperf:lockorder exemptions as it goes.
func runLockOrder(p *Pass) error {
	es := newEdgeSet(collectLockOrderMarks(p.Fset, p.Pkgs))
	for _, a := range p.tree.heldWalk().acquires {
		if p.covers(a.fn.pkg) {
			es.add(p.Fset, a)
		}
	}
	for _, c := range es.cycles(p.Fset) {
		names := make([]string, len(c.Locks))
		for i, l := range c.Locks {
			names[i] = l.String()
		}
		p.Reportf(c.reportPos,
			"lock-order cycle between %s — a potential deadlock: %s; "+
				"acquire them in one global order, or annotate an intentional hierarchy with %s",
			strings.Join(names, " and "), strings.Join(c.Edges, "; "), lockOrderDirective)
	}
	*p.diags = append(*p.diags, es.exempt.problems(nil)...)
	return nil
}

// tarjan is the classic iterative-enough SCC computation (recursion depth
// is bounded by the number of distinct locks, a few dozen at most).
type tarjan struct {
	adj     map[LockID][]LockID
	index   map[LockID]int
	low     map[LockID]int
	onStack map[LockID]bool
	stack   []LockID
	counter int
	sccs    [][]LockID
}

func (t *tarjan) strongConnect(v LockID) {
	t.index[v] = t.counter
	t.low[v] = t.counter
	t.counter++
	t.stack = append(t.stack, v)
	t.onStack[v] = true
	for _, w := range t.adj[v] {
		if _, seen := t.index[w]; !seen {
			t.strongConnect(w)
			if t.low[w] < t.low[v] {
				t.low[v] = t.low[w]
			}
		} else if t.onStack[w] && t.index[w] < t.low[v] {
			t.low[v] = t.index[w]
		}
	}
	if t.low[v] == t.index[v] {
		var scc []LockID
		for {
			w := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			t.onStack[w] = false
			scc = append(scc, w)
			if w == v {
				break
			}
		}
		t.sccs = append(t.sccs, scc)
	}
}

// --- directive bookkeeping ------------------------------------------------

// collectLockOrderMarks scans every comment for lockorder directives: a
// mark needs a justification, and a mark exempting no edge is stale.
func collectLockOrderMarks(fset *token.FileSet, pkgs []*Package) *directiveSet {
	return collectDirectives(fset, pkgs, lockOrderRE, "lockorder",
		func(string) string { return lockOrderDirective + " needs a one-line justification" },
		func(string) string {
			return "stale " + lockOrderDirective + ": no acquisition edge here to exempt; remove the annotation"
		})
}
