package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A Tree is one parsed source tree with one fact base: every derived
// artifact is computed at most once per checked package and read by
// every analyzer and exported analysis that runs over the tree. The
// facts are the go/types view, the suppression directives, the function
// table (declFunc rows), the held-set walk with its blocking summaries
// (heldWalk), the interprocedural call graph (callGraph) and the taint
// summaries (taintGraph). Each fact covers the whole tree; an analyzer
// or an exported analysis with a package scope filters what it reports,
// never what it computes.
//
// Parsed files, checked packages and their fact rows outlive the Tree: a
// later LoadTree of the same root re-parses only files whose bytes
// changed and re-checks only the packages they change, plus their
// reverse dependencies (see lastRoot). A package it keeps keeps its rows
// of the function table, the held-set walk, the call graph and the taint
// summaries too (see checkedPkg), so the Tree builds rows only for the
// packages it re-checks and joins them with the adopted ones: the
// summaries a function's rows hold depend only on its package and the
// in-tree packages it imports, which is exactly what keeps a checked
// package. Standard-library imports are checked once per process (see
// importGOROOT).
//
// Fset positions the tree's own files and any import resolved outside
// GOROOT; it is shared with other loads of the same root, so it may also
// hold earlier versions of edited files. Standard-library objects carry
// positions from the shared table's FileSet instead, so no analyzer
// resolves the position of an imported GOROOT object through Fset (see
// Package).
//
// A Tree checks its packages and builds the package-local part of each
// fact on the shared worker pool (internal/pool), one package per task,
// and joins the results in source order. Those fan-outs are internal: a
// Tree is still not safe for concurrent use, since RunTree runs
// analyzers sequentially and the memoised facts are plain fields.
// Distinct Trees, of one root or of several, may be loaded and checked
// concurrently.
type Tree struct {
	Root string
	Fset *token.FileSet
	// Pkgs are every parsed package, sorted by Dir.
	Pkgs []*Package

	entry  *rootEntry
	typed  bool
	allows *directiveSet
	held   *engine
	graph  *interproc
	taint  *taintGraph
}

// LoadTree parses every Go package under root. Type checking is lazy:
// it happens on the first use that needs it.
func LoadTree(root string) (*Tree, error) {
	e := rootEntryFor(root)
	pkgs, err := e.parseTree()
	if err != nil {
		return nil, err
	}
	return &Tree{Root: root, Fset: e.fset, Pkgs: pkgs, entry: e}, nil
}

// ensureTypes resolves types for the whole tree, once.
func (t *Tree) ensureTypes() {
	if t.typed {
		return
	}
	t.entry.typecheck(t.Pkgs)
	t.typed = true
}

// declares reports whether pkg is one of the tree's own checked
// packages, whose objects carry positions in Fset.
func (t *Tree) declares(pkg *types.Package) bool {
	for _, p := range t.Pkgs {
		if p.Types == pkg {
			return true
		}
	}
	return false
}

// allowSet returns the memoised suppression directives.
func (t *Tree) allowSet() *directiveSet {
	if t.allows == nil {
		t.allows = collectAllows(t.Fset, t.Pkgs)
	}
	return t.allows
}

// scoped returns the packages selected by the dir prefixes (all packages
// when none are given).
func (t *Tree) scoped(dirs []string) []*Package {
	if len(dirs) == 0 {
		return t.Pkgs
	}
	var out []*Package
	for _, pkg := range t.Pkgs {
		if inDirs(dirs, pkg.Dir) {
			out = append(out, pkg)
		}
	}
	return out
}

// A declFunc is one row of the function table: a declared function with
// a body and its resolved object. The rows of a package are built when it
// is checked and live as long as its check (checkedPkg.funcs); the
// function table of a tree is its packages' rows in source order
// (package, file, declaration). It is the one enumeration of
// declarations the summary engines iterate; each keys its summaries by
// FullName, so when two declarations share one (several init functions
// of a package) the later one's summary is the one callers resolve to.
type declFunc struct {
	pkg  *Package
	decl *ast.FuncDecl
	obj  *types.Func
	full string // obj.FullName(), the key callees resolve to
	name string // display name: Recv.Method, or the bare name
	seq  int    // index among its package's rows
}

// declFuncs builds the function-table rows of one package.
func declFuncs(pkg *Package, info *types.Info) []*declFunc {
	out := []*declFunc{}
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fn := &declFunc{pkg: pkg, decl: fd, obj: obj, full: obj.FullName(), name: fd.Name.Name, seq: len(out)}
			if _, typ := receiver(fd); typ != "" {
				fn.name = typ + "." + fn.name
			}
			out = append(out, fn)
		}
	}
	return out
}

// funcRows returns how many function-table rows the checked packages
// hold.
func funcRows(pkgs []*Package) int {
	n := 0
	for _, pkg := range pkgs {
		n += len(pkg.checked.funcs)
	}
	return n
}

// before reports whether fn precedes other in source order.
func (fn *declFunc) before(other *declFunc) bool {
	if fn.pkg.Dir != other.pkg.Dir {
		return fn.pkg.Dir < other.pkg.Dir
	}
	return fn.seq < other.seq
}

// A fixNode is one function's place in a converge fixpoint: its row of
// the function table, the callees its step reads, and the rounds in which
// its summary grew, in increasing order.
type fixNode struct {
	*declFunc
	deps []string
	grew []int
}

func (n *fixNode) node() *fixNode { return n }

// A summary is one client's per-function summary in a converge fixpoint.
type summary interface{ node() *fixNode }

// converge runs one summary fixpoint: rounds of step over live, the
// functions whose summaries this Tree builds, in source order, until a
// round changes nothing; step(fn, r) reports whether fn's summary grew in
// round r. nodes resolves a callee's FullName to its summary: a live one,
// or one adopted from the rows of a package an earlier load checked,
// whose facts are final but record the round of the cold fixpoint that
// set each of them. A step reads a callee's fact only where sees admits
// it, so a live function sees an adopted callee grow exactly when a cold
// fixpoint over the whole tree would have shown it the growth, and every
// first-found fact (the callee a "calls X" reason names, a witness chain)
// is the one a cold load finds.
//
// Round 0 steps every live function; a step lists the callees it reads
// in its node's deps, if the client has not listed them up front. A later
// round steps a function only when a callee's growth became visible to
// it since its last step (a growth in its own last step, for a function
// that calls itself), so a step that would repeat its last result is
// skipped: each client's step depends only on the function's own summary
// and its callees' facts. Rounds go on past the last round an adopted
// callee grew in, and then until one changes nothing. Each client's
// facts only ever grow and are bounded, so the rounds terminate.
func converge[N summary](live []N, nodes map[string]N, step func(N, int) bool) {
	last := make([]int, len(live))
	horizon := -1
	for r := 0; ; r++ {
		changed := false
		for i, fn := range live {
			n := fn.node()
			if r > 0 && !stale(n, nodes, last[i], r) {
				continue
			}
			last[i] = r
			if step(fn, r) {
				n.grew = append(n.grew, r)
				changed = true
			}
		}
		if r == 0 {
			horizon = adoptedHorizon(live, nodes)
		}
		if !changed && r > horizon {
			break
		}
	}
	// Only live functions' deps are read, so published summaries drop them.
	for _, fn := range live {
		fn.node().deps = nil
	}
}

// adoptedHorizon returns, after round 0, the last round in which a
// callee of a live function grew (-1 if none did). A live callee can
// only have grown in round 0, which keeps no round going that a change
// would not; an adopted one may have grown in any round of its own
// fixpoint.
func adoptedHorizon[N summary](live []N, nodes map[string]N) int {
	horizon := -1
	for _, fn := range live {
		for _, d := range fn.node().deps {
			if c, ok := nodes[d]; ok {
				if g := c.node().grew; len(g) > 0 && g[len(g)-1] > horizon {
					horizon = g[len(g)-1]
				}
			}
		}
	}
	return horizon
}

// stale reports whether a callee of n grew in a way that became visible
// to n after its last step, in round last, and by round r.
func stale[N summary](n *fixNode, nodes map[string]N, last, r int) bool {
	for _, d := range n.deps {
		c, ok := nodes[d]
		if !ok {
			continue
		}
		cn := c.node()
		shift := 1 // a growth in round s shows from round s+1 ...
		if cn.before(n.declFunc) {
			shift = 0 // ... or from round s, to a function stepped after it
		}
		for i := len(cn.grew) - 1; i >= 0; i-- {
			v := cn.grew[i] + shift
			if v <= last {
				break
			}
			if v <= r {
				return true
			}
		}
	}
	return false
}

// sees reports whether reader, stepped in round r, sees a fact owner's
// summary gained in round s (-1 when the body alone set it). In a round,
// functions step in source order, so a fact set in round r is visible to
// the owner itself and to functions after it, and earlier facts to all.
func sees(reader, owner *declFunc, s, r int) bool {
	return s < r || s == r && !reader.before(owner)
}

// heldWalk returns the tree's one held-set walk, built on first use.
func (t *Tree) heldWalk() *engine {
	if t.held == nil {
		t.ensureTypes()
		t.held = walkHeld(t.Pkgs)
	}
	return t.held
}

// callGraph returns the tree's interprocedural call graph, built on
// first use.
func (t *Tree) callGraph() *interproc {
	if t.graph == nil {
		t.ensureTypes()
		t.graph = newInterproc(t.Pkgs)
	}
	return t.graph
}

// taintGraph returns the secret-flow taint analysis, built on first use.
func (t *Tree) taintGraph() *taintGraph {
	if t.taint == nil {
		t.taint = newTaintGraph(t)
	}
	return t.taint
}
