package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// A Tree is one parsed source tree with one fact base: every derived
// artifact is computed at most once per Tree and read by every analyzer
// and exported analysis that runs over it. The facts are the go/types
// view, the suppression directives, the function table (funcTable), the
// held-set walk with its blocking summaries (heldWalk), the
// interprocedural call graph (callGraph) and the taint summaries
// (taintGraph). Each fact covers the whole tree; an analyzer or an
// exported analysis with a package scope filters what it reports, never
// what it computes. Parsed files and checked packages outlive the Tree:
// a later LoadTree of the same root re-parses only files whose bytes
// changed and re-checks only the packages they change, plus their
// reverse dependencies (see lastRoot). Standard-library imports are
// checked once per process (see importGOROOT).
//
// Fset positions the tree's own files and any import resolved outside
// GOROOT; it is shared with other loads of the same root, so it may also
// hold earlier versions of edited files. Standard-library objects carry
// positions from the shared table's FileSet instead, so no analyzer
// resolves the position of an imported GOROOT object through Fset (see
// Package).
//
// A Tree is not safe for concurrent use: the driver runs analyzers
// sequentially, and the memoised facts are plain fields. Distinct Trees,
// of one root or of several, may be loaded and checked concurrently.
type Tree struct {
	Root string
	Fset *token.FileSet
	// Pkgs are every parsed package, sorted by Dir.
	Pkgs []*Package

	entry  *rootEntry
	typed  bool
	allows *directiveSet
	funcs  []*declFunc
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
// a body and its resolved object.
type declFunc struct {
	pkg  *Package
	decl *ast.FuncDecl
	obj  *types.Func
	full string // obj.FullName(), the key callees resolve to
	name string // display name: Recv.Method, or the bare name
}

// funcTable returns every declared function of the tree in source order
// (package, file, declaration), type-checking first. It is the one
// enumeration of declarations the summary engines iterate; each keys its
// summaries by FullName, so when two declarations share one (several
// init functions of a package) the later one's summary is the one
// callers resolve to.
func (t *Tree) funcTable() []*declFunc {
	if t.funcs != nil {
		return t.funcs
	}
	t.ensureTypes()
	for _, pkg := range t.Pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fn := &declFunc{pkg: pkg, decl: fd, obj: obj, full: obj.FullName(), name: fd.Name.Name}
				if _, typ := receiver(fd); typ != "" {
					fn.name = typ + "." + fn.name
				}
				t.funcs = append(t.funcs, fn)
			}
		}
	}
	return t.funcs
}

// converge repeats rounds of step over fns, one summary per function in
// source order, until a round changes nothing; step reports whether it
// grew a fact. Rounds keep source order, so a first-found fact (the
// callee a "calls X" reason names, a witness chain) does not depend on
// map order. Each client's facts only ever grow and are bounded, so the
// rounds terminate.
func converge[F any](fns []F, step func(F) bool) {
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if step(fn) {
				changed = true
			}
		}
	}
}

// heldWalk returns the tree's one held-set walk, built on first use.
func (t *Tree) heldWalk() *engine {
	if t.held == nil {
		t.held = walkHeld(t.funcTable())
	}
	return t.held
}

// callGraph returns the tree's interprocedural call graph, built on
// first use.
func (t *Tree) callGraph() *interproc {
	if t.graph == nil {
		t.graph = newInterproc(t.funcTable(), t.Pkgs)
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
