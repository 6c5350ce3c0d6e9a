package lint

import (
	"go/token"
	"go/types"
	"strings"
)

// A Tree is one parsed source tree with every expensive derived artifact
// — the go/types view, the suppression directives, the dataflow-engine
// summaries and the interprocedural call graphs — computed at most once
// per Tree and shared by every analyzer and exported analysis that runs
// over it. Parsed files and checked packages outlive the Tree: a later
// LoadTree of the same root re-parses only files whose bytes changed and
// re-checks only the packages they change, plus their reverse
// dependencies (see lastRoot). Standard-library imports are checked once
// per process (see importGOROOT).
//
// Fset positions the tree's own files and any import resolved outside
// GOROOT; it is shared with other loads of the same root, so it may also
// hold earlier versions of edited files. Standard-library objects carry
// positions from the shared table's FileSet instead, so no analyzer
// resolves the position of an imported GOROOT object through Fset (see
// Package).
//
// A Tree is not safe for concurrent use: the driver runs analyzers
// sequentially, and the memo maps are plain. Distinct Trees, of one root
// or of several, may be loaded and checked concurrently.
type Tree struct {
	Root string
	Fset *token.FileSet
	// Pkgs are every parsed package, sorted by Dir.
	Pkgs []*Package

	entry   *rootEntry
	typed   bool
	allows  *allowSet
	engines map[string]*engine
	graphs  map[string]*interproc
	taint   *taintGraph
}

// LoadTree parses every Go package under root. Type checking is lazy:
// it happens on the first use that needs it.
func LoadTree(root string) (*Tree, error) {
	e := rootEntryFor(root)
	pkgs, err := e.parseTree()
	if err != nil {
		return nil, err
	}
	return &Tree{
		Root:    root,
		Fset:    e.fset,
		Pkgs:    pkgs,
		entry:   e,
		engines: make(map[string]*engine),
		graphs:  make(map[string]*interproc),
	}, nil
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
func (t *Tree) allowSet() *allowSet {
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
	scope := &Analyzer{Packages: dirs}
	var out []*Package
	for _, pkg := range t.Pkgs {
		if scope.applies(pkg.Dir) {
			out = append(out, pkg)
		}
	}
	return out
}

func scopeKey(dirs []string) string { return strings.Join(dirs, ",") }

// engineFor returns the dataflow engine summarising the packages in
// scope, building it on first use. Callbacks are cleared on every fetch
// so one analyzer's hooks never fire during another's walk.
func (t *Tree) engineFor(dirs []string) *engine {
	key := scopeKey(dirs)
	e, ok := t.engines[key]
	if !ok {
		t.ensureTypes()
		e = newEngine(t.Fset, t.scoped(dirs))
		t.engines[key] = e
	}
	e.onAcquire, e.onBoundary = nil, nil
	return e
}

// taintGraph returns the whole-tree secret-flow taint analysis, built
// on first use. Unlike the call graphs it has no per-scope variants:
// summaries must compose across the whole tree for cross-package flows,
// and the analyzers scope-filter at reporting time.
func (t *Tree) taintGraph() *taintGraph {
	if t.taint == nil {
		t.taint = newTaintGraph(t)
	}
	return t.taint
}

// interprocFor returns the interprocedural call graph over the packages
// in scope, building it on first use. The graph's fixpoint (which
// functions transitively cross the boundary) depends on the scope, so
// each distinct prefix set gets its own graph.
func (t *Tree) interprocFor(dirs []string) *interproc {
	key := scopeKey(dirs)
	ip, ok := t.graphs[key]
	if !ok {
		t.ensureTypes()
		ip = newInterproc(t.Fset, t.scoped(dirs))
		t.graphs[key] = ip
	}
	return ip
}
