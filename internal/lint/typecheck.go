package lint

import (
	"crypto/sha256"
	"go/ast"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"sync"

	"sgxperf/internal/pool"
)

// A Package is one parsed directory plus, when an analyzer in the run
// needs it, the go/types view of its sources. Type information is
// best-effort: imports that cannot be resolved (a fixture tree outside
// the module, say) are stubbed out and checking continues, so Info may be
// partial. Analyzers must treat missing type info as "don't know" and
// stay silent rather than guess.
//
// Standard-library imports resolve to the process-wide GOROOT table (see
// importGOROOT), whose objects carry positions from the table's own
// FileSet, not from Tree.Fset. Analyzers therefore never resolve the
// position of an object declared in an imported GOROOT package: lock
// identities key by package path and name, summaries by FullName, and
// diagnostics sit on the tree's own nodes.
//
// Each Tree has its own Package structs, but Files, Types and Info may be
// the objects an earlier load of the same root produced (see lastRoot):
// they are shared read-only.
type Package struct {
	// Dir is the package directory relative to the analysis root.
	Dir string
	// ImportPath is the path the package was type-checked under
	// (module path + Dir when a go.mod is present).
	ImportPath string
	// Files are the package's non-test sources, sorted by filename.
	Files []*ast.File
	// Types is the checked package (never nil after type checking, but
	// possibly incomplete).
	Types *types.Package
	// Info holds the resolved uses, definitions, selections and types.
	Info *types.Info

	// checked is the root table's check of the package, which holds its
	// rows of the fact base.
	checked *checkedPkg
}

// tolerantImporter resolves imports from source via the standard
// go/importer and degrades to an empty stub package when resolution
// fails, so analysis of partial trees (test fixtures, other checkouts)
// still type-checks what it can instead of aborting. Standard-library
// paths go to the process-wide GOROOT table; everything else, stubs
// included, lives as long as the root's entry in lastRoot, so reused and
// re-checked packages agree on one identity per path. The packages of a
// tree check concurrently on the pool, and so may Trees of one root; the
// source importer is not safe for concurrent use, so one mutex
// serialises Import.
type tolerantImporter struct {
	mu    sync.Mutex
	src   types.Importer
	stubs map[string]*types.Package
}

func newTolerantImporter(fset *token.FileSet) *tolerantImporter {
	return &tolerantImporter{
		src:   importer.ForCompiler(fset, "source", nil),
		stubs: make(map[string]*types.Package),
	}
}

func (imp *tolerantImporter) Import(p string) (*types.Package, error) {
	imp.mu.Lock()
	defer imp.mu.Unlock()
	if stub, ok := imp.stubs[p]; ok {
		return stub, nil
	}
	pkg, shared, err := importGOROOT(p)
	if !shared {
		pkg, err = imp.src.Import(p)
	}
	if err == nil {
		return pkg, nil
	}
	stub := types.NewPackage(p, path.Base(p))
	imp.stubs[p] = stub
	return stub, nil
}

// goroot is the process-wide table of type-checked GOROOT packages, keyed
// by import path. Sources under $GOROOT/src cannot change while the
// process runs, so every tree shares one checked copy of sync, time,
// net/http and their runtime closure instead of re-parsing them on each
// LoadTree. The table is created on first use and has its own FileSet
// (see Package for why that is safe); one mutex guards it.
var goroot struct {
	sync.Mutex
	src  types.Importer
	pkgs map[string]*types.Package
}

// importGOROOT returns the shared package for an import path that
// resolves under $GOROOT/src, type-checking it on first use; a hit is a
// map lookup, with no go/build directory scan. shared is false for every
// other path, which the caller resolves per root. Failures are not
// cached: the caller stubs them per root, as it does any other.
func importGOROOT(p string) (pkg *types.Package, shared bool, err error) {
	goroot.Lock()
	defer goroot.Unlock()
	if pkg, ok := goroot.pkgs[p]; ok {
		return pkg, true, nil
	}
	if !inGOROOT(p) {
		return nil, false, nil
	}
	if goroot.pkgs == nil {
		goroot.src = importer.ForCompiler(token.NewFileSet(), "source", nil)
		goroot.pkgs = make(map[string]*types.Package)
	}
	pkg, err = goroot.src.Import(p)
	if err != nil {
		return nil, true, err
	}
	goroot.pkgs[p] = pkg
	return pkg, true, nil
}

// inGOROOT reports whether the import path names a directory under
// $GOROOT/src, the test go/build itself uses to route a standard-library
// path past the go command. Paths that are not clean could climb out of
// $GOROOT/src, so they never match.
func inGOROOT(p string) bool {
	if build.Default.GOROOT == "" || p == "" || path.Clean(p) != p || build.IsLocalImport(p) || path.IsAbs(p) {
		return false
	}
	fi, err := os.Stat(filepath.Join(build.Default.GOROOT, "src", filepath.FromSlash(p)))
	return err == nil && fi.IsDir()
}

// lastRoot is the process-wide table of the most recently loaded root:
// its FileSet, each file's AST keyed by path and the SHA-256 of its bytes,
// and each checked package keyed by import path, files and in-tree
// imports, with the package's rows of the fact base. LoadTree re-parses
// only files whose bytes changed, and ensureTypes re-checks only packages
// whose key changed plus their reverse dependencies; every other file and
// package is the object the previous load produced, and a Tree's facts
// adopt every kept package's rows. A cold load is the same path over an
// empty entry.
//
// The table holds one root because trees kept for earlier roots would
// sit in every later heap; loading another root replaces the entry. It
// stays bounded for one root too: a file a load does not see leaves the
// entry, and once stale file versions in the FileSet outnumber live
// files the entry is dropped, so the next load is cold. Fact rows leave
// with their checked package. ASTs, checked packages and published rows
// are shared read-only; each entry's maps are replaced whole, never
// written in place, and one mutex guards the table and every checked
// package's row fields.
var lastRoot struct {
	sync.Mutex
	e *rootEntry
}

// A rootEntry is lastRoot's state for one root.
type rootEntry struct {
	root string
	fset *token.FileSet
	imp  *tolerantImporter
	// files are the latest load's ASTs, by path.
	files map[string]parsedFile
	// pkgs are the latest check's packages, by import path.
	pkgs map[string]*checkedPkg
	// parsed counts the file versions parsed into fset.
	parsed int
}

// A parsedFile is one file's AST and the hash of the bytes it came from.
type parsedFile struct {
	sum  [sha256.Size]byte
	file *ast.File
}

// A checkedPkg is one checked package, the key it was checked under
// (its files and in-tree imports; the import path keys the map) and its
// rows of the fact base (see Tree). The function-table rows are built
// with the check. The rows of the held-set walk, the call graph, the
// taint summaries and the atomicmix findings are built by the first Tree
// that needs them (taint summaries again whenever the tables they were
// built under change; see taintRows) and adopted by every later Tree of
// the root that keeps the package, so they leave the table with the
// check: when another root replaces the entry, when stale versions evict
// it, or when a load re-checks the package. Row fields are read and
// replaced under lastRoot's mutex (see loadRows); a published row is
// never written again.
type checkedPkg struct {
	files []*ast.File
	deps  []string
	types *types.Package
	info  *types.Info

	funcs []*declFunc
	held  *heldRows
	graph *graphRows
	taint *taintRows
	mix   *mixRows
}

// loadRows reads one of a checked package's row fields.
func loadRows[R any](field *R) R {
	lastRoot.Lock()
	defer lastRoot.Unlock()
	return *field
}

// storeRows publishes rows a Tree built into one of a checked package's
// row fields. Rows are published whole, so Trees that build a package's
// rows concurrently race only over which version stays: the last to
// publish wins, and each is what a cold load of its Tree would build.
func storeRows[R any](field *R, rows R) {
	lastRoot.Lock()
	defer lastRoot.Unlock()
	*field = rows
}

// rowsOf returns each package's row of one fact: the row its checked
// package holds (see loadRows), or the row build makes on the pool for a
// package without one. fresh lists, in order, the indexes of the
// packages whose rows build made; build reads its own package and what
// is final elsewhere, and writes only its own row, which the caller
// publishes with storeRows.
func rowsOf[R any](pkgs []*Package, field func(*checkedPkg) **R, build func(*Package) *R) (rows []*R, fresh []int) {
	rows = make([]*R, len(pkgs))
	for i, pkg := range pkgs {
		if rows[i] = loadRows(field(pkg.checked)); rows[i] == nil {
			fresh = append(fresh, i)
		}
	}
	pool.ForEach(len(fresh), func(j int) {
		rows[fresh[j]] = build(pkgs[fresh[j]])
	})
	return rows, fresh
}

// rootEntryFor returns the table's entry for root, replacing the entry
// of any other root with an empty one.
func rootEntryFor(root string) *rootEntry {
	lastRoot.Lock()
	defer lastRoot.Unlock()
	if lastRoot.e == nil || lastRoot.e.root != root {
		fset := token.NewFileSet()
		lastRoot.e = &rootEntry{root: root, fset: fset, imp: newTolerantImporter(fset)}
	}
	return lastRoot.e
}

// loaded records a load that parsed n new file versions. A load that
// succeeded replaces the file table with the files it saw. Once stale
// versions outnumber live files, the entry leaves the table.
func (e *rootEntry) loaded(files map[string]parsedFile, n int, ok bool) {
	lastRoot.Lock()
	defer lastRoot.Unlock()
	e.parsed += n
	if ok {
		e.files = files
	}
	if lastRoot.e == e && e.parsed-len(e.files) > len(e.files) {
		lastRoot.e = nil
	}
}

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// modulePath reads the module path from root/go.mod ("" when absent).
// go.mod may quote the path as an interpreted or raw string literal.
func modulePath(root string) string {
	raw, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	m := moduleRE.FindSubmatch(raw)
	if m == nil {
		return ""
	}
	if p, err := strconv.Unquote(string(m[1])); err == nil {
		return p
	}
	return string(m[1])
}

// typecheck resolves types for every parsed package. Imports between the
// parsed packages resolve to each other, so lock identities and function
// names agree across the tree; everything else goes through the tolerant
// source importer. Checking is tolerant throughout: a types error never
// fails the run (the build gate catches real ones); it only leaves holes
// in Info that analyzers skip.
//
// A package keeps the objects of the entry's previous check when its
// import path, files and in-tree imports are unchanged and each of those
// imports was itself kept (see reusable). Files compare by AST identity,
// which LoadTree keeps only for an unchanged path and hash. The others
// are checked on the pool, each once the in-tree imports it resolves are
// checked (see planChecks).
func (e *rootEntry) typecheck(pkgs []*Package) {
	mod := modulePath(e.root)
	byPath := make(map[string]*Package, len(pkgs))
	for _, pkg := range pkgs {
		ipath := pkg.Dir
		switch {
		case mod != "" && pkg.Dir == ".":
			ipath = mod
		case mod != "":
			ipath = mod + "/" + filepath.ToSlash(pkg.Dir)
		default:
			ipath = "lintfixture/" + filepath.ToSlash(pkg.Dir)
		}
		pkg.ImportPath = ipath
		byPath[ipath] = pkg
	}
	next := make(map[string]*checkedPkg, len(pkgs))
	for ipath, pkg := range byPath {
		next[ipath] = &checkedPkg{files: pkg.Files, deps: inTreeImports(pkg.Files, byPath)}
	}
	lastRoot.Lock()
	prev := e.pkgs
	lastRoot.Unlock()
	for ipath, ok := range reusable(prev, next) {
		if ok {
			next[ipath] = prev[ipath]
		}
	}
	for _, level := range e.planChecks(pkgs, byPath, next) {
		pool.ForEach(len(level), func(i int) { level[i].check(e.fset) })
	}
	for _, pkg := range pkgs {
		c := next[pkg.ImportPath]
		pkg.Types, pkg.Info, pkg.checked = c.types, c.info, c
	}
	lastRoot.Lock()
	e.pkgs = next
	lastRoot.Unlock()
}

// inTreeImports returns the import paths in files that name packages of
// the tree, in first-import order.
func inTreeImports(files []*ast.File, byPath map[string]*Package) []string {
	var deps []string
	for _, f := range files {
		for _, spec := range f.Imports {
			p, err := strconv.Unquote(spec.Path.Value)
			if err == nil && byPath[p] != nil && !slices.Contains(deps, p) {
				deps = append(deps, p)
			}
		}
	}
	return deps
}

// reusable reports, for each import path in next, whether its checked
// package in prev still holds: the same files and in-tree imports, each
// import itself reusable. A package that reaches an in-tree import cycle
// is never reused, because the plan stubs whichever side it reaches
// first.
func reusable(prev, next map[string]*checkedPkg) map[string]bool {
	keep := make(map[string]bool, len(next))
	var visit func(p string) bool
	visit = func(p string) bool {
		if ok, seen := keep[p]; seen {
			return ok // false while p is in progress: a cycle
		}
		keep[p] = false
		old, cur := prev[p], next[p]
		ok := old != nil && slices.Equal(old.files, cur.files) && slices.Equal(old.deps, cur.deps)
		for _, d := range cur.deps {
			ok = ok && visit(d)
		}
		keep[p] = ok
		return ok
	}
	for p := range next {
		visit(p)
	}
	return keep
}

// A plannedCheck is one package the plan checks: its check, and the
// in-tree imports it resolves to their checks. Every other import,
// including an in-tree one the plan sends to a stub, goes to the
// tolerant importer.
type plannedCheck struct {
	pkg  *Package
	c    *checkedPkg
	deps map[string]*checkedPkg
	imp  *tolerantImporter
}

// planChecks orders the checks of the packages next does not keep into
// levels: a package's level is one past the highest level among the
// in-tree imports it resolves, and a level's checks need nothing from
// each other. The plan walks the packages depth-first in Dir order and
// each package's in-tree imports in first-import order, the order in
// which go/types asks for them, and resolves every import in-tree except
// one of a package the walk is still inside: a cycle, whose import goes
// to the tolerant importer. The resolved imports form a DAG even when
// the tree has a cycle, and each side of a cycle resolves the other
// exactly as a check that followed the imports on demand would.
func (e *rootEntry) planChecks(pkgs []*Package, byPath map[string]*Package, next map[string]*checkedPkg) [][]*plannedCheck {
	var levels [][]*plannedCheck
	done := make(map[string]int, len(pkgs)) // level by import path; -1 for a kept package
	inside := make(map[string]bool)
	var visit func(p string) int
	visit = func(p string) int {
		if l, ok := done[p]; ok {
			return l
		}
		c := next[p]
		if c.types != nil { // kept, with every in-tree import
			done[p] = -1
			return -1
		}
		inside[p] = true
		pc := &plannedCheck{pkg: byPath[p], c: c, deps: make(map[string]*checkedPkg, len(c.deps)), imp: e.imp}
		l := 0
		for _, d := range c.deps {
			if !inside[d] {
				l = max(l, visit(d)+1)
				pc.deps[d] = next[d]
			}
		}
		delete(inside, p)
		done[p] = l
		if l == len(levels) {
			levels = append(levels, nil)
		}
		levels[l] = append(levels[l], pc)
		return l
	}
	for _, pkg := range pkgs {
		visit(pkg.ImportPath)
	}
	return levels
}

// check type-checks pc's package and builds its function-table rows. It
// writes only pc's check.
func (pc *plannedCheck) check(fset *token.FileSet) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer:    pc,
		Error:       func(error) {}, // collect nothing; keep checking
		FakeImportC: true,
	}
	tpkg, _ := conf.Check(pc.pkg.ImportPath, fset, pc.pkg.Files, info)
	if tpkg == nil {
		tpkg = types.NewPackage(pc.pkg.ImportPath, "")
	}
	pc.c.types, pc.c.info = tpkg, info
	pc.c.funcs = declFuncs(pc.pkg, info)
}

// Import resolves a planned in-tree import to its check, which an
// earlier level completed, and sends every other path to the tolerant
// importer.
func (pc *plannedCheck) Import(p string) (*types.Package, error) {
	if dep, ok := pc.deps[p]; ok {
		return dep.types, nil
	}
	return pc.imp.Import(p)
}

// --- suppression annotations ---------------------------------------------

// allowDirective is the inline suppression marker:
//
//	//sgxperf:allow(heldacross) flush owns the shard; the send is bounded
//
// placed on (or on the line directly above) the flagged statement. The
// analyzer name in parentheses must match, and the justification is
// mandatory — an allow without a reason is itself a diagnostic.
const allowDirective = "//sgxperf:allow"

var allowRE = regexp.MustCompile(`^//sgxperf:allow\(([a-z]+)\)\s*(.*)$`)

// collectAllows scans every comment in the tree for allow directives.
// An allow needs a justification, and an allow for an active analyzer
// that matched nothing is stale.
func collectAllows(fset *token.FileSet, pkgs []*Package) *directiveSet {
	return collectDirectives(fset, pkgs, allowRE, "",
		func(a string) string {
			return allowDirective + "(" + a + ") needs a one-line justification after the parenthesis"
		},
		func(a string) string {
			return "stale " + allowDirective + "(" + a + "): no diagnostic here to suppress; remove the annotation"
		})
}
