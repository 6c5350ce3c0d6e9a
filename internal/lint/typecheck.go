package lint

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sync"
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
}

// tolerantImporter resolves imports from source via the standard
// go/importer and degrades to an empty stub package when resolution
// fails, so analysis of partial trees (test fixtures, other checkouts)
// still type-checks what it can instead of aborting. Standard-library
// paths go to the process-wide GOROOT table; everything else, stubs
// included, lives as long as the tree.
type tolerantImporter struct {
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
// other path, which the caller resolves per tree. Failures are not
// cached: the caller stubs them per tree, as it does any other.
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

var moduleRE = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// modulePath reads the module path from root/go.mod ("" when absent).
func modulePath(root string) string {
	raw, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return ""
	}
	m := moduleRE.FindSubmatch(raw)
	if m == nil {
		return ""
	}
	return string(m[1])
}

// typecheck resolves types for every parsed package. Imports between the
// parsed packages resolve to each other (dependencies are checked first),
// so lock identities and function names agree across the tree; everything
// else goes through the tolerant source importer. Checking is tolerant
// throughout: a types error never fails the run (the build gate catches
// real ones); it only leaves holes in Info that analyzers skip.
func typecheck(root string, fset *token.FileSet, pkgs []*Package) {
	mod := modulePath(root)
	tc := &treeChecker{
		fset:   fset,
		imp:    newTolerantImporter(fset),
		byPath: make(map[string]*Package, len(pkgs)),
		state:  make(map[string]int, len(pkgs)),
	}
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
		tc.byPath[ipath] = pkg
	}
	for _, pkg := range pkgs {
		tc.check(pkg)
	}
}

// treeChecker type-checks the parsed packages, resolving in-tree imports
// to the freshly-checked package objects so identities unify.
type treeChecker struct {
	fset   *token.FileSet
	imp    *tolerantImporter
	byPath map[string]*Package
	state  map[string]int // 0 unvisited, 1 in progress, 2 done
}

func (tc *treeChecker) check(pkg *Package) {
	if tc.state[pkg.ImportPath] != 0 {
		return
	}
	tc.state[pkg.ImportPath] = 1
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer:    tc,
		Error:       func(error) {}, // collect nothing; keep checking
		FakeImportC: true,
	}
	tpkg, _ := conf.Check(pkg.ImportPath, tc.fset, pkg.Files, info)
	if tpkg == nil {
		tpkg = types.NewPackage(pkg.ImportPath, "")
	}
	pkg.Types = tpkg
	pkg.Info = info
	tc.state[pkg.ImportPath] = 2
}

// Import prefers an in-tree package (checking it on demand; an import
// cycle degrades to the external importer) over external resolution.
func (tc *treeChecker) Import(p string) (*types.Package, error) {
	if dep, ok := tc.byPath[p]; ok && tc.state[p] != 1 {
		tc.check(dep)
		if dep.Types != nil {
			return dep.Types, nil
		}
	}
	return tc.imp.Import(p)
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

// an allowKey locates one suppression.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowSet wraps the shared directiveSet with the allow directive's
// parse syntax and problem wording.
type allowSet struct {
	*directiveSet
}

// collectAllows scans every comment in the tree for allow directives.
func collectAllows(fset *token.FileSet, pkgs []*Package) *allowSet {
	return &allowSet{collectDirectives(fset, pkgs, allowRE, "")}
}

// allowed reports whether a diagnostic of the named analyzer at pos is
// suppressed by an allow directive on the same line or the line above.
func (as *allowSet) allowed(analyzer string, pos token.Pos) bool {
	if as == nil {
		return false
	}
	return as.covers(analyzer, pos)
}

// problems returns diagnostics about the annotations themselves: allows
// with no justification, and allows for an active analyzer that matched
// nothing (stale suppressions hide future regressions).
func (as *allowSet) problems(active map[string]bool) []Diagnostic {
	return as.directiveSet.problems(active,
		func(a string) string {
			return "//sgxperf:allow(" + a + ") needs a one-line justification after the parenthesis"
		},
		func(a string) string {
			return "stale //sgxperf:allow(" + a + "): no diagnostic here to suppress; remove the annotation"
		})
}
