package lint

import (
	"go/build"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// findPkg returns the parsed package at the given root-relative dir.
func findPkg(t *testing.T, tree *Tree, dir string) *Package {
	t.Helper()
	for _, pkg := range tree.Pkgs {
		if pkg.Dir == dir {
			return pkg
		}
	}
	t.Fatalf("no package at %q (have %v)", dir, func() []string {
		var dirs []string
		for _, p := range tree.Pkgs {
			dirs = append(dirs, p.Dir)
		}
		return dirs
	}())
	return nil
}

// importOf returns the package pkg imports under path p (nil if none).
func importOf(pkg *types.Package, p string) *types.Package {
	for _, imp := range pkg.Imports() {
		if imp.Path() == p {
			return imp
		}
	}
	return nil
}

// assertSharedOnlyGOROOT fails unless every path in the process-wide
// table names a directory under $GOROOT/src and none of the given paths
// made it in: in-tree packages, out-of-tree resolutions and stubs must
// keep their per-tree lifetime.
func assertSharedOnlyGOROOT(t *testing.T, perTree ...string) {
	t.Helper()
	goroot.Lock()
	defer goroot.Unlock()
	for p := range goroot.pkgs {
		fi, err := os.Stat(filepath.Join(build.Default.GOROOT, "src", filepath.FromSlash(p)))
		if err != nil || !fi.IsDir() {
			t.Errorf("shared table holds %q, which is not under $GOROOT/src", p)
		}
	}
	for _, p := range perTree {
		if _, ok := goroot.pkgs[p]; ok {
			t.Errorf("shared table holds %q; it must stay per tree", p)
		}
	}
}

// loadTyped parses and fully type-checks a fixture tree.
func loadTyped(t *testing.T, files map[string]string) *Tree {
	t.Helper()
	root := writeTree(t, files)
	tree, err := LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	tree.ensureTypes()
	return tree
}

// TestTypecheckImportCycle proves an in-tree import cycle — illegal Go,
// but exactly what a half-edited tree under analysis looks like — cannot
// hang or abort the checker: the in-progress package degrades to a stub
// import and both sides still produce a types view for the analyzers.
func TestTypecheckImportCycle(t *testing.T) {
	tree := loadTyped(t, map[string]string{
		"go.mod": "module example.com/fix\n\ngo 1.22\n",
		"internal/a/a.go": `package a

import "example.com/fix/internal/b"

type Left struct{ R b.Right }

func FromA() int { return 1 }
`,
		"internal/b/b.go": `package b

import "example.com/fix/internal/a"

type Right struct{}

func FromB() int { return a.FromA() }
`,
	})
	for _, dir := range []string{"internal/a", "internal/b"} {
		pkg := findPkg(t, tree, dir)
		if pkg.Types == nil || pkg.Info == nil {
			t.Fatalf("%s: nil types view after a cycle; checking aborted", dir)
		}
	}
	// The package checked second still resolves the first for real: Left
	// sees the genuine b.Right, not a stub.
	a := findPkg(t, tree, "internal/a")
	left, ok := a.Types.Scope().Lookup("Left").(*types.TypeName)
	if !ok {
		t.Fatal("internal/a: Left not type-checked")
	}
	st := left.Type().Underlying().(*types.Struct)
	if got := st.Field(0).Type().String(); got != "example.com/fix/internal/b.Right" {
		t.Errorf("Left.R resolved to %s, want the in-tree b.Right", got)
	}
	assertSharedOnlyGOROOT(t, "example.com/fix/internal/a", "example.com/fix/internal/b")
}

// TestTypecheckMissingInTreeDep proves an import of a package that does
// not exist anywhere — not in the tree, not installed — stubs out rather
// than failing the run, and the rest of the file still type-checks.
func TestTypecheckMissingInTreeDep(t *testing.T) {
	tree := loadTyped(t, map[string]string{
		"go.mod": "module example.com/fix\n\ngo 1.22\n",
		"internal/app/app.go": `package app

import "example.com/fix/internal/gone"

func broken() { gone.Call() }

func intact() int { return 40 + 2 }
`,
	})
	pkg := findPkg(t, tree, "internal/app")
	if pkg.Types == nil {
		t.Fatal("nil types view; a missing dependency aborted checking")
	}
	fn, ok := pkg.Types.Scope().Lookup("intact").(*types.Func)
	if !ok {
		t.Fatal("intact not type-checked; the missing import poisoned the whole file")
	}
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() != 1 || sig.Results().At(0).Type().String() != "int" {
		t.Errorf("intact signature = %s, want func() int", sig)
	}
	assertSharedOnlyGOROOT(t, "example.com/fix/internal/gone", "example.com/fix/internal/app")
}

// TestTypecheckShadowedPackageNames proves two in-tree directories with
// the same package name stay distinct: each is checked under its full
// import path, so same-named types from the two never unify and a
// consumer importing both under aliases resolves each to its own
// package.
func TestTypecheckShadowedPackageNames(t *testing.T) {
	tree := loadTyped(t, map[string]string{
		"go.mod": "module example.com/fix\n\ngo 1.22\n",
		"internal/red/util/util.go": `package util

type T struct{ R int }
`,
		"internal/blue/util/util.go": `package util

type T struct{ B string }
`,
		"internal/app/app.go": `package app

import (
	bu "example.com/fix/internal/blue/util"
	ru "example.com/fix/internal/red/util"
)

func Use(r ru.T, b bu.T) {}
`,
	})
	red := findPkg(t, tree, "internal/red/util")
	blue := findPkg(t, tree, "internal/blue/util")
	if red.Types.Name() != "util" || blue.Types.Name() != "util" {
		t.Fatalf("package names = %q, %q, want both util", red.Types.Name(), blue.Types.Name())
	}
	if red.Types.Path() == blue.Types.Path() {
		t.Fatalf("both util packages checked under %q; shadowed names collided", red.Types.Path())
	}
	rt := red.Types.Scope().Lookup("T")
	bt := blue.Types.Scope().Lookup("T")
	if rt == nil || bt == nil {
		t.Fatal("T missing from a util package scope")
	}
	if types.Identical(rt.Type(), bt.Type()) {
		t.Error("red util.T and blue util.T unified; identities must stay per-path")
	}
	app := findPkg(t, tree, "internal/app")
	use, ok := app.Types.Scope().Lookup("Use").(*types.Func)
	if !ok {
		t.Fatal("Use not type-checked")
	}
	params := use.Type().(*types.Signature).Params()
	if got := params.At(0).Type(); !types.Identical(got, rt.Type()) {
		t.Errorf("Use's first param = %s, want the red util.T", got)
	}
	if got := params.At(1).Type(); !types.Identical(got, bt.Type()) {
		t.Errorf("Use's second param = %s, want the blue util.T", got)
	}
}

// TestTypecheckNoModuleFallback proves a tree without a go.mod — a bare
// fixture checkout — still checks under synthetic lintfixture/ paths and
// imports of out-of-tree paths outside GOROOT cannot accidentally
// resolve (they stub out instead of hitting the real module cache),
// while standard-library imports come from the shared GOROOT table.
func TestTypecheckNoModuleFallback(t *testing.T) {
	tree := loadTyped(t, map[string]string{
		"pkg/one/one.go": `package one

import (
	"strings"

	"example.org/elsewhere/dep"
)

func One() int { return strings.Count("one", "o") }

func Two() { dep.Call() }
`,
	})
	pkg := findPkg(t, tree, "pkg/one")
	if got := pkg.ImportPath; got != "lintfixture/pkg/one" {
		t.Errorf("import path = %q, want lintfixture/pkg/one", got)
	}
	if pkg.Types == nil || pkg.Types.Scope().Lookup("One") == nil || pkg.Types.Scope().Lookup("Two") == nil {
		t.Fatal("module-less package not type-checked")
	}
	if dep := importOf(pkg.Types, "example.org/elsewhere/dep"); dep != nil {
		t.Errorf("out-of-tree import resolved to %v; it must stub out", dep)
	}
	goroot.Lock()
	shared := goroot.pkgs["strings"]
	goroot.Unlock()
	if got := importOf(pkg.Types, "strings"); got == nil || got != shared {
		t.Errorf("strings import = %p, want the shared GOROOT package %p", got, shared)
	}
	assertSharedOnlyGOROOT(t, "example.org/elsewhere/dep", "lintfixture/pkg/one")
}

// TestTypecheckGOROOTTableConcurrent type-checks two copies of one tree
// from separate goroutines. The process-wide GOROOT table must hand both
// the same sync package, and the copies must lint identically.
func TestTypecheckGOROOTTableConcurrent(t *testing.T) {
	files := map[string]string{
		"go.mod":             "module example.com/fix\n\ngo 1.22\n",
		"pkg/locks/locks.go": inversionSrc,
		"pkg/held/held.go":   heldSendSrc,
		"pkg/mix/mix.go": `package mix

import (
	"sync/atomic"
	"time"
)

type node struct{ next atomic.Pointer[node] }

var started int64

func stamp(n *node) time.Duration {
	atomic.StoreInt64(&started, time.Now().UnixNano())
	n.next.Store(n)
	return time.Duration(started)
}
`,
	}
	roots := []string{writeTree(t, files), writeTree(t, files)}
	trees := make([]*Tree, len(roots))
	diags := make([][]string, len(roots))
	errs := make([]error, len(roots))
	var wg sync.WaitGroup
	for i, root := range roots {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tree, err := LoadTree(root)
			if err != nil {
				errs[i] = err
				return
			}
			ds, err := RunTree(tree, Analyzers())
			trees[i], errs[i] = tree, err
			for _, d := range ds {
				diags[i] = append(diags[i], strings.ReplaceAll(d.String(), root, ""))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(diags[0]) < 3 {
		t.Fatalf("diagnostics = %v, want a lock cycle, a held lock and a mixed variable", diags[0])
	}
	if !slices.Equal(diags[0], diags[1]) {
		t.Errorf("concurrent trees disagree:\n%v\n%v", diags[0], diags[1])
	}
	s0 := importOf(findPkg(t, trees[0], "pkg/locks").Types, "sync")
	s1 := importOf(findPkg(t, trees[1], "pkg/locks").Types, "sync")
	if s0 == nil || s0 != s1 {
		t.Errorf("sync imports = %p and %p, want one shared package", s0, s1)
	}
	assertSharedOnlyGOROOT(t, "example.com/fix/pkg/locks", "example.com/fix/pkg/held", "example.com/fix/pkg/mix")
}
