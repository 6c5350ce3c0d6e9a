package lint

import (
	"fmt"
	"go/ast"
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
// live only as long as their root's entry in lastRoot.
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
	leftResolves := func(tree *Tree) {
		a := findPkg(t, tree, "internal/a")
		left, ok := a.Types.Scope().Lookup("Left").(*types.TypeName)
		if !ok {
			t.Fatal("internal/a: Left not type-checked")
		}
		st := left.Type().Underlying().(*types.Struct)
		if got := st.Field(0).Type().String(); got != "example.com/fix/internal/b.Right" {
			t.Errorf("Left.R resolved to %s, want the in-tree b.Right", got)
		}
	}
	leftResolves(tree)
	// Which side of a cycle gets the stub depends on the walk, so a reload
	// re-checks both instead of reusing them, and resolves the same way.
	again, err := LoadTree(tree.Root)
	if err != nil {
		t.Fatal(err)
	}
	again.ensureTypes()
	for _, dir := range []string{"internal/a", "internal/b"} {
		if findPkg(t, again, dir).Types == findPkg(t, tree, dir).Types {
			t.Errorf("%s: reload reused a package on an import cycle", dir)
		}
	}
	leftResolves(again)
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

// TestTypecheckGOROOTTableConcurrent type-checks one tree from two
// goroutines while a third checks a copy at another root, twice: first
// cold, when the same-root pair may check through one importer at once,
// then after a warm load, when the pair reuses its checked packages while
// the third goroutine evicts them from the root table. The process-wide
// GOROOT table must hand every load the same sync package, and every load
// must lint identically.
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
		// A missing dependency: each cold check stubs it through the
		// root's one importer.
		"pkg/stubbed/stubbed.go": `package stubbed

import "example.com/fix/pkg/gone"

func Call() { gone.Call() }
`,
	}
	same := writeTree(t, files)
	roots := []string{same, same, writeTree(t, files)}
	// lintAll lints roots[i] on goroutine i. With hold set, the third
	// goroutine starts loading only once the same-root pair has loaded.
	lintAll := func(hold bool) []*Tree {
		trees := make([]*Tree, len(roots))
		diags := make([][]string, len(roots))
		errs := make([]error, len(roots))
		var loaded, wg sync.WaitGroup
		loaded.Add(2)
		for i, root := range roots {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if i == 2 && hold {
					loaded.Wait()
				}
				tree, err := LoadTree(root)
				if i < 2 {
					loaded.Done()
				}
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
		s0 := importOf(findPkg(t, trees[0], "pkg/locks").Types, "sync")
		if s0 == nil {
			t.Fatal("pkg/locks does not import sync")
		}
		for i := 1; i < len(roots); i++ {
			if !slices.Equal(diags[0], diags[i]) {
				t.Errorf("concurrent trees disagree:\n%v\n%v", diags[0], diags[i])
			}
			if si := importOf(findPkg(t, trees[i], "pkg/locks").Types, "sync"); si != s0 {
				t.Errorf("sync imports = %p and %p, want one shared package", s0, si)
			}
		}
		return trees
	}
	lintAll(false)
	warm, _ := lintedTree(t, same)
	trees := lintAll(true)
	for _, tree := range trees[:2] {
		if findPkg(t, tree, "pkg/locks").Types != findPkg(t, warm, "pkg/locks").Types {
			t.Error("a same-root load re-checked pkg/locks; want the warm load's package")
		}
	}
	assertSharedOnlyGOROOT(t, "example.com/fix/pkg/locks", "example.com/fix/pkg/held", "example.com/fix/pkg/mix",
		"example.com/fix/pkg/gone")
}

// crossLockFiles is a module whose two packages form a lock-order cycle
// through exported mutexes: b takes a.Mu then its own Mu in one function
// and the reverse in another. The cycle exists only when b's import of a
// resolves in-tree.
func crossLockFiles(gomod string) map[string]string {
	return map[string]string{
		"go.mod": gomod,
		"a/a.go": `package a

import "sync"

var Mu sync.Mutex
`,
		"b/b.go": `package b

import (
	"sync"

	"example.com/q/a"
)

var Mu sync.Mutex

func Forward() {
	a.Mu.Lock()
	Mu.Lock()
	Mu.Unlock()
	a.Mu.Unlock()
}

func Backward() {
	Mu.Lock()
	a.Mu.Lock()
	a.Mu.Unlock()
	Mu.Unlock()
}
`,
	}
}

// TestTypecheckQuotedModulePath proves a go.mod that quotes its module
// path, as go build accepts, checks in-tree imports against the unquoted
// path: the cross-package lock cycle is found under every spelling.
func TestTypecheckQuotedModulePath(t *testing.T) {
	for _, gomod := range []string{
		"module example.com/q\n\ngo 1.22\n",
		"module \"example.com/q\"\n\ngo 1.22\n",
		"module `example.com/q` // raw\n\ngo 1.22\n",
	} {
		root := writeTree(t, crossLockFiles(gomod))
		diags, err := Run(root, []*Analyzer{LockOrder})
		if err != nil {
			t.Fatal(err)
		}
		if len(diags) != 1 {
			t.Errorf("%q: diagnostics = %v, want the one cross-package lock cycle", gomod, messages(diags))
		}
	}
}

// relintFiles is the reuse fixture: c imports b, b imports a, and d
// stands alone. Each package draws a diagnostic, and b's and c's need
// their in-tree imports resolved.
var relintFiles = map[string]string{
	"go.mod": "module example.com/fix\n\ngo 1.22\n",
	"a/a.go": `package a

import "sync"

var Mu sync.Mutex

func Touch() {
	Mu.Lock()
	Mu.Unlock()
}
`,
	"b/b.go": `package b

import (
	"sync"

	"example.com/fix/a"
)

var Mu sync.Mutex

func Forward() {
	a.Mu.Lock()
	Mu.Lock()
	Mu.Unlock()
	a.Mu.Unlock()
}

func Backward() {
	Mu.Lock()
	a.Mu.Lock()
	a.Mu.Unlock()
	Mu.Unlock()
}
`,
	"c/c.go": `package c

import "example.com/fix/b"

func Send(ch chan int) {
	b.Mu.Lock()
	defer b.Mu.Unlock()
	ch <- 1
}
`,
	"d/held.go": heldSendSrc,
	"d/extra.go": `package held

func extra() int { return 1 }
`,
}

// lintedTree loads root and runs the full suite over it.
func lintedTree(t *testing.T, root string) (*Tree, []string) {
	t.Helper()
	tree, err := LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := RunTree(tree, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	return tree, messages(diags)
}

// TestLoadTreeReusesUnchangedPackages walks one root through a reload, an
// edit, a file added and removed, a deleted dependency and a new module
// path. After each step exactly the changed packages and their reverse
// dependencies are checked afresh, every other package and file is the
// previous load's object, and the diagnostics equal a cold load's.
func TestLoadTreeReusesUnchangedPackages(t *testing.T) {
	root := writeTree(t, relintFiles)
	other := writeTree(t, map[string]string{"o/o.go": "package o\n"})
	write := func(rel, src string) {
		if err := os.WriteFile(filepath.Join(root, filepath.FromSlash(rel)), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	remove := func(rel string) {
		if err := os.RemoveAll(filepath.Join(root, filepath.FromSlash(rel))); err != nil {
			t.Fatal(err)
		}
	}
	prev, _ := lintedTree(t, root)
	for _, step := range []struct {
		name      string
		edit      func()
		rechecked []string // the rest must be reused
	}{
		{"reload", func() {}, nil},
		{"edit b", func() { write("b/b.go", relintFiles["b/b.go"]+"\nfunc Extra() {}\n") }, []string{"b", "c"}},
		{"add and delete in d", func() {
			write("d/more.go", "package held\n\nfunc more() int { return 2 }\n")
			remove("d/extra.go")
		}, []string{"d"}},
		{"delete a", func() { remove("a") }, []string{"b", "c"}},
		{"new module path", func() { write("go.mod", "module example.com/moved\n\ngo 1.22\n") }, []string{"b", "c", "d"}},
	} {
		step.edit()
		warm, got := lintedTree(t, root)
		for _, pkg := range warm.Pkgs {
			old := findPkg(t, prev, pkg.Dir)
			if slices.Contains(step.rechecked, pkg.Dir) {
				if pkg.Types == old.Types {
					t.Errorf("%s: %s kept its old check; want it re-checked", step.name, pkg.Dir)
				}
				continue
			}
			if pkg.Types != old.Types || pkg.Info != old.Info {
				t.Errorf("%s: %s re-checked; want the previous load's package", step.name, pkg.Dir)
			}
			if !slices.Equal(pkg.Files, old.Files) {
				t.Errorf("%s: %s re-parsed; want the previous load's files", step.name, pkg.Dir)
			}
		}
		if step.name == "delete a" {
			// go/types drops an incomplete stub from Imports.
			if got := importOf(findPkg(t, warm, "b").Types, "example.com/fix/a"); got != nil {
				t.Errorf("delete a: b still imports %v", got)
			}
			if warm.entry.imp.stubs["example.com/fix/a"] == nil {
				t.Error("delete a: the deleted package was not stubbed")
			}
		}
		// Loading another root evicts this one, so the next load is cold.
		lintedTree(t, other)
		cold, want := lintedTree(t, root)
		if !slices.Equal(got, want) {
			t.Errorf("%s: reused load reports\n%v\ncold load reports\n%v", step.name, got, want)
		}
		if findPkg(t, cold, "c").Types == findPkg(t, warm, "c").Types {
			t.Errorf("%s: the load after another root reused c; want a cold load", step.name)
		}
		prev = cold
	}
}

// TestLoadTreeDropsStaleRoot proves the root table stays bounded under
// edits: once the FileSet holds more stale file versions than live ones,
// the entry is dropped and the next load parses every file afresh.
func TestLoadTreeDropsStaleRoot(t *testing.T) {
	root := writeTree(t, map[string]string{
		"p/a.go": "package p\n",
		"p/b.go": "package p\n\nfunc B() {}\n",
	})
	load := func() *ast.File {
		tree, err := LoadTree(root)
		if err != nil {
			t.Fatal(err)
		}
		return findPkg(t, tree, "p").Files[1]
	}
	b := load()
	for edit := 1; edit <= 3; edit++ {
		src := fmt.Sprintf("package p\n\nvar A = %d\n", edit)
		if err := os.WriteFile(filepath.Join(root, "p", "a.go"), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		// Two live files: the third stale version of a.go drops the entry.
		if got := load(); got != b {
			t.Errorf("edit %d: unchanged b.go re-parsed with %d stale versions", edit, edit)
		}
	}
	if load() == b {
		t.Error("b.go kept its AST after stale versions outnumbered live files; want a cold load")
	}
}
