// Package lint is a small static-analysis framework for the repository's
// own invariants, mirroring the golang.org/x/tools go/analysis API shape
// (Analyzer → Pass → Diagnostic) on the standard library's go/ast,
// go/parser and go/types alone, so the tree stays dependency-free.
//
// Ten invariants matter enough to machine-check here:
//
//   - the simulator runs on virtual time, so wall-clock reads in
//     simulator packages are bugs even when tests pass (see VirtualClock);
//   - the logger's hot path is lock-free by design (one shard-local lock
//     at most), so Logger-level mutex acquisition in a hot-path method is
//     a regression even when the race detector stays quiet (see
//     HotPathLocks);
//   - locks must be acquired in one global order, so the whole-repo
//     acquisition graph must stay acyclic (see LockOrder);
//   - no mutex may be held across a blocking boundary — channel
//     operations, worker-pool fan-outs, ocall dispatch — because a
//     blocked holder stalls every contender, the exact shape the paper
//     prices as sleep ocalls in §2.3.2/§3.4 (see HeldAcross);
//   - a field is either atomic or lock-guarded, never both (see
//     AtomicMix);
//   - no ocall dispatch inside a loop, directly or through a callee
//     that transitively dispatches — transitions multiply by the trip
//     count, the amplification §6 fixes by batching (see TransAmp);
//   - an ecall handler reads each boundary-buffer expression on one
//     side of an ocall crossing only — a re-read after the crossing is
//     the §3.6 TOCTOU shape (see DoubleFetchCheck);
//   - no enclave pointer escapes through an ocall argument (see
//     PtrEscapeCheck);
//   - enclave-confidential data (//sgxperf:secret declarations) never
//     reaches a boundary sink — an ocall argument, a copy-back field,
//     a user_check write — without passing a seal/encrypt function
//     (see SecretFlowCheck);
//   - what an ecall handler does to its boundary buffer matches the
//     directions its EDL declares: in params stay unwritten, out params
//     are written before read, user_check pointers are bounds-guarded
//     before dereference (see EDLFlowCheck).
//
// The lockorder/heldacross/atomicmix trio runs on a typed
// intraprocedural dataflow engine (dataflow.go) that tracks lock-held
// sets through control flow and summarises which functions transitively
// block; the last three run on the interprocedural call-graph layer
// above it (interproc.go), whose per-function summaries also power the
// staticlint transition predictor; the secretflow/edlflow pair runs on
// the field-sensitive taint engine (taint.go) that composes
// taint-in/taint-out summaries over the same call graph. Findings are
// suppressible
// site-by-site with a justified //sgxperf:allow(name) annotation (see
// typecheck.go); lock-order edges with an intentional hierarchy carry
// //sgxperf:lockorder instead.
//
// The cmd/sgx-perf-vet driver runs every analyzer over the tree; `make
// verify` runs the driver.
package lint

import (
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzers returns the full analyzer suite in a stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		VirtualClock, HotPathLocks, LockOrder, HeldAcross, AtomicMix,
		TransAmp, DoubleFetchCheck, PtrEscapeCheck,
		SecretFlowCheck, EDLFlowCheck,
	}
}

// An Analyzer describes one invariant check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (lowercase, no spaces).
	Name string
	// Doc is the one-paragraph description the driver prints.
	Doc string
	// Packages restricts the analyzer to packages whose root-relative
	// directory has one of these prefixes. Empty means every package.
	Packages []string
	// NeedTypes requests go/types resolution for the whole tree before
	// the analyzer runs (the dataflow analyzers set it).
	NeedTypes bool
	// Run inspects one package and reports diagnostics through the pass.
	// Nil for repo-level analyzers.
	Run func(*Pass) error
	// RunRepo inspects every in-scope package at once — for analyses
	// whose facts span packages, like the lock-acquisition-order graph.
	// Nil for per-package analyzers.
	RunRepo func(*RepoPass) error
}

// applies reports whether the analyzer covers the given package dir.
func (a *Analyzer) applies(relDir string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	rel := filepath.ToSlash(relDir)
	for _, p := range a.Packages {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// A Pass hands one parsed (and possibly type-checked) package to an
// analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkg is the package under analysis; Files and Dir mirror its fields
	// for the pre-types analyzers.
	Pkg   *Package
	Files []*ast.File
	Dir   string

	tree   *Tree
	allows *allowSet
	diags  *[]Diagnostic
}

// Interproc returns the tree-shared whole-repo call graph (see
// Tree.interprocFor); per-function facts must be filtered to Pkg.
func (p *Pass) Interproc() *interproc {
	return p.tree.interprocFor(nil)
}

// Reportf records a diagnostic at the given position unless an
// //sgxperf:allow(analyzer) annotation covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.allows.allowed(p.Analyzer.Name, pos) {
		return
	}
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A RepoPass hands every in-scope package to a repo-level analyzer.
type RepoPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkgs are the in-scope packages, sorted by Dir.
	Pkgs []*Package

	tree   *Tree
	allows *allowSet
	diags  *[]Diagnostic
}

// Engine returns the tree-shared dataflow engine summarising this
// pass's scope, with callbacks cleared (see Tree.engineFor).
func (p *RepoPass) Engine() *engine {
	return p.tree.engineFor(p.Analyzer.Packages)
}

// Interproc returns the tree-shared call graph over this pass's scope
// (see Tree.interprocFor).
func (p *RepoPass) Interproc() *interproc {
	return p.tree.interprocFor(p.Analyzer.Packages)
}

// Reportf records a diagnostic at the given position unless an
// //sgxperf:allow(analyzer) annotation covers it.
func (p *RepoPass) Reportf(pos token.Pos, format string, args ...any) {
	if p.allows.allowed(p.Analyzer.Name, pos) {
		return
	}
	position := p.Fset.Position(pos)
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned in the source.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s",
		filepath.ToSlash(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Run parses every Go package under root and applies the analyzers,
// returning the diagnostics sorted and deduplicated by
// (file, line, analyzer). Test files, testdata trees and hidden
// directories are skipped; parse errors abort the run — the build is
// broken anyway. Type errors never abort: checking is tolerant and
// analyzers skip what they cannot resolve.
func Run(root string, analyzers []*Analyzer) ([]Diagnostic, error) {
	tree, err := LoadTree(root)
	if err != nil {
		return nil, err
	}
	return RunTree(tree, analyzers)
}

// RunTree applies the analyzers to an already-loaded tree, sharing its
// cached type information, directive sets and engine summaries. Callers
// that run several analyses over the same root (the vet driver, the
// staticlint source pass) load one Tree and reuse it.
func RunTree(tree *Tree, analyzers []*Analyzer) ([]Diagnostic, error) {
	for _, a := range analyzers {
		if a.NeedTypes {
			tree.ensureTypes()
			break
		}
	}
	allows := tree.allowSet()

	var diags []Diagnostic
	for _, pkg := range tree.Pkgs {
		for _, a := range analyzers {
			if a.Run == nil || !a.applies(pkg.Dir) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     tree.Fset,
				Pkg:      pkg,
				Files:    pkg.Files,
				Dir:      pkg.Dir,
				tree:     tree,
				allows:   allows,
				diags:    &diags,
			}
			if err := a.Run(pass); err != nil {
				return diags, fmt.Errorf("lint: %s on %s: %w", a.Name, pkg.Dir, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.RunRepo == nil {
			continue
		}
		pass := &RepoPass{
			Analyzer: a,
			Fset:     tree.Fset,
			Pkgs:     tree.scoped(a.Packages),
			tree:     tree,
			allows:   allows,
			diags:    &diags,
		}
		if err := a.RunRepo(pass); err != nil {
			return diags, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
	}

	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.Name] = true
	}
	diags = append(diags, allows.problems(active)...)
	return dedupe(diags), nil
}

// dedupe sorts diagnostics by position and collapses duplicates with the
// same (file, line, analyzer) key, keeping the first message, so driver
// output is deterministic across runs and usable as a golden file.
func dedupe(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 {
			prev := diags[i-1]
			if prev.Pos.Filename == d.Pos.Filename && prev.Pos.Line == d.Pos.Line &&
				prev.Analyzer == d.Analyzer {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

// parseTree parses all non-test Go files under e's root into its FileSet,
// grouped by their directory relative to the root. A file whose path and
// bytes are those of e's latest load keeps that load's AST.
func (e *rootEntry) parseTree() ([]*Package, error) {
	root := e.root
	lastRoot.Lock()
	last := e.files
	lastRoot.Unlock()
	files := make(map[string]parsedFile, len(last))
	parsed := 0
	byDir := make(map[string][]*ast.File)
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		pf, ok := last[path]
		if sum := sha256.Sum256(src); !ok || pf.sum != sum {
			file, err := parser.ParseFile(e.fset, path, src, parser.ParseComments)
			parsed++
			if err != nil {
				return fmt.Errorf("lint: %w", err)
			}
			pf = parsedFile{sum: sum, file: file}
		}
		files[path] = pf
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		byDir[rel] = append(byDir[rel], pf.file)
		return nil
	})
	e.loaded(files, parsed, err == nil)
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(byDir))
	for dir := range byDir {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		files := byDir[dir]
		sort.Slice(files, func(i, j int) bool {
			return e.fset.Position(files[i].Package).Filename < e.fset.Position(files[j].Package).Filename
		})
		pkgs = append(pkgs, &Package{Dir: dir, Files: files})
	}
	return pkgs, nil
}

// importName returns the local name under which file imports the given
// path: the alias if renamed, the default base name otherwise, "" if the
// path is not imported, and "." for dot imports.
func importName(file *ast.File, path string) string {
	for _, imp := range file.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name
		}
		if i := strings.LastIndex(p, "/"); i >= 0 {
			return p[i+1:]
		}
		return p
	}
	return ""
}
