// Secret-flow taint analysis: the §3.6 confidentiality counterpart of
// the interprocedural boundary-cost model. Where interproc.go asks "how
// many transitions does an entry point execute?", this file asks "does
// enclave-confidential data reach the untrusted side un-sealed?" and
// cross-validates what handlers actually do against what the EDL
// declares.
//
// Sources are declarations carrying a //sgxperf:secret directive —
// struct fields holding sealed-key material, trusted-only state, secret
// parameters. Taint propagates field-sensitively (k.sealKey is tracked
// apart from k.pub) through assignments, field selects, index/slice
// expressions, composite literals and calls; per-function summaries
// carry taint-in/taint-out bits (param reaches sink, param flows to
// result, result born secret) so flows compose across the call graph the
// same way interproc.go's transition counts do. A call whose callee name
// contains "seal" or "encrypt" is a recognised sanitizer: its result is
// clean, which is exactly the discipline the analysis enforces.
//
// Sinks are the three ways data crosses to the untrusted side:
//
//   - an ocall argument buffer (env.Ocall / env.OcallByID arguments);
//   - a write into the boundary args buffer of a TrustedFn handler whose
//     field maps to an out/inout EDL parameter (copied back on return);
//   - a write through a field mapping to a user_check EDL parameter
//     (untrusted memory the SDK never copies or checks).
//
// Each flow records a full witness chain — source declaration, every
// assignment and call hop, the sink — so a diagnostic reads as a path,
// not a verdict.
//
// The EDL side is recovered statically from iface.AddEcall/AddOcall
// builder calls (receiver type Interface in a package whose basename is
// "edl", matching interproc.go's name-based SDK classification), giving
// the edlflow analyzer the declared directions to validate handlers
// against: an `in` parameter the handler writes should be `inout`; an
// `out` parameter read before its first write leaks stale enclave
// memory to the caller; a user_check pointer dereferenced without a
// prior bounds guard is the unchecked-pointer hazard §3.6 warns about.
//
// Approximations, chosen like interproc.go's for low false-positive
// pressure: function-literal bodies are not walked; method receivers do
// not carry taint into callees; bare returns of named results are not
// tracked; and taint through an unresolved callee is propagated
// conservatively (any tainted argument taints the result) unless the
// callee is a recognised sanitizer.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"path"
	"regexp"
	"slices"
	"sort"
	"strings"
)

// secretDirective marks one declaration as enclave-confidential:
//
//	//sgxperf:secret the long-term sealing key never leaves the enclave
//	sealKey [32]byte
//
// Like //sgxperf:allow, the justification is mandatory and a marker on
// no declaration is reported as stale.
const secretDirective = "//sgxperf:secret"

var secretRE = regexp.MustCompile(`^//sgxperf:secret\s*(.*)$`)

// collectSecretMarks scans every comment for secret markers, reported
// under secretflow: a marker needs a justification, and a marker on no
// declaration is stale.
func collectSecretMarks(fset *token.FileSet, pkgs []*Package) *directiveSet {
	return collectDirectives(fset, pkgs, secretRE, "secretflow",
		func(string) string { return secretDirective + " needs a one-line justification" },
		func(string) string {
			return "stale " + secretDirective + ": no declaration here to mark; remove the annotation"
		})
}

// SecretFlowCheck flags enclave-confidential data reaching a boundary
// sink without passing a recognised seal/encrypt function: an ocall
// argument, a copy-back (out/inout) field of the boundary args buffer,
// or a write through a user_check field. The diagnostic carries the
// full source→…→sink witness chain. Deliberate flows carry
// //sgxperf:allow(secretflow) with a one-line justification.
var SecretFlowCheck = &Analyzer{
	Name: "secretflow",
	Doc: "track //sgxperf:secret data to boundary sinks: a secret crossing " +
		"to the untrusted side without sealing is a leak",
	Run: runSecretFlow,
}

func runSecretFlow(p *Pass) error {
	g := p.tree.taintGraph()
	for _, fl := range g.flows {
		if !p.covers(fl.fn.pkg) {
			continue
		}
		p.Reportf(fl.sink.pos,
			"%s leaks %s to %s without sealing: %s; seal or encrypt it before the crossing, or justify with //sgxperf:allow(secretflow)",
			fl.fn.name, fl.src.desc, fl.sink.desc, chainString(p.Fset, fl.chain))
	}
	for _, r := range g.rows {
		*p.diags = append(*p.diags, r.secrets.problems(nil)...)
	}
	return nil
}

// EDLFlowCheck cross-validates ecall handlers against the directions
// their EDL declares (recovered from the AddEcall builder calls): an
// `in` parameter the handler writes should be declared `inout`; an
// `out` parameter read before its first write hands the caller stale
// enclave memory; a user_check field dereferenced before any branch
// condition mentions it is an unchecked untrusted pointer. Intentional
// shapes carry //sgxperf:allow(edlflow) with a one-line justification.
var EDLFlowCheck = &Analyzer{
	Name: "edlflow",
	Doc: "cross-validate ecall handlers against declared EDL directions: " +
		"written in params, stale out reads, unguarded user_check derefs",
	Run: runEDLFlow,
}

func runEDLFlow(p *Pass) error {
	g := p.tree.taintGraph()
	for _, is := range g.issues {
		if !p.covers(is.fn.pkg) {
			continue
		}
		p.Reportf(is.pos, "%s; fix the handler or the EDL, or justify with //sgxperf:allow(edlflow)", is.detail)
	}
	return nil
}

// chainString renders a witness chain as a compact path.
func chainString(fset *token.FileSet, chain []tstep) string {
	parts := make([]string, 0, len(chain))
	for _, s := range chain {
		p := fset.Position(s.pos)
		parts = append(parts, fmt.Sprintf("%s (%s:%d)", s.note, path.Base(p.Filename), p.Line))
	}
	return strings.Join(parts, " -> ")
}

// --- the taint lattice -----------------------------------------------------

// chainCap bounds witness-chain growth so deep call stacks cannot
// balloon the diagnostics; the sink step is always appended.
const chainCap = 12

// a secretSrc is one //sgxperf:secret-marked declaration.
type secretSrc struct {
	obj  types.Object
	desc string // "secret field sealKey"
	pos  token.Pos
}

// a tstep is one hop of a witness chain.
type tstep struct {
	pos  token.Pos
	note string
}

// a taintVal is the taint carried by one tracked value: either rooted
// at a secret source (src != nil) or derived from a function parameter
// (param >= 0), with the hops that produced it.
type taintVal struct {
	src   *secretSrc
	param int
	chain []tstep
}

// extend returns the value with one more hop (unchanged once the chain
// is at its cap — the sink hop is appended separately).
func (v *taintVal) extend(pos token.Pos, note string) *taintVal {
	if len(v.chain) >= chainCap {
		return v
	}
	nv := &taintVal{src: v.src, param: v.param}
	nv.chain = append(append([]tstep{}, v.chain...), tstep{pos, note})
	return nv
}

// a taintKey identifies one tracked storage root field-sensitively: the
// declared object plus the selector path below it ("" = whole object).
type taintKey struct {
	obj  types.Object
	path string
}

// a sinkInfo describes one boundary sink.
type sinkInfo struct {
	kind  string // "ocall-arg", "out-param", "user_check" or "boundary-write"
	call  string // joinable ocall/ecall name ("" when unknown)
	desc  string
	pos   token.Pos
	bytes int64 // static size of the sunk value (0 when not derivable)
}

// a paramSink is a function-summary fact: values arriving through one
// parameter reach a sink, with the in-callee hops.
type paramSink struct {
	steps []tstep
	sink  sinkInfo
	round int // the converge round that set the fact
}

// a secretResult is a function-summary fact: a result born secret.
type secretResult struct {
	v     *taintVal
	round int // the converge round that set the fact
}

// a taintFunc is one declared function plus its composable summary. Its
// node's deps list the in-tree callees its latest walk composed.
type taintFunc struct {
	fixNode
	sig *types.Signature
	// Summary facts, grown monotonically by the fixpoint rounds; each is
	// set at most once, which bounds the rounds.
	sinkVia      map[int]*paramSink   // param index → sink it reaches
	resultSecret map[int]secretResult // result index → secret taint born inside
	passes       map[[2]int]int       // param i flows to result j: the round that found it
	// flows are the complete source→sink paths of the function's latest
	// walk.
	flows []taintFlow
}

// a taintFlow is one complete source→sink path (suppression decisions
// happen later, in the analyzer or the exported report).
type taintFlow struct {
	fn    *taintFunc
	src   *secretSrc
	sink  sinkInfo
	chain []tstep
}

// a taintIssue is one EDL direction mismatch.
type taintIssue struct {
	fn     *taintFunc
	pos    token.Pos
	ecall  string
	param  string
	dir    string
	kind   string // "in-written", "out-stale-read" or "user-check-unguarded"
	detail string
}

// an edlParam is one statically-recovered EDL parameter declaration.
type edlParam struct {
	name string
	dir  string // "value", "in", "out", "inout" or "user_check"
}

// an edlDecl is one statically-recovered AddEcall/AddOcall declaration.
type edlDecl struct {
	name   string // the call's name
	kind   string // "ecall" or "ocall"
	params []edlParam
}

// taintTables are the two tree-wide tables the taint walk and the
// direction check read besides a function's own package and imports.
// A package registering a handler imports the handler's package, not
// the other way round, and an EDL declaration can sit anywhere, so a
// change to either table reaches packages whose checks it keeps.
type taintTables struct {
	// handlerEcall maps handler FullNames back to their registered ecall
	// names (from the TrustedFn maps interproc.go recovers).
	handlerEcall map[string]string
	// edl maps call names to their declarations; a later package's
	// declaration replaces an earlier one's.
	edl map[string]*edlDecl
}

func (t *taintTables) equal(u *taintTables) bool {
	return maps.Equal(t.handlerEcall, u.handlerEcall) &&
		maps.EqualFunc(t.edl, u.edl, func(a, b *edlDecl) bool {
			return a.kind == b.kind && slices.Equal(a.params, b.params)
		})
}

// taintRows are one checked package's rows of the taint graph. Its
// secret markers, sources and EDL declarations depend on the package
// alone. Its functions' summaries, flows and direction issues depend on
// its package, its imports and the taint tables too, so they are
// adopted only by a Tree whose tables equal the ones they were built
// under.
type taintRows struct {
	secrets *directiveSet
	sources []*secretSrc
	edl     []*edlDecl // in source order
	tables  *taintTables
	funcs   []*taintFunc // one per function-table row
	issues  []taintIssue
}

// taintGraph is the whole-tree taint view: sources, summaries, flows
// and EDL direction issues, built once per Tree from its packages'
// taintRows and scope-filtered by the analyzers and the exported report.
type taintGraph struct {
	fset    *token.FileSet
	rows    []*taintRows // one per package, in Pkgs order
	sources map[types.Object]*secretSrc
	tables  *taintTables
	funcs   map[string]*taintFunc
	// names memoises callee FullNames across the fixpoint's walks,
	// which run one at a time.
	names  fullNames
	flows  []taintFlow
	issues []taintIssue
}

// newTaintGraph builds the whole-tree taint analysis. It adopts every
// package's secret markers, sources and EDL declarations when the package
// has them, and collects them on the pool, one package per task, when it
// has not; it adopts its summaries too when they were built under taint
// tables equal to this tree's, and builds the rest in the fixpoint.
func newTaintGraph(tree *Tree) *taintGraph {
	ip := tree.callGraph()
	g := &taintGraph{
		fset:    tree.Fset,
		sources: make(map[types.Object]*secretSrc),
		funcs:   make(map[string]*taintFunc, len(ip.order)),
		names:   fullNames{},
	}
	tables := &taintTables{handlerEcall: make(map[string]string), edl: make(map[string]*edlDecl)}
	g.rows, _ = rowsOf(tree.Pkgs, func(c *checkedPkg) **taintRows { return &c.taint }, func(pkg *Package) *taintRows {
		secrets := collectSecretMarks(tree.Fset, []*Package{pkg})
		return &taintRows{secrets: secrets, sources: collectSources(pkg, secrets), edl: collectEDL(pkg)}
	})
	for _, r := range g.rows {
		for _, src := range r.sources {
			g.sources[src.obj] = src
		}
		for _, d := range r.edl {
			tables.edl[d.name] = d
		}
	}
	// Every registered handler is checked; one registered under several
	// ecall names is checked against the first.
	for _, e := range ip.entries {
		if _, ok := tables.handlerEcall[e.handler]; !ok {
			tables.handlerEcall[e.handler] = e.ecall
		}
	}
	var live []*taintFunc
	built := make([]bool, len(tree.Pkgs))
	for i, r := range g.rows {
		if r.tables == tables || r.tables != nil && r.tables.equal(tables) {
			tables = r.tables // later rows built under these tables match by pointer
		} else {
			if r.tables != nil { // published under other tables: keep what is theirs alone
				r = &taintRows{secrets: r.secrets, sources: r.sources, edl: r.edl}
			}
			for _, df := range tree.Pkgs[i].checked.funcs {
				r.funcs = append(r.funcs, &taintFunc{
					fixNode:      fixNode{declFunc: df},
					sig:          df.obj.Type().(*types.Signature),
					sinkVia:      make(map[int]*paramSink),
					resultSecret: make(map[int]secretResult),
					passes:       make(map[[2]int]int),
				})
			}
			live = append(live, r.funcs...)
			g.rows[i], built[i] = r, true
		}
		for _, fn := range r.funcs {
			g.funcs[fn.full] = fn
		}
	}
	g.tables = tables

	// Summary fixpoint: walk every function against the callee summaries
	// it sees until no summary grows. A function's last walk sees its
	// callees' final summaries, so its flows from that walk are its
	// complete source→sink paths; gather them, then cross-validate the
	// registered handlers against the EDL.
	converge(live, g.funcs, func(fn *taintFunc, r int) bool { return g.walker(fn, r).run() })
	for i, r := range g.rows {
		if built[i] {
			r.tables = tables
			r.issues = g.validateDirections(r.funcs)
			storeRows(&tree.Pkgs[i].checked.taint, r)
		}
		for _, fn := range r.funcs {
			g.flows = append(g.flows, fn.flows...)
		}
		g.issues = append(g.issues, r.issues...)
	}
	sort.Slice(g.flows, func(i, j int) bool {
		a, b := g.fset.Position(g.flows[i].sink.pos), g.fset.Position(g.flows[j].sink.pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	sort.Slice(g.issues, func(i, j int) bool {
		a, b := g.fset.Position(g.issues[i].pos), g.fset.Position(g.issues[j].pos)
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	return g
}

// sanitizerName recognises seal/encrypt functions by name: their result
// is safe to cross the boundary.
func sanitizerName(name string) bool {
	l := strings.ToLower(name)
	return strings.Contains(l, "seal") || strings.Contains(l, "encrypt")
}

// collectSources returns every //sgxperf:secret-marked declaration of
// the package, marking the markers it finds as used.
func collectSources(pkg *Package, secrets *directiveSet) []*secretSrc {
	var out []*secretSrc
	note := func(names []*ast.Ident) {
		for _, name := range names {
			if !secrets.covers("secretflow", name.Pos()) {
				continue
			}
			obj := pkg.Info.Defs[name]
			if obj == nil {
				continue
			}
			kind := "value"
			if v, ok := obj.(*types.Var); ok {
				if v.IsField() {
					kind = "field"
				} else {
					kind = "variable"
				}
			}
			out = append(out, &secretSrc{
				obj:  obj,
				desc: fmt.Sprintf("secret %s %s", kind, obj.Name()),
				pos:  name.Pos(),
			})
		}
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Field:
				note(n.Names)
			case *ast.ValueSpec:
				note(n.Names)
			}
			return true
		})
	}
	return out
}

// edlBase mirrors sdkBase: the EDL package is recognised by path
// basename, so fixture trees classify identically to the real one.
func edlBase(pkg *types.Package) bool {
	return pkg != nil && path.Base(pkg.Path()) == "edl"
}

// collectEDL recovers declared call directions from AddEcall/AddOcall
// builder calls with constant names and edl.Param composite literals, in
// source order; directions resolve by constant identifier name (DirIn,
// DirOut, …) so fixture EDL packages need not share the real package's
// values.
func collectEDL(pkg *Package) []*edlDecl {
	var out []*edlDecl
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := resolveCallee(call, pkg.Info)
			if fn == nil || (fn.Name() != "AddEcall" && fn.Name() != "AddOcall") {
				return true
			}
			recv := recvNamed(fn)
			if recv == nil || recv.Obj().Name() != "Interface" || !edlBase(recv.Obj().Pkg()) {
				return true
			}
			name := constStringArg(call, pkg.Info)
			if name == "" || len(call.Args) < 2 {
				return true
			}
			decl := &edlDecl{name: name, kind: "ecall"}
			if fn.Name() == "AddOcall" {
				decl.kind = "ocall"
			}
			for _, a := range call.Args[2:] {
				lit, ok := a.(*ast.CompositeLit)
				if !ok {
					continue
				}
				tn := namedOf(pkg.Info.Types[lit].Type)
				if tn == nil || tn.Obj().Name() != "Param" || !edlBase(tn.Obj().Pkg()) {
					continue
				}
				p := edlParam{dir: "value"}
				for _, el := range lit.Elts {
					kv, ok := el.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					key, ok := kv.Key.(*ast.Ident)
					if !ok {
						continue
					}
					switch key.Name {
					case "Name":
						if tv, ok := pkg.Info.Types[kv.Value]; ok && tv.Value != nil {
							p.name = strings.Trim(tv.Value.ExactString(), `"`)
						}
					case "Dir":
						p.dir = dirName(kv.Value)
					}
				}
				if p.name != "" {
					decl.params = append(decl.params, p)
				}
			}
			out = append(out, decl)
			return true
		})
	}
	return out
}

// dirName resolves a direction expression by its constant's identifier.
func dirName(e ast.Expr) string {
	var id string
	switch e := e.(type) {
	case *ast.SelectorExpr:
		id = e.Sel.Name
	case *ast.Ident:
		id = e.Name
	}
	switch id {
	case "DirIn":
		return "in"
	case "DirOut":
		return "out"
	case "DirInOut":
		return "inout"
	case "DirUserCheck":
		return "user_check"
	}
	return "value"
}

// paramDir looks up the declared direction of the EDL parameter mapping
// (case-insensitively) to a Go field name.
func (g *taintGraph) paramDir(ecall, field string) (string, string) {
	decl := g.tables.edl[ecall]
	if decl == nil {
		return "", ""
	}
	for _, p := range decl.params {
		if strings.EqualFold(p.name, field) {
			return p.name, p.dir
		}
	}
	return "", ""
}

// --- the per-function walk -------------------------------------------------

// taintWalker propagates taint through one function body in source
// order, updating the function's summary and recording its complete
// flows in place of the previous walk's.
type taintWalker struct {
	g       *taintGraph
	fn      *taintFunc
	pkg     *Package
	taint   map[taintKey]*taintVal
	argObjs map[types.Object]bool
	// round is the converge round the walk runs in.
	round int
	// changed records whether the walk grew the function's summary.
	changed bool
}

func (g *taintGraph) walker(fn *taintFunc, round int) *taintWalker {
	fn.flows = fn.flows[:0]
	fn.deps = fn.deps[:0]
	w := &taintWalker{
		g: g, fn: fn, pkg: fn.pkg, round: round,
		taint:   make(map[taintKey]*taintVal),
		argObjs: boundaryParams(fn.decl, fn.pkg.Info),
	}
	params := fn.sig.Params()
	for i := 0; i < params.Len(); i++ {
		obj := params.At(i)
		if src := g.sources[obj]; src != nil {
			w.taint[taintKey{obj, ""}] = &taintVal{
				src: src, param: -1, chain: []tstep{{src.pos, src.desc}},
			}
			continue
		}
		w.taint[taintKey{obj, ""}] = &taintVal{
			param: i, chain: []tstep{{obj.Pos(), "parameter " + obj.Name()}},
		}
	}
	return w
}

// run walks the body and reports whether the function's summary grew.
func (w *taintWalker) run() bool {
	for _, st := range w.fn.decl.Body.List {
		w.stmt(st)
	}
	return w.changed
}

func (w *taintWalker) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case nil:
	case *ast.ExprStmt:
		w.exprTaint(st.X)
	case *ast.AssignStmt:
		w.assign(st)
	case *ast.IfStmt:
		w.stmt(st.Init)
		w.exprTaint(st.Cond)
		w.block(st.Body)
		w.stmt(st.Else)
	case *ast.ForStmt:
		w.stmt(st.Init)
		w.exprTaint(st.Cond)
		w.block(st.Body)
		w.stmt(st.Post)
	case *ast.RangeStmt:
		v := w.exprTaint(st.X)
		for _, lv := range []ast.Expr{st.Key, st.Value} {
			if lv == nil {
				continue
			}
			if obj, pth := rootKey(lv, w.pkg.Info); obj != nil && v != nil {
				w.taint[taintKey{obj, pth}] = v.extend(lv.Pos(), "ranged into "+types.ExprString(lv))
			}
		}
		w.block(st.Body)
	case *ast.BlockStmt:
		w.block(st)
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
	case *ast.SwitchStmt:
		w.stmt(st.Init)
		w.exprTaint(st.Tag)
		w.caseBodies(st.Body)
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init)
		w.stmt(st.Assign)
		w.caseBodies(st.Body)
	case *ast.SelectStmt:
		for _, cc := range st.Body.List {
			if cl, ok := cc.(*ast.CommClause); ok {
				w.stmt(cl.Comm)
				for _, bs := range cl.Body {
					w.stmt(bs)
				}
			}
		}
	case *ast.ReturnStmt:
		for j, r := range st.Results {
			v := w.exprTaint(r)
			if v == nil {
				continue
			}
			if _, ok := w.fn.resultSecret[j]; v.src != nil && !ok {
				w.fn.resultSecret[j] = secretResult{v: v.extend(r.Pos(), "returned by "+w.fn.name), round: w.round}
				w.note()
			}
			if _, ok := w.fn.passes[[2]int{v.param, j}]; v.param >= 0 && !ok {
				w.fn.passes[[2]int{v.param, j}] = w.round
				w.note()
			}
		}
	case *ast.SendStmt:
		w.exprTaint(st.Chan)
		w.exprTaint(st.Value)
	case *ast.IncDecStmt:
		w.exprTaint(st.X)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, val := range vs.Values {
					v := w.exprTaint(val)
					if v == nil || i >= len(vs.Names) {
						continue
					}
					if obj := w.pkg.Info.Defs[vs.Names[i]]; obj != nil {
						w.taint[taintKey{obj, ""}] = v.extend(vs.Names[i].Pos(), "assigned to "+vs.Names[i].Name)
					}
				}
			}
		}
	case *ast.DeferStmt:
		w.callTaint(st.Call)
	case *ast.GoStmt:
		w.callTaint(st.Call)
	}
}

func (w *taintWalker) block(b *ast.BlockStmt) {
	for _, st := range b.List {
		w.stmt(st)
	}
}

func (w *taintWalker) caseBodies(body *ast.BlockStmt) {
	for _, cc := range body.List {
		if cl, ok := cc.(*ast.CaseClause); ok {
			for _, e := range cl.List {
				w.exprTaint(e)
			}
			for _, bs := range cl.Body {
				w.stmt(bs)
			}
		}
	}
}

// note flags a summary change for the fixpoint driver.
func (w *taintWalker) note() { w.changed = true }

// sees reports whether the walk sees a fact callee's summary gained in
// round s (see converge).
func (w *taintWalker) sees(callee *taintFunc, s int) bool {
	return sees(w.fn.declFunc, callee.declFunc, s, w.round)
}

// assign pairs RHS taint onto LHS roots, extends the boundary-derived
// set through type assertions, and checks boundary-write sinks.
func (w *taintWalker) assign(st *ast.AssignStmt) {
	noteAsserted(w.argObjs, st, w.pkg.Info)
	vals := make([]*taintVal, len(st.Lhs))
	if len(st.Lhs) == len(st.Rhs) {
		for i, r := range st.Rhs {
			vals[i] = w.exprTaint(r)
		}
	} else if len(st.Rhs) == 1 {
		v := w.exprTaint(st.Rhs[0])
		for i := range vals {
			vals[i] = v
		}
	}
	for i, lhs := range st.Lhs {
		v := vals[i]
		// Compound assignments (+=, etc.) keep the target's own taint.
		if st.Tok != token.ASSIGN && st.Tok != token.DEFINE && v == nil {
			continue
		}
		if v != nil {
			ri := i
			if ri >= len(st.Rhs) {
				ri = len(st.Rhs) - 1
			}
			w.boundaryWrite(lhs, v, st.Rhs[ri])
		}
		obj, pth := rootKey(lhs, w.pkg.Info)
		if obj == nil {
			continue
		}
		key := taintKey{obj, pth}
		if v != nil {
			w.taint[key] = v.extend(lhs.Pos(), "assigned to "+types.ExprString(lhs))
			continue
		}
		// Strong update: an untainted store clears the root and its
		// sub-fields.
		for k := range w.taint {
			if k.obj == obj && strings.HasPrefix(k.path, pth) {
				delete(w.taint, k)
			}
		}
	}
}

// boundaryWrite checks whether a tainted store targets the boundary
// args buffer of a TrustedFn handler and records the sink, classified
// by the EDL direction of the written field when recoverable.
func (w *taintWalker) boundaryWrite(lhs ast.Expr, v *taintVal, rhs ast.Expr) {
	if w.argObjs == nil {
		return
	}
	sel, field := w.boundaryField(lhs)
	if sel == nil {
		return
	}
	ecall := w.g.tables.handlerEcall[w.fn.full]
	kind, dirNote := "boundary-write", ""
	if ecall != "" {
		if pname, dir := w.g.paramDir(ecall, field); pname != "" {
			switch dir {
			case "user_check":
				kind = "user_check"
			case "out", "inout":
				kind = "out-param"
			}
			dirNote = fmt.Sprintf(" (param %q, [%s])", pname, dir)
		}
	}
	w.sinkHit(v, sinkInfo{
		kind: kind,
		call: ecall,
		desc: fmt.Sprintf("boundary buffer field %s%s copied back to the untrusted side",
			types.ExprString(lhs), dirNote),
		pos:   lhs.Pos(),
		bytes: w.staticSize(rhs),
	})
}

// boundaryField returns the selector writing into the boundary buffer
// and the outermost written field name ("" when lhs is no such write).
func (w *taintWalker) boundaryField(lhs ast.Expr) (ast.Expr, string) {
	e := lhs
	for {
		switch t := e.(type) {
		case *ast.ParenExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.SelectorExpr:
			root := t.X
			for {
				switch r := root.(type) {
				case *ast.SelectorExpr:
					root = r.X
				case *ast.IndexExpr:
					root = r.X
				case *ast.ParenExpr:
					root = r.X
				case *ast.Ident:
					if w.argObjs[w.pkg.Info.Uses[r]] {
						return lhs, outerFieldName(lhs)
					}
					return nil, ""
				default:
					return nil, ""
				}
			}
		default:
			return nil, ""
		}
	}
}

// outerFieldName returns the field named directly on the boundary root:
// for a.Buf[i] and a.Buf both "Buf".
func outerFieldName(e ast.Expr) string {
	var last string
	for {
		switch t := e.(type) {
		case *ast.SelectorExpr:
			last = t.Sel.Name
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		default:
			return last
		}
	}
}

// sinkHit records one taint arrival at a sink: a complete flow when the
// taint is source-rooted, a summary bit when parameter-derived.
func (w *taintWalker) sinkHit(v *taintVal, sink sinkInfo) {
	if v.src != nil {
		chain := append(append([]tstep{}, v.chain...), tstep{sink.pos, sink.desc})
		w.fn.flows = append(w.fn.flows, taintFlow{fn: w.fn, src: v.src, sink: sink, chain: chain})
		return
	}
	if v.param >= 0 && w.fn.sinkVia[v.param] == nil {
		w.fn.sinkVia[v.param] = &paramSink{steps: append([]tstep{}, v.chain...), sink: sink, round: w.round}
		w.note()
	}
}

// exprTaint evaluates one expression's taint, visiting subexpressions
// for their side effects (nested calls, sinks) along the way.
func (w *taintWalker) exprTaint(e ast.Expr) *taintVal {
	switch e := e.(type) {
	case nil:
		return nil
	case *ast.Ident:
		obj := w.pkg.Info.Uses[e]
		if obj == nil {
			return nil
		}
		if src := w.g.sources[obj]; src != nil {
			return &taintVal{src: src, param: -1, chain: []tstep{{src.pos, src.desc}}}
		}
		return w.taint[taintKey{obj, ""}]
	case *ast.SelectorExpr:
		// A select of a secret-marked field is a source wherever its
		// owner came from.
		if sel := w.pkg.Info.Selections[e]; sel != nil {
			if src := w.g.sources[sel.Obj()]; src != nil {
				return &taintVal{src: src, param: -1, chain: []tstep{{src.pos, src.desc}}}
			}
		}
		if obj, pth := rootKey(e, w.pkg.Info); obj != nil {
			if v := w.lookup(obj, pth); v != nil {
				return v
			}
			return nil
		}
		return w.exprTaint(e.X)
	case *ast.IndexExpr:
		w.exprTaint(e.Index)
		if obj, pth := rootKey(e, w.pkg.Info); obj != nil {
			if v := w.lookup(obj, pth); v != nil {
				return v
			}
			return nil
		}
		return w.exprTaint(e.X)
	case *ast.IndexListExpr:
		return w.exprTaint(e.X)
	case *ast.SliceExpr:
		w.exprTaint(e.Low)
		w.exprTaint(e.High)
		w.exprTaint(e.Max)
		return w.exprTaint(e.X)
	case *ast.StarExpr:
		return w.exprTaint(e.X)
	case *ast.ParenExpr:
		return w.exprTaint(e.X)
	case *ast.UnaryExpr:
		return w.exprTaint(e.X)
	case *ast.BinaryExpr:
		x := w.exprTaint(e.X)
		y := w.exprTaint(e.Y)
		if x != nil {
			return x
		}
		return y
	case *ast.TypeAssertExpr:
		return w.exprTaint(e.X)
	case *ast.CompositeLit:
		var out *taintVal
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if v := w.exprTaint(el); v != nil && out == nil {
				out = v.extend(e.Pos(), "packed into composite literal")
			}
		}
		return out
	case *ast.KeyValueExpr:
		return w.exprTaint(e.Value)
	case *ast.CallExpr:
		return w.callTaint(e)
	case *ast.FuncLit:
		// Not walked; see the file comment on approximations.
		return nil
	}
	return nil
}

// lookup finds the taint of (obj, path), falling back to enclosing
// prefixes so whole-object taint covers every field.
func (w *taintWalker) lookup(obj types.Object, pth string) *taintVal {
	for {
		if v, ok := w.taint[taintKey{obj, pth}]; ok {
			return v
		}
		i := strings.LastIndexByte(pth, '.')
		if i < 0 {
			if pth == "" {
				return nil
			}
			pth = ""
			continue
		}
		pth = pth[:i]
	}
}

// callTaint handles call expressions: sanitizers launder, ocall
// dispatches sink their arguments, known callees compose through their
// summaries, unknown callees propagate conservatively.
func (w *taintWalker) callTaint(call *ast.CallExpr) *taintVal {
	info := w.pkg.Info
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		w.exprTaint(sel.X)
	}
	vals := make([]*taintVal, len(call.Args))
	for i, a := range call.Args {
		vals[i] = w.exprTaint(a)
	}

	// Ocall dispatch: every tainted argument crosses the boundary.
	if name, ok := envDispatch(call, info); ok {
		what := "an ocall"
		if name != "" {
			what = fmt.Sprintf("ocall %q", name)
		}
		for i, v := range vals {
			if v == nil || i == 0 {
				continue // args[0] is the ocall name itself
			}
			w.sinkHit(v, sinkInfo{
				kind:  "ocall-arg",
				call:  name,
				desc:  fmt.Sprintf("argument %d of %s", i, what),
				pos:   call.Args[i].Pos(),
				bytes: w.staticSize(call.Args[i]),
			})
		}
		return nil // the result comes from the untrusted side
	}

	fn := resolveCallee(call, info)
	if fn != nil && sanitizerName(fn.Name()) {
		return nil // recognised seal/encrypt: the result is safe to cross
	}
	if fn != nil {
		if g, ok := w.g.funcs[w.g.names.of(fn)]; ok {
			w.fn.deps = append(w.fn.deps, g.full)
			var out *taintVal
			for i, v := range vals {
				if v == nil {
					continue
				}
				if ps := g.sinkVia[i]; ps != nil && w.sees(g, ps.round) {
					sunk := v.extend(call.Pos(), "passed to "+g.name)
					sunk = &taintVal{src: sunk.src, param: sunk.param,
						chain: append(append([]tstep{}, sunk.chain...), ps.steps...)}
					w.sinkHit(sunk, ps.sink)
				}
				for j := 0; j < g.sig.Results().Len(); j++ {
					if s, ok := g.passes[[2]int{i, j}]; ok && w.sees(g, s) && out == nil {
						out = v.extend(call.Pos(), "through call to "+g.name)
					}
				}
			}
			if out == nil {
				for j := 0; j < g.sig.Results().Len(); j++ {
					if rv, ok := g.resultSecret[j]; ok && w.sees(g, rv.round) {
						out = rv.v.extend(call.Pos(), "returned by "+g.name)
						break
					}
				}
			}
			return out
		}
	}
	// Unknown callee (stdlib, builtin, interface method): any tainted
	// argument conservatively taints the result.
	for _, v := range vals {
		if v != nil {
			name := "call"
			if fn != nil {
				name = "call to " + fn.Name()
			}
			return v.extend(call.Pos(), "derived through "+name)
		}
	}
	return nil
}

// staticSize derives the byte size of an expression's type when it is
// statically fixed (basic values, arrays, pointer-free structs by
// header); strings, slices and maps return 0 (unknown until runtime).
func (w *taintWalker) staticSize(e ast.Expr) int64 {
	tv, ok := w.pkg.Info.Types[e]
	if !ok || tv.Type == nil {
		return 0
	}
	return typeSize(tv.Type)
}

var taintSizes = types.SizesFor("gc", "amd64")

func typeSize(t types.Type) int64 {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		if u.Info()&types.IsString != 0 {
			return 0
		}
		return taintSizes.Sizeof(t)
	case *types.Array:
		elem := typeSize(u.Elem())
		if elem == 0 {
			return 0
		}
		return elem * u.Len()
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if typeSize(u.Field(i).Type()) == 0 {
				return 0
			}
		}
		return taintSizes.Sizeof(t)
	case *types.Pointer:
		return typeSize(u.Elem())
	}
	return 0
}

// rootKey peels a selector/index chain down to its declared root
// object, building the field-sensitive path ("" for the bare object,
// "[]" path elements for index steps).
func rootKey(e ast.Expr, info *types.Info) (types.Object, string) {
	var parts []string
	for {
		switch t := e.(type) {
		case *ast.SelectorExpr:
			parts = append(parts, t.Sel.Name)
			e = t.X
		case *ast.IndexExpr:
			parts = append(parts, "[]")
			e = t.X
		case *ast.ParenExpr:
			e = t.X
		case *ast.StarExpr:
			e = t.X
		case *ast.Ident:
			obj := info.Uses[t]
			if obj == nil {
				obj = info.Defs[t]
			}
			if obj == nil {
				return nil, ""
			}
			if len(parts) == 0 {
				return obj, ""
			}
			// parts were collected outside-in; reverse into a path.
			var b strings.Builder
			for i := len(parts) - 1; i >= 0; i-- {
				b.WriteByte('.')
				b.WriteString(parts[i])
			}
			return obj, b.String()
		default:
			return nil, ""
		}
	}
}

// --- EDL direction cross-validation ----------------------------------------

// validateDirections checks every registered handler among funcs, in
// source order, against the recovered EDL declaration of its ecall.
func (g *taintGraph) validateDirections(funcs []*taintFunc) []taintIssue {
	var issues []taintIssue
	for _, fn := range funcs {
		ecall := g.tables.handlerEcall[fn.full]
		decl := g.tables.edl[ecall]
		if decl == nil {
			continue
		}
		argObjs := boundaryParams(fn.decl, fn.pkg.Info)
		if argObjs == nil {
			continue
		}
		s := &edlScanner{
			pkg: fn.pkg, argObjs: argObjs,
			fields: make(map[string]*fieldUse),
		}
		for _, st := range fn.decl.Body.List {
			s.stmt(st)
		}
		for _, p := range decl.params {
			u := s.fields[strings.ToLower(p.name)]
			if u == nil {
				continue
			}
			switch p.dir {
			case "in":
				if u.write != token.NoPos {
					issues = append(issues, taintIssue{
						fn: fn, pos: u.write, ecall: ecall, param: p.name, dir: p.dir,
						kind: "in-written",
						detail: fmt.Sprintf(
							"%s writes boundary param %q of ecall %q, but the EDL declares it [in]: the write is silently dropped at copy-back; declare it [inout]",
							fn.name, p.name, ecall),
					})
				}
			case "out":
				if u.read != token.NoPos && (u.write == token.NoPos || u.read < u.write) {
					issues = append(issues, taintIssue{
						fn: fn, pos: u.read, ecall: ecall, param: p.name, dir: p.dir,
						kind: "out-stale-read",
						detail: fmt.Sprintf(
							"%s reads boundary param %q of ecall %q before its first write, but the EDL declares it [out]: the buffer arrives uninitialised and the read leaks whatever the copy-back returns",
							fn.name, p.name, ecall),
					})
				}
			case "user_check":
				if u.deref != token.NoPos && (u.guard == token.NoPos || u.deref < u.guard) {
					issues = append(issues, taintIssue{
						fn: fn, pos: u.deref, ecall: ecall, param: p.name, dir: p.dir,
						kind: "user-check-unguarded",
						detail: fmt.Sprintf(
							"%s dereferences [user_check] param %q of ecall %q without a prior bounds guard: the SDK copies and checks nothing for user_check pointers",
							fn.name, p.name, ecall),
					})
				}
			}
		}
	}
	return issues
}

// a fieldUse records the first read, write, dereference and branch
// guard of one boundary field, in source order.
type fieldUse struct {
	read, write, deref, guard token.Pos
}

func (u *fieldUse) first(p *token.Pos, pos token.Pos) {
	if *p == token.NoPos || pos < *p {
		*p = pos
	}
}

// edlScanner orders every use of the boundary buffer's fields inside
// one handler.
type edlScanner struct {
	pkg     *Package
	argObjs map[types.Object]bool
	fields  map[string]*fieldUse
}

func (s *edlScanner) use(name string) *fieldUse {
	key := strings.ToLower(name)
	u := s.fields[key]
	if u == nil {
		u = &fieldUse{}
		s.fields[key] = u
	}
	return u
}

// fieldSel returns the boundary field a selector reads ("" otherwise).
func (s *edlScanner) fieldSel(e ast.Expr) string {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	root := sel.X
	for {
		switch r := root.(type) {
		case *ast.ParenExpr:
			root = r.X
		case *ast.StarExpr:
			root = r.X
		case *ast.Ident:
			if s.argObjs[s.pkg.Info.Uses[r]] {
				return sel.Sel.Name
			}
			return ""
		default:
			return ""
		}
	}
}

func (s *edlScanner) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case nil:
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			s.reads(r)
		}
		noteAsserted(s.argObjs, st, s.pkg.Info)
		for _, l := range st.Lhs {
			s.writeTarget(l)
		}
	case *ast.IfStmt:
		s.stmt(st.Init)
		s.guards(st.Cond)
		s.block(st.Body)
		s.stmt(st.Else)
	case *ast.ForStmt:
		s.stmt(st.Init)
		s.guards(st.Cond)
		s.block(st.Body)
		s.stmt(st.Post)
	case *ast.RangeStmt:
		s.reads(st.X)
		s.block(st.Body)
	case *ast.BlockStmt:
		s.block(st)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt)
	case *ast.SwitchStmt:
		s.stmt(st.Init)
		s.guards(st.Tag)
		for _, cc := range st.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				for _, e := range cl.List {
					s.reads(e)
				}
				for _, bs := range cl.Body {
					s.stmt(bs)
				}
			}
		}
	case *ast.TypeSwitchStmt:
		s.stmt(st.Init)
		s.stmt(st.Assign)
		for _, cc := range st.Body.List {
			if cl, ok := cc.(*ast.CaseClause); ok {
				for _, bs := range cl.Body {
					s.stmt(bs)
				}
			}
		}
	case *ast.IncDecStmt:
		s.writeTarget(st.X)
	default:
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				s.noteRead(e)
			}
			return true
		})
	}
}

func (s *edlScanner) block(b *ast.BlockStmt) {
	for _, st := range b.List {
		s.stmt(st)
	}
}

// reads walks an expression recording field reads and dereferences.
func (s *edlScanner) reads(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			s.noteRead(e)
		}
		return true
	})
}

func (s *edlScanner) noteRead(e ast.Expr) {
	if f := s.fieldSel(e); f != "" {
		u := s.use(f)
		u.first(&u.read, e.Pos())
		return
	}
	// An index, slice or star over a boundary field is a dereference of
	// the pointer it holds.
	var x ast.Expr
	switch t := e.(type) {
	case *ast.IndexExpr:
		x = t.X
	case *ast.SliceExpr:
		x = t.X
	case *ast.StarExpr:
		x = t.X
	default:
		return
	}
	if f := s.fieldSel(x); f != "" {
		u := s.use(f)
		u.first(&u.deref, e.Pos())
	}
}

// writeTarget records a store into a boundary field; an indexed store
// (a.Buf[i] = x) both writes and dereferences.
func (s *edlScanner) writeTarget(l ast.Expr) {
	if f := s.fieldSel(l); f != "" {
		u := s.use(f)
		u.first(&u.write, l.Pos())
		return
	}
	if ix, ok := l.(*ast.IndexExpr); ok {
		s.reads(ix.Index)
		if f := s.fieldSel(ix.X); f != "" {
			u := s.use(f)
			u.first(&u.write, l.Pos())
			u.first(&u.deref, l.Pos())
			return
		}
	}
	s.reads(l)
}

// guards marks every boundary field a branch condition mentions as
// bounds-checked from the condition's position on.
func (s *edlScanner) guards(cond ast.Expr) {
	if cond == nil {
		return
	}
	ast.Inspect(cond, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if f := s.fieldSel(e); f != "" {
			u := s.use(f)
			u.first(&u.guard, cond.Pos())
		}
		// len(a.Buf) and similar inside the condition also guard.
		if call, ok := e.(*ast.CallExpr); ok {
			for _, a := range call.Args {
				if f := s.fieldSel(a); f != "" {
					u := s.use(f)
					u.first(&u.guard, cond.Pos())
				}
			}
		}
		return true
	})
	s.reads(cond)
}

// --- the exported taint analysis (reused by staticlint) --------------------

// A FlowStep is one hop of a secret-flow witness chain.
type FlowStep struct {
	Pos  token.Position
	Note string
}

// A SecretFlow is one enclave secret reaching a boundary sink without
// sealing.
type SecretFlow struct {
	// Pos is the sink site; Func the function containing it.
	Pos  token.Position
	Func string
	// Source describes the //sgxperf:secret declaration; Sink the
	// boundary crossing.
	Source string
	Sink   string
	// SinkKind is "ocall-arg", "out-param", "user_check" or
	// "boundary-write".
	SinkKind string
	// Call is the joinable wire name: the ocall for argument sinks, the
	// enclosing handler's ecall for buffer-write sinks ("" unknown).
	Call string
	// Bytes is the static size of the sunk value (0 when not derivable).
	Bytes int
	// Chain is the full witness path, source first, sink last.
	Chain []FlowStep
}

// A DirectionIssue is one mismatch between what a handler does and what
// the EDL declares.
type DirectionIssue struct {
	Pos   token.Position
	Func  string
	Ecall string
	Param string
	// Dir is the declared direction; Kind is "in-written",
	// "out-stale-read" or "user-check-unguarded".
	Dir    string
	Kind   string
	Detail string
}

// A TaintReport aggregates the taint engine's raw findings for callers
// outside the lint driver (staticlint), suppression-blind like
// AnalyzeSyncTree and AnalyzeInterprocTree.
type TaintReport struct {
	Flows  []SecretFlow
	Issues []DirectionIssue
}

// AnalyzeTaintTree reads the tree's secret-flow taint summaries, built
// over the whole tree so cross-package flows compose. Flows and
// direction issues are reported only for functions in packages whose
// root-relative directory starts with one of the given prefixes (all
// packages when none are given).
func AnalyzeTaintTree(tree *Tree, dirs []string) *TaintReport {
	g := tree.taintGraph()
	report := &TaintReport{}
	for _, fl := range g.flows {
		if !inDirs(dirs, fl.fn.pkg.Dir) {
			continue
		}
		chain := make([]FlowStep, 0, len(fl.chain))
		for _, s := range fl.chain {
			chain = append(chain, FlowStep{Pos: g.fset.Position(s.pos), Note: s.note})
		}
		report.Flows = append(report.Flows, SecretFlow{
			Pos: g.fset.Position(fl.sink.pos), Func: fl.fn.name,
			Source: fl.src.desc, Sink: fl.sink.desc, SinkKind: fl.sink.kind,
			Call: fl.sink.call, Bytes: int(fl.sink.bytes), Chain: chain,
		})
	}
	for _, is := range g.issues {
		if !inDirs(dirs, is.fn.pkg.Dir) {
			continue
		}
		report.Issues = append(report.Issues, DirectionIssue{
			Pos: g.fset.Position(is.pos), Func: is.fn.name, Ecall: is.ecall,
			Param: is.param, Dir: is.dir, Kind: is.kind, Detail: is.detail,
		})
	}
	return report
}
