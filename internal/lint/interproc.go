// Interprocedural boundary-cost model: the call-graph layer under the
// transamp, doublefetch and ptrescape analyzers and the staticlint
// transition predictor.
//
// Where dataflow.go answers "may calling this function block?", this
// file answers the quantitative question the paper prices in §3.1/§6:
// *how many* enclave transitions does one invocation of an entry point
// execute, and where do they multiply? Each declared function gets a
// summary of
//
//   - its direct boundary crossings — ocall dispatch (env.Ocall /
//     env.OcallByID), ecall dispatch through an sdk.Proxy value, and
//     the SDK sync primitives whose contended path sleeps via ocall —
//     each tagged with the loop-nest depth it sits at, the product of
//     the statically-known trip counts of the enclosing loops, and
//     whether a branch guards it;
//   - its resolved call sites with the same depth/trip/guard tags, so
//     a fixpoint lifts callee crossings to the caller ("flush calls
//     putChunk eight times per invocation, putChunk ocalls once");
//   - for TrustedFn-shaped handlers (func(env *sdk.Env, args any)),
//     the reads of expressions derived from the boundary args buffer,
//     ordered against the ocall crossings — the §3.6 double-fetch
//     shape — and enclave pointers passed to ocall arguments.
//
// SDK types are recognised by name (receiver type Env/Mutex/Cond/Proxy
// in a package whose path basename is "sdk"), not by import path, so
// fixture trees that type-check under lintfixture/… and the real
// sgxperf/internal/sdk resolve identically.
//
// Known approximations, chosen like dataflow.go's for low false-positive
// pressure: function-literal bodies are not attributed to their
// enclosing function (a crossing inside a goroutine or callback belongs
// to no summary); go-statement callees are skipped (their crossings run
// on another thread under another parent); loop trip counts are only
// derived from `for i := c0; i < n; i += k` with constant bounds and
// from range-over-int/range-over-array, everything else counts as
// "unknown" (trip 0); writes between a fetch and a re-fetch do not
// clear the double-fetch fact; and an sdk.Mutex crossing is priced as
// contention-conditional, so it never contributes to the transition
// prediction.
package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path"
	"slices"
	"sort"
	"strings"
)

// CrossKind classifies one boundary-crossing site.
type CrossKind int

const (
	// CrossOcall is a direct ocall dispatch (env.Ocall / env.OcallByID):
	// one full EEXIT→OCALL→EENTER round trip per execution.
	CrossOcall CrossKind = iota
	// CrossEcall is an ecall dispatch through an sdk.Proxy value — the
	// untrusted side entering the enclave.
	CrossEcall
	// CrossSleep is an SDK sync primitive (sdk.Mutex, sdk.Cond) whose
	// contended path leaves the enclave through the sleep/wake ocall
	// pair; uncontended it crosses nothing, so it is tracked separately
	// from the unconditional dispatches.
	CrossSleep
)

func (k CrossKind) String() string {
	switch k {
	case CrossEcall:
		return "ecall dispatch"
	case CrossSleep:
		return "sdk sync primitive"
	default:
		return "ocall dispatch"
	}
}

// tripCap bounds the lifted trip product so nested constant loops
// cannot overflow the prediction arithmetic.
const tripCap = 1 << 20

// depthCap bounds the lifted loop depth; recursion past it stops
// contributing new facts, which is what terminates the fixpoint.
const depthCap = 8

// An ipCrossing is one direct crossing site inside a function.
type ipCrossing struct {
	kind CrossKind
	// name is the statically-known ocall name ("" when the first
	// argument is not a compile-time constant, and for OcallByID).
	name string
	// desc names CrossSleep primitives (sdk.Mutex.Lock etc).
	desc string
	pos  token.Pos
	end  token.Pos // the call's End, for ordering arg reads as "before"
	// depth is the loop-nest depth of the site; trip is the product of
	// the known constant trip counts of the enclosing loops (1 outside
	// any loop, 0 when any enclosing loop's count is unknown).
	depth int
	trip  int
	// cond marks sites guarded by a branch (if/switch/select arm).
	cond bool
}

// An ipCall is one resolved call site, tagged like a crossing.
type ipCall struct {
	callee string // go/types FullName
	pos    token.Pos
	depth  int
	trip   int
	cond   bool
}

// An ipFetch is one boundary-buffer expression read on both sides of an
// ocall crossing.
type ipFetch struct {
	expr     string
	firstPos token.Pos
	crossPos token.Pos
	ocall    string
	pos      token.Pos // the re-read
}

// An ipEscape is one enclave pointer passed as an ocall argument.
type ipEscape struct {
	expr  string
	ocall string
	pos   token.Pos
}

// An ipFunc is one declared function's interprocedural summary. Its
// node's deps list the callees of its calls, for the fixpoint.
type ipFunc struct {
	fixNode
	crossings []ipCrossing
	calls     []ipCall
	fetches   []ipFetch
	escapes   []ipEscape
	// crosses is the fixpoint's fact: does calling the function execute
	// at least one unconditional-kind ocall dispatch, transitively? round
	// is the converge round that found it, -1 when the body dispatches.
	crosses bool
	round   int
}

// interproc is a tree's one call graph, joined from its packages'
// graphRows.
type interproc struct {
	funcs map[string]*ipFunc
	order []*ipFunc // one per function-table row, in source order
	// entries lists every ecall registration recovered from
	// map[string]sdk.TrustedFn composite literals (see sortedEntries).
	entries []entry
}

// graphRows are one checked package's rows of the call graph: its
// functions' summaries, one per function-table row, and its ecall
// registrations.
type graphRows struct {
	funcs   []*ipFunc
	entries []entry
}

// newInterproc builds the call graph of the checked packages: it adopts
// the rows of every package that has them, scans every function of the
// others, one package per pool task, and computes their
// ocall-reachability fixpoint in source order.
func newInterproc(pkgs []*Package) *interproc {
	ip := &interproc{funcs: make(map[string]*ipFunc, funcRows(pkgs))}
	rows, fresh := rowsOf(pkgs, func(c *checkedPkg) **graphRows { return &c.graph }, func(pkg *Package) *graphRows {
		r := &graphRows{entries: collectEntries(pkg, nil), funcs: make([]*ipFunc, len(pkg.checked.funcs))}
		for i, df := range pkg.checked.funcs {
			fn := &ipFunc{fixNode: fixNode{declFunc: df}, round: -1}
			s := &ipScanner{pkg: df.pkg, fn: fn, reads: make(map[string][]token.Pos)}
			s.argObjs = boundaryParams(df.decl, df.pkg.Info)
			s.block(df.decl.Body, ipCtx{trip: 1})
			s.resolveFetches()
			for _, c := range fn.crossings {
				if c.kind == CrossOcall {
					fn.crosses = true
					break
				}
			}
			r.funcs[i] = fn
		}
		return r
	})
	for _, r := range rows {
		for _, fn := range r.funcs {
			ip.funcs[fn.full] = fn
		}
		ip.order = append(ip.order, r.funcs...)
		ip.entries = append(ip.entries, r.entries...)
	}
	var live []*ipFunc
	for _, i := range fresh {
		live = append(live, rows[i].funcs...)
	}
	ip.entries = sortedEntries(ip.entries)
	// Propagate "transitively dispatches an ocall" through the resolved
	// call graph, like dataflow.go's blocking summaries.
	converge(live, ip.funcs, func(fn *ipFunc, r int) bool {
		if fn.crosses {
			return false
		}
		for _, call := range fn.calls {
			if c := ip.funcs[call.callee]; c != nil && c.crosses && sees(fn.declFunc, c.declFunc, c.round, r) {
				fn.crosses, fn.round = true, r
				return true
			}
		}
		return false
	})
	for _, i := range fresh {
		storeRows(&pkgs[i].checked.graph, rows[i])
	}
	return ip
}

// predInfo is one function's transition prediction: expected ocall
// dispatches per single invocation, with the precision caveats.
type predInfo struct {
	n           int
	loopUnknown bool
	cond        bool
}

// pred evaluates the expected ocall count of one invocation of full,
// memoised over the call graph; recursion is cut by reporting the
// in-progress callee as unbounded (loopUnknown).
func (ip *interproc) pred(full string, memo map[string]predInfo, visiting map[string]bool) predInfo {
	if p, ok := memo[full]; ok {
		return p
	}
	if visiting[full] {
		return predInfo{loopUnknown: true}
	}
	fn := ip.funcs[full]
	if fn == nil {
		return predInfo{}
	}
	visiting[full] = true
	var p predInfo
	add := func(weight int, sub predInfo, siteCond bool) {
		w := weight
		if w == 0 {
			w = 1
			p.loopUnknown = true
		}
		p.n += w * sub.n
		if p.n > tripCap {
			p.n = tripCap
		}
		p.loopUnknown = p.loopUnknown || sub.loopUnknown
		p.cond = p.cond || sub.cond || siteCond
	}
	for _, c := range fn.crossings {
		if c.kind != CrossOcall {
			continue // sleeps are contention-conditional, ecalls go inward
		}
		add(c.trip, predInfo{n: 1}, c.cond)
	}
	for _, call := range fn.calls {
		if ip.funcs[call.callee] == nil {
			continue
		}
		sub := ip.pred(call.callee, memo, visiting)
		if sub.n == 0 && !sub.loopUnknown && !sub.cond {
			continue
		}
		add(call.trip, sub, call.cond)
	}
	delete(visiting, full)
	memo[full] = p
	return p
}

// --- the context-carrying scanner -----------------------------------------

// ipCtx is the static execution context of a site: loop depth, trip
// product and branch guarding.
type ipCtx struct {
	depth int
	trip  int
	cond  bool
}

func (c ipCtx) loop(trip int) ipCtx {
	if c.depth < depthCap {
		c.depth++
	}
	switch {
	case trip == 0:
		c.trip = 0
	case c.trip != 0:
		c.trip *= trip
		if c.trip > tripCap {
			c.trip = tripCap
		}
	}
	return c
}

func (c ipCtx) branch() ipCtx {
	c.cond = true
	return c
}

type ipScanner struct {
	pkg *Package
	fn  *ipFunc
	// argObjs are the boundary-buffer roots of a TrustedFn-shaped
	// handler: the args parameter plus locals type-asserted from it
	// (nil for every other function).
	argObjs map[types.Object]bool
	// reads orders every boundary-derived expression read by position.
	reads map[string][]token.Pos
}

func (s *ipScanner) block(b *ast.BlockStmt, c ipCtx) {
	for _, st := range b.List {
		s.stmt(st, c)
	}
}

func (s *ipScanner) stmt(st ast.Stmt, c ipCtx) {
	switch st := st.(type) {
	case nil:
	case *ast.ExprStmt:
		s.expr(st.X, c, true)
	case *ast.AssignStmt:
		noteAsserted(s.argObjs, st, s.pkg.Info)
		for _, r := range st.Rhs {
			s.expr(r, c, true)
		}
		for _, l := range st.Lhs {
			s.lvalue(l, c)
		}
	case *ast.IfStmt:
		s.stmt(st.Init, c)
		s.expr(st.Cond, c, true)
		s.block(st.Body, c.branch())
		s.stmt(st.Else, c.branch())
	case *ast.ForStmt:
		s.stmt(st.Init, c)
		s.expr(st.Cond, c, true)
		body := c.loop(forTrip(st, s.pkg.Info))
		s.block(st.Body, body)
		s.stmt(st.Post, body)
	case *ast.RangeStmt:
		s.expr(st.X, c, true)
		s.block(st.Body, c.loop(rangeTrip(st, s.pkg.Info)))
	case *ast.BlockStmt:
		s.block(st, c)
	case *ast.LabeledStmt:
		s.stmt(st.Stmt, c)
	case *ast.SwitchStmt:
		s.stmt(st.Init, c)
		s.expr(st.Tag, c, true)
		s.caseBodies(st.Body, c)
	case *ast.TypeSwitchStmt:
		s.stmt(st.Init, c)
		s.stmt(st.Assign, c)
		s.caseBodies(st.Body, c)
	case *ast.SelectStmt:
		for _, cc := range st.Body.List {
			cl, ok := cc.(*ast.CommClause)
			if !ok {
				continue
			}
			s.stmt(cl.Comm, c.branch())
			for _, bs := range cl.Body {
				s.stmt(bs, c.branch())
			}
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			s.expr(r, c, true)
		}
	case *ast.SendStmt:
		s.expr(st.Chan, c, true)
		s.expr(st.Value, c, true)
	case *ast.IncDecStmt:
		s.expr(st.X, c, true)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						s.expr(v, c, true)
					}
				}
			}
		}
	case *ast.DeferStmt:
		// A deferred call runs once per reaching execution of the defer
		// statement, so the site's own context prices it correctly.
		s.call(st.Call, c)
	case *ast.GoStmt:
		// The spawned callee's crossings run on another thread under
		// another trace parent; only the argument expressions count here.
		for _, a := range st.Call.Args {
			s.expr(a, c, true)
		}
	}
}

func (s *ipScanner) caseBodies(body *ast.BlockStmt, c ipCtx) {
	for _, cc := range body.List {
		cl, ok := cc.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cl.List {
			s.expr(e, c, true)
		}
		for _, bs := range cl.Body {
			s.stmt(bs, c.branch())
		}
	}
}

// lvalue walks an assignment target: a store into a boundary-derived
// expression is a write, not a fetch, so the outer selector is not
// recorded (inner index expressions still walk normally).
func (s *ipScanner) lvalue(l ast.Expr, c ipCtx) {
	switch l := l.(type) {
	case *ast.SelectorExpr:
		if s.boundaryRoot(l) != "" {
			s.expr(l.X, c, false)
			return
		}
	case *ast.IndexExpr:
		if s.boundaryRoot(l) != "" {
			s.expr(l.X, c, false)
			s.expr(l.Index, c, true)
			return
		}
	}
	s.expr(l, c, true)
}

func (s *ipScanner) expr(e ast.Expr, c ipCtx, record bool) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		s.call(e, c)
	case *ast.SelectorExpr:
		if record && s.recordRead(e) {
			return
		}
		s.expr(e.X, c, record)
	case *ast.IndexExpr:
		if record && s.recordRead(e) {
			s.expr(e.Index, c, true)
			return
		}
		s.expr(e.X, c, record)
		s.expr(e.Index, c, true)
	case *ast.IndexListExpr:
		s.expr(e.X, c, record)
		for _, i := range e.Indices {
			s.expr(i, c, true)
		}
	case *ast.UnaryExpr:
		s.expr(e.X, c, record)
	case *ast.BinaryExpr:
		s.expr(e.X, c, record)
		s.expr(e.Y, c, record)
	case *ast.ParenExpr:
		s.expr(e.X, c, record)
	case *ast.StarExpr:
		s.expr(e.X, c, record)
	case *ast.SliceExpr:
		s.expr(e.X, c, record)
		s.expr(e.Low, c, true)
		s.expr(e.High, c, true)
		s.expr(e.Max, c, true)
	case *ast.TypeAssertExpr:
		s.expr(e.X, c, record)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			s.expr(el, c, record)
		}
	case *ast.KeyValueExpr:
		s.expr(e.Value, c, record)
	case *ast.FuncLit:
		// Not attributed to the enclosing function; see the package
		// comment on approximations.
	}
}

// boundaryRoot returns the canonical expression string of a selector or
// index chain rooted at a boundary-derived object, "" otherwise.
func (s *ipScanner) boundaryRoot(e ast.Expr) string {
	if s.argObjs == nil {
		return ""
	}
	root := e
	for {
		switch r := root.(type) {
		case *ast.SelectorExpr:
			root = r.X
		case *ast.IndexExpr:
			root = r.X
		case *ast.ParenExpr:
			root = r.X
		case *ast.Ident:
			if s.argObjs[s.pkg.Info.Uses[r]] {
				return types.ExprString(e)
			}
			return ""
		default:
			return ""
		}
	}
}

// recordRead notes one boundary-derived fetch; the root identifier is
// not separately recorded (a.Key is one fetch, not a fetch of a too).
func (s *ipScanner) recordRead(e ast.Expr) bool {
	key := s.boundaryRoot(e)
	if key == "" {
		return false
	}
	s.reads[key] = append(s.reads[key], e.Pos())
	return true
}

func (s *ipScanner) call(call *ast.CallExpr, c ipCtx) {
	// Arguments (and a method receiver) evaluate regardless of what the
	// call turns out to be; nested calls inside them are ordinary sites.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		s.expr(sel.X, c, true)
	}
	for _, a := range call.Args {
		s.expr(a, c, true)
	}

	info := s.pkg.Info
	if name, ok := envDispatch(call, info); ok {
		s.fn.crossings = append(s.fn.crossings, ipCrossing{
			kind: CrossOcall, name: name, pos: call.Pos(), end: call.End(),
			depth: c.depth, trip: c.trip, cond: c.cond,
		})
		s.scanEscapes(call, name)
		return
	}
	if desc, ok := sleepPrimitive(call, info); ok {
		s.fn.crossings = append(s.fn.crossings, ipCrossing{
			kind: CrossSleep, desc: desc, pos: call.Pos(), end: call.End(),
			depth: c.depth, trip: c.trip, cond: c.cond,
		})
		return
	}
	if proxyDispatch(call, info) {
		s.fn.crossings = append(s.fn.crossings, ipCrossing{
			kind: CrossEcall, pos: call.Pos(), end: call.End(),
			depth: c.depth, trip: c.trip, cond: c.cond,
		})
		return
	}
	if fn := resolveCallee(call, info); fn != nil {
		callee := fn.FullName()
		s.fn.calls = append(s.fn.calls, ipCall{
			callee: callee, pos: call.Pos(),
			depth: c.depth, trip: c.trip, cond: c.cond,
		})
		s.fn.deps = append(s.fn.deps, callee)
	}
}

// scanEscapes flags enclave pointers passed as ocall arguments: any
// explicit &lvalue (composite literals are fresh values, not enclave
// state, and are excluded; so are plain pointer-typed variables, whose
// provenance one function cannot see).
func (s *ipScanner) scanEscapes(call *ast.CallExpr, ocall string) {
	for _, arg := range call.Args {
		ast.Inspect(arg, func(n ast.Node) bool {
			u, ok := n.(*ast.UnaryExpr)
			if !ok || u.Op != token.AND {
				return true
			}
			if _, isLit := u.X.(*ast.CompositeLit); isLit {
				return true
			}
			s.fn.escapes = append(s.fn.escapes, ipEscape{
				expr: types.ExprString(u), ocall: ocall, pos: u.Pos(),
			})
			return true
		})
	}
}

// resolveFetches pairs the ordered boundary reads with the ocall
// crossings: an expression read at or before a crossing's end and again
// after it is a double fetch (reads inside the dispatch's own argument
// list count as "before" — they are what the ocall carried out).
func (s *ipScanner) resolveFetches() {
	if len(s.reads) == 0 {
		return
	}
	exprs := make([]string, 0, len(s.reads))
	for e := range s.reads {
		exprs = append(exprs, e)
	}
	sort.Strings(exprs)
	for _, expr := range exprs {
		reads := s.reads[expr]
		sort.Slice(reads, func(i, j int) bool { return reads[i] < reads[j] })
		for _, cr := range s.fn.crossings {
			if cr.kind != CrossOcall {
				continue
			}
			var first, again token.Pos
			for _, r := range reads {
				if r <= cr.end {
					if first == token.NoPos {
						first = r
					}
				} else {
					again = r
					break
				}
			}
			if first != token.NoPos && again != token.NoPos {
				s.fn.fetches = append(s.fn.fetches, ipFetch{
					expr: expr, firstPos: first, crossPos: cr.pos, ocall: cr.name, pos: again,
				})
				break
			}
		}
	}
	sort.Slice(s.fn.fetches, func(i, j int) bool { return s.fn.fetches[i].pos < s.fn.fetches[j].pos })
}

// --- classification helpers -----------------------------------------------

// sdkBase reports whether a package is "the SDK" by path basename, so
// fixture trees checked under lintfixture/internal/sdk and the real
// sgxperf/internal/sdk classify identically.
func sdkBase(pkg *types.Package) bool {
	return pkg != nil && path.Base(pkg.Path()) == "sdk"
}

// recvNamed returns the callee's receiver as a named type, nil for
// functions and unresolved methods.
func recvNamed(fn *types.Func) *types.Named {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// envDispatch recognises env.Ocall / env.OcallByID calls and extracts
// the statically-known ocall name when there is one.
func envDispatch(call *ast.CallExpr, info *types.Info) (string, bool) {
	fn := resolveCallee(call, info)
	if fn == nil {
		return "", false
	}
	n := recvNamed(fn)
	if n == nil || n.Obj().Name() != "Env" || !sdkBase(n.Obj().Pkg()) {
		return "", false
	}
	switch fn.Name() {
	case "Ocall":
		return constStringArg(call, info), true
	case "OcallByID":
		return "", true
	}
	return "", false
}

// sleepMethods are the sdk.Mutex/sdk.Cond methods whose contended path
// crosses the boundary through the sleep/wake ocalls.
var sleepMethods = map[string]bool{
	"Lock": true, "Unlock": true, "Wait": true, "Signal": true, "Broadcast": true,
}

// sleepPrimitive recognises sdk.Mutex / sdk.Cond method calls.
func sleepPrimitive(call *ast.CallExpr, info *types.Info) (string, bool) {
	fn := resolveCallee(call, info)
	if fn == nil || !sleepMethods[fn.Name()] {
		return "", false
	}
	n := recvNamed(fn)
	if n == nil || !sdkBase(n.Obj().Pkg()) {
		return "", false
	}
	if name := n.Obj().Name(); name == "Mutex" || name == "Cond" {
		return "sdk." + name + "." + fn.Name(), true
	}
	return "", false
}

// proxyDispatch recognises indirect calls through an sdk.Proxy value —
// the untrusted side's ecall dispatch.
func proxyDispatch(call *ast.CallExpr, info *types.Info) bool {
	tv, ok := info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return false
	}
	n := namedOf(tv.Type)
	return n != nil && n.Obj().Name() == "Proxy" && sdkBase(n.Obj().Pkg())
}

// boundaryParams returns the boundary-buffer root set of a
// TrustedFn-shaped handler — two parameters, *sdk.Env then the empty
// interface — or nil for every other function.
func boundaryParams(fd *ast.FuncDecl, info *types.Info) map[types.Object]bool {
	if fd.Type.Params == nil {
		return nil
	}
	var objs []types.Object
	for _, field := range fd.Type.Params.List {
		if len(field.Names) == 0 {
			return nil // unnamed args cannot be read, so nothing to track
		}
		for _, name := range field.Names {
			obj := info.Defs[name]
			if obj == nil {
				return nil
			}
			objs = append(objs, obj)
		}
	}
	if len(objs) != 2 {
		return nil
	}
	ptr, ok := objs[0].Type().(*types.Pointer)
	if !ok {
		return nil
	}
	env := namedOf(ptr.Elem())
	if env == nil || env.Obj().Name() != "Env" || !sdkBase(env.Obj().Pkg()) {
		return nil
	}
	iface, ok := objs[1].Type().Underlying().(*types.Interface)
	if !ok || !iface.Empty() {
		return nil
	}
	return map[types.Object]bool{objs[1]: true}
}

// noteAsserted extends a handler's boundary-root set through a type
// assertion: `a, ok := args.(*T)` makes a a boundary-derived root. A nil
// set (no TrustedFn-shaped handler) stays nil.
func noteAsserted(roots map[types.Object]bool, st *ast.AssignStmt, info *types.Info) {
	if roots == nil || len(st.Rhs) != 1 || len(st.Lhs) == 0 {
		return
	}
	ta, ok := st.Rhs[0].(*ast.TypeAssertExpr)
	if !ok || ta.Type == nil {
		return
	}
	root, ok := ta.X.(*ast.Ident)
	if !ok || !roots[info.Uses[root]] {
		return
	}
	lhs, ok := st.Lhs[0].(*ast.Ident)
	if !ok {
		return
	}
	if obj := info.Defs[lhs]; obj != nil {
		roots[obj] = true
	} else if obj := info.Uses[lhs]; obj != nil {
		roots[obj] = true
	}
}

// forTrip derives the constant trip count of a counted for loop
// (`for i := c0; i < n; i += k` with constant bounds), 0 when unknown.
func forTrip(st *ast.ForStmt, info *types.Info) int {
	init, ok := st.Init.(*ast.AssignStmt)
	if !ok || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return 0
	}
	iv, ok := init.Lhs[0].(*ast.Ident)
	if !ok {
		return 0
	}
	c0, ok := intConst(info, init.Rhs[0])
	if !ok {
		return 0
	}
	cond, ok := st.Cond.(*ast.BinaryExpr)
	if !ok {
		return 0
	}
	if id, ok := cond.X.(*ast.Ident); !ok || id.Name != iv.Name {
		return 0
	}
	bound, ok := intConst(info, cond.Y)
	if !ok {
		return 0
	}
	step := 0
	switch post := st.Post.(type) {
	case *ast.IncDecStmt:
		if id, ok := post.X.(*ast.Ident); ok && id.Name == iv.Name && post.Tok == token.INC {
			step = 1
		}
	case *ast.AssignStmt:
		if post.Tok == token.ADD_ASSIGN && len(post.Lhs) == 1 && len(post.Rhs) == 1 {
			if id, ok := post.Lhs[0].(*ast.Ident); ok && id.Name == iv.Name {
				if k, ok := intConst(info, post.Rhs[0]); ok && k > 0 {
					step = k
				}
			}
		}
	}
	if step == 0 {
		return 0
	}
	switch cond.Op {
	case token.LSS:
	case token.LEQ:
		bound++
	default:
		return 0
	}
	iters := (bound - c0 + step - 1) / step
	if iters <= 0 || iters > tripCap {
		return 0
	}
	return iters
}

// rangeTrip derives the trip count of range-over-int and
// range-over-array loops, 0 otherwise.
func rangeTrip(st *ast.RangeStmt, info *types.Info) int {
	if n, ok := intConst(info, st.X); ok {
		if n > 0 && n <= tripCap {
			return n
		}
		return 0
	}
	tv, ok := info.Types[st.X]
	if !ok || tv.Type == nil {
		return 0
	}
	if arr, ok := derefType(tv.Type).Underlying().(*types.Array); ok {
		if n := int(arr.Len()); n > 0 && n <= tripCap {
			return n
		}
	}
	return 0
}

func intConst(info *types.Info, e ast.Expr) (int, bool) {
	if e == nil {
		return 0, false
	}
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	v, ok := constant.Int64Val(tv.Value)
	if !ok || v < 0 || v > tripCap {
		return 0, false
	}
	return int(v), true
}

// An entry is one ecall registration: the ecall name and the FullName
// of the handler registered for it.
type entry struct {
	ecall, handler string
}

// sortedEntries orders registrations by ecall name, then handler, and
// drops repeats. Packages built apart can register one ecall name each
// with a handler of its own, so an ecall can have several entries and
// every handler is checked.
func sortedEntries(es []entry) []entry {
	slices.SortFunc(es, func(a, b entry) int {
		if c := strings.Compare(a.ecall, b.ecall); c != 0 {
			return c
		}
		return strings.Compare(a.handler, b.handler)
	})
	return slices.Compact(es)
}

// collectEntries appends to out the ecall registrations of
// map[string]sdk.TrustedFn composite literals with constant keys and
// statically-resolvable function values.
func collectEntries(pkg *Package, out []entry) []entry {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			tv, ok := pkg.Info.Types[lit]
			if !ok || tv.Type == nil {
				return true
			}
			m, ok := tv.Type.Underlying().(*types.Map)
			if !ok {
				return true
			}
			elem := namedOf(m.Elem())
			if elem == nil || elem.Obj().Name() != "TrustedFn" || !sdkBase(elem.Obj().Pkg()) {
				return true
			}
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				ktv, ok := pkg.Info.Types[kv.Key]
				if !ok || ktv.Value == nil || ktv.Value.Kind() != constant.String {
					continue
				}
				var fn *types.Func
				switch v := kv.Value.(type) {
				case *ast.SelectorExpr:
					if sel := pkg.Info.Selections[v]; sel != nil {
						fn, _ = sel.Obj().(*types.Func)
					} else {
						fn, _ = pkg.Info.Uses[v.Sel].(*types.Func)
					}
				case *ast.Ident:
					fn, _ = pkg.Info.Uses[v].(*types.Func)
				}
				if fn != nil {
					out = append(out, entry{ecall: constant.StringVal(ktv.Value), handler: fn.FullName()})
				}
			}
			return true
		})
	}
	return out
}

// --- the exported interprocedural analysis (reused by staticlint) ---------

// A LoopCrossing is one boundary crossing reached inside a loop: either
// a direct dispatch at loop depth ≥ 1, or a looped call into a function
// that transitively dispatches.
type LoopCrossing struct {
	Pos  token.Position
	Func string
	// Ocall is the statically-known ocall name ("" when unknown).
	Ocall string
	// Via is the display name of the transitively-dispatching callee
	// for indirect sites, "" for direct dispatches.
	Via string
	// Depth is the static loop-nest depth of the site; Trip is the
	// product of the known constant trip counts of the enclosing loops
	// (0 when any of them is unknown).
	Depth int
	Trip  int
	// Conditional marks sites guarded by a branch.
	Conditional bool
}

// A DoubleFetch is one boundary-buffer expression read on both sides of
// an ocall crossing — the §3.6 TOCTOU shape.
type DoubleFetch struct {
	// Pos is the re-read after the crossing; FirstPos the initial
	// fetch; CrossPos the ocall dispatch between them.
	Pos      token.Position
	FirstPos token.Position
	CrossPos token.Position
	Func     string
	Expr     string
	Ocall    string
}

// A PtrEscape is one enclave pointer passed as an ocall argument.
type PtrEscape struct {
	Pos   token.Position
	Func  string
	Expr  string
	Ocall string
}

// An EntryPrediction is the static transition estimate for one ecall
// entry point: expected ocall dispatches per invocation.
type EntryPrediction struct {
	// Ecall is the wire name the TrustedFn map registers; Handler the
	// Go function implementing it.
	Ecall   string
	Handler string
	// Predicted is the expected number of ocall dispatches one
	// invocation executes, from the call-graph summaries (known loop
	// trips multiplied through; unknown trips count once).
	Predicted int
	// LoopUnknown marks predictions involving a loop (or recursion)
	// whose trip count is not statically known — Predicted is then a
	// lower bound.
	LoopUnknown bool
	// Conditional marks predictions counting branch-guarded dispatches
	// — Predicted is then an upper bound for those sites.
	Conditional bool
}

// An InterReport aggregates the interprocedural engine's raw findings
// for callers outside the lint driver (staticlint), suppression-blind
// like AnalyzeSyncTree.
type InterReport struct {
	Loops   []LoopCrossing
	Fetches []DoubleFetch
	Escapes []PtrEscape
	Entries []EntryPrediction
}

// AnalyzeInterprocTree reads the tree's one call graph, built over the
// whole tree so cross-package callees resolve. Loop crossings, double
// fetches and pointer escapes are reported only for functions in
// packages whose root-relative directory starts with one of the given
// prefixes (all packages when none are given), and entry predictions
// only for TrustedFn maps found there.
func AnalyzeInterprocTree(tree *Tree, dirs []string) *InterReport {
	fset := tree.Fset
	ip := tree.callGraph()

	report := &InterReport{}
	for _, fn := range ip.order {
		if !inDirs(dirs, fn.pkg.Dir) {
			continue
		}
		for _, lc := range ip.loopCrossings(fn) {
			report.Loops = append(report.Loops, LoopCrossing{
				Pos: fset.Position(lc.pos), Func: fn.name, Ocall: lc.ocall,
				Via: lc.via, Depth: lc.depth, Trip: lc.trip, Conditional: lc.cond,
			})
		}
		for _, f := range fn.fetches {
			report.Fetches = append(report.Fetches, DoubleFetch{
				Pos: fset.Position(f.pos), FirstPos: fset.Position(f.firstPos),
				CrossPos: fset.Position(f.crossPos), Func: fn.name, Expr: f.expr, Ocall: f.ocall,
			})
		}
		for _, e := range fn.escapes {
			report.Escapes = append(report.Escapes, PtrEscape{
				Pos: fset.Position(e.pos), Func: fn.name, Expr: e.expr, Ocall: e.ocall,
			})
		}
	}

	// Entry predictions, one per registration in scope.
	var scopedEntries []entry
	for _, pkg := range tree.scoped(dirs) {
		scopedEntries = collectEntries(pkg, scopedEntries)
	}
	memo := make(map[string]predInfo)
	for _, e := range sortedEntries(scopedEntries) {
		fn := ip.funcs[e.handler]
		if fn == nil {
			continue
		}
		p := ip.pred(e.handler, memo, make(map[string]bool))
		report.Entries = append(report.Entries, EntryPrediction{
			Ecall: e.ecall, Handler: fn.name, Predicted: p.n,
			LoopUnknown: p.loopUnknown, Conditional: p.cond,
		})
	}
	return report
}

// An ipLoop is the raw (token.Pos-keyed) form of a LoopCrossing, kept
// separate so the analyzer can feed Reportf's suppression matching.
type ipLoop struct {
	pos   token.Pos
	ocall string
	via   string
	depth int
	trip  int
	cond  bool
}

// loopCrossings lifts one function's summary into loop-crossing facts:
// direct ocall dispatches at depth ≥ 1, plus looped calls into
// transitively-dispatching callees.
func (ip *interproc) loopCrossings(fn *ipFunc) []ipLoop {
	var out []ipLoop
	for _, c := range fn.crossings {
		if c.kind != CrossOcall || c.depth == 0 {
			continue
		}
		out = append(out, ipLoop{
			pos: c.pos, ocall: c.name,
			depth: c.depth, trip: c.trip, cond: c.cond,
		})
	}
	for _, call := range fn.calls {
		if c := ip.funcs[call.callee]; call.depth == 0 || c == nil || !c.crosses {
			continue
		}
		out = append(out, ipLoop{
			pos: call.pos, via: shortName(call.callee),
			depth: call.depth, trip: call.trip, cond: call.cond,
		})
	}
	return out
}
