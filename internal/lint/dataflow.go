// Typed intraprocedural dataflow engine: the shared machinery under the
// lockorder, heldacross and staticlint boundary-sync analyses.
//
// The engine models three things:
//
//   - lock identity — every acquisition site is resolved through go/types
//     to the declaring (package, struct, field) triple, so w.p.mapMu on
//     two different instances is one lock, and the same field reached
//     from two packages is still one lock;
//   - the held-set lattice — a walk over each function body tracks the
//     ordered set of locks held on every control-flow path, joining
//     branches by intersection (must-hold), so a lock released on one arm
//     of an if does not leak a false "held" fact past the join, and paths
//     that return or panic drop out of the join entirely;
//   - blocking-call summaries — a whole-repo fixpoint marks every
//     function that directly or transitively reaches a blocking boundary
//     (channel send/receive, select without default, worker-pool
//     fan-out, ocall dispatch, SDK sync primitives), so "calls a helper
//     that eventually ocalls" is caught without interprocedural held
//     sets.
//
// Known approximations, chosen for zero false-positive pressure over
// completeness: loop bodies are walked once (a lock leaked across a
// back-edge is not tracked into the second iteration); function literals
// that are not invoked where they are written are analysed as separate
// roots with an empty held set (a closure run by pool.Do is charged to
// the pool.Do boundary at the call site instead); and locks whose
// identity cannot be resolved to a declaration (locals, aliases through
// calls) participate in held tracking but never in the repo-wide order
// graph.
package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path"
	"strings"

	"sgxperf/internal/pool"
)

// LockClass distinguishes the lock APIs the engine understands.
type LockClass int

const (
	// LockSync is sync.Mutex / sync.RWMutex.
	LockSync LockClass = iota
	// LockSDK is the simulated in-enclave sdk.Mutex, whose contended
	// path sleeps through an ocall (§2.3.2).
	LockSDK
)

func (c LockClass) String() string {
	if c == LockSDK {
		return "sdk.Mutex"
	}
	return "sync mutex"
}

// Import paths of the repository packages the engine knows by name.
const (
	sdkPkgPath  = "sgxperf/internal/sdk"
	poolPkgPath = "sgxperf/internal/pool"
)

// A LockID names one lock by declaration, not by instance: the declaring
// package, the owning struct type ("" for package-level vars) and the
// field or variable name. Locals and unresolvable lock expressions are
// marked local and excluded from the cross-package order graph.
type LockID struct {
	Pkg   string
	Owner string
	Field string
	Class LockClass
	local bool
}

func (id LockID) String() string {
	base := id.Field
	if id.Owner != "" && !id.local {
		base = id.Owner + "." + base
	}
	if id.Pkg != "" && !id.local {
		base = path.Base(id.Pkg) + "." + base
	}
	return base
}

// heldLock is one entry of the held set: the lock plus where it was
// acquired on this path.
type heldLock struct {
	id  LockID
	pos token.Pos
}

// lockOp is one resolved acquisition or release.
type lockOp struct {
	id      LockID
	acquire bool
	read    bool // RLock/RUnlock
}

// boundaryHit is one blocking boundary reached during the walk.
type boundaryHit struct {
	pos  token.Pos
	desc string
	// ocall is the statically-known ocall name when the boundary is an
	// ocall dispatch with a constant name argument.
	ocall string
	// condWait marks a condition-variable Wait, which by contract holds
	// (and internally releases) exactly one lock: consumers skip the
	// finding when a single lock is held, and flag only extra locks.
	condWait bool
}

// dfFunc names one analysis root: a declared function or a function
// literal.
type dfFunc struct {
	pkg  *Package
	name string
}

// funcSummary records whether calling a function may block, and why.
// Its node's deps list the resolved callees in source order, for the
// fixpoint.
type funcSummary struct {
	fixNode
	display string
	blocks  bool
	reason  string
	// round is the converge round that found blocks, -1 when the body
	// blocks directly.
	round int
}

// blockingSeeds are the known blocking functions, by go/types FullName.
var blockingSeeds = map[string]string{
	"(*sync.WaitGroup).Wait":               "sync.WaitGroup.Wait",
	"(*sync.Cond).Wait":                    "sync.Cond.Wait",
	poolPkgPath + ".Do":                    "worker-pool fan-out (pool.Do)",
	poolPkgPath + ".ForEach":               "worker-pool fan-out (pool.ForEach)",
	"(*" + sdkPkgPath + ".Env).Ocall":      "ocall dispatch",
	"(*" + sdkPkgPath + ".Env).OcallByID":  "ocall dispatch",
	"(*" + sdkPkgPath + ".Mutex).Lock":     "sdk.Mutex.Lock, which sleeps via ocall when contended",
	"(*" + sdkPkgPath + ".Mutex).Unlock":   "sdk.Mutex.Unlock, which wakes a sleeper via ocall",
	"(*" + sdkPkgPath + ".Cond).Wait":      "sdk.Cond.Wait (sleep ocall)",
	"(*" + sdkPkgPath + ".Cond).Signal":    "sdk.Cond.Signal (wake ocall)",
	"(*" + sdkPkgPath + ".Cond).Broadcast": "sdk.Cond.Broadcast (wake ocall)",
	"time.Sleep":                           "time.Sleep",
}

// ocallDispatchers are the seeds whose first argument names the ocall.
var ocallDispatchers = map[string]bool{
	"(*" + sdkPkgPath + ".Env).Ocall": true,
}

// condWaitSeeds are the boundaries with the condition-variable contract:
// called with exactly one lock held, released internally while parked.
var condWaitSeeds = map[string]bool{
	"(*sync.Cond).Wait":               true,
	"(*" + sdkPkgPath + ".Cond).Wait": true,
}

// engine is a tree's one held-set walk: the blocking summaries the walk
// consults, and what it records, in walk order, for lockorder,
// heldacross and AnalyzeSyncTree to read. It joins its packages'
// heldRows.
type engine struct {
	summaries map[string]*funcSummary
	// acquires are the acquisitions made while another lock was held;
	// held is the set before the acquisition.
	acquires []acquireSite
	// holds are the blocking boundaries reached with a lock held, less a
	// condition-variable Wait holding only its own lock (by contract it
	// releases that lock while parked).
	holds []holdSite
}

// heldRows are one checked package's rows of the held-set walk: its
// functions' blocking summaries, one per function-table row, and the
// sites the walk of their bodies records, in walk order.
type heldRows struct {
	sums     []*funcSummary
	acquires []acquireSite
	holds    []holdSite
}

// An acquireSite is one recorded acquisition.
type acquireSite struct {
	fn   *dfFunc
	held []heldLock
	op   lockOp
	pos  token.Pos
}

// A holdSite is one recorded boundary reached with locks held.
type holdSite struct {
	fn   *dfFunc
	held []heldLock
	b    boundaryHit
}

// walkHeld builds the held-set walk of the checked packages: it adopts
// the rows of every package that has them, builds the blocking
// summaries of the others over their function tables, then walks every
// analysis root of those once, recording acquisitions and held
// boundaries. The roots are every declared function, each followed by
// the function literals inside it (literals start with an empty held
// set; a literal invoked where it is written is additionally walked
// inline by the caller's walk). The scans and the walks run on the pool,
// one package per task; the summary fixpoint and the joins run in source
// order.
func walkHeld(pkgs []*Package) *engine {
	e := &engine{summaries: make(map[string]*funcSummary, funcRows(pkgs))}
	rows, fresh := rowsOf(pkgs, func(c *checkedPkg) **heldRows { return &c.held }, func(pkg *Package) *heldRows {
		r := &heldRows{sums: make([]*funcSummary, len(pkg.checked.funcs))}
		for i, fn := range pkg.checked.funcs {
			r.sums[i] = &funcSummary{fixNode: fixNode{declFunc: fn}, display: shortName(fn.full), round: -1}
			scanDirectBlocking(fn.pkg, fn.decl.Body, r.sums[i])
		}
		return r
	})
	var live []*funcSummary
	for _, r := range rows {
		for _, sum := range r.sums {
			e.summaries[sum.full] = sum
		}
	}
	for _, i := range fresh {
		live = append(live, rows[i].sums...)
	}
	// Propagate "may block" through the resolved call graph.
	converge(live, e.summaries, func(sum *funcSummary, r int) bool {
		if sum.blocks {
			return false
		}
		for _, callee := range sum.deps {
			if cs := e.summaries[callee]; cs != nil && cs.blocks && sees(sum.declFunc, cs.declFunc, cs.round, r) {
				sum.blocks, sum.reason, sum.round = true, "calls "+cs.display, r
				return true
			}
		}
		return false
	})
	// The walks read the final summaries and write their own rows.
	pool.ForEach(len(fresh), func(j int) {
		r := rows[fresh[j]]
		walk := func(fn *declFunc, name string, body *ast.BlockStmt) {
			w := &walker{e: e, rows: r, pkg: fn.pkg, fn: &dfFunc{pkg: fn.pkg, name: name}}
			w.block(body.List, nil)
		}
		for _, sum := range r.sums {
			fn := sum.declFunc
			walk(fn, fn.name, fn.decl.Body)
			ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					walk(fn, fn.name+" (func literal)", lit.Body)
				}
				return true
			})
		}
	})
	for _, i := range fresh {
		storeRows(&pkgs[i].checked.held, rows[i])
	}
	for _, r := range rows {
		e.acquires = append(e.acquires, r.acquires...)
		e.holds = append(e.holds, r.holds...)
	}
	return e
}

// shortName compresses a go/types FullName for messages.
func shortName(full string) string {
	full = strings.ReplaceAll(full, "sgxperf/internal/", "")
	return strings.ReplaceAll(full, "sgxperf/", "")
}

// --- the held-set walker --------------------------------------------------

type walker struct {
	e *engine
	// rows receive the sites the walk records.
	rows *heldRows
	pkg  *Package
	fn   *dfFunc
	// muteChan suppresses channel-op boundaries while walking the comm
	// clauses of a select (the select itself is the boundary).
	muteChan bool
}

// boundary records a blocking boundary reached with locks held.
func (w *walker) boundary(held []heldLock, b boundaryHit) {
	if len(held) == 0 || (b.condWait && len(held) == 1) {
		return
	}
	w.rows.holds = append(w.rows.holds, holdSite{fn: w.fn, held: held, b: b})
}

func (w *walker) chanBoundary(held []heldLock, pos token.Pos, desc string) {
	if !w.muteChan {
		w.boundary(held, boundaryHit{pos: pos, desc: desc})
	}
}

func (w *walker) acquire(held []heldLock, op lockOp, pos token.Pos) []heldLock {
	for _, h := range held {
		if h.id == op.id {
			return held // recursive RLock etc.: no new fact
		}
	}
	if len(held) > 0 {
		w.rows.acquires = append(w.rows.acquires, acquireSite{fn: w.fn, held: held, op: op, pos: pos})
	}
	return append(held[:len(held):len(held)], heldLock{id: op.id, pos: pos})
}

func release(held []heldLock, id LockID) []heldLock {
	out := make([]heldLock, 0, len(held))
	for _, h := range held {
		if h.id != id {
			out = append(out, h)
		}
	}
	return out
}

// joinHeld intersects two non-terminated branch states, preserving a's
// acquisition order (must-hold join).
func joinHeld(a, b []heldLock) []heldLock {
	out := make([]heldLock, 0, len(a))
	for _, h := range a {
		for _, g := range b {
			if g.id == h.id {
				out = append(out, h)
				break
			}
		}
	}
	return out
}

// block walks a statement list; the bool result is true when every path
// through the list terminates (return, panic, branch).
func (w *walker) block(list []ast.Stmt, held []heldLock) ([]heldLock, bool) {
	for _, s := range list {
		var term bool
		held, term = w.stmt(s, held)
		if term {
			return held, true
		}
	}
	return held, false
}

func (w *walker) stmt(s ast.Stmt, held []heldLock) ([]heldLock, bool) {
	switch s := s.(type) {
	case nil:
		return held, false
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && isPanic(call, w.pkg.Info) {
			for _, a := range call.Args {
				held = w.expr(a, held)
			}
			return held, true
		}
		return w.expr(s.X, held), false
	case *ast.SendStmt:
		held = w.expr(s.Chan, held)
		held = w.expr(s.Value, held)
		w.chanBoundary(held, s.Arrow, "channel send")
		return held, false
	case *ast.AssignStmt:
		for _, r := range s.Rhs {
			held = w.expr(r, held)
		}
		for _, l := range s.Lhs {
			held = w.expr(l, held)
		}
		return held, false
	case *ast.IncDecStmt:
		return w.expr(s.X, held), false
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						held = w.expr(v, held)
					}
				}
			}
		}
		return held, false
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			held = w.expr(r, held)
		}
		return held, true
	case *ast.BranchStmt:
		// break/continue/goto end this path as far as the enclosing
		// block's join is concerned; the loop-level approximation is
		// documented in the package comment.
		return held, true
	case *ast.BlockStmt:
		return w.block(s.List, held)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, held)
	case *ast.IfStmt:
		held, _ = w.stmt(s.Init, held)
		held = w.expr(s.Cond, held)
		thenOut, thenTerm := w.block(s.Body.List, held)
		elseOut, elseTerm := held, false
		if s.Else != nil {
			elseOut, elseTerm = w.stmt(s.Else, held)
		}
		switch {
		case thenTerm && elseTerm:
			return held, true
		case thenTerm:
			return elseOut, false
		case elseTerm:
			return thenOut, false
		default:
			return joinHeld(thenOut, elseOut), false
		}
	case *ast.ForStmt:
		held, _ = w.stmt(s.Init, held)
		held = w.expr(s.Cond, held)
		bodyOut, bodyTerm := w.block(s.Body.List, held)
		if !bodyTerm {
			bodyOut, _ = w.stmt(s.Post, bodyOut)
			// Zero iterations (or the condition failing) keeps the entry
			// state; otherwise the body's exit state flows out.
			if s.Cond == nil {
				// for{}: only break leaves; approximate with entry state.
				return held, false
			}
			return joinHeld(held, bodyOut), false
		}
		return held, false
	case *ast.RangeStmt:
		held = w.expr(s.X, held)
		if tv, ok := w.pkg.Info.Types[s.X]; ok && tv.Type != nil {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				w.chanBoundary(held, s.Pos(), "channel receive (range)")
			}
		}
		bodyOut, bodyTerm := w.block(s.Body.List, held)
		if bodyTerm {
			return held, false
		}
		return joinHeld(held, bodyOut), false
	case *ast.SwitchStmt:
		held, _ = w.stmt(s.Init, held)
		held = w.expr(s.Tag, held)
		return w.caseClauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		held, _ = w.stmt(s.Init, held)
		held, _ = w.stmt(s.Assign, held)
		return w.caseClauses(s.Body, held)
	case *ast.SelectStmt:
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			w.boundary(held, boundaryHit{pos: s.Pos(), desc: "select"})
		}
		prevMute := w.muteChan
		w.muteChan = true
		var outs [][]heldLock
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			armHeld, armTerm := w.stmt(cc.Comm, held)
			w.muteChan = prevMute
			if !armTerm {
				armHeld, armTerm = w.block(cc.Body, armHeld)
			}
			w.muteChan = true
			if !armTerm {
				outs = append(outs, armHeld)
			}
		}
		w.muteChan = prevMute
		return joinAll(held, outs, true)
	case *ast.DeferStmt:
		// Arguments and the receiver are evaluated now; the call body
		// runs at return time, when held-across facts no longer apply.
		if sel, ok := s.Call.Fun.(*ast.SelectorExpr); ok {
			held = w.expr(sel.X, held)
		}
		for _, a := range s.Call.Args {
			held = w.expr(a, held)
		}
		return held, false
	case *ast.GoStmt:
		// The spawned body runs concurrently with an empty held set (it
		// is analysed as a separate root); only the argument expressions
		// evaluate here.
		if sel, ok := s.Call.Fun.(*ast.SelectorExpr); ok {
			held = w.expr(sel.X, held)
		}
		for _, a := range s.Call.Args {
			held = w.expr(a, held)
		}
		return held, false
	case *ast.EmptyStmt:
		return held, false
	default:
		return held, false
	}
}

// caseClauses joins the arms of a switch; a missing default keeps the
// entry state as one possible outcome.
func (w *walker) caseClauses(body *ast.BlockStmt, held []heldLock) ([]heldLock, bool) {
	hasDefault := false
	var outs [][]heldLock
	allTerm := true
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		armHeld := held
		for _, e := range cc.List {
			armHeld = w.expr(e, armHeld)
		}
		armOut, armTerm := w.block(cc.Body, armHeld)
		if !armTerm {
			allTerm = false
			outs = append(outs, armOut)
		}
	}
	if !hasDefault {
		return joinAll(held, outs, true)
	}
	if allTerm {
		return held, true
	}
	return joinAll(held, outs, false)
}

// joinAll intersects the surviving branch states; withEntry adds the
// fall-through (no branch taken) state.
func joinAll(entry []heldLock, outs [][]heldLock, withEntry bool) ([]heldLock, bool) {
	if withEntry {
		outs = append(outs, entry)
	}
	if len(outs) == 0 {
		return entry, true
	}
	state := outs[0]
	for _, o := range outs[1:] {
		state = joinHeld(state, o)
	}
	return state, false
}

func (w *walker) expr(e ast.Expr, held []heldLock) []heldLock {
	switch e := e.(type) {
	case nil:
		return held
	case *ast.CallExpr:
		return w.call(e, held)
	case *ast.UnaryExpr:
		held = w.expr(e.X, held)
		if e.Op == token.ARROW {
			w.chanBoundary(held, e.Pos(), "channel receive")
		}
		return held
	case *ast.BinaryExpr:
		held = w.expr(e.X, held)
		return w.expr(e.Y, held)
	case *ast.ParenExpr:
		return w.expr(e.X, held)
	case *ast.SelectorExpr:
		return w.expr(e.X, held)
	case *ast.IndexExpr:
		held = w.expr(e.X, held)
		return w.expr(e.Index, held)
	case *ast.IndexListExpr:
		held = w.expr(e.X, held)
		for _, i := range e.Indices {
			held = w.expr(i, held)
		}
		return held
	case *ast.SliceExpr:
		held = w.expr(e.X, held)
		held = w.expr(e.Low, held)
		held = w.expr(e.High, held)
		return w.expr(e.Max, held)
	case *ast.StarExpr:
		return w.expr(e.X, held)
	case *ast.TypeAssertExpr:
		return w.expr(e.X, held)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			held = w.expr(el, held)
		}
		return held
	case *ast.KeyValueExpr:
		return w.expr(e.Value, held)
	case *ast.FuncLit:
		// Analysed as a separate root with an empty held set.
		return held
	default:
		return held
	}
}

func (w *walker) call(call *ast.CallExpr, held []heldLock) []heldLock {
	// Receiver and arguments evaluate before the call itself.
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		held = w.expr(fun.X, held)
	case *ast.ParenExpr, *ast.ArrayType, *ast.MapType, *ast.ChanType:
		// conversions; nothing to walk beyond args
	}
	for _, a := range call.Args {
		held = w.expr(a, held)
	}

	if op, ok := w.resolveLockOp(call); ok {
		if op.acquire {
			if op.id.Class == LockSDK {
				w.boundary(held, boundaryHit{pos: call.Pos(), desc: blockingSeeds["(*"+sdkPkgPath+".Mutex).Lock"]})
			}
			return w.acquire(held, op, call.Pos())
		}
		held = release(held, op.id)
		if op.id.Class == LockSDK {
			w.boundary(held, boundaryHit{pos: call.Pos(), desc: blockingSeeds["(*"+sdkPkgPath+".Mutex).Unlock"]})
		}
		return held
	}

	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		// Immediately-invoked literal: flows inline with the current held
		// set (the separate empty-held root adds nothing new).
		out, term := w.block(lit.Body.List, held)
		if term {
			return held
		}
		return out
	}

	if b, ok := w.callBoundary(call); ok {
		b.pos = call.Pos()
		w.boundary(held, b)
	}
	return held
}

// --- resolution helpers ---------------------------------------------------

func derefType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	n, _ := derefType(t).(*types.Named)
	return n
}

// lockClassOf classifies a mutex-like named type.
func lockClassOf(n *types.Named) (LockClass, bool) {
	if n == nil || n.Obj().Pkg() == nil {
		return 0, false
	}
	switch {
	case n.Obj().Pkg().Path() == "sync" && (n.Obj().Name() == "Mutex" || n.Obj().Name() == "RWMutex"):
		return LockSync, true
	case n.Obj().Pkg().Path() == sdkPkgPath && n.Obj().Name() == "Mutex":
		return LockSDK, true
	}
	return 0, false
}

// resolveLockOp recognises Lock/RLock/Unlock/RUnlock calls on sync.Mutex,
// sync.RWMutex and sdk.Mutex values (TryLock variants never block and
// never pin an order, so they are ignored).
func (w *walker) resolveLockOp(call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	info := w.pkg.Info
	selection := info.Selections[sel]
	if selection == nil || selection.Kind() != types.MethodVal {
		return lockOp{}, false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok {
		return lockOp{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return lockOp{}, false
	}
	class, ok := lockClassOf(namedOf(sig.Recv().Type()))
	if !ok {
		return lockOp{}, false
	}
	var acquire, read bool
	switch fn.Name() {
	case "Lock":
		acquire = true
	case "RLock":
		acquire, read = true, true
	case "Unlock":
	case "RUnlock":
		read = true
	default:
		return lockOp{}, false
	}

	var id LockID
	if idx := selection.Index(); len(idx) > 1 {
		// Promoted method: the mutex is an embedded field of sel.X's type.
		id, ok = w.embeddedLockID(sel.X, idx[:len(idx)-1])
		if !ok {
			id = w.fallbackLockID(sel.X)
		}
	} else {
		id = w.lockExprID(sel.X)
	}
	id.Class = class
	return lockOp{id: id, acquire: acquire, read: read}, true
}

// embeddedLockID resolves the embedded-field chain of a promoted
// Lock/Unlock call to the lock's declaration.
func (w *walker) embeddedLockID(x ast.Expr, index []int) (LockID, bool) {
	tv, ok := w.pkg.Info.Types[x]
	if !ok || tv.Type == nil {
		return LockID{}, false
	}
	owner := namedOf(tv.Type)
	if owner == nil {
		return LockID{}, false
	}
	t := tv.Type
	var names []string
	var fieldPkg *types.Package
	for _, i := range index {
		st, ok := derefType(t).Underlying().(*types.Struct)
		if !ok || i >= st.NumFields() {
			return LockID{}, false
		}
		f := st.Field(i)
		names = append(names, f.Name())
		fieldPkg = f.Pkg()
		t = f.Type()
	}
	if fieldPkg == nil {
		return LockID{}, false
	}
	return LockID{Pkg: fieldPkg.Path(), Owner: owner.Obj().Name(), Field: strings.Join(names, ".")}, true
}

// lockExprID resolves the expression denoting a lock to its declaration.
func (w *walker) lockExprID(x ast.Expr) LockID {
	info := w.pkg.Info
	switch x := x.(type) {
	case *ast.ParenExpr:
		return w.lockExprID(x.X)
	case *ast.StarExpr:
		return w.lockExprID(x.X)
	case *ast.SelectorExpr:
		if sel := info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
			f, ok := sel.Obj().(*types.Var)
			if ok && f.Pkg() != nil {
				owner := ""
				if tv, ok := info.Types[x.X]; ok {
					if n := namedOf(tv.Type); n != nil {
						owner = n.Obj().Name()
					}
				}
				return LockID{Pkg: f.Pkg().Path(), Owner: owner, Field: f.Name()}
			}
		}
		// Package-qualified variable (pkg.Mu).
		if v, ok := info.Uses[x.Sel].(*types.Var); ok && v.Pkg() != nil {
			return LockID{Pkg: v.Pkg().Path(), Field: v.Name()}
		}
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok && v.Pkg() != nil {
			if v.Parent() == v.Pkg().Scope() {
				return LockID{Pkg: v.Pkg().Path(), Field: v.Name()}
			}
			return LockID{Pkg: v.Pkg().Path(), Owner: "local in " + w.fn.name, Field: v.Name(), local: true}
		}
	}
	return w.fallbackLockID(x)
}

func (w *walker) fallbackLockID(x ast.Expr) LockID {
	return LockID{Owner: "local in " + w.fn.name, Field: types.ExprString(x), local: true}
}

// resolveCallee returns the statically-known callee of a call, nil for
// indirect calls, conversions and unresolved names. A generic callee
// resolves to its declaration, whatever its type arguments: an explicit
// instantiation (Send[int](c, v)) is unwrapped, and a method of an
// instantiated type ((*Queue[int]).Push) is its origin ((*Queue[T]).Push),
// the FullName its summary is keyed by.
func resolveCallee(call *ast.CallExpr, info *types.Info) *types.Func {
	fun := call.Fun
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	var f *types.Func
	switch fun := fun.(type) {
	case *ast.Ident:
		f, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			f, _ = sel.Obj().(*types.Func)
		} else {
			f, _ = info.Uses[fun.Sel].(*types.Func)
		}
	}
	if f == nil {
		return nil
	}
	return f.Origin()
}

// callBoundary classifies a call as a blocking boundary: a known seed or
// a repo function whose summary says it transitively blocks.
func (w *walker) callBoundary(call *ast.CallExpr) (boundaryHit, bool) {
	fn := resolveCallee(call, w.pkg.Info)
	if fn == nil {
		return boundaryHit{}, false
	}
	full := fn.FullName()
	if desc, ok := blockingSeeds[full]; ok {
		b := boundaryHit{desc: desc, condWait: condWaitSeeds[full]}
		if ocallDispatchers[full] {
			b.ocall = constStringArg(call, w.pkg.Info)
		}
		return b, true
	}
	if s := w.e.summaries[full]; s != nil && s.blocks {
		return boundaryHit{desc: fmt.Sprintf("call into %s, which may block (%s)", s.display, s.reason)}, true
	}
	return boundaryHit{}, false
}

// constStringArg extracts the first argument when it is a compile-time
// string constant (a literal or a named constant like sdk.OcallThreadWait).
func constStringArg(call *ast.CallExpr, info *types.Info) string {
	if len(call.Args) == 0 {
		return ""
	}
	if tv, ok := info.Types[call.Args[0]]; ok && tv.Value != nil && tv.Value.Kind() == constant.String {
		return constant.StringVal(tv.Value)
	}
	return ""
}

func isPanic(call *ast.CallExpr, info *types.Info) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin || info.Uses[id] == nil
}

// --- blocking summaries ---------------------------------------------------

// scanDirectBlocking fills a summary's direct boundary facts and callee
// list, skipping goroutine bodies (their blocking belongs to them).
func scanDirectBlocking(pkg *Package, body *ast.BlockStmt, sum *funcSummary) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			// Spawning never blocks; arguments still evaluate here.
			for _, a := range n.Call.Args {
				ast.Inspect(a, func(m ast.Node) bool {
					if c, ok := m.(*ast.CallExpr); ok {
						noteCall(pkg, c, sum)
					}
					return true
				})
			}
			return false
		case *ast.SendStmt:
			noteBlock(sum, "sends on a channel")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				noteBlock(sum, "receives from a channel")
			}
		case *ast.RangeStmt:
			if tv, ok := pkg.Info.Types[n.X]; ok && tv.Type != nil {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					noteBlock(sum, "ranges over a channel")
				}
			}
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				noteBlock(sum, "selects without a default")
			}
		case *ast.CallExpr:
			noteCall(pkg, n, sum)
		}
		return true
	})
}

func noteBlock(sum *funcSummary, reason string) {
	if !sum.blocks {
		sum.blocks = true
		sum.reason = reason
	}
}

func noteCall(pkg *Package, call *ast.CallExpr, sum *funcSummary) {
	fn := resolveCallee(call, pkg.Info)
	if fn == nil {
		return
	}
	full := fn.FullName()
	if desc, ok := blockingSeeds[full]; ok {
		noteBlock(sum, "calls "+desc)
		return
	}
	sum.deps = append(sum.deps, full)
}

// --- the exported sync analysis (reused by staticlint) --------------------

// A HeldSite is one lock held across a blocking boundary.
type HeldSite struct {
	Lock     LockID
	Class    LockClass
	LockPos  token.Position
	Pos      token.Position
	Func     string
	Boundary string
	// Ocall is the boundary's statically-known ocall name, "" otherwise.
	Ocall string
}

// A Cycle is one strongly-connected component of the lock-acquisition
// order graph: a potential deadlock.
type Cycle struct {
	// Locks are the cycle's members, sorted by name.
	Locks []LockID
	// Edges describe the conflicting acquisitions, one line each.
	Edges []string
	// Pos is the earliest edge site, for positioning reports.
	Pos token.Position

	// reportPos is Pos as a token.Pos, for the lint driver's Reportf.
	reportPos token.Pos
}

// A SyncReport aggregates the dataflow engine's raw findings for callers
// outside the lint driver (the staticlint boundary-sync detector).
type SyncReport struct {
	Held   []HeldSite
	Cycles []Cycle
}

// AnalyzeSyncTree reads the tree's one held-set walk and reports the
// held-across sites and lock-order cycles of the packages whose
// root-relative directory starts with one of the given prefixes (all
// packages when none are given). Suppression annotations are ignored:
// this is the raw analysis for callers that price findings rather than
// gate commits on them.
func AnalyzeSyncTree(tree *Tree, dirs []string) *SyncReport {
	fset := tree.Fset
	e := tree.heldWalk()
	report := &SyncReport{}
	for _, h := range e.holds {
		if !inDirs(dirs, h.fn.pkg.Dir) {
			continue
		}
		for _, l := range h.held {
			report.Held = append(report.Held, HeldSite{
				Lock:     l.id,
				Class:    l.id.Class,
				LockPos:  fset.Position(l.pos),
				Pos:      fset.Position(h.b.pos),
				Func:     h.fn.name,
				Boundary: h.b.desc,
				Ocall:    h.b.ocall,
			})
		}
	}
	edges := newEdgeSet(nil)
	for _, a := range e.acquires {
		if inDirs(dirs, a.fn.pkg.Dir) {
			edges.add(fset, a)
		}
	}
	report.Cycles = edges.cycles(fset)
	return report
}
