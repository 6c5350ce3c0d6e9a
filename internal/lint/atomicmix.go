package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// AtomicMix flags struct fields and package-level variables that are
// accessed both through sync/atomic (by address: atomic.AddInt64(&s.n, 1))
// and by plain loads or stores elsewhere in the package. Mixing the two
// disciplines is the classic pre-race smell: the plain access tears or
// reorders against the atomic one, and the race detector only notices
// when the schedule cooperates. Fields of the atomic.* value types
// (atomic.Int64, atomic.Pointer) cannot be mixed and are never flagged.
//
// The check is per-package: the fields in question are invariably
// unexported, so every access site lies in one package.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc: "forbid mixing sync/atomic access with plain loads/stores of the " +
		"same variable; pick one discipline or guard with a mutex",
	Run: runAtomicMix,
}

// runAtomicMix reports every finding of the packages in scope. A
// package's findings depend only on the package and its imports, so
// they are a row of its check: built on the pool for packages without
// one and adopted by every later Tree that keeps the package.
// Suppression is the Tree's, so each finding is reported through the
// pass.
func runAtomicMix(pass *Pass) error {
	pass.tree.ensureTypes()
	rows, fresh := rowsOf(pass.Pkgs, func(c *checkedPkg) **mixRows { return &c.mix }, func(pkg *Package) *mixRows {
		return atomicMixIn(pass.tree, pkg)
	})
	for _, i := range fresh {
		storeRows(&pass.Pkgs[i].checked.mix, rows[i])
	}
	for _, r := range rows {
		for _, f := range r.findings {
			pass.Reportf(f.pos, "%s", f.msg)
		}
	}
	return nil
}

// mixRows are one checked package's atomicmix findings, in report order.
type mixRows struct {
	findings []mixFinding
}

// A mixFinding is one mixed-discipline variable: where it is reported
// and the message.
type mixFinding struct {
	pos token.Pos
	msg string
}

// atomicMixIn finds the mixed-discipline variables of one package.
func atomicMixIn(tree *Tree, pkg *Package) *mixRows {
	info := pkg.Info
	rows := &mixRows{}

	type access struct {
		pos token.Pos
	}
	atomicUse := make(map[*types.Var][]access)
	plainUse := make(map[*types.Var][]access)
	// atomicArgs are the &x expressions consumed by atomic calls, so the
	// plain-access scan below can skip them (and their sub-expressions).
	atomicArgs := make(map[ast.Expr]bool)

	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isAtomicCall(call, info) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				if v := addressedVar(un.X, info); v != nil {
					atomicUse[v] = append(atomicUse[v], access{pos: un.Pos()})
					atomicArgs[un.X] = true
				}
			}
			return true
		})
	}
	if len(atomicUse) == 0 {
		return rows
	}

	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if atomicArgs[n] {
					return false
				}
				if v := selectedVar(n, info); v != nil {
					if _, tracked := atomicUse[v]; tracked {
						plainUse[v] = append(plainUse[v], access{pos: n.Pos()})
					}
					return false
				}
			case *ast.Ident:
				if atomicArgs[n] {
					return false
				}
				v, ok := info.Uses[n].(*types.Var)
				if !ok || v.IsField() {
					return true
				}
				if _, tracked := atomicUse[v]; tracked {
					plainUse[v] = append(plainUse[v], access{pos: n.Pos()})
				}
			}
			return true
		})
	}

	vars := make([]*types.Var, 0, len(atomicUse))
	for v := range atomicUse {
		if len(plainUse[v]) > 0 {
			vars = append(vars, v)
		}
	}
	sort.Slice(vars, func(i, j int) bool { return vars[i].Pos() < vars[j].Pos() })
	for _, v := range vars {
		a, p := atomicUse[v], plainUse[v]
		sort.Slice(a, func(i, j int) bool { return a[i].pos < a[j].pos })
		sort.Slice(p, func(i, j int) bool { return p[i].pos < p[j].pos })
		// A variable declared outside the tree (a field of a
		// standard-library struct, say) has no position in tree.Fset (see
		// Package), so it is reported at its first atomic access.
		at := v.Pos()
		if !tree.declares(v.Pkg()) {
			at = a[0].pos
		}
		rows.findings = append(rows.findings, mixFinding{at, fmt.Sprintf(
			"%s is accessed via sync/atomic (line %d) and by plain load/store (line %d); use one discipline for every access",
			varLabel(v), tree.Fset.Position(a[0].pos).Line, tree.Fset.Position(p[0].pos).Line)})
	}
	return rows
}

// isAtomicCall reports whether the call is a package-level function of
// sync/atomic (atomic.AddInt64, atomic.LoadUint32, …). Methods of the
// atomic value types (atomic.Pointer.Store(&x)) are excluded: their
// pointer arguments are values being stored, not addresses being
// atomically accessed.
func isAtomicCall(call *ast.CallExpr, info *types.Info) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// addressedVar resolves &expr's operand to a struct field or variable.
func addressedVar(x ast.Expr, info *types.Info) *types.Var {
	switch x := ast.Unparen(x).(type) {
	case *ast.SelectorExpr:
		return selectedVar(x, info)
	case *ast.Ident:
		if v, ok := info.Uses[x].(*types.Var); ok {
			return v
		}
	case *ast.IndexExpr:
		// &slice[i] has no stable per-element identity; skip.
	}
	return nil
}

// selectedVar resolves a selector to the field it denotes (nil for
// methods, package selectors and unresolved expressions).
func selectedVar(sel *ast.SelectorExpr, info *types.Info) *types.Var {
	if s := info.Selections[sel]; s != nil {
		if s.Kind() != types.FieldVal {
			return nil
		}
		v, _ := s.Obj().(*types.Var)
		return v
	}
	// Package-qualified variable (pkg.Counter).
	if v, ok := info.Uses[sel.Sel].(*types.Var); ok && !v.IsField() {
		return v
	}
	return nil
}

func varLabel(v *types.Var) string {
	if v.IsField() {
		return "field " + v.Name()
	}
	return "variable " + v.Name()
}
