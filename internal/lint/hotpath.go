package lint

import (
	"go/ast"
	"strings"
)

// hotPathDirective marks a method as being on the recorder's hot path.
// The marker is a machine-readable comment (like //go:noinline), placed
// in the method's doc block:
//
//	// shard returns the calling thread's recorder shard.
//	//
//	//sgxperf:hotpath
//	func (l *Logger) shard(tid sgx.ThreadID) *shard { ... }
const hotPathDirective = "//sgxperf:hotpath"

// HotPathLocks enforces the logger's lock-free hot path: a method marked
// //sgxperf:hotpath must not acquire a mutex field of its own receiver.
// The per-thread shard's lock (sh.mu) stays legal — it is uncontended by
// construction — but Logger-level registry locks (shardMu, stubMu, encMu,
// signalMu) on the hot path would serialise every recording thread, which
// is exactly the regression the sharded recorder exists to prevent. Slow
// paths belong in separate, unannotated methods (growShard, noteEnclave,
// buildStubTable).
//
// The analyzer also fails when a package in scope contains no annotations
// at all: the check silently checking nothing is itself a bug.
var HotPathLocks = &Analyzer{
	Name: "hotpath",
	Doc: "forbid receiver-mutex acquisition in //sgxperf:hotpath methods; " +
		"the recorder hot path is lock-free by design",
	Packages: []string{
		"internal/perf/logger",
		// The codec primitives (Encoder/Decoder) and the typed event
		// codecs run once per row or per chunk on the worker pool, where
		// a receiver lock would serialise the whole fan-out. The analysis
		// fold's per-event carry and delta methods run once per call
		// event of every report, where a receiver lock taxes each row.
		"internal/evstore",
		"internal/perf/events",
		"internal/perf/analyzer",
		// The switchless submit/collect path runs once per routed call and
		// must stay lock-free: Switchless.tuneMu is tuner-only state, and a
		// hot-path acquisition would serialise every caller through the
		// epoch bookkeeping.
		"internal/sdk",
		// Simulator core and workloads honour the directive when present
		// (annotations are optional there — see requireAnnotations).
		"internal/kernel",
		"internal/vtime",
		"internal/workloads",
		// The serve daemon's artifact computations and the wire codecs
		// run per-request on the worker pool; annotations are optional
		// here too, but a //sgxperf:hotpath method that appears must stay
		// lock-free.
		"internal/serve",
		"api/v1",
	},
	Run: runHotPathLocks,
}

// requireAnnotations lists the packages where at least one
// //sgxperf:hotpath annotation must exist — the packages the directive
// was written for, where silently checking nothing would itself be a
// bug. The wider simulator packages are scanned opportunistically.
var requireAnnotations = []string{
	"internal/perf/logger",
	"internal/evstore",
	"internal/perf/events",
	"internal/perf/analyzer",
	"internal/sdk",
}

// lockMethods are the sync.Mutex/RWMutex methods that acquire (or juggle)
// the lock.
var lockMethods = map[string]bool{
	"Lock":    true,
	"RLock":   true,
	"TryLock": true,
}

func runHotPathLocks(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		mutexFields := collectMutexFields(pkg.Files)
		annotated := 0
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || !isHotPath(fn) {
					continue
				}
				annotated++
				recvName, recvType := receiver(fn)
				if recvName == "" {
					pass.Reportf(fn.Pos(), "%s on a function without a named receiver has no effect", hotPathDirective)
					continue
				}
				fields := mutexFields[recvType]
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					method, ok := call.Fun.(*ast.SelectorExpr)
					if !ok || !lockMethods[method.Sel.Name] {
						return true
					}
					field, ok := method.X.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					base, ok := field.X.(*ast.Ident)
					if !ok || base.Name != recvName || !fields[field.Sel.Name] {
						return true
					}
					pass.Reportf(call.Pos(),
						"hot-path method %s.%s acquires receiver mutex %s.%s.%s; move the slow path into an unannotated method",
						recvType, fn.Name.Name, recvName, field.Sel.Name, method.Sel.Name)
					return true
				})
			}
		}
		if annotated == 0 && inDirs(requireAnnotations, pkg.Dir) {
			pass.Reportf(pkg.Files[0].Package, "package %s declares no %s methods; the hot-path check is checking nothing (annotations lost?)",
				pkg.Dir, hotPathDirective)
		}
	}
	return nil
}

// isHotPath reports whether the function carries the hot-path directive.
func isHotPath(fn *ast.FuncDecl) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == hotPathDirective {
			return true
		}
	}
	return false
}

// receiver returns the receiver's identifier and named type ("" when
// absent or anonymous).
func receiver(fn *ast.FuncDecl) (name, typ string) {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return "", ""
	}
	field := fn.Recv.List[0]
	if len(field.Names) > 0 {
		name = field.Names[0].Name
	}
	t := field.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		typ = id.Name
	}
	return name, typ
}

// collectMutexFields maps each struct type in the package to the set of
// its fields typed sync.Mutex or sync.RWMutex (by the file's own import
// alias for sync).
func collectMutexFields(files []*ast.File) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, file := range files {
		alias := importName(file, "sync")
		if alias == "" || alias == "." {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, f := range st.Fields.List {
				if !isMutexType(f.Type, alias) {
					continue
				}
				if out[ts.Name.Name] == nil {
					out[ts.Name.Name] = make(map[string]bool)
				}
				for _, name := range f.Names {
					out[ts.Name.Name][name.Name] = true
				}
			}
			return true
		})
	}
	return out
}

// isMutexType reports whether the expression names sync.Mutex or
// sync.RWMutex under the given import alias.
func isMutexType(t ast.Expr, alias string) bool {
	sel, ok := t.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != alias {
		return false
	}
	return sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex"
}
