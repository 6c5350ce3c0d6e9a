package lint

import (
	"go/ast"
)

// wallClockFuncs are the package time functions that read or wait on the
// wall clock. Types and constants (time.Duration, time.Nanosecond) stay
// legal: the simulator is full of durations — it just must not *observe*
// real time.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
}

// VirtualClock forbids wall-clock reads in the simulator packages. The
// whole point of the repository is deterministic virtual time
// (vtime.Cycles advanced by Context.Compute); a time.Now or time.Sleep in
// these packages silently couples results to the host scheduler, which no
// unit test reliably catches. Test files are exempt — watchdog deadlines
// around Wait calls legitimately use the wall clock.
var VirtualClock = &Analyzer{
	Name: "vclock",
	Doc: "forbid wall-clock reads (time.Now, time.Sleep, …) in simulator " +
		"packages; they run on virtual time",
	Packages: []string{
		"internal/sgx",
		"internal/sdk",
		"internal/kernel",
		"internal/host",
		"internal/vtime",
		"internal/loader",
		"internal/perf/logger",
		// The shared worker pool and the event store sit under both the
		// simulator and the analysis pipeline; neither may observe real
		// time (timing belongs to the experiments layer).
		"internal/pool",
		"internal/evstore",
		// Bundled workloads execute inside the simulator; a wall-clock
		// read there would leak host scheduling into recorded traces.
		"internal/workloads",
		// The serve daemon replays and re-analyses recorded virtual-time
		// traces; wall-clock reads belong to its HTTP plumbing (timeouts,
		// pollers) which lives behind time.Duration options, not in the
		// artifact computations this scope guards. The wire layer is pure
		// serialisation and may not observe time at all.
		"internal/serve",
		"api/v1",
	},
	Run: runVirtualClock,
}

func runVirtualClock(pass *Pass) error {
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Files {
			alias := importName(file, "time")
			if alias == "" {
				continue
			}
			if alias == "." {
				// A dot import hides every call site from the check below.
				ast.Inspect(file, func(n ast.Node) bool {
					if imp, ok := n.(*ast.ImportSpec); ok && imp.Path.Value == `"time"` {
						pass.Reportf(imp.Pos(), "dot import of time defeats the wall-clock check; import it named")
						return false
					}
					return true
				})
				continue
			}
			ast.Inspect(file, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				id, ok := sel.X.(*ast.Ident)
				if !ok || id.Name != alias || id.Obj != nil {
					// id.Obj != nil means the identifier resolves to a local
					// object shadowing the import, not the package itself.
					return true
				}
				if wallClockFuncs[sel.Sel.Name] {
					pass.Reportf(sel.Pos(),
						"%s.%s reads the wall clock; simulator packages run on virtual time (use the Context/vtime clock)",
						alias, sel.Sel.Name)
				}
				return true
			})
		}
	}
	return nil
}
