package lint

import "fmt"

// TransAmp flags transition amplification: an ocall dispatch reached
// inside a loop, either directly (env.Ocall at loop depth ≥ 1) or
// through a looped call into a function the interprocedural summary
// says transitively dispatches an ocall. Every iteration pays a full
// EEXIT→OCALL→EENTER round trip, so the paper's per-transition price
// (§3.1) multiplies by the loop trip count — the exact shape §6 fixes
// by batching the buffer and crossing once.
//
// The loop multiplier is static: constant-bound counted loops and
// range-over-int/array report the trip product, anything else reports
// an unknown multiplier (at least the round trip per iteration).
// Deliberate per-iteration dispatches (a retry loop around a
// thread-wake ocall, say) carry //sgxperf:allow(transamp) with a
// one-line justification.
var TransAmp = &Analyzer{
	Name: "transamp",
	Doc: "forbid ocall dispatch inside a loop (directly or through a " +
		"transitively-dispatching callee): transitions multiply by the trip count",
	Packages: []string{"internal/workloads", "internal/sdk"},
	Run:      runTransAmp,
}

// runTransAmp reports the loop crossings of the functions in scope; the
// call graph they are lifted through covers the whole tree, so a looped
// call into a dispatching helper in any package counts.
func runTransAmp(p *Pass) error {
	ip := p.tree.callGraph()
	for _, fn := range ip.order {
		if !p.covers(fn.pkg) {
			continue
		}
		for _, lc := range ip.loopCrossings(fn) {
			mult := "an unknown number of iterations"
			if lc.trip > 0 {
				mult = fmt.Sprintf("%d iterations", lc.trip)
			}
			var msg string
			if lc.via == "" {
				name := "an ocall"
				if lc.ocall != "" {
					name = fmt.Sprintf("ocall %q", lc.ocall)
				}
				msg = fmt.Sprintf("%s dispatches %s inside a loop (depth %d, %s): each iteration pays a full enclave round trip; batch the buffer and cross once, or justify with //sgxperf:allow(transamp)",
					fn.name, name, lc.depth, mult)
			} else {
				msg = fmt.Sprintf("%s calls %s inside a loop (depth %d, %s) and the callee transitively dispatches an ocall: each iteration pays a full enclave round trip; batch the buffer and cross once, or justify with //sgxperf:allow(transamp)",
					fn.name, lc.via, lc.depth, mult)
			}
			p.Reportf(lc.pos, "%s", msg)
		}
	}
	return nil
}
