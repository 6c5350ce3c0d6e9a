package lint

import "fmt"

// HeldAcross flags any mutex — sync.Mutex, sync.RWMutex or the simulated
// in-enclave sdk.Mutex — held across a blocking boundary: a channel send
// or receive, a select without default, a worker-pool fan-out
// (pool.Do/ForEach), an ocall dispatch, or a call into a function the
// whole-repo summary says transitively blocks. A holder parked on any of
// those stalls every contender of the lock; inside an enclave the paper
// prices exactly this shape as sleep-ocall round trips (§2.3.2, §3.4).
//
// The held-set is tracked intraprocedurally with must-hold joins, so a
// lock released on one branch is not reported at a boundary after the
// join. Deliberate cases (a bounded send under a shard lock, say) carry
// //sgxperf:allow(heldacross) with a one-line justification.
var HeldAcross = &Analyzer{
	Name: "heldacross",
	Doc: "forbid holding a mutex across a blocking boundary (channel ops, " +
		"pool fan-out, ocall dispatch, transitively-blocking calls)",
	Run: runHeldAcross,
}

// runHeldAcross reports every lock of every recorded held boundary.
func runHeldAcross(p *Pass) error {
	for _, h := range p.tree.heldWalk().holds {
		if !p.covers(h.fn.pkg) {
			continue
		}
		what := h.b.desc
		if h.b.ocall != "" {
			what = fmt.Sprintf("%s (%q)", h.b.desc, h.b.ocall)
		}
		for _, l := range h.held {
			p.Reportf(h.b.pos, "%s is held across %s in %s (acquired at line %d); release it before blocking, or justify with //sgxperf:allow(heldacross)",
				l.id, what, h.fn.name, p.Fset.Position(l.pos).Line)
		}
	}
	return nil
}
