package lint

import "fmt"

// DoubleFetchCheck flags the §3.6 TOCTOU shape inside ecall handlers:
// an expression derived from the boundary args buffer (the `args any`
// parameter of a TrustedFn-shaped handler, or a local type-asserted
// from it) read before an ocall dispatch and read again after it. The
// ocall hands control to the untrusted side, which shares the buffer —
// a value validated before the crossing cannot be trusted after it;
// the handler must copy it into enclave-owned state once and use the
// copy on both sides.
//
// Writes between the two reads do not clear the fact (the re-read of a
// just-written field is still cheap to hoist), and reads inside the
// dispatch's own argument list count as "before" — they are what the
// ocall carried out. Deliberate re-reads carry
// //sgxperf:allow(doublefetch) with a one-line justification.
var DoubleFetchCheck = &Analyzer{
	Name: "doublefetch",
	Doc: "forbid re-reading a boundary-buffer expression after an ocall " +
		"crossing in an ecall handler (TOCTOU): copy once, use the copy",
	Run: runDoubleFetch,
}

func runDoubleFetch(p *Pass) error {
	for _, fn := range p.tree.callGraph().order {
		if !p.covers(fn.pkg) {
			continue
		}
		for _, f := range fn.fetches {
			cross := p.Fset.Position(f.crossPos)
			what := "an ocall"
			if f.ocall != "" {
				what = fmt.Sprintf("ocall %q", f.ocall)
			}
			p.Reportf(f.pos, "%s re-reads boundary-buffer expression %s after %s (dispatched at line %d): the untrusted side shares the buffer across the crossing; copy it into enclave state once, or justify with //sgxperf:allow(doublefetch)",
				fn.name, f.expr, what, cross.Line)
		}
	}
	return nil
}
