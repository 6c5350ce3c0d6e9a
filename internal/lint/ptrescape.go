package lint

import "fmt"

// PtrEscapeCheck flags enclave pointers escaping through ocall
// arguments: an explicit &lvalue passed (directly or nested in the
// payload) to env.Ocall / env.OcallByID. The untrusted side keeps the
// address after the call returns — the moral equivalent of handing out
// a user_check pointer into enclave memory (§3.6) — and every later
// write through it bypasses the boundary copy discipline the machine
// model prices. Marshal a value copy instead, or move the state to the
// untrusted side.
//
// Fresh composite literals (&T{…}) are values built for the call, not
// enclave state, and are not flagged; neither are plain pointer-typed
// variables, whose provenance a single function cannot see. Deliberate
// escapes carry //sgxperf:allow(ptrescape) with a one-line
// justification.
var PtrEscapeCheck = &Analyzer{
	Name: "ptrescape",
	Doc: "forbid passing the address of enclave state as an ocall " +
		"argument: the untrusted side keeps the pointer",
	Run: runPtrEscape,
}

func runPtrEscape(p *Pass) error {
	for _, fn := range p.tree.callGraph().order {
		if !p.covers(fn.pkg) {
			continue
		}
		for _, e := range fn.escapes {
			what := "an ocall"
			if e.ocall != "" {
				what = fmt.Sprintf("ocall %q", e.ocall)
			}
			p.Reportf(e.pos, "%s passes enclave pointer %s to %s: the untrusted side keeps the address after the call returns; marshal a copy instead, or justify with //sgxperf:allow(ptrescape)",
				fn.name, e.expr, what)
		}
	}
	return nil
}
