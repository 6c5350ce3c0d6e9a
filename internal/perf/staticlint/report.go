package staticlint

import (
	"fmt"
	"strings"

	"sgxperf/internal/edl"
)

// Source records how a report was produced.
type Source int

const (
	// SourceStatic means the interface alone was analysed.
	SourceStatic Source = iota
	// SourceHybrid means static findings were joined with a recorded trace.
	SourceHybrid
)

func (s Source) String() string {
	if s == SourceHybrid {
		return "hybrid"
	}
	return "static"
}

// Summary condenses the interface shape the detectors saw.
type Summary struct {
	Ecalls        int
	PublicEcalls  int
	PrivateEcalls int
	Ocalls        int
	// AllowEdges counts allow-list entries across all ocalls.
	AllowEdges int
	// UserCheckParams counts user_check parameters across all functions.
	UserCheckParams int
}

func summarise(iface *edl.Interface) Summary {
	var s Summary
	if iface == nil {
		return s
	}
	for _, e := range iface.Ecalls() {
		s.Ecalls++
		if e.Public {
			s.PublicEcalls++
		} else {
			s.PrivateEcalls++
		}
		for _, p := range e.Params {
			if p.Dir == edl.DirUserCheck {
				s.UserCheckParams++
			}
		}
	}
	for _, o := range iface.Ocalls() {
		s.Ocalls++
		s.AllowEdges += len(o.Allow)
		for _, p := range o.Params {
			if p.Dir == edl.DirUserCheck {
				s.UserCheckParams++
			}
		}
	}
	return s
}

// Report is the output of the static pass, optionally joined with a trace.
type Report struct {
	// Workload names the traced workload (hybrid reports only).
	Workload string
	Source   Source
	Summary  Summary
	Findings []RankedFinding
	// StaticOnly lists calls with findings that never executed in the
	// trace (hybrid reports only).
	StaticOnly []string
	// DynamicOnly lists calls the trace observed that the interface does
	// not declare (hybrid reports only).
	DynamicOnly []DynamicOnly
	// Predicted holds the interprocedural per-entry transition
	// estimates (source-aware reports only); hybrid reports fill the
	// observed side and the verdict.
	Predicted []Prediction
	// Flows holds the secret-flow witnesses of the taint analysis
	// (source-aware reports only); hybrid reports fill each flow's
	// observed crossing count and re-rank by it.
	Flows []Flow
	// Warnings are the interface's own Validate warnings.
	Warnings []string
}

// HasProblem reports whether any finding carries the given problem class.
func (r *Report) HasProblem(p fmt.Stringer) bool {
	for _, f := range r.Findings {
		if f.Problem.String() == p.String() {
			return true
		}
	}
	return false
}

// FindingsFor returns the findings about one call.
func (r *Report) FindingsFor(call string) []RankedFinding {
	var out []RankedFinding
	for _, f := range r.Findings {
		if f.Call == call {
			out = append(out, f)
		}
	}
	return out
}

// Render produces the human-readable report.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sgx-perf static interface analysis (%s)\n", r.Source)
	if r.Workload != "" {
		fmt.Fprintf(&b, "workload: %s\n", r.Workload)
	}
	fmt.Fprintf(&b, "interface: %d ecalls (%d public, %d private), %d ocalls, %d allow edges, %d user_check params\n",
		r.Summary.Ecalls, r.Summary.PublicEcalls, r.Summary.PrivateEcalls,
		r.Summary.Ocalls, r.Summary.AllowEdges, r.Summary.UserCheckParams)
	if len(r.Findings) == 0 {
		b.WriteString("no findings\n")
	} else {
		fmt.Fprintf(&b, "%d finding%s\n", len(r.Findings), plural(len(r.Findings)))
	}
	for i, f := range r.Findings {
		fmt.Fprintf(&b, "\n[%d] %s — %s %s", i+1, f.Problem, f.Kind, f.Call)
		if f.Partner != "" {
			fmt.Fprintf(&b, " (with %s)", f.Partner)
		}
		if r.Source == SourceHybrid {
			fmt.Fprintf(&b, " — observed %d×, rank %.2f", f.Observed, f.HybridScore)
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "    %s\n", f.Evidence)
		if len(f.Solutions) > 0 {
			sols := make([]string, len(f.Solutions))
			for j, s := range f.Solutions {
				sols[j] = s.String()
			}
			fmt.Fprintf(&b, "    recommend: %s\n", strings.Join(sols, "; "))
		}
		if f.SecurityNote != "" {
			fmt.Fprintf(&b, "    security: %s\n", f.SecurityNote)
		}
	}
	if len(r.StaticOnly) > 0 {
		fmt.Fprintf(&b, "\nstatic-only (declared, flagged, never executed): %s\n",
			strings.Join(r.StaticOnly, ", "))
	}
	for i, d := range r.DynamicOnly {
		if i == 0 {
			b.WriteString("\ndynamic-only (observed, not declared):\n")
		}
		fmt.Fprintf(&b, "    %s %s ×%d", d.Kind, d.Name, d.Count)
		if d.Note != "" {
			fmt.Fprintf(&b, " (%s)", d.Note)
		}
		b.WriteByte('\n')
	}
	for i, p := range r.Predicted {
		if i == 0 {
			b.WriteString("\npredicted transitions per entry point (ocall dispatches per invocation):\n")
		}
		fmt.Fprintf(&b, "    %s (%s): predicted %d", p.Ecall, p.Handler, p.Predicted)
		if p.LoopUnknown {
			b.WriteString(" (lower bound: loop trip unknown)")
		}
		if p.Conditional {
			b.WriteString(" (includes branch-guarded dispatches)")
		}
		if r.Source == SourceHybrid {
			if p.Verdict == "not-executed" {
				b.WriteString(" — not executed")
			} else {
				fmt.Fprintf(&b, " — observed %.2f over %d invocation%s: %s",
					p.Observed, p.Invocations, plural(p.Invocations), p.Verdict)
			}
		}
		b.WriteByte('\n')
	}
	for i, fl := range r.Flows {
		if i == 0 {
			b.WriteString("\nsecret flows (source → boundary sink, unsealed):\n")
		}
		fmt.Fprintf(&b, "    %s → %s [%s] in %s at %s", fl.Source, fl.Sink, fl.SinkKind, fl.Func, fl.Pos)
		if fl.Price != "" {
			fmt.Fprintf(&b, " (%s)", fl.Price)
		}
		if r.Source == SourceHybrid {
			if fl.Observed == 0 {
				b.WriteString(" — never executed (static-only flow)")
			} else {
				fmt.Fprintf(&b, " — crossed %d×", fl.Observed)
			}
		}
		b.WriteByte('\n')
		for _, h := range fl.Chain {
			fmt.Fprintf(&b, "        %s (%s)\n", h.Note, h.Pos)
		}
	}
	for i, w := range r.Warnings {
		if i == 0 {
			b.WriteString("\ninterface warnings:\n")
		}
		fmt.Fprintf(&b, "    %s\n", w)
	}
	return b.String()
}
