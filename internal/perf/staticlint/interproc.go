package staticlint

import (
	"fmt"
	"time"

	"sgxperf/internal/lint"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sdk"
)

// A Prediction is the interprocedural transition estimate for one ecall
// entry point, optionally joined with the trace it predicts.
type Prediction struct {
	// Ecall is the wire name the enclave registers; Handler the Go
	// function implementing it.
	Ecall   string
	Handler string
	// Predicted is the expected number of ocall dispatches one
	// invocation executes, from the call-graph summaries.
	Predicted int
	// LoopUnknown marks estimates involving a loop (or recursion) whose
	// trip count is not statically known — Predicted is then a lower
	// bound. Conditional marks estimates counting branch-guarded
	// dispatches — those sites may not execute.
	LoopUnknown bool
	Conditional bool
	// Observed is the mean ocall dispatches per recorded invocation
	// (hybrid reports only; SDK sync ocalls are excluded — the static
	// model cannot see contention). Invocations is the sample size.
	Observed    float64
	Invocations int
	// Verdict compares the two: "agree", "over-predicted",
	// "under-predicted", "loop-unknown" (observed consistent with the
	// lower bound) or "not-executed". Empty in static reports.
	Verdict string
}

// predictionTolerance is the allowed |predicted − observed| slack before
// a hybrid report flags a discrepancy: half a transition absolute, or a
// quarter of the prediction, whichever is larger. The relative term
// absorbs error-path skips in big predictions; the absolute term stops
// a 0-vs-0.4 rounding artefact from flagging.
func predictionTolerance(predicted int) float64 {
	tol := 0.25 * float64(predicted)
	if tol < 0.5 {
		tol = 0.5
	}
	return tol
}

// analyzeInterprocTree runs the interprocedural call-graph analysis
// (internal/lint's transition summaries) over an already-loaded tree, so
// Static's source pass parses and type-checks the repo once for all of
// the sync, interprocedural and taint analyses, and converts its raw
// facts into the analyser's currency:
//
//   - every ocall dispatch reached inside a loop — directly or through
//     a transitively-dispatching callee — becomes a
//     ProblemTransitionAmplification finding priced from the machine
//     model: the §3.1 round trip multiplied by the static trip count
//     (one round trip per iteration when the count is unknown);
//   - every boundary-buffer double fetch and every enclave pointer
//     escaping through an ocall argument becomes a
//     ProblemBoundaryDataHazard finding (§3.6);
//   - every registered ecall entry point gets a Prediction of its
//     per-invocation transition count, which hybrid reports later
//     compare against the recorded trace.
//
// Like AnalyzeSource, suppression annotations are deliberately ignored:
// //sgxperf:allow gates the repository lint, while this pass prices the
// pattern for the performance report regardless of intent.
func analyzeInterprocTree(tree *lint.Tree, dirs []string, opts Options) ([]analyzer.Finding, []Prediction) {
	root := tree.Root
	rep := lint.AnalyzeInterprocTree(tree, dirs)
	opts = opts.withDefaults()
	roundTrip := opts.Cost.Frequency.Duration(opts.Cost.RoundTrip())

	var out []analyzer.Finding
	for _, lc := range rep.Loops {
		call := lc.Ocall
		if call == "" {
			call = lc.Via
		}
		site := "dispatches an ocall"
		if lc.Ocall != "" {
			site = fmt.Sprintf("dispatches ocall %q", lc.Ocall)
		} else if lc.Via != "" {
			site = fmt.Sprintf("calls %s, which transitively dispatches an ocall", lc.Via)
		}
		price := fmt.Sprintf("≥%v per iteration, trip count unknown", roundTrip.Round(10*time.Nanosecond))
		score := 2.0
		if lc.Trip > 0 {
			price = fmt.Sprintf("≈%v per invocation (%d iterations × %v round trip)",
				(time.Duration(lc.Trip) * roundTrip).Round(10*time.Nanosecond), lc.Trip, roundTrip.Round(10*time.Nanosecond))
			score = 3 // a known multiplier is stronger evidence
		}
		out = append(out, analyzer.Finding{
			Problem: analyzer.ProblemTransitionAmplification,
			Call:    call,
			Kind:    events.KindOcall,
			Evidence: fmt.Sprintf(
				"%s %s inside a loop (depth %d) at %s: every iteration pays a full enclave round trip, %s (§3.1); batch the buffer and cross once (§6)",
				lc.Func, site, lc.Depth, relPos(root, lc.Pos), price),
			Solutions: []analyzer.Solution{analyzer.SolutionBatch, analyzer.SolutionSwitchless, analyzer.SolutionMoveCaller},
			Score:     score,
		})
	}
	for _, f := range rep.Fetches {
		out = append(out, analyzer.Finding{
			Problem: analyzer.ProblemBoundaryDataHazard,
			Call:    f.Ocall,
			Kind:    events.KindOcall,
			Partner: f.Expr,
			Evidence: fmt.Sprintf(
				"%s re-reads boundary-buffer expression %s at %s after the ocall dispatched at line %d: the untrusted side shares the buffer across the crossing, so the validated value cannot be trusted after it (§3.6 TOCTOU); copy once into enclave state",
				f.Func, f.Expr, relPos(root, f.Pos), f.CrossPos.Line),
			Solutions:    []analyzer.Solution{analyzer.SolutionCheckPointers, analyzer.SolutionReduceCopies},
			SecurityNote: "a double fetch is exploitable, not just slow: the untrusted side can change the value between the reads",
			Score:        2,
		})
	}
	for _, e := range rep.Escapes {
		out = append(out, analyzer.Finding{
			Problem: analyzer.ProblemBoundaryDataHazard,
			Call:    e.Ocall,
			Kind:    events.KindOcall,
			Partner: e.Expr,
			Evidence: fmt.Sprintf(
				"%s passes enclave pointer %s to the ocall at %s: the untrusted side keeps the address after the call returns, the moral equivalent of a user_check pointer into enclave memory (§3.6); marshal a value copy",
				e.Func, e.Expr, relPos(root, e.Pos)),
			Solutions:    []analyzer.Solution{analyzer.SolutionCheckPointers, analyzer.SolutionMoveCaller},
			SecurityNote: "every later write through the escaped pointer bypasses the boundary copy discipline",
			Score:        3,
		})
	}

	preds := make([]Prediction, 0, len(rep.Entries))
	for _, e := range rep.Entries {
		preds = append(preds, Prediction{
			Ecall: e.Ecall, Handler: e.Handler, Predicted: e.Predicted,
			LoopUnknown: e.LoopUnknown, Conditional: e.Conditional,
		})
	}
	return out, preds
}

// joinPredictions fills each prediction's observed side from the trace:
// invocations per entry point from the ecall table, and the mean
// non-sync ocall dispatches attributed to it through the parent links
// (§4.3.2). SDK sync ocalls are excluded on both sides — the static
// model prices them separately as contention, not as call structure.
func joinPredictions(preds []Prediction, trace *events.Trace) {
	if len(preds) == 0 || trace == nil {
		return
	}
	ecallName := make(map[events.EventID]string)
	invocations := make(map[string]int)
	trace.Ecalls.Scan(func(_ int, e events.CallEvent) bool {
		ecallName[e.ID] = e.Name
		invocations[e.Name]++
		return true
	})
	perEntry := make(map[string]int)
	trace.Ocalls.Scan(func(_ int, e events.CallEvent) bool {
		if sdk.IsSyncOcall(e.Name) {
			return true
		}
		if name, ok := ecallName[e.Parent]; ok {
			perEntry[name]++
		}
		return true
	})
	for i := range preds {
		p := &preds[i]
		p.Invocations = invocations[p.Ecall]
		if p.Invocations == 0 {
			p.Verdict = "not-executed"
			continue
		}
		p.Observed = float64(perEntry[p.Ecall]) / float64(p.Invocations)
		diff := p.Observed - float64(p.Predicted)
		tol := predictionTolerance(p.Predicted)
		switch {
		case p.LoopUnknown && diff >= -tol:
			// The prediction is a lower bound; anything at or above it
			// (minus slack) is consistent.
			p.Verdict = "loop-unknown"
		case diff > tol:
			p.Verdict = "under-predicted"
		case diff < -tol:
			p.Verdict = "over-predicted"
		default:
			p.Verdict = "agree"
		}
	}
}
