// Package staticlint is the static half of the sgx-perf analyser: a pass
// over an enclave's EDL interface that emits findings without any workload
// run. Many of the anti-patterns §6 derives from dynamic traces are
// already visible in the interface definition alone — user_check pointers,
// allow-list reentrancy cycles, copy costs that dwarf the transition
// itself, dead or overly-wide surface, and merge/switchless candidates —
// so the static pass reports them before the first ecall executes.
//
// Costs are estimated from the same calibrated machine model the runtime
// charges (sgx.CostModel transition cycles, sdk.CostCopyPerKiB), so the
// static evidence is phrased in the exact currency the dynamic analyser
// measures. Hybrid (see hybrid.go) then joins the static findings with a
// recorded trace, ranking them by observed call counts and flagging
// static-only and dynamic-only discrepancies.
package staticlint

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"sgxperf/internal/edl"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sdk"
	"sgxperf/internal/sgx"
)

// Options configures the static pass.
type Options struct {
	// Cost is the machine cost model used to price transitions and copies.
	// The zero value selects the unpatched machine
	// (sgx.DefaultCostModel(sgx.MitigationNone)).
	Cost sgx.CostModel

	// WideSurfaceMin is the public-ecall count from which the interface is
	// flagged as overly wide (default 8 — the TaLoS interface declares 207,
	// SecureKeeper gets by with 2, §5.2.1/§5.2.4).
	WideSurfaceMin int

	// SourceRoot, when non-empty, adds the concurrency dataflow pass over
	// the Go sources rooted there (AnalyzeSource): locks held across
	// blocking boundaries and lock-order cycles join the interface
	// findings, priced from the same cost model.
	SourceRoot string

	// SourceDirs restricts the source pass to packages under these
	// root-relative directory prefixes (the whole tree when empty).
	SourceDirs []string
}

// withDefaults fills unset options.
func (o Options) withDefaults() Options {
	if o.Cost.Frequency == 0 {
		o.Cost = sgx.DefaultCostModel(sgx.MitigationNone)
	}
	if o.WideSurfaceMin <= 0 {
		o.WideSurfaceMin = 8
	}
	return o
}

const (
	// mergeGroupMin is the minimum number of same-kind functions with an
	// identical parameter shape before a merge candidate is reported.
	mergeGroupMin = 3
	// switchlessMaxParams bounds the parameter count of switchless
	// candidates: calls that marshal almost nothing profit most from a
	// worker thread instead of a transition.
	switchlessMaxParams = 1
)

// Analyze runs every static detector over the interface and returns the
// findings, sorted like the dynamic analyser's (analyzer.SortFindings).
// A nil interface yields no findings.
func Analyze(iface *edl.Interface, opts Options) []analyzer.Finding {
	if iface == nil {
		return nil
	}
	opts = opts.withDefaults()
	var out []analyzer.Finding
	out = append(out, detectUserCheck(iface)...)
	out = append(out, detectCopyCost(iface, opts)...)
	out = append(out, detectReentrancy(iface)...)
	out = append(out, detectWideSurface(iface, opts)...)
	out = append(out, detectUnreachable(iface)...)
	out = append(out, detectMergeShape(iface, opts)...)
	out = append(out, detectSwitchless(iface, opts)...)
	analyzer.SortFindings(out)
	return out
}

// eventKind maps an EDL call kind onto the event model's.
func eventKind(k edl.CallKind) events.CallKind {
	if k == edl.Ocall {
		return events.KindOcall
	}
	return events.KindEcall
}

// allFuncs returns ecalls then ocalls, in ID order.
func allFuncs(iface *edl.Interface) []*edl.Func {
	out := make([]*edl.Func, 0, len(iface.Ecalls())+len(iface.Ocalls()))
	out = append(out, iface.Ecalls()...)
	out = append(out, iface.Ocalls()...)
	return out
}

// detectUserCheck flags every function passing user_check pointers: the
// SDK performs no bounds, direction or enclave-address checks on them
// (§3.6), so each one is a manual-verification obligation.
func detectUserCheck(iface *edl.Interface) []analyzer.Finding {
	var out []analyzer.Finding
	for _, f := range allFuncs(iface) {
		var params []string
		for _, p := range f.Params {
			if p.Dir == edl.DirUserCheck {
				params = append(params, p.Name)
			}
		}
		if len(params) == 0 {
			continue
		}
		out = append(out, analyzer.Finding{
			Problem: analyzer.ProblemPermissiveInterface,
			Call:    f.Name,
			Kind:    eventKind(f.Kind),
			Evidence: fmt.Sprintf(
				"%s passes user_check pointer%s %s: the SDK copies nothing and checks nothing, so bounds, TOCTTOU and enclave-address validation are the developer's burden (§3.6)",
				f.Kind, plural(len(params)), strings.Join(params, ", ")),
			Solutions:    []analyzer.Solution{analyzer.SolutionCheckPointers},
			SecurityNote: "user_check pointers bypass the TRTS marshalling checks entirely",
			Score:        float64(len(params)),
		})
	}
	return out
}

// copyShape summarises the declared copy behaviour of one function.
type copyShape struct {
	// sized lists [in]/[out] params whose length is a runtime parameter
	// (size=len): bounded per call, unbounded statically.
	sized []string
	// unsized lists pointer params with neither size= nor string: the copy
	// amount is not statically derivable at all.
	unsized []string
	// strings lists NUL-terminated string copies.
	strings []string
	// directions counts copy directions (in-out buffers copy twice).
	copies int
}

func shapeOf(f *edl.Func) copyShape {
	var s copyShape
	for _, p := range f.Params {
		dirs := 0
		switch p.Dir {
		case edl.DirIn, edl.DirOut:
			dirs = 1
		case edl.DirInOut:
			dirs = 2
		default:
			continue
		}
		s.copies += dirs
		switch {
		case p.Size != "":
			s.sized = append(s.sized, p.Name)
		case p.IsString:
			s.strings = append(s.strings, p.Name)
		default:
			s.unsized = append(s.unsized, p.Name)
		}
	}
	return s
}

// detectCopyCost prices each function's declared [in]/[out] copies against
// the transition round-trip: past the break-even size, marshalling — not
// the EENTER/EEXIT pair — dominates the call (§6, "reduce copies").
func detectCopyCost(iface *edl.Interface, opts Options) []analyzer.Finding {
	transition := opts.Cost.Frequency.Duration(opts.Cost.RoundTrip())
	// Bytes at which one direction's copy cost equals the round-trip.
	breakeven := int64(float64(transition) / float64(sdk.CostCopyPerKiB) * 1024)
	var out []analyzer.Finding
	for _, f := range allFuncs(iface) {
		s := shapeOf(f)
		if s.copies == 0 {
			continue
		}
		be := breakeven
		if s.copies > 1 {
			be = breakeven / int64(s.copies)
		}
		var parts []string
		if len(s.sized) > 0 {
			parts = append(parts, fmt.Sprintf("size-parameterised buffer%s %s",
				plural(len(s.sized)), strings.Join(s.sized, ", ")))
		}
		if len(s.strings) > 0 {
			parts = append(parts, fmt.Sprintf("NUL-terminated string%s %s",
				plural(len(s.strings)), strings.Join(s.strings, ", ")))
		}
		if len(s.unsized) > 0 {
			parts = append(parts, fmt.Sprintf("un-sized pointer%s %s (copy bound not statically derivable)",
				plural(len(s.unsized)), strings.Join(s.unsized, ", ")))
		}
		score := float64(s.copies)
		if len(s.unsized) > 0 {
			score += 2 // unknown bounds outrank known-but-dynamic ones
		}
		out = append(out, analyzer.Finding{
			Problem: analyzer.ProblemLargeCopies,
			Call:    f.Name,
			Kind:    eventKind(f.Kind),
			Evidence: fmt.Sprintf(
				"%s copies %s across the boundary %d way%s; at %v/KiB copying beats the %v transition beyond ≈%s per call",
				f.Kind, strings.Join(parts, " and "), s.copies, plural(s.copies),
				sdk.CostCopyPerKiB, transition.Round(10*time.Nanosecond), kib(be)),
			Solutions: []analyzer.Solution{
				analyzer.SolutionReduceCopies, analyzer.SolutionSwitchless, analyzer.SolutionMoveCaller,
			},
			SecurityNote: "replacing copies with user_check pointers trades marshalling cost for manual pointer validation",
			Score:        score,
		})
	}
	return out
}

// detectReentrancy walks the ecall→ocall→ecall edges the allow-lists
// open. EDL does not restrict which ocalls an ecall may issue, so every
// allow(e) entry closes a cycle: during any ecall the ocall can run, its
// allowed ecall can start, and that ecall can issue the same ocall again —
// unbounded nesting, each level consuming trusted stack (§3.6).
func detectReentrancy(iface *edl.Interface) []analyzer.Finding {
	var out []analyzer.Finding
	for _, o := range iface.Ocalls() {
		if len(o.Allow) == 0 {
			continue
		}
		allowed := make([]string, len(o.Allow))
		copy(allowed, o.Allow)
		sort.Strings(allowed)
		out = append(out, analyzer.Finding{
			Problem: analyzer.ProblemReentrancy,
			Call:    o.Name,
			Kind:    events.KindOcall,
			Partner: allowed[0],
			Evidence: fmt.Sprintf(
				"cycle: any ecall → %s → allow(%s) → %s again; nesting depth is unbounded and each level consumes trusted stack (§3.6)",
				o.Name, strings.Join(allowed, ", "), o.Name),
			Solutions:    []analyzer.Solution{analyzer.SolutionLimitEcallsFromOcalls, analyzer.SolutionRemoveDead},
			SecurityNote: "reentrant ecalls observe partially-updated enclave state; verify their preconditions hold mid-ocall",
			Score:        float64(len(allowed)),
		})
	}
	return out
}

// detectWideSurface flags interfaces whose public-ecall count exceeds the
// threshold: every public ecall is an unconditional path into the enclave
// (§3.6). TaLoS's 207 public ecalls are the paper's cautionary example.
func detectWideSurface(iface *edl.Interface, opts Options) []analyzer.Finding {
	public := 0
	for _, e := range iface.Ecalls() {
		if e.Public {
			public++
		}
	}
	if public < opts.WideSurfaceMin {
		return nil
	}
	return []analyzer.Finding{{
		Problem: analyzer.ProblemPermissiveInterface,
		Call:    "(interface)",
		Kind:    events.KindEcall,
		Evidence: fmt.Sprintf(
			"%d of %d ecalls are public (threshold %d): each is an unconditional entry point; declare every ecall only issued during ocalls private",
			public, len(iface.Ecalls()), opts.WideSurfaceMin),
		Solutions: []analyzer.Solution{analyzer.SolutionLimitPublicEcalls},
		Score:     float64(public),
	}}
}

// detectUnreachable flags private ecalls no allow-list names: they cannot
// be invoked at all, yet remain attack surface inside the trusted image.
func detectUnreachable(iface *edl.Interface) []analyzer.Finding {
	allowed := make(map[string]bool)
	for _, o := range iface.Ocalls() {
		for _, a := range o.Allow {
			allowed[a] = true
		}
	}
	var out []analyzer.Finding
	for _, e := range iface.Ecalls() {
		if e.Public || allowed[e.Name] {
			continue
		}
		out = append(out, analyzer.Finding{
			Problem: analyzer.ProblemPermissiveInterface,
			Call:    e.Name,
			Kind:    events.KindEcall,
			Evidence: fmt.Sprintf(
				"private ecall %s is allowed by no ocall: unreachable dead surface in the trusted image",
				e.Name),
			Solutions: []analyzer.Solution{analyzer.SolutionRemoveDead},
			Score:     0.5,
		})
	}
	return out
}

// paramShape renders a function's parameter shape canonically, so
// functions that could share one marshalling path compare equal.
func paramShape(f *edl.Func) string {
	var b strings.Builder
	for i, p := range f.Params {
		if i > 0 {
			b.WriteByte(';')
		}
		b.WriteString(p.Dir.String())
		if p.IsString {
			b.WriteString(",string")
		}
		if p.Size != "" {
			b.WriteString(",sized")
		}
	}
	return b.String()
}

// detectMergeShape groups same-kind functions by identical parameter
// shape: groups are candidates for merging into one call with an
// operation tag, saving a transition per merged call (§6 — the minidb
// lseek+write merge generalised to the interface level).
func detectMergeShape(iface *edl.Interface, opts Options) []analyzer.Finding {
	transition := opts.Cost.Frequency.Duration(opts.Cost.RoundTrip())
	var out []analyzer.Finding
	for _, kind := range []edl.CallKind{edl.Ecall, edl.Ocall} {
		groups := make(map[string][]string)
		var funcs []*edl.Func
		if kind == edl.Ecall {
			funcs = iface.Ecalls()
		} else {
			funcs = iface.Ocalls()
		}
		for _, f := range funcs {
			if kind == edl.Ocall && len(f.Allow) > 0 {
				continue // merging changes which ecalls the allow-list covers
			}
			groups[paramShape(f)] = append(groups[paramShape(f)], f.Name)
		}
		shapes := make([]string, 0, len(groups))
		for s, names := range groups {
			if len(names) >= mergeGroupMin {
				shapes = append(shapes, s)
			}
		}
		sort.Strings(shapes)
		for _, s := range shapes {
			names := groups[s]
			shape := s
			if shape == "" {
				shape = "no parameters"
			}
			preview := names
			if len(preview) > 4 {
				preview = append(append([]string{}, names[:4]...), "…")
			}
			out = append(out, analyzer.Finding{
				Problem: analyzer.ProblemSDSC,
				Call:    names[0],
				Kind:    eventKind(kind),
				Partner: names[1],
				Evidence: fmt.Sprintf(
					"%d %ss share one parameter shape (%s): %s; an operation tag would merge consecutive pairs and save one %v transition each",
					len(names), kind, shape, strings.Join(preview, ", "),
					transition.Round(10*time.Nanosecond)),
				Solutions: []analyzer.Solution{analyzer.SolutionMerge, analyzer.SolutionBatch},
				Score:     float64(len(names)),
			})
		}
	}
	return out
}

// detectSwitchless nominates ocalls for switchless (worker-thread)
// execution: calls that marshal at most switchlessMaxParams parameters,
// pass no user_check pointers and allow no reentrant ecalls can be
// serviced without leaving the enclave at all ("SGX Switchless Calls Made
// Configless" decides the worker budget before any run — this detector
// supplies its candidate set).
func detectSwitchless(iface *edl.Interface, opts Options) []analyzer.Finding {
	transition := opts.Cost.Frequency.Duration(opts.Cost.RoundTrip())
	names := switchlessCandidates(iface.Ocalls())
	if len(names) == 0 {
		return nil
	}
	preview := names
	if len(preview) > 6 {
		preview = append(append([]string{}, names[:6]...), "…")
	}
	return []analyzer.Finding{{
		Problem: analyzer.ProblemTransitionBound,
		Call:    names[0],
		Kind:    events.KindOcall,
		Evidence: fmt.Sprintf(
			"%d ocall%s marshal ≤%d parameter%s and allow no ecalls (%s): a switchless worker saves the %v transition on every invocation",
			len(names), plural(len(names)), switchlessMaxParams, plural(switchlessMaxParams),
			strings.Join(preview, ", "), transition.Round(10*time.Nanosecond)),
		Solutions:    []analyzer.Solution{analyzer.SolutionSwitchless, analyzer.SolutionBatch},
		SecurityNote: "switchless workers poll untrusted memory; size the worker pool before deployment",
		Score:        float64(len(names)) * 0.1,
	}}
}

func plural(n int) string {
	if n == 1 {
		return ""
	}
	return "s"
}

// kib renders a byte count as KiB with one decimal.
func kib(n int64) string {
	return fmt.Sprintf("%.1f KiB", float64(n)/1024)
}
