package analyzer

import (
	"fmt"
	"sort"

	"sgxperf/internal/edl"
)

// SecurityHintKind classifies the three interface hardenings of §3.6.
type SecurityHintKind int

const (
	// HintMakePrivate suggests declaring an ecall private because it was
	// only ever issued during ocalls.
	HintMakePrivate SecurityHintKind = iota + 1
	// HintShrinkAllow lists allow-list entries never exercised.
	HintShrinkAllow
	// HintUserCheck flags user_check pointer parameters.
	HintUserCheck
	// HintMinimalAllow states the smallest observed allow set when no EDL
	// is available.
	HintMinimalAllow
)

// String names the hint kind.
func (k SecurityHintKind) String() string {
	switch k {
	case HintMakePrivate:
		return "make-private"
	case HintShrinkAllow:
		return "shrink-allow"
	case HintUserCheck:
		return "user-check"
	case HintMinimalAllow:
		return "minimal-allow"
	default:
		return "unknown"
	}
}

// SecurityHint is one enclave-interface recommendation (§4.3.2). Hints
// derived from observed calls are workload-dependent, as the paper notes.
type SecurityHint struct {
	Kind SecurityHintKind
	// Call is the ecall (make-private, user-check) or ocall (allow hints)
	// concerned.
	Call string
	// Names carries the related call names: the ocalls that must be
	// allowed to call a newly private ecall, the removable allow entries,
	// or the minimal allow set.
	Names []string
	Text  string
}

// makePrivateHint renders one make-private hint: the ecall was issued
// only during ocalls — every execution had a Parent link — so it can be
// declared private, limiting the paths into the enclave (§4.3.2).
func makePrivateHint(name string, parents []string) SecurityHint {
	return SecurityHint{
		Kind:  HintMakePrivate,
		Call:  name,
		Names: parents,
		Text: fmt.Sprintf(
			"ecall %s was only issued during ocalls; declare it private and allow it from: %v (workload-dependent)",
			name, parents),
	}
}

// allowHintsFrom compares declared allow lists with the ecalls actually
// issued during each ocall (the observed ocall→ecall nesting sets). With
// an EDL it reports removable entries; without, it states the smallest
// observed set (§4.3.2). totalOf reports a call name's execution count
// so undeclared-but-unexercised ocalls are not judged.
func allowHintsFrom(iface *edl.Interface, observed map[string]map[string]bool, totalOf func(string) int) []SecurityHint {
	var out []SecurityHint
	if iface == nil {
		for _, ocall := range sortedKeys(observed) {
			set := sortedKeys(observed[ocall])
			out = append(out, SecurityHint{
				Kind:  HintMinimalAllow,
				Call:  ocall,
				Names: set,
				Text:  fmt.Sprintf("no EDL provided; smallest allow set observed for ocall %s: %v", ocall, set),
			})
		}
		return out
	}
	for _, o := range iface.Ocalls() {
		if len(o.Allow) == 0 {
			continue
		}
		// Only judge ocalls the workload exercised.
		if totalOf(o.Name) == 0 {
			continue
		}
		var removable []string
		for _, allowed := range o.Allow {
			if !observed[o.Name][allowed] {
				removable = append(removable, allowed)
			}
		}
		if len(removable) == 0 {
			continue
		}
		sort.Strings(removable)
		out = append(out, SecurityHint{
			Kind:  HintShrinkAllow,
			Call:  o.Name,
			Names: removable,
			Text: fmt.Sprintf(
				"ocall %s allows ecalls never observed during it; consider removing: %v",
				o.Name, removable),
		})
	}
	return out
}

// userCheckHintsFor highlights calls with user_check pointers so
// developers re-verify their pointer handling (§3.6); the hints derive
// from the interface alone.
func userCheckHintsFor(iface *edl.Interface) []SecurityHint {
	if iface == nil {
		return nil
	}
	var out []SecurityHint
	flag := func(f *edl.Func) {
		var params []string
		for _, p := range f.Params {
			if p.Dir == edl.DirUserCheck {
				params = append(params, p.Name)
			}
		}
		if len(params) == 0 {
			return
		}
		out = append(out, SecurityHint{
			Kind:  HintUserCheck,
			Call:  f.Name,
			Names: params,
			Text: fmt.Sprintf(
				"%s %s passes user_check pointers %v: verify bounds, TOCTTOU and enclave-address checks (§3.6)",
				f.Kind, f.Name, params),
		})
	}
	for _, f := range iface.Ecalls() {
		flag(f)
	}
	for _, f := range iface.Ocalls() {
		flag(f)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
