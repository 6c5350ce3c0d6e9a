package staticlint

// The switchless config emitter: the actionable half of the
// Transition-Bound Calls detector. Where detectSwitchless prints a
// finding for a human, SwitchlessConfigFrom renders the same candidate
// set as a machine-readable sdk.SwitchlessConfig that
// sgxperf.WithSwitchless (or sdk.StartSwitchlessAuto) applies directly —
// closing the lint→config→re-measure loop without a developer
// transcribing call names by hand.

import (
	"sgxperf/internal/edl"
	"sgxperf/internal/sdk"
)

// switchlessOcallCandidates is the shared candidate filter behind both
// the Transition-Bound Calls finding and the config emitter: ocalls that
// marshal at most switchlessMaxParams parameters, pass no user_check
// pointers, allow no reentrant ecalls and are not SDK sync ocalls.
func switchlessOcallCandidates(iface *edl.Interface) []string {
	var names []string
	for _, o := range iface.Ocalls() {
		if len(o.Params) > switchlessMaxParams || len(o.Allow) > 0 {
			continue
		}
		if o.HasUserCheck() || sdk.IsSyncOcall(o.Name) {
			continue
		}
		names = append(names, o.Name)
	}
	return names
}

// switchlessEcallCandidates filters ecalls the same way: public (a
// worker enters through the public dispatch path), small marshalling
// footprint, no user_check pointers.
func switchlessEcallCandidates(iface *edl.Interface) []string {
	var names []string
	for _, e := range iface.Ecalls() {
		if !e.Public || len(e.Params) > switchlessMaxParams || e.HasUserCheck() {
			continue
		}
		names = append(names, e.Name)
	}
	return names
}

// SwitchlessConfigFrom derives a switchless runtime configuration from
// the interface alone, using exactly the candidate logic behind the
// Transition-Bound Calls finding (the findings themselves are
// unchanged). It returns nil when no function qualifies. The scheduler
// bounds are left zero and filled with the runtime defaults when the
// configuration is applied; Source is "staticlint" so downstream
// measurements can prove their provenance. The candidates' parameter
// bound is fixed (switchlessMaxParams).
func SwitchlessConfigFrom(iface *edl.Interface) *sdk.SwitchlessConfig {
	if iface == nil {
		return nil
	}
	cfg := &sdk.SwitchlessConfig{
		Source: "staticlint",
		Ecalls: switchlessEcallCandidates(iface),
		Ocalls: switchlessOcallCandidates(iface),
	}
	if len(cfg.Ecalls)+len(cfg.Ocalls) == 0 {
		return nil
	}
	return cfg
}
