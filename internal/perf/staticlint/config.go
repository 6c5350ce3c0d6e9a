package staticlint

// The switchless config emitter: the actionable half of the
// Transition-Bound Calls detector. Where detectSwitchless prints a
// finding for a human, SwitchlessConfigFrom renders the same candidate
// set as a machine-readable sdk.SwitchlessConfig that
// sgxperf.WithSwitchless (or sdk.StartSwitchless) applies directly —
// closing the lint→config→re-measure loop without a developer
// transcribing call names by hand.

import (
	"sgxperf/internal/edl"
	"sgxperf/internal/sdk"
)

// switchlessCandidates is the shared candidate filter behind both the
// Transition-Bound Calls finding and the config emitter: the functions
// the runtime may route (sdk.SwitchlessEligible) that also marshal at
// most switchlessMaxParams parameters and pass no user_check pointers,
// the calls a worker thread profits most from.
func switchlessCandidates(fs []*edl.Func) []string {
	var names []string
	for _, f := range fs {
		if sdk.SwitchlessEligible(f) && len(f.Params) <= switchlessMaxParams && !f.HasUserCheck() {
			names = append(names, f.Name)
		}
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
		Ecalls: switchlessCandidates(iface.Ecalls()),
		Ocalls: switchlessCandidates(iface.Ocalls()),
	}
	if len(cfg.Ecalls)+len(cfg.Ocalls) == 0 {
		return nil
	}
	return cfg
}
