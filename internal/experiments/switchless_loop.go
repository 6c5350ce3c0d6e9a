package experiments

// The closed lint→config→re-measure loop for switchless calls: run a
// transition-bound workload over the regular paths, let the static
// analyser diagnose it (the Transition-Bound Calls finding, re-ranked by
// the recorded trace), apply the machine-readable switchless
// configuration the analyser emits, and re-run the identical workload —
// asserting the speedup the finding promised, that the results are
// unchanged, and that the self-tuning scheduler converged.

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"sgxperf"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/sdk"
)

// switchlessLoopEDL is the transition-bound interface: a tiny public
// ecall issuing a tiny ocall — both dominated by the boundary crossing,
// both switchless candidates (≤1 parameter, no user_check, no allow).
const switchlessLoopEDL = `
enclave {
	trusted {
		public ecall_work();
	};
	untrusted {
		ocall_note();
	};
};
`

// SwitchlessLoopResult is the machine-readable outcome of the loop,
// merged into BENCH_results.json under "switchless".
type SwitchlessLoopResult struct {
	Workload string `json:"workload"`
	Callers  int    `json:"callers"`
	// Ops is the per-caller call count; both phases run Callers×Ops calls.
	Ops int `json:"ops_per_caller"`

	// LintFoundTransitionBound records that the static pass diagnosed the
	// problem before the optimisation was applied (the loop's premise).
	LintFoundTransitionBound bool `json:"lint_found_transition_bound"`
	// ConfigSource proves the applied configuration's provenance.
	ConfigSource string               `json:"config_source"`
	Config       sdk.SwitchlessConfig `json:"config"`

	// Throughputs are calls per second of virtual time (slowest caller).
	BaselineOpsPerSec   float64 `json:"baseline_ops_per_sec"`
	SwitchlessOpsPerSec float64 `json:"switchless_ops_per_sec"`
	Speedup             float64 `json:"speedup"`

	// Checksums must match: the optimisation may not change results.
	BaselineChecksum   uint64 `json:"baseline_checksum"`
	SwitchlessChecksum uint64 `json:"switchless_checksum"`

	// Queue statistics and the scheduler's trajectory.
	Served      uint64                   `json:"served"`
	Fallbacks   uint64                   `json:"fallbacks"`
	Decisions   []sdk.EpochDecision      `json:"-"`
	FinalEcallW int                      `json:"final_ecall_workers"`
	FinalOcallW int                      `json:"final_ocall_workers"`
	Converged   bool                     `json:"converged"`
	TraceSwless analyzer.SwitchlessStats `json:"trace_switchless"`
}

// convergenceWindow is how many trailing epochs per pool must agree on
// the worker count for the run to count as converged.
const convergenceWindow = 3

// RunSwitchlessLoop executes the full loop. callers and ops default to
// 8 and 400.
func RunSwitchlessLoop(callers, ops int) (*SwitchlessLoopResult, error) {
	if callers <= 0 {
		callers = 8
	}
	if ops <= 0 {
		ops = 400
	}
	res := &SwitchlessLoopResult{Workload: "switchless-loop", Callers: callers, Ops: ops}

	// Phase 1: baseline over the regular transition paths.
	base, err := runSwitchlessPhase(callers, ops, nil)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	res.BaselineOpsPerSec = base.opsPerSec
	res.BaselineChecksum = base.checksum

	// Phase 2: the analyser diagnoses the baseline — static findings
	// re-ranked by the recorded trace — and emits the configuration.
	lint, err := base.session.LintHybrid(sgxperf.LintOptions{})
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	for _, f := range lint.Findings {
		if f.Problem == analyzer.ProblemTransitionBound {
			res.LintFoundTransitionBound = true
			break
		}
	}
	cfg := sgxperf.SwitchlessConfigFrom(base.session.Interface)
	base.session.Close()
	if cfg == nil {
		return nil, fmt.Errorf("lint emitted no switchless configuration for a transition-bound interface")
	}
	res.ConfigSource = cfg.Source

	// The configuration round-trips through its JSON form, exactly as the
	// sgx-perf-lint → application hand-off would.
	b, err := cfg.JSON()
	if err != nil {
		return nil, err
	}
	cfg, err = sgxperf.ParseSwitchlessConfig(b)
	if err != nil {
		return nil, err
	}

	// Phase 3: the identical workload with the configuration applied.
	opt, err := runSwitchlessPhase(callers, ops, cfg)
	if err != nil {
		return nil, fmt.Errorf("switchless: %w", err)
	}
	res.SwitchlessOpsPerSec = opt.opsPerSec
	res.SwitchlessChecksum = opt.checksum
	if res.BaselineOpsPerSec > 0 {
		res.Speedup = res.SwitchlessOpsPerSec / res.BaselineOpsPerSec
	}
	res.Config = opt.enclave.Switchless.Config()
	res.Served, res.Fallbacks = opt.enclave.Switchless.Stats()
	res.Decisions = opt.enclave.Switchless.Decisions()
	res.FinalEcallW, res.FinalOcallW = opt.enclave.Switchless.Workers()
	res.Converged = converged(res.Decisions)

	// The blind-spot fix: the recorded trace must show the switchless
	// activity even though the served calls bypassed every probe.
	rep, err := opt.session.Analyze()
	if err != nil {
		return nil, err
	}
	res.TraceSwless = rep.Switchless
	opt.enclave.Stop()
	opt.session.Close()
	return res, nil
}

// phaseResult is one run of the workload.
type phaseResult struct {
	session   *sgxperf.Session
	enclave   *sgxperf.SessionEnclave
	opsPerSec float64
	checksum  uint64
}

// runSwitchlessPhase runs callers threads, each issuing ops ecall_work
// calls; each ecall folds its argument into an in-enclave accumulator,
// issues one ocall, and returns a derived value the caller folds into
// the phase checksum. The checksum is a sum, so it is independent of
// thread interleaving — identical across baseline and switchless runs.
func runSwitchlessPhase(callers, ops int, cfg *sgxperf.SwitchlessConfig) (*phaseResult, error) {
	var inEnclave, noted atomic.Uint64
	opts := []sgxperf.SessionOption{
		sgxperf.WithEDL(switchlessLoopEDL),
		sgxperf.WithOcallImpls(map[string]sgxperf.OcallFn{
			"ocall_note": func(ctx *sgxperf.Context, args any) (any, error) {
				noted.Add(1)
				return nil, nil
			},
		}),
		sgxperf.WithLogger(sgxperf.LoggerOptions{Workload: "switchless-loop"}),
	}
	if cfg != nil {
		opts = append(opts, sgxperf.WithSwitchless(cfg))
	}
	s, err := sgxperf.NewSession(opts...)
	if err != nil {
		return nil, err
	}
	trusted := map[string]sgxperf.TrustedFn{
		"ecall_work": func(env *sgxperf.Env, args any) (any, error) {
			v, _ := args.(uint64)
			inEnclave.Add(v)
			env.Compute(200 * time.Nanosecond)
			if _, err := env.Ocall("ocall_note", nil); err != nil {
				return nil, err
			}
			return v*2 + 1, nil
		},
	}
	ctx := s.NewContext("main")
	// TCS budget: every caller may transition concurrently (fallbacks and
	// the baseline), plus up to MaxWorkers parked trusted workers.
	maxW := 8
	if cfg != nil && cfg.MaxWorkers > maxW {
		maxW = cfg.MaxWorkers
	}
	enc, err := s.Enclave(ctx, sgxperf.EnclaveConfig{Name: "switchless-loop", NumTCS: callers + maxW + 1}, trusted)
	if err != nil {
		return nil, err
	}

	sums := make(chan uint64, callers)
	clocks := make(chan time.Duration, callers)
	errs := make(chan error, callers)
	for t := 0; t < callers; t++ {
		seed := uint64(t + 1)
		if err := s.Host.Spawn("caller", func(cctx *sgxperf.Context) {
			var sum uint64
			for i := 0; i < ops; i++ {
				r, err := enc.Call(cctx, "ecall_work", seed+uint64(i))
				if err != nil {
					errs <- err
					return
				}
				sum += r.(uint64)
			}
			sums <- sum
			clocks <- cctx.Clock().Frequency().Duration(cctx.Now())
		}); err != nil {
			return nil, err
		}
	}
	s.Host.Wait()
	close(sums)
	close(clocks)
	select {
	case err := <-errs:
		return nil, err
	default:
	}
	var checksum uint64
	for v := range sums {
		checksum += v
	}
	// Order-independent evidence from both sides of the boundary.
	checksum += inEnclave.Load()*3 + noted.Load()*7
	var wall time.Duration
	for c := range clocks {
		if c > wall {
			wall = c
		}
	}
	out := &phaseResult{session: s, enclave: enc, checksum: checksum}
	if wall > 0 {
		out.opsPerSec = float64(callers*ops) / wall.Seconds()
	}
	return out, nil
}

// converged reports whether each pool's trailing convergenceWindow
// decisions agree on the worker count — the scheduler stopped moving.
func converged(decisions []sdk.EpochDecision) bool {
	byPool := make(map[string][]sdk.EpochDecision)
	for _, d := range decisions {
		byPool[d.Pool] = append(byPool[d.Pool], d)
	}
	if len(byPool) == 0 {
		return false
	}
	for _, ds := range byPool {
		if len(ds) < convergenceWindow {
			return false
		}
		tail := ds[len(ds)-convergenceWindow:]
		for _, d := range tail[1:] {
			if d.Workers != tail[0].Workers {
				return false
			}
		}
	}
	return true
}

// RenderSwitchlessLoop formats the loop's outcome.
func RenderSwitchlessLoop(r *SwitchlessLoopResult) string {
	var b strings.Builder
	b.WriteString("== Closed loop: lint → switchless config → re-measure ==\n")
	fmt.Fprintf(&b, "workload: %d callers × %d transition-bound calls\n", r.Callers, r.Ops)
	fmt.Fprintf(&b, "lint found transition-bound calls: %v (config source: %s)\n",
		r.LintFoundTransitionBound, r.ConfigSource)
	fmt.Fprintf(&b, "routed: ecalls %v, ocalls %v\n", r.Config.Ecalls, r.Config.Ocalls)
	fmt.Fprintf(&b, "%-12s %16s %12s\n", "phase", "ops/s (virtual)", "checksum")
	fmt.Fprintf(&b, "%-12s %16.0f %12d\n", "baseline", r.BaselineOpsPerSec, r.BaselineChecksum)
	fmt.Fprintf(&b, "%-12s %16.0f %12d\n", "switchless", r.SwitchlessOpsPerSec, r.SwitchlessChecksum)
	fmt.Fprintf(&b, "speedup: %.2fx   served: %d   fallbacks: %d\n", r.Speedup, r.Served, r.Fallbacks)
	fmt.Fprintf(&b, "scheduler: %d decisions, final workers ecall=%d ocall=%d, converged=%v\n",
		len(r.Decisions), r.FinalEcallW, r.FinalOcallW, r.Converged)
	for _, d := range r.Decisions {
		fmt.Fprintf(&b, "    epoch %3d %-6s %-6s -> %d workers (callers %d, served %d, fallbacks %d, predicted wait %v, measured %v)\n",
			d.Epoch, d.Pool, d.Action, d.Workers, d.Callers, d.Served, d.Fallbacks, d.PredictedWait, d.AvgWait)
	}
	fmt.Fprintf(&b, "trace shows %d served / %d fallback switchless events\n",
		r.TraceSwless.Served, r.TraceSwless.Fallbacks)
	return b.String()
}
