// Package sgxperf is the public API of the sgx-perf reproduction: a
// performance-analysis toolset for (simulated) Intel SGX enclaves, after
// "sgx-perf: A Performance Analysis Tool for Intel SGX Enclaves"
// (Weichbrodt, Aublin, Kapitza — Middleware 2018).
//
// The package re-exports the supported surface of the internal packages:
//
//   - a simulated SGX host (machine, kernel driver, SDK runtime) to build
//     and run enclave applications on virtual time;
//   - the sgx-perf event logger, attached by preloading — it shadows
//     sgx_ecall, rewrites ocall tables, patches the AEP for AEX
//     counting/tracing and traces EPC paging via kprobes;
//   - the working-set estimator;
//   - the analyser, with the paper's anti-pattern detectors (SISC, SDSC,
//     SNC, SSC, paging), statistics, call graphs and security hints;
//   - the four evaluation workloads and the experiment harness that
//     regenerates every table and figure of the paper.
//
// Quick start:
//
//	s, _ := sgxperf.NewSession(
//		sgxperf.WithEDL(`enclave { trusted { public ecall_work(); }; };`),
//		sgxperf.WithLogger(sgxperf.LoggerOptions{Workload: "demo"}),
//	)
//	enc, _ := s.Enclave(s.NewContext("main"), sgxperf.EnclaveConfig{Name: "demo"}, trusted)
//	// ... enc.Call(ctx, "ecall_work", nil) ...
//	report, _ := s.Analyze()
//	fmt.Print(report.Render())
//
// The individual building blocks (NewHost, AttachLogger, ParseEDL,
// BuildOcallTable, Proxies) remain available for callers that compose
// them differently, and AttachLive streams analysis from a running
// workload.
package sgxperf

import (
	"context"
	"fmt"

	"sgxperf/internal/edl"
	"sgxperf/internal/host"
	"sgxperf/internal/kernel"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/perf/live"
	"sgxperf/internal/perf/logger"
	"sgxperf/internal/perf/staticlint"
	"sgxperf/internal/perf/workingset"
	"sgxperf/internal/sdk"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// Simulated-host surface.
type (
	// Host is a complete simulated application environment: machine,
	// kernel, process image and SDK runtime.
	Host = host.Host
	// HostOption configures NewHost.
	HostOption = host.Option
	// Machine is the simulated SGX-capable processor.
	Machine = sgx.Machine
	// Context is a simulated OS thread with a virtual clock.
	Context = sgx.Context
	// EnclaveConfig sizes an enclave (heap, stack, TCS count).
	EnclaveConfig = sgx.Config
	// Enclave is a built enclave.
	Enclave = sgx.Enclave
	// MitigationLevel selects the side-channel mitigation state (§2.3.1).
	MitigationLevel = sgx.MitigationLevel
	// EnclaveID identifies an enclave on a machine.
	EnclaveID = sgx.EnclaveID
	// Kernel is the simulated OS layer (driver, signals, kprobes).
	Kernel = kernel.Kernel
)

// SDK surface.
type (
	// TrustedFn is an in-enclave ecall implementation.
	TrustedFn = sdk.TrustedFn
	// OcallFn is an untrusted ocall implementation.
	OcallFn = sdk.OcallFn
	// OcallTable maps ocall IDs to implementations (the logger swaps it).
	OcallTable = sdk.OcallTable
	// Env is the trusted-side execution environment.
	Env = sdk.Env
	// Proxy is an untrusted ecall wrapper (edger8r output).
	Proxy = sdk.Proxy
	// AppEnclave is a created enclave with its interface and image.
	AppEnclave = sdk.AppEnclave
	// EnclaveMutex is the SDK's in-enclave mutex (sleeps via ocalls).
	EnclaveMutex = sdk.Mutex
	// EnclaveCond is the SDK's in-enclave condition variable.
	EnclaveCond = sdk.Cond
	// Switchless is the self-tuning switchless call runtime: worker pools
	// servicing ecall/ocall queues without enclave transitions, resized
	// per epoch from observed fallback rate and queue occupancy within
	// the configuration's worker bounds (equal bounds: a fixed pool).
	Switchless = sdk.Switchless
	// SwitchlessConfig selects which calls run switchless and bounds the
	// scheduler; the static analyzer emits one from its Transition-Bound
	// Calls findings.
	SwitchlessConfig = sdk.SwitchlessConfig
	// EpochDecision is one scaling decision of the switchless scheduler.
	EpochDecision = sdk.EpochDecision
	// Interface is a parsed EDL enclave interface.
	Interface = edl.Interface
	// EDLParam is one declared parameter with pointer annotations.
	EDLParam = edl.Param
)

// Tooling surface.
type (
	// Logger is the attached sgx-perf event logger (§4.1).
	Logger = logger.Logger
	// LoggerOptions configures the logger (workload label, AEX mode,
	// paging tracing, batch size).
	LoggerOptions = logger.Options
	// AEXMode selects off/counting/tracing (§4.1.4).
	AEXMode = logger.AEXMode
	// Trace is one recorded run.
	Trace = events.Trace
	// WorkingSetEstimator measures enclave working sets (§4.2).
	WorkingSetEstimator = workingset.Estimator
	// Analyzer computes reports from traces (§4.3).
	Analyzer = analyzer.Analyzer
	// AnalyzerOptions carries detector weights and an optional EDL.
	AnalyzerOptions = analyzer.Options
	// Weights are the detector thresholds (Equations 1–3 defaults).
	Weights = analyzer.Weights
	// Report is the analyser's output.
	Report = analyzer.Report
	// Finding is one detected anti-pattern with ranked solutions.
	Finding = analyzer.Finding
	// SecurityHint is one interface-hardening recommendation (§3.6).
	SecurityHint = analyzer.SecurityHint
	// CallStats are per-call statistics (§4.3.1).
	CallStats = analyzer.CallStats
	// CallGraph is the Fig. 5-style call graph.
	CallGraph = analyzer.CallGraph
	// LiveCollector streams analysis from a running workload: each
	// Snapshot reads the recorder's tables (flushing its per-thread
	// buffers first), updates per-table counts and sliding-window rates
	// from the rows past the last read, and folds every row read so far
	// through the analyser. After the workload quiesces, a Snapshot
	// reproduces exactly what the post-mortem analyser reports over the
	// same trace.
	LiveCollector = live.Collector
	// LiveSnapshot is one consistent view of a LiveCollector: event
	// counts, windowed rates, per-call statistics and current findings.
	LiveSnapshot = live.Snapshot
	// LiveOptions configures AttachLive (weights, enclave filter,
	// rate-window width).
	LiveOptions = live.Options
	// LintReport is the static interface analysis, optionally joined with
	// a recorded trace (hybrid mode).
	LintReport = staticlint.Report
	// LintOptions tunes the static detectors (cost model, thresholds).
	LintOptions = staticlint.Options
	// RankedFinding is a static finding with its trace-observed execution
	// count and hybrid rank.
	RankedFinding = staticlint.RankedFinding
	// SwitchlessStats summarises a trace's switchless activity (served vs
	// fallback counts), as reported by the analyser and live snapshots.
	SwitchlessStats = analyzer.SwitchlessStats
)

// Sentinel errors of the public surface; match with errors.Is through
// any wrapping the constructors add.
var (
	// ErrNoTrace reports analysis attempted without a trace.
	ErrNoTrace = analyzer.ErrNoTrace
	// ErrLoggerDetached reports a live attachment to a logger that has
	// already been detached from its host.
	ErrLoggerDetached = logger.ErrDetached
)

// Mitigation levels (§2.3.1).
const (
	MitigationNone    = sgx.MitigationNone
	MitigationSpectre = sgx.MitigationSpectre
	MitigationFull    = sgx.MitigationFull
)

// AEX observation modes (§4.1.4).
const (
	AEXOff   = logger.AEXOff
	AEXCount = logger.AEXCount
	AEXTrace = logger.AEXTrace
)

// Problem and solution classes: Table 1's dynamic anti-patterns plus the
// classes the static interface analyser adds.
const (
	ProblemSISC                = analyzer.ProblemSISC
	ProblemSDSC                = analyzer.ProblemSDSC
	ProblemSNC                 = analyzer.ProblemSNC
	ProblemSSC                 = analyzer.ProblemSSC
	ProblemPaging              = analyzer.ProblemPaging
	ProblemPermissiveInterface = analyzer.ProblemPermissiveInterface
	ProblemReentrancy          = analyzer.ProblemReentrancy
	ProblemLargeCopies         = analyzer.ProblemLargeCopies
	ProblemTransitionBound     = analyzer.ProblemTransitionBound
	ProblemBoundarySync        = analyzer.ProblemBoundarySync

	// ProblemTransitionAmplification and ProblemBoundaryDataHazard come
	// from the interprocedural source analysis (loops around ocall
	// dispatch; double fetches and pointer escapes at the boundary).
	ProblemTransitionAmplification = analyzer.ProblemTransitionAmplification
	ProblemBoundaryDataHazard      = analyzer.ProblemBoundaryDataHazard

	// ProblemSecretLeak and ProblemDirectionMismatch come from the
	// secret-flow taint analysis (//sgxperf:secret data reaching a
	// boundary sink unsealed; handlers contradicting their EDL's
	// declared directions).
	ProblemSecretLeak        = analyzer.ProblemSecretLeak
	ProblemDirectionMismatch = analyzer.ProblemDirectionMismatch
)

// StaticLint runs the static interface analysis: findings from the EDL
// alone, with no workload run (§3.6 and §6 shapes visible in the
// interface definition).
func StaticLint(iface *Interface, opts LintOptions) *LintReport {
	return staticlint.Static(iface, opts)
}

// HybridLint joins the static findings with a recorded trace: findings
// are re-ranked by observed call counts, and static-only and
// dynamic-only discrepancies are flagged. A nil interface falls back to
// the EDL embedded in the trace.
func HybridLint(iface *Interface, t *Trace, opts LintOptions) (*LintReport, error) {
	return staticlint.Hybrid(iface, t, opts)
}

// SwitchlessConfigFrom derives a switchless runtime configuration from
// an interface, using the same candidate logic as the lint's
// Transition-Bound Calls detector; nil when nothing qualifies. Feed the
// result to WithSwitchless to close the lint→config→re-measure loop.
func SwitchlessConfigFrom(iface *Interface) *SwitchlessConfig {
	return staticlint.SwitchlessConfigFrom(iface)
}

// ParseSwitchlessConfig parses a JSON switchless configuration (as
// written by SwitchlessConfig.JSON or `sgx-perf-lint -switchless-config`).
func ParseSwitchlessConfig(b []byte) (*SwitchlessConfig, error) {
	return sdk.ParseSwitchlessConfig(b)
}

// NewHost builds a simulated SGX host.
func NewHost(opts ...HostOption) (*Host, error) { return host.New(opts...) }

// WithMitigation selects the host's mitigation level.
func WithMitigation(m MitigationLevel) HostOption { return host.WithMitigation(m) }

// WithEPCCapacity overrides the EPC size in pages (default: the
// architectural 23,808 usable pages ≈ 93 MiB, §2.3.3).
func WithEPCCapacity(pages int) HostOption { return host.WithEPCCapacity(pages) }

// WithEnclaveComputeFactor sets the in-enclave compute slowdown.
func WithEnclaveComputeFactor(f float64) HostOption { return host.WithEnclaveComputeFactor(f) }

// AttachLogger preloads the sgx-perf event logger into the host process.
func AttachLogger(h *Host, opts LoggerOptions) (*Logger, error) { return logger.Attach(h, opts) }

// AttachLive attaches a streaming collector to the logger's trace; it
// reads the trace only when sampled. Fails with ErrLoggerDetached once
// the logger has been detached.
func AttachLive(l *Logger, opts LiveOptions) (*LiveCollector, error) { return live.Attach(l, opts) }

// NewWorkingSetEstimator creates the §4.2 estimator for an enclave.
func NewWorkingSetEstimator(h *Host, enc *Enclave) *WorkingSetEstimator {
	return workingset.New(h, enc)
}

// NewAnalyzer prepares an analyser over a trace.
func NewAnalyzer(t *Trace, opts AnalyzerOptions) (*Analyzer, error) {
	return analyzer.New(t, opts)
}

// Analyze runs the full analysis with default options.
func Analyze(t *Trace) (*Report, error) {
	a, err := analyzer.New(t, analyzer.Options{})
	if err != nil {
		return nil, err
	}
	return a.Analyze(), nil
}

// AnalyzeWithContext is Analyze with explicit options and cooperative
// cancellation: long analyses stop between the sort, the sweep and
// report assembly once ctx is done and the call returns ctx.Err(). An
// uncancelled call produces exactly the report of Analyze /
// Analyzer.Analyze with the same options.
func AnalyzeWithContext(ctx context.Context, t *Trace, opts AnalyzerOptions) (*Report, error) {
	a, err := analyzer.New(t, opts)
	if err != nil {
		return nil, err
	}
	return a.AnalyzeContext(ctx)
}

// HybridLintContext is HybridLint with cooperative cancellation.
func HybridLintContext(ctx context.Context, iface *Interface, t *Trace, opts LintOptions) (*LintReport, error) {
	return staticlint.HybridContext(ctx, iface, t, opts)
}

// MustAnalyze is Analyze for contexts where the trace is known-good.
func MustAnalyze(t *Trace) *Report {
	r, err := Analyze(t)
	if err != nil {
		panic(fmt.Sprintf("sgxperf: %v", err))
	}
	return r
}

// NewTrace creates an empty trace (for loading saved trace files).
func NewTrace() (*Trace, error) { return events.NewTrace() }

// LoadTrace reads a trace file written by Logger.Trace().SaveFile.
func LoadTrace(path string) (*Trace, error) {
	t, err := events.NewTrace()
	if err != nil {
		return nil, err
	}
	if err := t.LoadFile(path); err != nil {
		return nil, err
	}
	return t, nil
}

// ParseEDL parses EDL text into an enclave interface.
func ParseEDL(src string) (*Interface, []string, error) { return edl.Parse(src) }

// NewInterface creates an empty interface for programmatic construction.
func NewInterface() *Interface { return edl.NewInterface() }

// BuildOcallTable assembles an ocall table for an interface.
func BuildOcallTable(iface *Interface, h *Host, impls map[string]OcallFn) (*OcallTable, error) {
	return sdk.BuildOcallTable(iface, h.URTS, impls)
}

// Proxies generates the untrusted ecall wrappers for an enclave.
func Proxies(app *AppEnclave, h *Host, otab *OcallTable) map[string]Proxy {
	return sdk.Proxies(app, h.Proc, otab)
}

// DefaultWeights returns the paper's detector thresholds (§4.3.2).
func DefaultWeights() Weights { return analyzer.DefaultWeights() }

// Catalogue returns the Table 1 problem→solutions catalogue.
func Catalogue() map[analyzer.Problem][]analyzer.Solution { return analyzer.Catalogue() }

// Frequency conversion helpers (virtual time).
type (
	// Cycles is a point or span of virtual time.
	Cycles = vtime.Cycles
	// Frequency converts cycles to durations.
	Frequency = vtime.Frequency
)

// DefaultFrequency is the simulated 3.40 GHz CPU of the paper's testbed.
const DefaultFrequency = vtime.DefaultFrequency
