package sgxperf

import (
	"context"
	"fmt"

	"sgxperf/internal/edl"
	"sgxperf/internal/host"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/live"
	"sgxperf/internal/perf/logger"
	"sgxperf/internal/perf/staticlint"
	"sgxperf/internal/sdk"
)

// Session is the one-stop entry point to the toolset: a simulated host
// with the sgx-perf logger preloaded, an enclave interface, and the
// ocall table — everything the 5-step quick start (NewHost →
// AttachLogger → ParseEDL → BuildOcallTable → Proxies) builds by hand.
// The individual steps remain available for callers that need to
// compose the pieces differently.
type Session struct {
	Host      *Host
	Logger    *Logger
	Interface *Interface
	// Ocalls is the assembled ocall table; the logger has already swapped
	// its tracing stubs in front of it.
	Ocalls *OcallTable
	// Warnings are the EDL parser's non-fatal diagnostics, if WithEDL was
	// used.
	Warnings []string

	switchless *sdk.SwitchlessConfig
	// enclaves tracks enclaves with a running switchless runtime, so
	// Close can stop them.
	enclaves []*SessionEnclave
}

// SessionOption configures NewSession.
type SessionOption func(*sessionConfig)

type sessionConfig struct {
	hostOpts   []HostOption
	loggerOpts LoggerOptions
	edl        string
	hasEDL     bool
	ocallImpls map[string]OcallFn
	switchless *sdk.SwitchlessConfig
}

// WithEDL declares the enclave interface from EDL source. Without it the
// session starts with an empty interface that can be populated through
// Session.Interface.
func WithEDL(src string) SessionOption {
	return func(c *sessionConfig) { c.edl, c.hasEDL = src, true }
}

// WithOcallImpls supplies the untrusted ocall implementations backing
// the interface's untrusted functions.
func WithOcallImpls(impls map[string]OcallFn) SessionOption {
	return func(c *sessionConfig) { c.ocallImpls = impls }
}

// WithSwitchless applies a switchless runtime configuration — typically
// emitted by the static analyzer (SwitchlessConfigFrom, or
// `sgx-perf-lint -switchless-config`) — to every enclave the session
// creates: calls the configuration routes run on self-tuning worker
// pools instead of crossing the enclave boundary. A nil configuration
// is ignored.
func WithSwitchless(cfg *sdk.SwitchlessConfig) SessionOption {
	return func(c *sessionConfig) { c.switchless = cfg }
}

// WithHost forwards options to the underlying NewHost call.
func WithHost(opts ...HostOption) SessionOption {
	return func(c *sessionConfig) { c.hostOpts = append(c.hostOpts, opts...) }
}

// WithLogger configures the session's logger attachment.
func WithLogger(opts LoggerOptions) SessionOption {
	return func(c *sessionConfig) { c.loggerOpts = opts }
}

// NewSession builds a host, preloads the logger, parses the interface
// and assembles the ocall table in one call.
func NewSession(opts ...SessionOption) (*Session, error) {
	var cfg sessionConfig
	for _, o := range opts {
		o(&cfg)
	}
	h, err := host.New(cfg.hostOpts...)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	l, err := logger.Attach(h, cfg.loggerOpts)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	s := &Session{Host: h, Logger: l, switchless: cfg.switchless}
	if cfg.hasEDL {
		iface, warnings, err := edl.Parse(cfg.edl)
		if err != nil {
			return nil, fmt.Errorf("session: %w", err)
		}
		s.Interface, s.Warnings = iface, warnings
	} else {
		s.Interface = edl.NewInterface()
	}
	otab, err := sdk.BuildOcallTable(s.Interface, h.URTS, cfg.ocallImpls)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	s.Ocalls = otab
	return s, nil
}

// NewContext creates a simulated OS thread on the session's host.
func (s *Session) NewContext(name string) *Context { return s.Host.NewContext(name) }

// SessionEnclave is an enclave created through a Session, with its
// untrusted ecall proxies pre-generated.
type SessionEnclave struct {
	App     *AppEnclave
	Proxies map[string]Proxy
	// Switchless is the enclave's self-tuning switchless runtime, non-nil
	// when the session was built WithSwitchless. Call routes configured
	// ecalls through it automatically; it is stopped by Stop (or
	// Session.Close).
	Switchless *sdk.Switchless

	session *Session
}

// Enclave builds an enclave against the session's interface and returns
// it with its proxies. With a switchless configuration on the session,
// the enclave's self-tuning runtime is started here and ocalls to
// configured names are routed through it from the first call.
func (s *Session) Enclave(ctx *Context, cfg EnclaveConfig, trusted map[string]TrustedFn) (*SessionEnclave, error) {
	app, err := s.Host.URTS.CreateEnclave(ctx, cfg, s.Interface, trusted)
	if err != nil {
		return nil, fmt.Errorf("session: enclave %q: %w", cfg.Name, err)
	}
	e := &SessionEnclave{
		App:     app,
		Proxies: sdk.Proxies(app, s.Host.Proc, s.Ocalls),
		session: s,
	}
	if s.switchless != nil {
		// The raw ocall table, deliberately: switchless workers bypass the
		// logger's stub interposition (the blind spot the synthetic trace
		// events compensate for).
		sl, err := s.Host.URTS.StartSwitchless(app, *s.switchless, s.Ocalls)
		if err != nil {
			return nil, fmt.Errorf("session: enclave %q: %w", cfg.Name, err)
		}
		e.Switchless = sl
		s.enclaves = append(s.enclaves, e)
	}
	return e, nil
}

// Call invokes one of the enclave's public ecalls by name. Ecalls the
// session's switchless configuration routes go through the worker pool
// (falling back to the regular transition path when its queue is full);
// everything else takes the regular proxy.
func (e *SessionEnclave) Call(ctx *Context, name string, args any) (any, error) {
	if e.Switchless != nil && e.Switchless.RoutesEcall(name) {
		if f, ok := e.session.Interface.Lookup(name); ok {
			return e.Switchless.Call(ctx, f.ID, e.session.Ocalls, args)
		}
	}
	p, ok := e.Proxies[name]
	if !ok {
		return nil, fmt.Errorf("session: no ecall proxy %q", name)
	}
	return p(ctx, args)
}

// Stop shuts down the enclave's switchless runtime, if any: workers are
// joined and later Calls take the regular transition path. Idempotent.
func (e *SessionEnclave) Stop() {
	if e.Switchless != nil {
		e.Switchless.Stop()
	}
}

// Analyze runs the post-mortem analysis over everything the session's
// logger has recorded so far: the analyser's fold over sorted copies of
// the trace's tables, the engine every report comes from.
func (s *Session) Analyze() (*Report, error) {
	return s.AnalyzeWith(AnalyzerOptions{})
}

// AnalyzeWith is Analyze with explicit analyser options — detector
// weights, an explicit EDL, or per-enclave dissection.
func (s *Session) AnalyzeWith(opts AnalyzerOptions) (*Report, error) {
	return s.AnalyzeContext(context.Background(), opts)
}

// AnalyzeContext is AnalyzeWith with cooperative cancellation, for
// callers — server handlers, deadline-bound batch jobs — that may need
// to abandon a long analysis. Cancellation is observed between the
// sort, the sweep and report assembly; a cancelled run returns
// ctx.Err(). An uncancelled AnalyzeContext produces exactly
// AnalyzeWith's report.
func (s *Session) AnalyzeContext(ctx context.Context, opts AnalyzerOptions) (*Report, error) {
	a, err := analyzer.New(s.Logger.Trace(), opts)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	r, err := a.AnalyzeContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	return r, nil
}

// Lint runs the static interface analysis over the session's interface:
// findings from the EDL alone, before (or without) any workload run.
func (s *Session) Lint(opts LintOptions) *LintReport {
	return staticlint.Static(s.Interface, opts)
}

// LintHybrid joins the static findings with everything the session's
// logger has recorded so far, ranking them by observed call counts and
// flagging static-only and dynamic-only discrepancies.
func (s *Session) LintHybrid(opts LintOptions) (*LintReport, error) {
	return s.LintHybridContext(context.Background(), opts)
}

// LintHybridContext is LintHybrid with cooperative cancellation; a
// cancelled run returns ctx.Err(). An uncancelled LintHybridContext
// produces exactly LintHybrid's report.
func (s *Session) LintHybridContext(ctx context.Context, opts LintOptions) (*LintReport, error) {
	r, err := staticlint.HybridContext(ctx, s.Interface, s.Logger.Trace(), opts)
	if err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	return r, nil
}

// Live attaches a streaming collector to the session's trace. The
// caller owns the collector and should Close it when done.
func (s *Session) Live(opts LiveOptions) (*LiveCollector, error) {
	return live.Attach(s.Logger, opts)
}

// Close stops any switchless runtimes the session started and detaches
// the logger; the recorded trace stays readable.
func (s *Session) Close() {
	for _, e := range s.enclaves {
		e.Stop()
	}
	s.Logger.Detach()
}
