package sdk

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sgxperf/internal/edl"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// Switchless calls are the transition-elimination technique of SCONE,
// HotCalls and Eleos that the paper discusses as the alternative to a
// better interface (§2.3, §6) and that Intel later shipped as
// "switchless calls": worker threads parked *inside* the enclave service
// ecall requests from a shared queue, so a short call costs a queue
// round-trip (~hundreds of ns) instead of an EENTER/EEXIT round trip
// (~2–5 µs). Symmetrically, untrusted workers parked *outside* the
// enclave service ocall requests, so trusted code can call out without
// an EEXIT/EENTER round trip (the HotCalls direction).
//
// This implementation mirrors Intel's semantics: only public ecalls may
// run switchless, requests fall back to the regular sgx_ecall path when
// the queue is full, and trusted workers hold a TCS each while parked.
// Between a configuration's worker bounds the runtime scales itself, as
// in "SGX Switchless Calls Made Configless": a per-epoch scheduler grows
// and retires workers from the observed fallback rate and average queue
// occupancy, priced in virtual time so experiments stay deterministic.
// Equal bounds make a fixed pool.
//
// Observability: switchless calls do NOT pass through sgx_ecall or the
// ocall table, so interposition alone cannot see them (§6). The runtime
// closes that blind spot cooperatively: every served call and every
// fallback is reported through the URTS switchless observer, which an
// attached logger turns into synthetic switchless events in the trace.

// Switchless queue costs.
const (
	// CostSwitchlessSubmit is the caller-side enqueue + signal cost,
	// charged both at submit and at result collection.
	CostSwitchlessSubmit = 150 * time.Nanosecond
	// CostSwitchlessWake is the worker-side dequeue cost per request.
	CostSwitchlessWake = 200 * time.Nanosecond
	// CostSwitchlessTune is charged on the caller that trips an epoch
	// boundary and runs the scaling decision.
	CostSwitchlessTune = 400 * time.Nanosecond
)

// ErrSwitchlessStopped is returned by Call after Stop.
var ErrSwitchlessStopped = errors.New("sdk: switchless workers stopped")

// SwitchlessRecord is one completed switchless call (or fallback) as the
// runtime reports it to the URTS observer. The logger converts records
// into synthetic trace events; the type is deliberately free of trace
// schema so the SDK does not depend on the events package.
type SwitchlessRecord struct {
	// Ecall is true for the trusted (ecall) direction, false for the
	// untrusted (ocall) direction.
	Ecall   bool
	Enclave sgx.EnclaveID
	// Caller is the submitting thread.
	Caller sgx.ThreadID
	CallID int
	Name   string
	// Start is the caller's submit time, End its collect time.
	Start vtime.Cycles
	End   vtime.Cycles
	// Worker is the pool thread that serviced the request, 0 on fallback.
	Worker sgx.ThreadID
	// Fallback records that the queue was full and the call took the
	// regular transition path instead.
	Fallback bool
	Err      bool
}

// SwitchlessObserver receives one record per switchless call.
type SwitchlessObserver func(SwitchlessRecord)

// slRequest is one queued switchless call (either direction).
type slRequest struct {
	callID int
	args   any
	// submitted is the caller's virtual time at enqueue.
	submitted vtime.Cycles
	done      chan slResult
}

// slWorker is one pool worker: a private request queue plus the virtual
// time its clock reached at its last completion. Requests are assigned
// to workers at submit time by comparing busyUntil against the request's
// submit time (see pickWorker); a shared FIFO would instead hand a
// request to whichever worker wins the real-time race, and a worker
// whose clock one caller's timeline dragged forward would then stall
// every other caller Lamport-style — serialising the pool in virtual
// time no matter how many workers it has.
type slWorker struct {
	queue chan *slRequest
	// busyUntil is the worker's clock at its last completion, published
	// for the submit-side assignment.
	busyUntil atomic.Int64
	// pending counts requests committed to this queue but not yet
	// dequeued; the retire drain loop runs until it reaches zero.
	pending atomic.Int64
	// retiring is set (before the worker leaves the published slice) to
	// turn away submitters that raced the retirement.
	retiring atomic.Bool
	retire   chan struct{}
}

type slResult struct {
	res any
	err error
	// completed is the worker's virtual time when the call finished.
	completed vtime.Cycles
	// worker is the servicing pool thread.
	worker sgx.ThreadID
}

// slPool is one direction's worker pool: the trusted pool's workers park
// inside the enclave (one TCS each) and service ecalls, the untrusted
// pool's workers stay outside and service ocalls.
type slPool struct {
	name    string // "ecall" or "ocall"
	trusted bool
	// depth is the per-worker queue capacity; a full queue falls back.
	depth int
	// workers is the published slice the submit path assigns against;
	// only the tuner (under tuneMu) replaces it.
	workers atomic.Pointer[[]*slWorker]

	served   atomic.Uint64
	fellBack atomic.Uint64
	// calls counts submissions while the scheduler runs; every
	// EpochCalls-th submission runs the tuner.
	calls atomic.Uint64
	// waitCycles accumulates, in virtual cycles, how long each served
	// request sat in the queue: the amount by which the serving worker's
	// clock was already past the submit time. Real queue length is useless
	// as a load signal here — workers drain their channels in real time
	// even when callers pile up in virtual time — so backlog is priced in
	// virtual time.
	waitCycles atomic.Uint64
	// serviceCycles accumulates the virtual time workers spent holding
	// requests (dequeue to completion), the tuner's service-time estimate.
	serviceCycles atomic.Uint64
	// seen and callers track the distinct caller timelines that ever
	// submitted to this pool — the tuner's demand estimate. Read-mostly:
	// one store per caller lifetime.
	seen    sync.Map
	callers atomic.Int64

	// Tuner state, guarded by Switchless.tuneMu.
	count      int
	spawned    int
	epoch      int
	quiet      int
	lastServed uint64
	lastFell   uint64
	lastWait   uint64
}

// EpochDecision is one scaling decision of the self-tuning scheduler.
type EpochDecision struct {
	// Pool is "ecall" or "ocall".
	Pool  string `json:"pool"`
	Epoch int    `json:"epoch"`
	// Action is "grow", "shrink" or "hold".
	Action string `json:"action"`
	// Workers is the pool size after the action.
	Workers int `json:"workers"`
	// Served and Fallbacks are this epoch's deltas.
	Served    uint64 `json:"served"`
	Fallbacks uint64 `json:"fallbacks"`
	// AvgWait is the mean virtual time served requests spent queued this
	// epoch, as measured by the workers.
	AvgWait time.Duration `json:"avg_wait_ns"`
	// Callers is the demand estimate: distinct caller timelines seen on
	// this pool so far.
	Callers int `json:"callers"`
	// PredictedWait is the queueing model's per-request wait at the
	// pre-decision worker count — the value the decision was taken on.
	PredictedWait time.Duration `json:"predicted_wait_ns"`
}

// Tuner policy. The measured per-epoch wait is recorded for
// observability but is too lumpy to scale on: which caller timelines hit
// a busy worker within one epoch depends on how the host interleaved the
// goroutines, so thresholding it oscillates. The tuner instead prices a
// deterministic queueing model — C caller timelines sharing W workers of
// mean service time S queue for about (C-W)·S/W per request — and grows
// while that prediction exceeds slGrowWait (or any submit fell back on a
// full queue). It retires a worker only when the model says W-1 workers
// would STILL keep the predicted wait under slGrowWait, after
// slShrinkQuiet consecutive fallback-free epochs: grow and shrink can
// then never disagree about the same worker count, so the pool settles
// instead of oscillating.
const (
	slGrowWait    = 2 * CostSwitchlessWake
	slShrinkQuiet = 2
)

// Switchless manages the worker pools servicing switchless call queues.
type Switchless struct {
	app  *AppEnclave
	urts *URTS

	ecalls *slPool
	ocalls *slPool // nil unless the configuration routes ocalls
	// otab is the raw ocall table the untrusted workers execute from —
	// the real implementations, not a logger's stub table, exactly
	// because switchless ocalls bypass interposition.
	otab *OcallTable
	// routedEcalls/routedOcalls are the names the configuration routes
	// through the queues; immutable after start.
	routedEcalls map[string]bool
	routedOcalls map[string]bool
	cfg          SwitchlessConfig

	stop     chan struct{}
	stopped  atomic.Bool
	inflight atomic.Int64
	wg       sync.WaitGroup

	// tuneMu serialises scaling decisions and worker spawn/retire; the
	// submit fast path never takes it.
	tuneMu    sync.Mutex
	decisions []EpochDecision
}

// StartSwitchless starts the switchless runtime from a configuration,
// typically one the static analyzer emitted. The ecall pool services
// Call and an untrusted pool services cfg.Ocalls against otab; each
// starts at MinWorkers, and trusted workers park inside the enclave
// holding one TCS each for their lifetime, like sgx_uswitchless. When
// MaxWorkers exceeds MinWorkers a per-epoch scheduler resizes the pools
// between the bounds; equal bounds make a fixed pool. The runtime
// installs itself on the enclave, so in-enclave ocalls to routed names
// take the queue instead of the transition path.
func (u *URTS) StartSwitchless(app *AppEnclave, cfg SwitchlessConfig, otab *OcallTable) (*Switchless, error) {
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	routedE := make(map[string]bool, len(cfg.Ecalls))
	for _, name := range cfg.Ecalls {
		if f, ok := app.iface.Lookup(name); ok && f.Kind == edl.Ecall && SwitchlessEligible(f) {
			routedE[name] = true
		}
	}
	routedO := make(map[string]bool, len(cfg.Ocalls))
	if otab != nil {
		for _, name := range cfg.Ocalls {
			f, ok := app.iface.Lookup(name)
			if ok && f.Kind == edl.Ocall && SwitchlessEligible(f) && f.ID < len(otab.Funcs) && otab.Funcs[f.ID] != nil {
				routedO[name] = true
			}
		}
	}
	if app.Enclave().FreeTCS() < cfg.MinWorkers {
		return nil, fmt.Errorf("sdk: switchless needs %d free TCS, have %d",
			cfg.MinWorkers, app.Enclave().FreeTCS())
	}
	s := &Switchless{
		app:  app,
		urts: u,
		ecalls: &slPool{
			name:    "ecall",
			trusted: true,
			depth:   cfg.QueueDepth,
		},
		otab:         otab,
		routedEcalls: routedE,
		routedOcalls: routedO,
		cfg:          cfg,
		stop:         make(chan struct{}),
	}
	s.ecalls.workers.Store(&[]*slWorker{})
	if len(routedO) > 0 {
		s.ocalls = &slPool{
			name:  "ocall",
			depth: cfg.QueueDepth,
		}
		s.ocalls.workers.Store(&[]*slWorker{})
	}
	s.tuneMu.Lock()
	defer s.tuneMu.Unlock()
	for _, p := range s.pools() {
		for i := 0; i < cfg.MinWorkers; i++ {
			//sgxperf:allow(heldacross) spawn handshake must run under tuneMu so a concurrent Stop cannot join mid-spawn; the ready channel is answered before the worker parks
			if err := s.growLocked(p); err != nil {
				//sgxperf:allow(heldacross) the join must run under tuneMu so no concurrent tune respawns after it; workers exit without taking tuneMu
				s.stopLocked()
				return nil, err
			}
		}
	}
	if !app.setSwitchless(s) {
		//sgxperf:allow(heldacross) the join must run under tuneMu so no concurrent tune respawns after it; workers exit without taking tuneMu
		s.stopLocked()
		return nil, fmt.Errorf("sdk: enclave %d already has a switchless runtime", app.ID())
	}
	return s, nil
}

func (s *Switchless) pools() []*slPool {
	ps := []*slPool{s.ecalls}
	if s.ocalls != nil {
		ps = append(ps, s.ocalls)
	}
	return ps
}

// growLocked spawns one worker for the pool and publishes it for
// assignment; tuneMu must be held.
func (s *Switchless) growLocked(p *slPool) error {
	if p.trusted && s.app.Enclave().FreeTCS() < 1 {
		return sgx.ErrNoFreeTCS
	}
	ctx := s.urts.machine.NewContext(fmt.Sprintf("switchless-%s-%d", p.name, p.spawned))
	p.spawned++
	w := &slWorker{
		queue:  make(chan *slRequest, p.depth),
		retire: make(chan struct{}),
	}
	ready := make(chan error, 1)
	s.wg.Add(1)
	go s.worker(p, w, ctx, ready)
	if err := <-ready; err != nil {
		return err
	}
	old := *p.workers.Load()
	next := make([]*slWorker, len(old)+1)
	copy(next, old)
	next[len(old)] = w
	p.workers.Store(&next)
	p.count++
	return nil
}

// shrinkLocked retires the most recently spawned worker; tuneMu held.
// The worker is marked retiring and unpublished before its retire signal
// fires, so submitters either miss it or back out and fall back; it then
// serves every request already committed to its queue and exits.
func (s *Switchless) shrinkLocked(p *slPool) {
	old := *p.workers.Load()
	if len(old) == 0 {
		return
	}
	w := old[len(old)-1]
	w.retiring.Store(true)
	next := make([]*slWorker, len(old)-1)
	copy(next, old[:len(old)-1])
	p.workers.Store(&next)
	close(w.retire)
	p.count--
}

// worker services its private queue until stopped or retired. Trusted
// workers enter the enclave once and hold their TCS while parked.
func (s *Switchless) worker(p *slPool, w *slWorker, ctx *sgx.Context, ready chan<- error) {
	defer s.wg.Done()
	var env *Env
	if p.trusted {
		if err := ctx.EEnter(s.app.Enclave()); err != nil {
			ready <- fmt.Errorf("sdk: switchless worker enter: %w", err)
			return
		}
		defer func() { _ = ctx.EExit() }()
		env = &Env{ctx: ctx, app: s.app, urts: s.urts}
	}
	ready <- nil
	for {
		select {
		case <-s.stop:
			w.drainStopped()
			return
		case <-w.retire:
			// Serve the stragglers: any submitter that committed to this
			// queue before the retiring flag was raised (pending counts
			// them) still gets its result.
			for {
				select {
				case <-s.stop:
					w.drainStopped()
					return
				case req := <-w.queue:
					w.pending.Add(-1)
					s.serve(p, w, ctx, env, req)
				default:
					if w.pending.Load() == 0 {
						return
					}
					runtime.Gosched()
				}
			}
		case req := <-w.queue:
			w.pending.Add(-1)
			s.serve(p, w, ctx, env, req)
		}
	}
}

// serve runs one request on its assigned worker and publishes the
// worker's new busy horizon.
func (s *Switchless) serve(p *slPool, w *slWorker, ctx *sgx.Context, env *Env, req *slRequest) {
	// Virtual queue wait: a worker whose clock is already past the submit
	// time was busy when the request arrived. With best-fit assignment
	// this only happens under genuine contention (more caller timelines
	// than workers), which is exactly the signal the tuner wants.
	if now := ctx.Now(); now > req.submitted {
		p.waitCycles.Add(uint64(now - req.submitted))
	}
	// The worker observes the request: its clock advances to at least the
	// submit time plus the queue hand-off.
	ctx.Clock().MergeAtLeast(req.submitted)
	start := ctx.Now()
	ctx.Compute(CostSwitchlessWake)
	var res any
	var err error
	if p.trusted {
		res, err = s.executeEcall(env, req)
	} else {
		res, err = s.executeOcall(ctx, req)
	}
	completed := ctx.Now()
	p.served.Add(1)
	p.serviceCycles.Add(uint64(completed - start))
	w.busyUntil.Store(int64(completed))
	req.done <- slResult{res: res, err: err, completed: completed, worker: ctx.ID()}
}

// drainStopped answers everything left in the worker's queue with
// ErrSwitchlessStopped so no submitter blocks across Stop.
func (w *slWorker) drainStopped() {
	for {
		select {
		case req := <-w.queue:
			w.pending.Add(-1)
			req.done <- slResult{err: ErrSwitchlessStopped}
		default:
			return
		}
	}
}

// noteCaller counts the distinct caller timelines submitting to the
// pool — the tuner's demand estimate. The fast path is a lock-free map
// read; each caller stores exactly once.
//
//sgxperf:hotpath
func (p *slPool) noteCaller(id sgx.ThreadID) {
	if _, ok := p.seen.Load(id); ok {
		return
	}
	if _, loaded := p.seen.LoadOrStore(id, struct{}{}); !loaded {
		p.callers.Add(1)
	}
}

// enqueue assigns the request to a worker and commits it to that
// worker's queue. It reports false when the pool cannot take the request
// (no workers, a full queue, or a racing retirement) and the caller must
// fall back to the regular transition path. Lock-free: the submit path
// is annotated hot.
func (p *slPool) enqueue(req *slRequest) bool {
	ws := *p.workers.Load()
	if len(ws) == 0 {
		return false
	}
	w := pickWorker(ws, req.submitted)
	w.pending.Add(1)
	if w.retiring.Load() {
		// Retirement raced the assignment; the retire drain only waits
		// for submitters it saw commit, so back out and fall back.
		w.pending.Add(-1)
		return false
	}
	select {
	case w.queue <- req:
		return true
	default:
		w.pending.Add(-1)
		return false
	}
}

// pickWorker chooses the worker whose busy horizon best fits the
// request's submit time: the latest horizon at or before it (serving
// there costs no wait, and taking the *latest* such horizon keeps
// idle, far-behind workers free for callers whose own timelines are
// behind), else the earliest horizon (least virtual wait). Assigning by
// virtual time instead of a shared real-time FIFO is what lets the pool
// actually run caller timelines in parallel: it keeps one caller's
// Lamport-merged clock from contaminating every other caller through a
// shared worker.
func pickWorker(ws []*slWorker, submitted vtime.Cycles) *slWorker {
	var fit, min *slWorker
	var fitBusy, minBusy int64
	for _, w := range ws {
		b := w.busyUntil.Load()
		if b <= int64(submitted) && (fit == nil || b > fitBusy) {
			fit, fitBusy = w, b
		}
		if min == nil || b < minBusy {
			min, minBusy = w, b
		}
	}
	if fit != nil {
		return fit
	}
	return min
}

func (s *Switchless) executeEcall(env *Env, req *slRequest) (any, error) {
	decl, ok := s.app.iface.EcallByID(req.callID)
	if !ok {
		return nil, ErrInvalidEcall
	}
	if !decl.Public {
		// Private ecalls require an in-flight ocall context, which a
		// parked worker never has — mirror the SDK and reject.
		return nil, fmt.Errorf("%w: switchless %s", ErrEcallNotAllowed, decl.Name)
	}
	fn, ok := s.app.trustedFn(req.callID)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoImplementation, decl.Name)
	}
	chargeCopy(env.ctx, req.args, true)
	res, err := fn(env, req.args)
	chargeCopy(env.ctx, req.args, false)
	return res, err
}

// executeOcall runs one routed ocall on an untrusted worker, straight
// from the raw table — no EEXIT, no dispatch, no interposition stubs.
func (s *Switchless) executeOcall(ctx *sgx.Context, req *slRequest) (any, error) {
	if req.callID < 0 || req.callID >= len(s.otab.Funcs) || s.otab.Funcs[req.callID] == nil {
		return nil, fmt.Errorf("%w: id %d has no table entry", ErrInvalidOcall, req.callID)
	}
	return s.otab.Funcs[req.callID](ctx, req.args)
}

// Call issues a switchless ecall: enqueue, wait, merge clocks. When the
// pool cannot take the request (full queues or a racing retirement) the
// call runs over the regular transition path instead, exactly like
// Intel's switchless runtime; after Stop it returns ErrSwitchlessStopped.
//
//sgxperf:hotpath
func (s *Switchless) Call(ctx *sgx.Context, callID int, otab *OcallTable, args any) (any, error) {
	s.inflight.Add(1)
	if s.stopped.Load() {
		s.inflight.Add(-1)
		return nil, ErrSwitchlessStopped
	}
	p := s.ecalls
	p.noteCaller(ctx.ID())
	ctx.Compute(CostSwitchlessSubmit)
	start := ctx.Now()
	req := &slRequest{callID: callID, args: args, submitted: start, done: make(chan slResult, 1)}
	queued := p.enqueue(req)
	var result slResult
	if !queued {
		p.fellBack.Add(1)
		result.res, result.err = s.urts.Ecall(ctx, s.app.ID(), callID, otab, args)
	}
	if s.cfg.tuned() && p.calls.Add(1)%uint64(s.cfg.EpochCalls) == 0 {
		s.tune(ctx, p)
	}
	// Stop's final drain answers any request committed to a queue, so
	// only the submission has to finish before Stop returns.
	s.inflight.Add(-1)
	if queued {
		result = <-req.done
		// The caller waited (spinning on the response flag) until the
		// worker finished: its clock advances to the completion time.
		ctx.Clock().MergeAtLeast(result.completed)
	}
	ctx.Compute(CostSwitchlessSubmit)
	if obs := s.urts.switchlessObserver(); obs != nil {
		name := ""
		if decl, ok := s.app.iface.EcallByID(callID); ok {
			name = decl.Name
		}
		obs(SwitchlessRecord{
			Ecall: true, Enclave: s.app.ID(), Caller: ctx.ID(), CallID: callID, Name: name,
			Start: start, End: ctx.Now(), Worker: result.worker, Fallback: !queued,
			Err: result.err != nil,
		})
	}
	return result.res, result.err
}

// ocallSwitchless routes an in-enclave ocall through the untrusted
// worker pool. handled=false means the caller must take the regular
// transition path (name not routed, queue full, or runtime stopped).
//
//sgxperf:hotpath
func (s *Switchless) ocallSwitchless(ctx *sgx.Context, decl *edl.Func, args any) (res any, err error, handled bool) {
	if s.ocalls == nil || !s.routedOcalls[decl.Name] {
		return nil, nil, false
	}
	s.inflight.Add(1)
	defer s.inflight.Add(-1)
	if s.stopped.Load() {
		return nil, nil, false
	}
	p := s.ocalls
	p.noteCaller(ctx.ID())
	ctx.Compute(CostSwitchlessSubmit)
	start := ctx.Now()
	// The caller marshals the arguments into the shared request area —
	// the copy cost stays, only the transition disappears.
	chargeCopy(ctx, args, true)
	req := &slRequest{callID: decl.ID, args: args, submitted: ctx.Now(), done: make(chan slResult, 1)}
	if !p.enqueue(req) {
		p.fellBack.Add(1)
		s.emit(SwitchlessRecord{
			Enclave: s.app.ID(), Caller: ctx.ID(), CallID: decl.ID, Name: decl.Name,
			Start: start, End: ctx.Now(), Fallback: true,
		})
		return nil, nil, false
	}
	if s.cfg.tuned() && p.calls.Add(1)%uint64(s.cfg.EpochCalls) == 0 {
		s.tune(ctx, p)
	}
	result := <-req.done
	ctx.Clock().MergeAtLeast(result.completed)
	ctx.Compute(CostSwitchlessSubmit)
	chargeCopy(ctx, args, false)
	if errors.Is(result.err, ErrSwitchlessStopped) {
		// Stopped while queued: let the regular path run the call.
		return nil, nil, false
	}
	s.emit(SwitchlessRecord{
		Enclave: s.app.ID(), Caller: ctx.ID(), CallID: decl.ID, Name: decl.Name,
		Start: start, End: ctx.Now(), Worker: result.worker, Err: result.err != nil,
	})
	return result.res, result.err, true
}

//sgxperf:hotpath
func (s *Switchless) emit(rec SwitchlessRecord) {
	if obs := s.urts.switchlessObserver(); obs != nil {
		obs(rec)
	}
}

// RoutesEcall reports whether the configuration routes the named ecall
// through the switchless queue.
func (s *Switchless) RoutesEcall(name string) bool { return s.routedEcalls[name] }

// tune runs one epoch of the scaling scheduler for a pool: grow on
// fallbacks or a predicted queue wait over the threshold, retire a
// worker when one fewer would still keep the prediction under it (see
// the policy comment at slGrowWait). The decision cost is charged to the
// caller that tripped the epoch, in virtual time.
func (s *Switchless) tune(ctx *sgx.Context, p *slPool) {
	ctx.Compute(CostSwitchlessTune)
	s.tuneMu.Lock()
	defer s.tuneMu.Unlock()
	if s.stopped.Load() {
		return
	}
	p.epoch++
	served, fell, wait := p.served.Load(), p.fellBack.Load(), p.waitCycles.Load()
	dServed, dFell := served-p.lastServed, fell-p.lastFell
	dWait := wait - p.lastWait
	p.lastServed, p.lastFell, p.lastWait = served, fell, wait
	freq := ctx.Clock().Frequency()
	var avgWait time.Duration
	if dServed > 0 {
		avgWait = freq.Duration(vtime.Cycles(dWait / dServed))
	}

	// The queueing model: C caller timelines sharing w workers of mean
	// service time svc each queue for about (C-w)·svc/w per request.
	callers := int(p.callers.Load())
	var svc vtime.Cycles
	if served > 0 {
		svc = vtime.Cycles(p.serviceCycles.Load() / served)
	}
	predict := func(w int) vtime.Cycles {
		if w <= 0 || callers <= w {
			return 0
		}
		return vtime.Cycles(callers-w) * svc / vtime.Cycles(w)
	}
	growThresh := freq.Cycles(slGrowWait)
	pred := predict(p.count)

	action := "hold"
	switch {
	case (dFell > 0 || pred > growThresh) && p.count < s.cfg.MaxWorkers:
		//sgxperf:allow(heldacross) spawn handshake must run under tuneMu so a concurrent Stop cannot join mid-spawn; the ready channel is answered before the worker parks
		if s.growLocked(p) == nil {
			action = "grow"
		}
		p.quiet = 0
	case dFell == 0 && predict(p.count-1) <= growThresh && p.count > s.cfg.MinWorkers:
		p.quiet++
		if p.quiet >= slShrinkQuiet {
			s.shrinkLocked(p)
			action = "shrink"
			p.quiet = 0
		}
	default:
		p.quiet = 0
	}
	s.decisions = append(s.decisions, EpochDecision{
		Pool: p.name, Epoch: p.epoch, Action: action, Workers: p.count,
		Served: dServed, Fallbacks: dFell, AvgWait: avgWait,
		Callers: callers, PredictedWait: freq.Duration(pred),
	})
}

// Decisions returns a copy of every scaling decision taken so far.
func (s *Switchless) Decisions() []EpochDecision {
	s.tuneMu.Lock()
	defer s.tuneMu.Unlock()
	out := make([]EpochDecision, len(s.decisions))
	copy(out, s.decisions)
	return out
}

// Workers returns the current ecall- and ocall-pool worker counts.
func (s *Switchless) Workers() (ecall, ocall int) {
	s.tuneMu.Lock()
	defer s.tuneMu.Unlock()
	ecall = s.ecalls.count
	if s.ocalls != nil {
		ocall = s.ocalls.count
	}
	return ecall, ocall
}

// Config returns the effective configuration, defaults applied.
func (s *Switchless) Config() SwitchlessConfig { return s.cfg }

// Stats reports how many calls ran switchless and how many fell back,
// summed over both directions.
func (s *Switchless) Stats() (served, fellBack uint64) {
	for _, p := range s.pools() {
		served += p.served.Load()
		fellBack += p.fellBack.Load()
	}
	return served, fellBack
}

// Stop drains the workers: they EEXIT, release their TCSs and terminate.
// In-flight calls complete; subsequent Calls return ErrSwitchlessStopped.
func (s *Switchless) Stop() {
	if !s.stopped.CompareAndSwap(false, true) {
		return
	}
	s.tuneMu.Lock()
	//sgxperf:allow(heldacross) the join must run under tuneMu so no concurrent tune spawns a worker after it begins; workers exit without taking tuneMu
	s.stopLocked()
	s.tuneMu.Unlock()
	s.app.clearSwitchless(s)
	// Answer any request that slipped into a queue after the workers
	// left, so no caller blocks forever. A submitter that passed the
	// stopped check races the drain, so spin until none is in flight.
	for {
		s.drainQueues()
		if s.inflight.Load() == 0 {
			break
		}
		runtime.Gosched()
	}
	s.drainQueues()
}

// stopLocked closes the stop channel (once) and joins the workers;
// tuneMu must be held so no concurrent tune spawns a worker after the
// join begins.
func (s *Switchless) stopLocked() {
	select {
	case <-s.stop:
	default:
		close(s.stop)
	}
	s.wg.Wait()
	for _, p := range s.pools() {
		p.count = 0
	}
}

// drainQueues answers stragglers that were committed to a worker queue
// after that worker's own stop drain ran. The retired workers' queues
// need no sweep: the retiring flag turns submitters away before the
// worker's final drain.
func (s *Switchless) drainQueues() {
	for _, p := range s.pools() {
		for _, w := range *p.workers.Load() {
			w.drainStopped()
		}
	}
}
