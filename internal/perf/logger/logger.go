// Package logger implements the sgx-perf event logger (§4): a shared
// library preloaded into the application that shadows sgx_ecall to trace
// ecalls (Fig. 2), rewrites ocall tables with generated call stubs to
// trace ocalls (Fig. 3), overloads the SDK's four synchronisation ocalls
// into sleep/wake events (§4.1.3), patches the AEP to count or trace
// asynchronous exits (§4.1.4), and registers kprobes on the SGX driver's
// paging functions (§4.1.5). All events are serialised to an embedded
// event database.
//
// Recording is sharded per thread, mirroring the paper's per-thread
// in-memory buffers (§4.1): each simulated thread owns a recorder shard
// holding its call stack and event buffers, reached without any global
// lock on the hot path. Buffers are flushed to the event database in
// batches — either when full or lazily when a reader touches a table — so
// probe costs stay flat as threads are added.
//
// The logger needs no changes to the application, the enclave, or the
// SDK — only preloading, exactly as in the paper.
package logger

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sgxperf/internal/host"
	"sgxperf/internal/kernel"
	"sgxperf/internal/loader"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sdk"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// Probe costs, matching Table 2: the logger adds ≈1,366 ns per ecall,
// ≈1,320 ns per ocall, ≈1,076 ns per counted AEX and ≈1,118 ns per traced
// AEX.
const (
	CostEcallProbe = 1366 * time.Nanosecond
	CostOcallProbe = 1320 * time.Nanosecond
	CostAEXCount   = 1076 * time.Nanosecond
	CostAEXTrace   = 1118 * time.Nanosecond
)

// defaultFlushEvery is the per-shard buffer capacity before a batch flush
// to the event database.
const defaultFlushEvery = 256

// AEXMode selects how the logger observes asynchronous exits (§4.1.4).
type AEXMode int

const (
	// AEXOff leaves the AEP untouched.
	AEXOff AEXMode = iota + 1
	// AEXCount patches the AEP to count AEXs per ecall.
	AEXCount
	// AEXTrace additionally records the time of every AEX.
	AEXTrace
)

// Options configures the logger; the zero value records with AEX
// observation off, paging traced and batches of 256 events.
type Options struct {
	// Workload labels the trace.
	Workload string
	// AEX selects AEX observation (default AEXOff).
	AEX AEXMode
	// SkipPaging leaves the kprobes on the driver's paging functions
	// (§4.1.5) unregistered, so no paging events are recorded.
	SkipPaging bool
	// FlushEvery sets the per-thread buffer size before events are
	// flushed to the database in a batch (default 256). 1 flushes every
	// event immediately, reproducing the unbatched row-at-a-time path —
	// useful for golden-trace comparisons.
	FlushEvery int
}

type stackEntry struct {
	kind events.CallKind
	id   events.EventID
	aex  int
}

// stubPair is one (original table, stub table) association for the
// one-entry stub cache.
type stubPair struct {
	orig *sdk.OcallTable
	stub *sdk.OcallTable
}

// shard is one thread's recorder: its call stack plus event buffers. The
// mutex is effectively uncontended — the owning thread is the only
// hot-path user; other goroutines only take it to flush buffered events
// to the database. The stack holds entries by value so pushing a call
// allocates nothing in steady state.
type shard struct {
	mu         sync.Mutex
	stack      []stackEntry
	ecalls     []events.CallEvent
	ocalls     []events.CallEvent
	syncs      []events.SyncEvent
	aexs       []events.AEXEvent
	paging     []events.PagingEvent
	switchless []events.SwitchlessEvent
}

// Logger is an attached sgx-perf event logger.
type Logger struct {
	h     *host.Host
	trace *events.Trace
	opts  Options
	lib   *loader.Library
	next  sdk.EcallFn

	enabled atomic.Bool

	// Probe costs pre-converted to cycles at attach time (the machine
	// frequency is fixed), sparing a float conversion on every event.
	ecallPreCycles  vtime.Cycles
	ecallPostCycles vtime.Cycles
	ocallPreCycles  vtime.Cycles
	ocallPostCycles vtime.Cycles
	aexCycles       vtime.Cycles

	// Per-thread recorder shards: a copy-on-write slice indexed by
	// ThreadID (the machine hands out small sequential IDs). Lookups on
	// the hot path are a single atomic load; growth takes shardMu.
	shards  atomic.Pointer[[]*shard]
	shardMu sync.Mutex
	// pending counts non-empty (unflushed) shard buffers; the table read
	// hooks use it to skip flushing when there is nothing to flush. It is
	// bumped only when a buffer goes empty→non-empty, so the steady-state
	// hot path pays one atomic add per batch, not per event.
	pending atomic.Int64

	// stubCache maps original ocall tables to their generated stub
	// tables (§4.1.2). Lookups are lock-free; builds serialise on stubMu
	// so one table is never generated twice. lastStub is a one-entry
	// cache in front: applications pass the same table on every ecall, so
	// the common lookup is one atomic load and a pointer compare.
	stubCache  sync.Map // *sdk.OcallTable -> *sdk.OcallTable
	lastStub   atomic.Pointer[stubPair]
	stubMu     sync.Mutex
	stubBuilds atomic.Int64

	// encNames is a copy-on-write registry indexed by EnclaveID (the
	// machine hands out small sequential IDs): a non-nil entry means the
	// enclave's metadata has been recorded, and holds its ecall names by
	// ID. One atomic load replaces a shared-map lookup per ecall.
	encNames atomic.Pointer[[][]string]
	encMu    sync.Mutex

	signalMu   sync.Mutex
	signalHits map[kernel.Signal]int

	detachKprobes []func()
	prevAEP       sgx.AEPFunc
	aepPatched    bool
}

// Attach preloads the logger into the host process and starts recording.
func Attach(h *host.Host, opts Options) (*Logger, error) {
	if opts.AEX == 0 {
		opts.AEX = AEXOff
	}
	if opts.FlushEvery <= 0 {
		opts.FlushEvery = defaultFlushEvery
	}
	trace, err := events.NewTrace()
	if err != nil {
		return nil, err
	}
	cost := h.Machine.Cost()
	trace.Meta.Insert(events.TraceMeta{
		Workload:         opts.Workload,
		FrequencyHz:      float64(cost.Frequency),
		Mitigation:       mitigationName(cost),
		TransitionCycles: int64(cost.RoundTrip()),
	})

	l := &Logger{
		h:          h,
		trace:      trace,
		opts:       opts,
		signalHits: make(map[kernel.Signal]int),

		ecallPreCycles:  cost.Frequency.Cycles(CostEcallProbe / 2),
		ecallPostCycles: cost.Frequency.Cycles(CostEcallProbe - CostEcallProbe/2),
		ocallPreCycles:  cost.Frequency.Cycles(CostOcallProbe / 2),
		ocallPostCycles: cost.Frequency.Cycles(CostOcallProbe - CostOcallProbe/2),
		aexCycles:       cost.Frequency.Cycles(CostAEXCount),
	}
	if opts.AEX == AEXTrace {
		l.aexCycles = cost.Frequency.Cycles(CostAEXTrace)
	}
	// Readers of the event tables trigger a flush of all shard buffers,
	// so a trace handle taken at attach time always observes every event
	// recorded before the read.
	trace.SetReadFlush(l.flushAll)

	// Build liblogger and preload it (LD_PRELOAD, §4). Its sgx_ecall,
	// pthread_create and sigaction shadow the URTS and libc.
	l.lib = loader.NewLibrary("liblogger")
	l.lib.Define(loader.SymSGXEcall, sdk.EcallFn(l.sgxEcall))
	if createNext, err := loader.Lookup[host.PthreadCreateFn](h.Proc, loader.SymPthreadCreate); err == nil {
		l.lib.Define(loader.SymPthreadCreate, host.PthreadCreateFn(func(name string, fn func(ctx *sgx.Context)) {
			createNext(name, func(ctx *sgx.Context) {
				l.trace.Threads.Insert(events.ThreadEvent{Thread: ctx.ID(), Name: name, Time: ctx.Now()})
				fn(ctx)
			})
		}))
	}
	if saNext, err := loader.Lookup[host.SigactionFn](h.Proc, loader.SymSigaction); err == nil {
		shadow := host.SigactionFn(func(sig kernel.Signal, handler kernel.SigHandler) kernel.SigHandler {
			// Register a wrapper so the logger processes the signal first
			// and then calls the saved handler (§4).
			wrapped := handler
			if handler != nil {
				wrapped = func(ctx *sgx.Context, s kernel.Signal, info *kernel.SigInfo) bool {
					l.signalMu.Lock()
					l.signalHits[s]++
					l.signalMu.Unlock()
					return handler(ctx, s, info)
				}
			}
			return saNext(sig, wrapped)
		})
		l.lib.Define(loader.SymSigaction, shadow)
		l.lib.Define(loader.SymSignal, shadow)
	}
	h.Proc.Preload(l.lib)

	// Resolve the real sgx_ecall with RTLD_NEXT semantics.
	next, err := loader.LookupNext[sdk.EcallFn](h.Proc, l.lib, loader.SymSGXEcall)
	if err != nil {
		return nil, fmt.Errorf("logger: resolve real sgx_ecall: %w", err)
	}
	l.next = next

	if !opts.SkipPaging {
		for _, sym := range []string{kernel.SymbolELDU, kernel.SymbolEWB} {
			sym := sym
			detach := h.Kernel.Kprobes.Register(sym, func(ev kernel.KprobeEvent) {
				l.onPaging(sym, ev)
			})
			l.detachKprobes = append(l.detachKprobes, detach)
		}
	}
	if opts.AEX != AEXOff {
		l.prevAEP = h.Machine.PatchAEP(l.aep)
		l.aepPatched = true
	}
	// Switchless calls bypass both sgx_ecall and the ocall table, so
	// interposition alone never sees them (§6). The URTS exposes a
	// cooperative observer hook; registering here closes that blind spot
	// with synthetic switchless events.
	h.URTS.SetSwitchlessObserver(l.onSwitchless)

	l.enabled.Store(true)
	return l, nil
}

func mitigationName(c sgx.CostModel) string {
	rt := c.Frequency.Duration(c.RoundTrip())
	for _, m := range []sgx.MitigationLevel{sgx.MitigationNone, sgx.MitigationSpectre, sgx.MitigationFull} {
		d := m.RoundTripDuration()
		if rt > d-50*time.Nanosecond && rt < d+50*time.Nanosecond {
			return m.String()
		}
	}
	return "custom"
}

// shard returns the calling thread's recorder shard, creating it on first
// sight. The fast path is one atomic load and two bounds checks.
//
//sgxperf:hotpath
func (l *Logger) shard(tid sgx.ThreadID) *shard {
	if s := l.shards.Load(); s != nil && int(tid) >= 0 && int(tid) < len(*s) {
		if sh := (*s)[tid]; sh != nil {
			return sh
		}
	}
	return l.growShard(tid)
}

// growShard creates the shard for tid behind the registry lock, copying
// the shard slice so concurrent readers never observe a partial update.
func (l *Logger) growShard(tid sgx.ThreadID) *shard {
	l.shardMu.Lock()
	defer l.shardMu.Unlock()
	idx := int(tid)
	if idx < 0 {
		idx = 0 // defensive: the machine hands out IDs ≥ 1
	}
	var cur []*shard
	if p := l.shards.Load(); p != nil {
		cur = *p
	}
	if idx < len(cur) && cur[idx] != nil {
		return cur[idx]
	}
	grown := make([]*shard, max(idx+1, len(cur)))
	copy(grown, cur)
	sh := &shard{}
	grown[idx] = sh
	l.shards.Store(&grown)
	return sh
}

// flushAll drains every shard's buffers into the event database. Shards
// are merged in ascending ThreadID order so the flush order is stable
// across runs (given deterministic per-thread content).
func (l *Logger) flushAll() {
	if l.pending.Load() == 0 {
		return
	}
	p := l.shards.Load()
	if p == nil {
		return
	}
	for _, sh := range *p {
		if sh != nil {
			l.flushShard(sh)
		}
	}
}

// flushShard drains one shard's buffers into the database in batches.
func (l *Logger) flushShard(sh *shard) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	l.flushShardLocked(sh)
}

func (l *Logger) flushShardLocked(sh *shard) {
	dirty := 0
	if len(sh.ecalls) > 0 {
		l.trace.Ecalls.BatchInsert(sh.ecalls)
		sh.ecalls = sh.ecalls[:0]
		dirty++
	}
	if len(sh.ocalls) > 0 {
		l.trace.Ocalls.BatchInsert(sh.ocalls)
		sh.ocalls = sh.ocalls[:0]
		dirty++
	}
	if len(sh.syncs) > 0 {
		l.trace.Syncs.BatchInsert(sh.syncs)
		sh.syncs = sh.syncs[:0]
		dirty++
	}
	if len(sh.aexs) > 0 {
		l.trace.AEXs.BatchInsert(sh.aexs)
		sh.aexs = sh.aexs[:0]
		dirty++
	}
	if len(sh.paging) > 0 {
		l.trace.Paging.BatchInsert(sh.paging)
		sh.paging = sh.paging[:0]
		dirty++
	}
	if len(sh.switchless) > 0 {
		l.trace.Switchless.BatchInsert(sh.switchless)
		sh.switchless = sh.switchless[:0]
		dirty++
	}
	if dirty > 0 {
		l.pending.Add(int64(-dirty))
	}
}

// Flush drains every thread's buffered events into the event database.
// Readers need not call it: table reads flush lazily.
func (l *Logger) Flush() { l.flushAll() }

// Detached reports whether recording has been stopped by Detach.
func (l *Logger) Detached() bool { return !l.enabled.Load() }

// Trace returns the recorded trace, flushing all buffered events first.
// Reads through the returned trace stay coherent even while recording
// continues: table reads flush the shard buffers lazily.
func (l *Logger) Trace() *events.Trace {
	l.flushAll()
	return l.trace
}

// SignalHits reports how many signals of each number the logger has
// observed through its shadowed handlers.
func (l *Logger) SignalHits() map[kernel.Signal]int {
	l.signalMu.Lock()
	defer l.signalMu.Unlock()
	out := make(map[kernel.Signal]int, len(l.signalHits))
	for k, v := range l.signalHits {
		out[k] = v
	}
	return out
}

// StubBuilds reports how many ocall stub tables the logger has generated.
// Each distinct ocall table must be built exactly once (§4.1.2), however
// many threads race on the first ecall.
func (l *Logger) StubBuilds() int64 { return l.stubBuilds.Load() }

// Detach stops recording: buffered events are flushed, the AEP is
// restored and kprobes unregistered. The preloaded library stays in the
// process image (as with LD_PRELOAD) but becomes a transparent
// pass-through.
func (l *Logger) Detach() {
	l.enabled.Store(false)
	l.h.URTS.SetSwitchlessObserver(nil)
	for _, d := range l.detachKprobes {
		d()
	}
	l.detachKprobes = nil
	if l.aepPatched {
		l.h.Machine.PatchAEP(l.prevAEP)
		l.aepPatched = false
	}
	l.flushAll()
}

// sgxEcall is the logger's shadow of the URTS sgx_ecall (Fig. 2): record
// start time, thread and identifiers, swap in the stub ocall table, call
// the real implementation, record the end time. All bookkeeping stays in
// the thread's own shard — no global lock is taken.
//
//sgxperf:hotpath
func (l *Logger) sgxEcall(ctx *sgx.Context, eid sgx.EnclaveID, callID int, otab *sdk.OcallTable, args any) (any, error) {
	if !l.enabled.Load() {
		return l.next(ctx, eid, callID, otab, args)
	}
	ctx.ComputeCycles(l.ecallPreCycles)
	names := l.enclaveNames(eid)
	stub := l.stubTable(otab)
	sh := l.shard(ctx.ID())

	id := l.trace.NextID()
	parent := l.push(sh, events.KindEcall, id)

	name := ecallName(names, callID)
	start := ctx.Now()
	res, err := l.next(ctx, eid, callID, stub, args)
	end := ctx.Now()

	l.popRecord(sh, &sh.ecalls, true, events.CallEvent{
		ID:      id,
		Kind:    events.KindEcall,
		Enclave: eid,
		Thread:  ctx.ID(),
		CallID:  callID,
		Name:    name,
		Start:   start,
		End:     end,
		Parent:  parent,
		Err:     err != nil,
	})
	ctx.ComputeCycles(l.ecallPostCycles)
	return res, err
}

// ecallName resolves a call ID against an enclave's name table.
func ecallName(names []string, callID int) string {
	if callID >= 0 && callID < len(names) {
		return names[callID]
	}
	return fmt.Sprintf("ecall_%d", callID)
}

// popRecord pops the thread's stack entry and buffers the completed call
// event under one shard lock acquisition, flushing when the buffer reaches
// the configured batch size. withAEX fills in the popped entry's AEX count
// (ecalls only).
//
//sgxperf:hotpath
func (l *Logger) popRecord(sh *shard, buf *[]events.CallEvent, withAEX bool, ev events.CallEvent) {
	sh.mu.Lock()
	if n := len(sh.stack); n > 0 {
		if withAEX {
			ev.AEXCount = sh.stack[n-1].aex
		}
		sh.stack = sh.stack[:n-1]
	}
	*buf = append(*buf, ev)
	if len(*buf) == 1 {
		l.pending.Add(1)
	}
	if len(*buf) >= l.opts.FlushEvery {
		l.flushShardLocked(sh)
	}
	sh.mu.Unlock()
}

// enclaveNames returns the enclave's ecall-name table, recording its
// metadata on first sight — including its EDL interface, so the analyser
// can run its security checks without being handed the file separately.
// The fast path is one atomic load and an index.
//
//sgxperf:hotpath
func (l *Logger) enclaveNames(eid sgx.EnclaveID) []string {
	if p := l.encNames.Load(); p != nil && int(eid) >= 0 && int(eid) < len(*p) {
		if names := (*p)[eid]; names != nil {
			return names
		}
	}
	return l.noteEnclave(eid)
}

// noteEnclave records enclave metadata behind the registry lock and
// publishes the enclave's name table, copying the registry slice so
// concurrent readers never observe a partial update.
func (l *Logger) noteEnclave(eid sgx.EnclaveID) []string {
	l.encMu.Lock()
	defer l.encMu.Unlock()
	idx := int(eid)
	if idx < 0 {
		idx = 0 // defensive: the machine hands out IDs ≥ 1
	}
	var cur [][]string
	if p := l.encNames.Load(); p != nil {
		cur = *p
	}
	if idx < len(cur) && cur[idx] != nil {
		return cur[idx]
	}
	meta := events.EnclaveMeta{Enclave: eid}
	names := []string{} // non-nil marks the enclave seen
	if app, ok := l.h.URTS.AppEnclaveFor(eid); ok {
		meta.Name = app.Enclave().Config.Name
		meta.NumPages = app.Enclave().NumPages()
		meta.EDL = app.Interface().Format()
		ecalls := app.Interface().Ecalls()
		names = make([]string, len(ecalls))
		for i, f := range ecalls {
			names[i] = f.Name
		}
	}
	l.trace.Enclaves.Insert(meta)
	grown := make([][]string, max(idx+1, len(cur)))
	copy(grown, cur)
	grown[idx] = names
	l.encNames.Store(&grown)
	return names
}

// stubTable returns (building once per table, §4.1.2) the logger's ocall
// table oT_logger: one generated call stub per original entry, each
// logging events and then calling the original function pointer (Fig. 3).
// The lookup is lock-free; builds serialise on stubMu with a re-check, so
// concurrent first ecalls never generate the same stub table twice.
//
//sgxperf:hotpath
func (l *Logger) stubTable(orig *sdk.OcallTable) *sdk.OcallTable {
	if orig == nil {
		return nil
	}
	if p := l.lastStub.Load(); p != nil && p.orig == orig {
		return p.stub
	}
	if stub, ok := l.stubCache.Load(orig); ok {
		s := stub.(*sdk.OcallTable)
		l.lastStub.Store(&stubPair{orig: orig, stub: s})
		return s
	}
	return l.buildStubTable(orig)
}

// buildStubTable generates the stub table behind stubMu, re-checking the
// cache so concurrent first ecalls build it only once.
func (l *Logger) buildStubTable(orig *sdk.OcallTable) *sdk.OcallTable {
	l.stubMu.Lock()
	defer l.stubMu.Unlock()
	if stub, ok := l.stubCache.Load(orig); ok {
		return stub.(*sdk.OcallTable)
	}
	l.stubBuilds.Add(1)
	stub := &sdk.OcallTable{
		Funcs: make([]sdk.OcallFn, len(orig.Funcs)),
		Names: make([]string, len(orig.Names)),
	}
	copy(stub.Names, orig.Names)
	for i := range orig.Funcs {
		ocallID := i
		fn := orig.Funcs[i]
		name := ""
		if i < len(orig.Names) {
			name = orig.Names[i]
		}
		if fn == nil {
			continue
		}
		stub.Funcs[i] = l.makeStub(ocallID, name, fn)
	}
	l.stubCache.Store(orig, stub)
	l.lastStub.Store(&stubPair{orig: orig, stub: stub})
	return stub
}

// makeStub generates one call stub, given the ocall's identifier, name and
// original function pointer. The returned closure is the per-ocall hot
// path, so the directive covers its body too.
//
//sgxperf:hotpath
func (l *Logger) makeStub(ocallID int, name string, orig sdk.OcallFn) sdk.OcallFn {
	return func(ctx *sgx.Context, args any) (any, error) {
		if !l.enabled.Load() {
			return orig(ctx, args)
		}
		ctx.ComputeCycles(l.ocallPreCycles)
		sh := l.shard(ctx.ID())
		id := l.trace.NextID()
		parent := l.push(sh, events.KindOcall, id)

		var enclave sgx.EnclaveID
		if enc := ctx.CurrentEnclave(); enc != nil {
			enclave = enc.ID
		}
		start := ctx.Now()
		if sdk.IsSyncOcall(name) {
			l.recordSync(ctx, sh, name, args, id, start)
		}
		res, err := orig(ctx, args)
		end := ctx.Now()

		l.popRecord(sh, &sh.ocalls, false, events.CallEvent{
			ID:      id,
			Kind:    events.KindOcall,
			Enclave: enclave,
			Thread:  ctx.ID(),
			CallID:  ocallID,
			Name:    name,
			Start:   start,
			End:     end,
			Parent:  parent,
			Err:     err != nil,
		})
		ctx.ComputeCycles(l.ocallPostCycles)
		return res, err
	}
}

// recordSync reduces the four SDK sync ocalls to sleep and wake events
// (§4.1.3), tracking which thread wakes which.
//
//sgxperf:hotpath
func (l *Logger) recordSync(ctx *sgx.Context, sh *shard, name string, args any, call events.EventID, now vtime.Cycles) {
	bufSync := func(ev events.SyncEvent) {
		sh.mu.Lock()
		sh.syncs = append(sh.syncs, ev)
		if len(sh.syncs) == 1 {
			l.pending.Add(1)
		}
		if len(sh.syncs) >= l.opts.FlushEvery {
			l.flushShardLocked(sh)
		}
		sh.mu.Unlock()
	}
	switch name {
	case sdk.OcallThreadWait:
		bufSync(events.SyncEvent{
			ID: l.trace.NextID(), Kind: events.SyncSleep,
			Thread: ctx.ID(), Time: now, Call: call,
		})
	case sdk.OcallThreadSet:
		if a, ok := args.(sdk.SetEventArgs); ok {
			bufSync(events.SyncEvent{
				ID: l.trace.NextID(), Kind: events.SyncWake,
				Thread: ctx.ID(), Targets: []sgx.ThreadID{a.Target}, Time: now, Call: call,
			})
		}
	case sdk.OcallThreadSetMultiple:
		if a, ok := args.(sdk.SetMultipleEventArgs); ok {
			targets := make([]sgx.ThreadID, len(a.Targets))
			copy(targets, a.Targets)
			bufSync(events.SyncEvent{
				ID: l.trace.NextID(), Kind: events.SyncWake,
				Thread: ctx.ID(), Targets: targets, Time: now, Call: call,
			})
		}
	case sdk.OcallThreadSetWait:
		if a, ok := args.(sdk.SetWaitEventArgs); ok {
			bufSync(events.SyncEvent{
				ID: l.trace.NextID(), Kind: events.SyncWake,
				Thread: ctx.ID(), Targets: []sgx.ThreadID{a.Target}, Time: now, Call: call,
			})
			bufSync(events.SyncEvent{
				ID: l.trace.NextID(), Kind: events.SyncSleep,
				Thread: ctx.ID(), Time: now, Call: call,
			})
		}
	}
}

// aep is the logger's patched Asynchronous Exit Pointer handler (§4.1.4):
// count (and optionally timestamp) the AEX, then chain to the previous
// handler, which resumes the enclave. The AEP runs on the interrupted
// thread, so only that thread's shard is touched.
//
//sgxperf:hotpath
func (l *Logger) aep(ctx *sgx.Context, info sgx.AEXInfo) {
	if l.enabled.Load() {
		ctx.ComputeCycles(l.aexCycles)
		sh := l.shard(ctx.ID())
		during := events.NoEvent
		sh.mu.Lock()
		if n := len(sh.stack); n > 0 {
			sh.stack[n-1].aex++
			during = sh.stack[n-1].id
		}
		sh.mu.Unlock()
		if l.opts.AEX == AEXTrace {
			ev := events.AEXEvent{
				ID:      l.trace.NextID(),
				Enclave: info.Enclave,
				Thread:  info.Thread,
				Time:    info.Time,
				During:  during,
			}
			sh.mu.Lock()
			sh.aexs = append(sh.aexs, ev)
			if len(sh.aexs) == 1 {
				l.pending.Add(1)
			}
			if len(sh.aexs) >= l.opts.FlushEvery {
				l.flushShardLocked(sh)
			}
			sh.mu.Unlock()
		}
	}
	l.prevAEP(ctx, info)
}

// onSwitchless converts one switchless runtime record into a synthetic
// trace event, buffered in the calling thread's shard. The record
// arrives on the caller's goroutine at collect time, so the shard and
// ordering discipline match the regular call events. No probe cost is
// charged: the runtime reports cooperatively, there is no interposed
// stub on this path.
//
//sgxperf:hotpath
func (l *Logger) onSwitchless(rec sdk.SwitchlessRecord) {
	if !l.enabled.Load() {
		return
	}
	kind := events.KindOcall
	if rec.Ecall {
		kind = events.KindEcall
	}
	ev := events.SwitchlessEvent{
		ID:       l.trace.NextID(),
		Kind:     kind,
		Enclave:  rec.Enclave,
		Thread:   rec.Caller,
		CallID:   rec.CallID,
		Name:     rec.Name,
		Start:    rec.Start,
		End:      rec.End,
		Worker:   rec.Worker,
		Fallback: rec.Fallback,
		Err:      rec.Err,
	}
	sh := l.shard(rec.Caller)
	sh.mu.Lock()
	sh.switchless = append(sh.switchless, ev)
	if len(sh.switchless) == 1 {
		l.pending.Add(1)
	}
	if len(sh.switchless) >= l.opts.FlushEvery {
		l.flushShardLocked(sh)
	}
	sh.mu.Unlock()
}

// onPaging converts a driver kprobe hit into a paging event (§4.1.5). The
// kprobe fires on the faulting thread, inside the driver's paging path;
// the event is buffered in that thread's shard.
func (l *Logger) onPaging(sym string, ev kernel.KprobeEvent) {
	if !l.enabled.Load() {
		return
	}
	kind := events.PageIn
	if sym == kernel.SymbolEWB {
		kind = events.PageOut
	}
	pe := events.PagingEvent{
		ID:       l.trace.NextID(),
		Kind:     kind,
		Enclave:  ev.Enclave,
		Thread:   ev.Thread,
		Vaddr:    uint64(ev.Vaddr),
		PageKind: ev.Kind.String(),
		Time:     ev.Time,
	}
	sh := l.shard(ev.Thread)
	sh.mu.Lock()
	sh.paging = append(sh.paging, pe)
	if len(sh.paging) == 1 {
		l.pending.Add(1)
	}
	if len(sh.paging) >= l.opts.FlushEvery {
		l.flushShardLocked(sh)
	}
	sh.mu.Unlock()
}

// push adds a stack entry for the thread and returns the direct parent's
// event ID (an in-flight call of the opposite kind), or NoEvent.
//
//sgxperf:hotpath
func (l *Logger) push(sh *shard, kind events.CallKind, id events.EventID) events.EventID {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	parent := events.NoEvent
	if n := len(sh.stack); n > 0 {
		if top := &sh.stack[n-1]; top.kind != kind {
			parent = top.id
		}
	}
	sh.stack = append(sh.stack, stackEntry{kind: kind, id: id})
	return parent
}
