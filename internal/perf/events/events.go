// Package events defines the trace schema shared by the sgx-perf logger
// and analyser: ecall/ocall events with direct-parent links, AEX events,
// EPC paging events, and synchronisation (sleep/wake) events, stored in an
// evstore database (the paper serialises to SQLite, §4).
package events

import (
	"fmt"
	"io"
	"sync/atomic"

	"sgxperf/internal/evstore"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// EventID identifies one recorded event within a trace. IDs are assigned
// when a call starts, so in-flight parents can be referenced.
type EventID int64

// NoEvent is the absent-parent sentinel.
const NoEvent EventID = -1

// CallKind distinguishes ecall from ocall events.
type CallKind int

const (
	// KindEcall marks calls into the enclave.
	KindEcall CallKind = iota + 1
	// KindOcall marks calls out of the enclave.
	KindOcall
)

// String names the kind.
func (k CallKind) String() string {
	switch k {
	case KindEcall:
		return "ecall"
	case KindOcall:
		return "ocall"
	default:
		return "unknown"
	}
}

// CallEvent is one completed ecall or ocall (§4.1.1–4.1.2).
//
// Timestamps are recorded outside the enclave. For ecalls the duration
// therefore includes both transitions; for ocalls it excludes them — the
// analyser compensates (§4.1.2).
type CallEvent struct {
	ID      EventID
	Kind    CallKind
	Enclave sgx.EnclaveID
	Thread  sgx.ThreadID
	CallID  int
	Name    string
	Start   vtime.Cycles
	End     vtime.Cycles
	// Parent is the direct parent (§4.3.2): for an ocall, the ecall it was
	// issued from; for an ecall, the ocall it was issued from (nested
	// ecall), or NoEvent at top level.
	Parent EventID
	// AEXCount is the number of asynchronous exits during this call (only
	// populated for ecalls when AEX counting or tracing is enabled).
	AEXCount int
	// Err records whether the call returned an error.
	Err bool
}

// Duration returns End-Start in cycles.
func (e CallEvent) Duration() vtime.Cycles { return e.End - e.Start }

// AEXEvent is one traced asynchronous exit (§4.1.4).
type AEXEvent struct {
	ID      EventID
	Enclave sgx.EnclaveID
	Thread  sgx.ThreadID
	Time    vtime.Cycles
	// During is the call event interrupted, or NoEvent.
	During EventID
}

// PagingKind distinguishes page-in from page-out events.
type PagingKind int

const (
	// PageIn is an ELDU (load back into the EPC).
	PageIn PagingKind = iota + 1
	// PageOut is an EWB (eviction from the EPC).
	PageOut
)

// String names the paging direction.
func (k PagingKind) String() string {
	switch k {
	case PageIn:
		return "page-in"
	case PageOut:
		return "page-out"
	default:
		return "unknown"
	}
}

// PagingEvent is one EPC paging operation captured via kprobes on the
// driver (§4.1.5). The virtual address lets the analyser attribute the
// page to an enclave region.
type PagingEvent struct {
	ID       EventID
	Kind     PagingKind
	Enclave  sgx.EnclaveID
	Thread   sgx.ThreadID
	Vaddr    uint64
	PageKind string
	Time     vtime.Cycles
}

// SyncKind reduces the four SDK sync ocalls to the two event types the
// paper uses (§4.1.3).
type SyncKind int

const (
	// SyncSleep is a thread going to sleep outside the enclave.
	SyncSleep SyncKind = iota + 1
	// SyncWake is a thread waking one or more other threads.
	SyncWake
)

// String names the sync kind.
func (k SyncKind) String() string {
	switch k {
	case SyncSleep:
		return "sleep"
	case SyncWake:
		return "wake"
	default:
		return "unknown"
	}
}

// SyncEvent is one synchronisation event, tracking which thread wakes
// which others to expose contention (§4.1.3).
type SyncEvent struct {
	ID     EventID
	Kind   SyncKind
	Thread sgx.ThreadID
	// Targets are the woken threads (wake events only).
	Targets []sgx.ThreadID
	Time    vtime.Cycles
	// Call is the ocall event carrying this sync operation.
	Call EventID
}

// SwitchlessEvent is one call served by the switchless runtime (or its
// fallback to the regular transition path). Switchless calls bypass
// sgx_ecall and the ocall table, so interposition alone cannot see them
// (§6 discusses the blind spot); the runtime cooperates by emitting
// these synthetic events through the logger's observer hook.
type SwitchlessEvent struct {
	ID      EventID
	Kind    CallKind
	Enclave sgx.EnclaveID
	// Thread is the calling thread (the one that submitted the request).
	Thread sgx.ThreadID
	CallID int
	Name   string
	// Start is the caller's submit time, End its collect time — the full
	// queue round-trip as the caller observes it.
	Start vtime.Cycles
	End   vtime.Cycles
	// Worker is the pool thread that serviced the request, or 0 when the
	// call fell back to the regular transition path.
	Worker sgx.ThreadID
	// Fallback records that the queue was full and the call took the
	// regular sgx_ecall / ocall-table path instead.
	Fallback bool
	// Err records whether the call returned an error.
	Err bool
}

// Duration returns End-Start in cycles.
func (e SwitchlessEvent) Duration() vtime.Cycles { return e.End - e.Start }

// ThreadEvent records a thread observed by the logger (via the shadowed
// pthread_create, §4).
type ThreadEvent struct {
	Thread sgx.ThreadID
	Name   string
	Time   vtime.Cycles
}

// EnclaveMeta describes an enclave seen in the trace.
type EnclaveMeta struct {
	Enclave  sgx.EnclaveID
	Name     string
	NumPages int
	// EDL is the enclave's interface rendered as EDL text, when known.
	EDL string
}

// TraceMeta is the per-trace header.
type TraceMeta struct {
	Workload    string
	FrequencyHz float64
	Mitigation  string
	// TransitionCycles is the machine's EENTER+EEXIT round-trip cost; the
	// analyser subtracts it from ecall durations (§4.1.2).
	TransitionCycles int64
}

// Trace is one recorded run: a set of typed event tables plus metadata.
type Trace struct {
	Meta     *evstore.Table[TraceMeta]
	Ecalls   *evstore.Table[CallEvent]
	Ocalls   *evstore.Table[CallEvent]
	AEXs     *evstore.Table[AEXEvent]
	Paging   *evstore.Table[PagingEvent]
	Syncs    *evstore.Table[SyncEvent]
	Threads  *evstore.Table[ThreadEvent]
	Enclaves *evstore.Table[EnclaveMeta]
	// Switchless holds the synthetic events the switchless runtime emits.
	Switchless *evstore.Table[SwitchlessEvent]

	db     *evstore.DB
	nextID atomic.Int64
}

// SetReadFlush installs flush to run before any read of the trace's event
// tables. A recorder with per-thread buffers (the logger) registers its
// flush function here so readers always observe a complete trace, however
// events are batched. Pass nil to clear.
func (t *Trace) SetReadFlush(flush func()) {
	for _, tab := range []interface{ SetReadHook(func()) }{
		t.Ecalls, t.Ocalls, t.AEXs, t.Paging, t.Syncs, t.Threads, t.Enclaves,
		t.Switchless,
	} {
		tab.SetReadHook(flush)
	}
}

// NewTrace creates an empty trace with its schema registered.
func NewTrace() (*Trace, error) {
	// Every table serialises through its columnar codec (codec.go).
	t := &Trace{
		Meta:       evstore.NewTable[TraceMeta]("meta", metaCodec{}),
		Ecalls:     evstore.NewTable[CallEvent]("ecalls", callCodec{}),
		Ocalls:     evstore.NewTable[CallEvent]("ocalls", callCodec{}),
		AEXs:       evstore.NewTable[AEXEvent]("aexs", aexCodec{}),
		Paging:     evstore.NewTable[PagingEvent]("paging", pagingCodec{}),
		Syncs:      evstore.NewTable[SyncEvent]("syncs", syncCodec{}),
		Threads:    evstore.NewTable[ThreadEvent]("threads", threadCodec{}),
		Enclaves:   evstore.NewTable[EnclaveMeta]("enclaves", enclaveCodec{}),
		Switchless: evstore.NewTable[SwitchlessEvent]("switchless", switchlessCodec{}),
		db:         evstore.NewDB(),
	}
	for _, err := range []error{
		evstore.Register(t.db, t.Meta),
		evstore.Register(t.db, t.Ecalls),
		evstore.Register(t.db, t.Ocalls),
		evstore.Register(t.db, t.AEXs),
		evstore.Register(t.db, t.Paging),
		evstore.Register(t.db, t.Syncs),
		evstore.Register(t.db, t.Threads),
		evstore.Register(t.db, t.Enclaves),
		evstore.Register(t.db, t.Switchless),
	} {
		if err != nil {
			return nil, fmt.Errorf("events: %w", err)
		}
	}
	return t, nil
}

// NextID allocates a fresh event ID.
func (t *Trace) NextID() EventID {
	return EventID(t.nextID.Add(1))
}

// Calls returns all call events of the given kind in one exactly-sized
// copy (built from the bulk chunk scan); hot paths should call
// Ecalls.Scan or Ocalls.Scan instead.
func (t *Trace) Calls(kind CallKind) []CallEvent {
	tab := t.Ecalls
	if kind != KindEcall {
		tab = t.Ocalls
	}
	return collect(tab)
}

// Frequency returns the trace's recorded CPU frequency, defaulting to the
// repository-wide default when metadata is missing.
func (t *Trace) Frequency() vtime.Frequency {
	if t.Meta.Len() > 0 && t.Meta.At(0).FrequencyHz > 0 {
		return vtime.Frequency(t.Meta.At(0).FrequencyHz)
	}
	return vtime.DefaultFrequency
}

// TransitionCycles returns the recorded transition round-trip cost.
func (t *Trace) TransitionCycles() vtime.Cycles {
	if t.Meta.Len() > 0 {
		return vtime.Cycles(t.Meta.At(0).TransitionCycles)
	}
	return 0
}

// Save serialises the trace in the chunked columnar format.
func (t *Trace) Save(w io.Writer) error { return t.db.Save(w) }

// maxEventID scans every ID-carrying table without copying rows and
// returns the highest event ID present.
func (t *Trace) maxEventID() EventID {
	var maxID EventID
	bump := func(id EventID) {
		if id > maxID {
			maxID = id
		}
	}
	t.Ecalls.Scan(func(_ int, e CallEvent) bool { bump(e.ID); return true })
	t.Ocalls.Scan(func(_ int, e CallEvent) bool { bump(e.ID); return true })
	t.AEXs.Scan(func(_ int, e AEXEvent) bool { bump(e.ID); return true })
	t.Paging.Scan(func(_ int, e PagingEvent) bool { bump(e.ID); return true })
	t.Syncs.Scan(func(_ int, e SyncEvent) bool { bump(e.ID); return true })
	t.Switchless.Scan(func(_ int, e SwitchlessEvent) bool { bump(e.ID); return true })
	return maxID
}

// Load restores a trace written by Save.
func (t *Trace) Load(r io.Reader) error {
	if err := t.db.Load(r); err != nil {
		return err
	}
	// Continue ID allocation past the loaded events.
	t.nextID.Store(int64(t.maxEventID()))
	return nil
}

// SaveFile writes the trace to path.
func (t *Trace) SaveFile(path string) error { return t.db.SaveFile(path) }

// LoadFile reads a trace from path.
func (t *Trace) LoadFile(path string) error {
	if err := t.db.LoadFile(path); err != nil {
		return err
	}
	t.nextID.Store(int64(t.maxEventID()))
	return nil
}
