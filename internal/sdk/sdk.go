package sdk

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sgxperf/internal/edl"
	"sgxperf/internal/kernel"
	"sgxperf/internal/loader"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// Errors mirroring SDK status codes.
var (
	// ErrInvalidEnclave is returned for unknown enclave IDs.
	ErrInvalidEnclave = errors.New("sdk: invalid enclave id")
	// ErrInvalidEcall is returned for out-of-range ecall IDs.
	ErrInvalidEcall = errors.New("sdk: invalid ecall id")
	// ErrEcallNotAllowed mirrors SGX_ERROR_ECALL_NOT_ALLOWED: a private
	// ecall issued outside an ocall, or an ecall not in the in-flight
	// ocall's allow list (§3.6).
	ErrEcallNotAllowed = errors.New("sdk: ecall not allowed")
	// ErrInvalidOcall is returned for undeclared ocalls.
	ErrInvalidOcall = errors.New("sdk: invalid ocall")
	// ErrNoImplementation is returned when the enclave image lacks the
	// requested ecall.
	ErrNoImplementation = errors.New("sdk: ecall has no implementation")
)

// TrustedFn is one in-enclave ecall implementation.
type TrustedFn func(env *Env, args any) (any, error)

// EcallFn is the signature of the sgx_ecall symbol: the single URTS entry
// point all generated ecall wrappers call (Fig. 1). Tools shadow exactly
// this symbol to trace ecalls (Fig. 2).
type EcallFn func(ctx *sgx.Context, eid sgx.EnclaveID, callID int, otab *OcallTable, args any) (any, error)

// Copied lets call arguments declare how many bytes the TRTS copies across
// the enclave boundary for [in]/[out] parameters, so marshalling cost is
// charged faithfully.
type Copied interface {
	CopyInBytes() int
	CopyOutBytes() int
}

// AppEnclave is the URTS-side state of one created enclave: the hardware
// enclave, its declared interface, the trusted code image, and the saved
// ocall-table pointer.
type AppEnclave struct {
	enc   *sgx.Enclave
	iface *edl.Interface
	urts  *URTS

	// trusted is immutable after CreateEnclave, so ecall dispatch reads it
	// without synchronisation.
	trusted []TrustedFn
	// savedTable is the last ocall table passed to sgx_ecall — the
	// injection point for the logger's stub table (Fig. 3). Atomic: every
	// ecall saves it and the logger swaps it concurrently.
	savedTable atomic.Pointer[OcallTable]
	// sl is the enclave's running switchless runtime, if any; the TRTS
	// ocall path consults it to route configured ocalls through the
	// untrusted worker pool instead of the transition path.
	sl atomic.Pointer[Switchless]
}

// Enclave returns the underlying hardware enclave.
func (a *AppEnclave) Enclave() *sgx.Enclave { return a.enc }

// ID returns the enclave ID.
func (a *AppEnclave) ID() sgx.EnclaveID { return a.enc.ID }

// Interface returns the enclave's declared EDL interface.
func (a *AppEnclave) Interface() *edl.Interface { return a.iface }

func (a *AppEnclave) saveTable(t *OcallTable) { a.savedTable.Store(t) }

func (a *AppEnclave) table() *OcallTable { return a.savedTable.Load() }

func (a *AppEnclave) setSwitchless(s *Switchless) bool { return a.sl.CompareAndSwap(nil, s) }

func (a *AppEnclave) clearSwitchless(s *Switchless) { a.sl.CompareAndSwap(s, nil) }

// Switchless returns the enclave's running switchless runtime, or nil.
func (a *AppEnclave) Switchless() *Switchless { return a.sl.Load() }

func (a *AppEnclave) trustedFn(id int) (TrustedFn, bool) {
	if id < 0 || id >= len(a.trusted) {
		return nil, false
	}
	return a.trusted[id], a.trusted[id] != nil
}

// uevent is the untrusted per-thread event object the sync ocalls block
// on: a binary semaphore plus a clock sync point for causality.
type uevent struct {
	ch    chan struct{}
	point vtime.SyncPoint
}

func newUevent() *uevent {
	return &uevent{ch: make(chan struct{}, 1)}
}

func (e *uevent) set(now vtime.Cycles) {
	e.point.Publish(now)
	select {
	case e.ch <- struct{}{}:
	default: // already set; events are binary
	}
}

func (e *uevent) wait(ctx *sgx.Context) {
	<-e.ch
	e.point.Observe(ctx.Clock())
}

// URTS is the untrusted runtime system: the enclave registry and the real
// implementation of sgx_ecall. Its registries are sync.Maps: every ecall
// consults them, and a shared mutex would serialise otherwise-independent
// threads (§4.1 wants the probe path contention-free).
type URTS struct {
	machine *sgx.Machine
	driver  *kernel.Driver

	// enclaves maps sgx.EnclaveID → *AppEnclave.
	enclaves sync.Map
	// lastEnclave is a one-entry cache in front of enclaves: workloads
	// overwhelmingly ecall into one enclave, so the common lookup is one
	// atomic load and an ID compare instead of a hashed map access.
	lastEnclave atomic.Pointer[AppEnclave]
	// events maps sgx.ThreadID → *uevent. It stays a shared map because
	// wake ocalls signal other threads' events.
	events sync.Map
	// inflightKey is the TLS slot holding each thread's *ocallStack: the
	// stack of ocall names currently executing on that thread, which the
	// TRTS consults to enforce allow lists. Thread-local storage makes the
	// per-ecall consult lock- and hash-free.
	inflightKey sgx.TLSKey

	// slObserver is the registered switchless observer, if any: the
	// cooperative visibility hook the switchless runtime reports every
	// served call and fallback through, since those calls bypass the
	// interposable sgx_ecall / ocall-table paths entirely.
	slObserver atomic.Pointer[SwitchlessObserver]

	// Dispatch costs pre-converted to cycles at construction (the machine
	// frequency is fixed), sparing a float conversion on every call.
	urtsDispatchCycles  vtime.Cycles
	trtsDispatchCycles  vtime.Cycles
	ocallDispatchCycles vtime.Cycles
}

// ocallStack is one thread's in-flight ocall-name stack, stored in the
// thread's TLS slot and only ever accessed by its owner.
type ocallStack struct {
	names []string
}

// NewURTS creates the runtime for a machine+driver pair.
func NewURTS(m *sgx.Machine, d *kernel.Driver) *URTS {
	freq := m.Cost().Frequency
	return &URTS{
		machine:             m,
		driver:              d,
		inflightKey:         sgx.NewTLSKey(),
		urtsDispatchCycles:  freq.Cycles(CostURTSDispatch),
		trtsDispatchCycles:  freq.Cycles(CostTRTSDispatch),
		ocallDispatchCycles: freq.Cycles(CostOcallDispatch),
	}
}

// Library exposes the URTS as a shared library defining the sgx_ecall
// symbol, so applications resolve it through the loader and preloaded
// tools can shadow it.
func (u *URTS) Library() *loader.Library {
	return loader.NewLibrary("libsgx_urts").Define(loader.SymSGXEcall, EcallFn(u.Ecall))
}

// CreateEnclave builds the enclave through the kernel driver and registers
// its trusted image. The interface is extended with the SDK sync ocalls
// (as linking sgx_tstdc does) and validated.
func (u *URTS) CreateEnclave(ctx *sgx.Context, cfg sgx.Config, iface *edl.Interface, impl map[string]TrustedFn) (*AppEnclave, error) {
	if _, err := WithSyncOcalls(iface); err != nil {
		return nil, err
	}
	if _, err := iface.Validate(); err != nil {
		return nil, fmt.Errorf("sdk: interface: %w", err)
	}
	for name := range impl {
		f, ok := iface.Lookup(name)
		if !ok || f.Kind != edl.Ecall {
			return nil, fmt.Errorf("sdk: implementation for undeclared ecall %q", name)
		}
	}
	enc, err := u.driver.CreateEnclave(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("sdk: create enclave: %w", err)
	}
	app := &AppEnclave{
		enc:     enc,
		iface:   iface,
		urts:    u,
		trusted: make([]TrustedFn, len(iface.Ecalls())),
	}
	for name, fn := range impl {
		f, _ := iface.Lookup(name)
		app.trusted[f.ID] = fn
	}
	u.enclaves.Store(enc.ID, app)
	return app, nil
}

// DestroyEnclave tears the enclave down.
func (u *URTS) DestroyEnclave(app *AppEnclave) {
	u.enclaves.Delete(app.enc.ID)
	u.lastEnclave.CompareAndSwap(app, nil)
	u.driver.DestroyEnclave(app.enc)
}

// AppEnclaveFor returns the registered enclave state for an ID.
func (u *URTS) AppEnclaveFor(eid sgx.EnclaveID) (*AppEnclave, bool) {
	if a := u.lastEnclave.Load(); a != nil && a.enc.ID == eid {
		return a, true
	}
	v, ok := u.enclaves.Load(eid)
	if !ok {
		return nil, false
	}
	a := v.(*AppEnclave)
	u.lastEnclave.Store(a)
	return a, true
}

// Machine returns the machine this runtime drives.
func (u *URTS) Machine() *sgx.Machine { return u.machine }

// SetSwitchlessObserver registers fn to receive one record per
// switchless call (served or fallback); nil unregisters. A preloaded
// logger installs its trace emitter here at attach time.
func (u *URTS) SetSwitchlessObserver(fn SwitchlessObserver) {
	if fn == nil {
		u.slObserver.Store(nil)
		return
	}
	u.slObserver.Store(&fn)
}

//sgxperf:hotpath
func (u *URTS) switchlessObserver() SwitchlessObserver {
	if p := u.slObserver.Load(); p != nil {
		return *p
	}
	return nil
}

func (u *URTS) eventFor(tid sgx.ThreadID) *uevent {
	if v, ok := u.events.Load(tid); ok {
		return v.(*uevent)
	}
	v, _ := u.events.LoadOrStore(tid, newUevent())
	return v.(*uevent)
}

// ocallStackFor returns the thread's in-flight stack from its TLS slot,
// creating it on first use.
func (u *URTS) ocallStackFor(ctx *sgx.Context) *ocallStack {
	if v := ctx.TLSGet(u.inflightKey); v != nil {
		return v.(*ocallStack)
	}
	s := &ocallStack{}
	ctx.TLSSet(u.inflightKey, s)
	return s
}

func (u *URTS) pushOcall(ctx *sgx.Context, name string) {
	s := u.ocallStackFor(ctx)
	s.names = append(s.names, name)
}

func (u *URTS) popOcall(ctx *sgx.Context) {
	s := u.ocallStackFor(ctx)
	if len(s.names) > 0 {
		s.names = s.names[:len(s.names)-1]
	}
}

// currentOcall returns the innermost in-flight ocall on the thread, if
// any.
func (u *URTS) currentOcall(ctx *sgx.Context) (string, bool) {
	s := u.ocallStackFor(ctx)
	if len(s.names) == 0 {
		return "", false
	}
	return s.names[len(s.names)-1], true
}

// Ecall is the real sgx_ecall: the single entry point for all ecalls. It
// saves the ocall table, charges URTS dispatch, enters the enclave, and
// runs the TRTS trampoline which dispatches to the trusted function.
func (u *URTS) Ecall(ctx *sgx.Context, eid sgx.EnclaveID, callID int, otab *OcallTable, args any) (any, error) {
	app, ok := u.AppEnclaveFor(eid)
	if !ok {
		return nil, ErrInvalidEnclave
	}
	decl, ok := app.iface.EcallByID(callID)
	if !ok {
		return nil, ErrInvalidEcall
	}
	ctx.ComputeCycles(u.urtsDispatchCycles)
	if otab != nil {
		app.saveTable(otab)
	}

	// Interface enforcement (§3.6): outside any ocall only public ecalls
	// may run; during an ocall the ecall must be in that ocall's allow
	// list (the SDK triggers an error for forgotten combinations).
	if cur, in := u.currentOcall(ctx); in {
		if !app.iface.Allowed(cur, decl.Name) {
			return nil, fmt.Errorf("%w: %s during ocall %s", ErrEcallNotAllowed, decl.Name, cur)
		}
	} else if !decl.Public {
		return nil, fmt.Errorf("%w: private ecall %s outside an ocall", ErrEcallNotAllowed, decl.Name)
	}

	fn, ok := app.trustedFn(callID)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoImplementation, decl.Name)
	}
	if err := ctx.EEnter(app.enc); err != nil {
		return nil, fmt.Errorf("sdk: eenter: %w", err)
	}
	// TRTS trampoline: resolve the ID, charge dispatch, copy [in] buffers.
	ctx.ComputeCycles(u.trtsDispatchCycles)
	chargeCopy(ctx, args, true)
	env := &Env{ctx: ctx, app: app, urts: u}
	res, err := fn(env, args)
	chargeCopy(ctx, args, false)
	if exitErr := ctx.EExit(); exitErr != nil && err == nil {
		err = fmt.Errorf("sdk: eexit: %w", exitErr)
	}
	return res, err
}

// chargeCopy prices boundary copies for arguments implementing Copied.
func chargeCopy(ctx *sgx.Context, args any, in bool) {
	c, ok := args.(Copied)
	if !ok {
		return
	}
	n := c.CopyOutBytes()
	if in {
		n = c.CopyInBytes()
	}
	if n <= 0 {
		return
	}
	ctx.Compute(CostCopyPerKiB * time.Duration((n+1023)/1024))
}

// syncOcallImpl returns the URTS-provided implementation of an SDK sync
// ocall, or nil for other names.
func (u *URTS) syncOcallImpl(name string) OcallFn {
	switch name {
	case OcallThreadWait:
		return func(ctx *sgx.Context, args any) (any, error) {
			a, ok := args.(WaitEventArgs)
			if !ok {
				return nil, fmt.Errorf("sdk: %s: bad args %T", OcallThreadWait, args)
			}
			u.eventFor(a.Self).wait(ctx)
			return nil, nil
		}
	case OcallThreadSet:
		return func(ctx *sgx.Context, args any) (any, error) {
			a, ok := args.(SetEventArgs)
			if !ok {
				return nil, fmt.Errorf("sdk: %s: bad args %T", OcallThreadSet, args)
			}
			u.eventFor(a.Target).set(ctx.Now())
			return nil, nil
		}
	case OcallThreadSetMultiple:
		return func(ctx *sgx.Context, args any) (any, error) {
			a, ok := args.(SetMultipleEventArgs)
			if !ok {
				return nil, fmt.Errorf("sdk: %s: bad args %T", OcallThreadSetMultiple, args)
			}
			for _, t := range a.Targets {
				u.eventFor(t).set(ctx.Now())
			}
			return nil, nil
		}
	case OcallThreadSetWait:
		return func(ctx *sgx.Context, args any) (any, error) {
			a, ok := args.(SetWaitEventArgs)
			if !ok {
				return nil, fmt.Errorf("sdk: %s: bad args %T", OcallThreadSetWait, args)
			}
			u.eventFor(a.Target).set(ctx.Now())
			u.eventFor(a.Self).wait(ctx)
			return nil, nil
		}
	}
	return nil
}
