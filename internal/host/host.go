// Package host composes a complete simulated application environment: an
// SGX machine, the kernel (driver, signals, kprobes, filesystem), a
// process image with its loaded libraries, and the SDK's untrusted
// runtime. Workloads run against a Host; tools such as the sgx-perf
// logger attach to one by preloading a shadowing library (§4).
package host

import (
	"fmt"

	"sgxperf/internal/kernel"
	"sgxperf/internal/loader"
	"sgxperf/internal/sdk"
	"sgxperf/internal/sgx"
)

// PthreadCreateFn is the signature of the pthread_create symbol: it starts
// fn on a new simulated thread. The logger shadows it to track threads.
type PthreadCreateFn func(name string, fn func(ctx *sgx.Context))

// SigactionFn is the signature of the sigaction symbol.
type SigactionFn func(sig kernel.Signal, h kernel.SigHandler) kernel.SigHandler

// Host is one simulated application process on one SGX machine.
type Host struct {
	Machine *sgx.Machine
	Kernel  *kernel.Kernel
	Proc    *loader.Process
	URTS    *sdk.URTS
}

// Option configures host construction.
type Option func(*config)

type config struct {
	machineOpts   []sgx.Option
	mitigation    sgx.MitigationLevel
	computeFactor float64
}

// WithMitigation selects the machine's mitigation level (§2.3.1).
func WithMitigation(level sgx.MitigationLevel) Option {
	return func(c *config) { c.mitigation = level }
}

// WithEPCCapacity overrides the EPC size in pages.
func WithEPCCapacity(pages int) Option {
	return func(c *config) {
		c.machineOpts = append(c.machineOpts, sgx.WithEPCCapacity(pages))
	}
}

// WithEnclaveComputeFactor sets the in-enclave compute slowdown (MEE
// effect) while keeping the selected mitigation's transition costs. Apply
// after WithMitigation.
func WithEnclaveComputeFactor(factor float64) Option {
	return func(c *config) { c.computeFactor = factor }
}

// New builds a host: machine, kernel, URTS, and a process image loading
// libsgx_urts and libc in default order.
func New(opts ...Option) (*Host, error) {
	cfg := config{mitigation: sgx.MitigationNone}
	for _, o := range opts {
		o(&cfg)
	}
	cost := sgx.DefaultCostModel(cfg.mitigation)
	if cfg.computeFactor > 0 {
		cost.EnclaveComputeFactor = cfg.computeFactor
	}
	machineOpts := append([]sgx.Option{sgx.WithCostModel(cost)}, cfg.machineOpts...)
	m, err := sgx.NewMachine(machineOpts...)
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	k := kernel.New(m)
	u := sdk.NewURTS(m, k.Driver)

	h := &Host{Machine: m, Kernel: k, URTS: u}

	libc := loader.NewLibrary("libc").
		Define(loader.SymPthreadCreate, PthreadCreateFn(k.Spawn)).
		Define(loader.SymSigaction, SigactionFn(k.Signals.Sigaction)).
		Define(loader.SymSignal, SigactionFn(k.Signals.Sigaction))
	h.Proc = loader.NewProcess(u.Library(), libc)
	return h, nil
}

// NewContext creates the process's main thread (or another raw context).
func (h *Host) NewContext(name string) *sgx.Context {
	return h.Machine.NewContext(name)
}

// Spawn starts a thread through the pthread_create symbol, so preloaded
// tools observe thread creation. Use Wait to join.
func (h *Host) Spawn(name string, fn func(ctx *sgx.Context)) error {
	create, err := loader.Lookup[PthreadCreateFn](h.Proc, loader.SymPthreadCreate)
	if err != nil {
		return fmt.Errorf("host: %w", err)
	}
	create(name, fn)
	return nil
}

// Wait joins all threads started with Spawn.
func (h *Host) Wait() { h.Kernel.Wait() }

// Sigaction installs a signal handler through the sigaction symbol, so a
// preloaded tool's shadow can chain (§4).
func (h *Host) Sigaction(sig kernel.Signal, handler kernel.SigHandler) (kernel.SigHandler, error) {
	sa, err := loader.Lookup[SigactionFn](h.Proc, loader.SymSigaction)
	if err != nil {
		return nil, fmt.Errorf("host: %w", err)
	}
	return sa(sig, handler), nil
}
