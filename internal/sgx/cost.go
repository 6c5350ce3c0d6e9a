// Package sgx models the Intel Software Guard Extensions hardware that the
// paper's tooling depends on: the Enclave Page Cache (EPC), enclaves built
// from SECS/TCS/SSA/stack/heap/code pages, the EENTER/EEXIT/ERESUME
// transition instructions, Asynchronous Enclave Exits (AEX), a Memory
// Encryption Engine, and MMU page permissions that are checked before the
// SGX permissions.
//
// The model runs on virtual time (package vtime): every operation charges a
// calibrated number of cycles to the executing thread's clock. Calibration
// targets are the paper's own measurements (§2.3.1 and Table 2), so the
// reproduction is deterministic yet shaped like the original hardware.
package sgx

import (
	"time"

	"sgxperf/internal/vtime"
)

// MitigationLevel selects which side-channel microcode/SDK mitigations are
// applied. The paper measures enclave transitions in all three settings
// (§2.3.1) and re-runs the Glamdring benchmark under each (§5.2.3).
type MitigationLevel int

const (
	// MitigationNone is an unmodified SGX-capable processor.
	MitigationNone MitigationLevel = iota + 1
	// MitigationSpectre applies the Spectre SDK + microcode updates.
	MitigationSpectre
	// MitigationFull additionally applies the Foreshadow (L1TF) microcode
	// update.
	MitigationFull
)

// String returns the conventional name of the mitigation level.
func (m MitigationLevel) String() string {
	switch m {
	case MitigationNone:
		return "vanilla"
	case MitigationSpectre:
		return "spectre"
	case MitigationFull:
		return "spectre+l1tf"
	default:
		return "unknown"
	}
}

// RoundTripDuration returns the paper's measured warm-cache EENTER+EEXIT
// round-trip time for this mitigation level (§2.3.1).
func (m MitigationLevel) RoundTripDuration() time.Duration {
	switch m {
	case MitigationSpectre:
		return 3850 * time.Nanosecond
	case MitigationFull:
		return 4890 * time.Nanosecond
	default:
		return 2130 * time.Nanosecond
	}
}

// CostModel holds every virtual-time charge the machine model applies. All
// values are in cycles at Frequency.
type CostModel struct {
	// Frequency is the simulated CPU frequency.
	Frequency vtime.Frequency

	// EEnter and EExit are the one-way transition costs. Their sum is the
	// measured round-trip of §2.3.1 for the selected mitigation level.
	EEnter vtime.Cycles
	EExit  vtime.Cycles
	// EResume re-enters the enclave after an AEX; it is priced like EEnter.
	EResume vtime.Cycles
	// AEXSave is the hardware cost of saving the execution context into the
	// SSA and leaving the enclave on an asynchronous exit.
	AEXSave vtime.Cycles
	// IRQHandler is the untrusted interrupt-handler work performed between
	// the AEX and the jump to the AEP.
	IRQHandler vtime.Cycles

	// TimerQuantum is the interval between timer interrupts while executing
	// inside an enclave. Linux 4.4 with CONFIG_HZ=250 (the paper's kernel)
	// fires every 4ms; the long-ecall experiment in Table 2 observes ~11.5
	// AEXs over a 45.4ms ecall, matching this quantum.
	TimerQuantum vtime.Cycles

	// PageFault is the kernel-side fault-handling overhead charged on every
	// EPC or MMU page fault, on top of the AEX round-trip.
	PageFault vtime.Cycles
	// PageCrypto is the Memory Encryption Engine cost for encrypting or
	// decrypting one 4 KiB page during EWB/ELDU.
	PageCrypto vtime.Cycles
	// PageDriver is the SGX driver bookkeeping cost per EWB/ELDU.
	PageDriver vtime.Cycles

	// PageTouch is charged on the first access to a resident page within a
	// call (TLB-miss shaped cost); subsequent touches are free.
	PageTouch vtime.Cycles

	// EAdd is the per-page enclave-build cost (EADD + EEXTEND measurement).
	EAdd vtime.Cycles

	// EnclaveComputeFactor scales compute time spent inside an enclave
	// relative to the same work outside. Memory accesses that miss the
	// cache go through the Memory Encryption Engine, so enclave code runs
	// slower; 1.0 (the default) models cache-resident code, data-heavy
	// workloads use 1.2–3×. Zero means 1.0.
	EnclaveComputeFactor float64
}

// Transition cost split: EENTER is slightly more expensive than EEXIT
// because it performs the TCS checks and mode switch.
const (
	eenterShare = 0.55
	eexitShare  = 0.45
)

// DefaultCostModel returns the cost model calibrated to the paper's machine
// (Xeon E3-1230 v5 @ 3.40GHz) at the given mitigation level.
func DefaultCostModel(m MitigationLevel) CostModel {
	f := vtime.DefaultFrequency
	rt := f.Cycles(m.RoundTripDuration())
	enter := vtime.Cycles(float64(rt) * eenterShare)
	exit := rt - enter
	return CostModel{
		Frequency:    f,
		EEnter:       enter,
		EExit:        exit,
		EResume:      enter,
		AEXSave:      exit,
		IRQHandler:   f.Cycles(1500 * time.Nanosecond),
		TimerQuantum: f.Cycles(4 * time.Millisecond),
		PageFault:    f.Cycles(2 * time.Microsecond),
		PageCrypto:   f.Cycles(3 * time.Microsecond),
		PageDriver:   f.Cycles(5 * time.Microsecond),
		PageTouch:    f.Cycles(50 * time.Nanosecond),
		EAdd:         f.Cycles(600 * time.Nanosecond),

		EnclaveComputeFactor: 1.0,
	}
}

// RoundTrip returns the EENTER+EEXIT cost in cycles.
func (c CostModel) RoundTrip() vtime.Cycles { return c.EEnter + c.EExit }

// enclaveScale applies the in-enclave compute penalty to a cycle count.
func (c CostModel) enclaveScale(n vtime.Cycles) vtime.Cycles {
	if c.EnclaveComputeFactor <= 0 || c.EnclaveComputeFactor == 1.0 {
		return n
	}
	return vtime.Cycles(float64(n) * c.EnclaveComputeFactor)
}
