package analyzer

import "sgxperf/internal/perf/events"

// Problem is one of the five SGX performance anti-patterns of Table 1.
type Problem int

const (
	// ProblemSISC is Short Identical Successive Calls (§3.1).
	ProblemSISC Problem = iota + 1
	// ProblemSDSC is Short Different Successive Calls (§3.2).
	ProblemSDSC
	// ProblemSNC is Short Nested Calls (§3.3).
	ProblemSNC
	// ProblemSSC is Short Synchronisation Calls (§3.4).
	ProblemSSC
	// ProblemPaging is EPC paging (§3.5).
	ProblemPaging
	// ProblemPermissiveInterface is the security row of Table 1 (§3.6):
	// an enclave interface that is wider or looser than the workload
	// needs. The analyser reports it through Report.Security rather than
	// Findings, but it is part of the problem catalogue.
	ProblemPermissiveInterface
	// ProblemReentrancy flags ecall→ocall→ecall cycles reachable through
	// the interface's allow-lists: an allowed ecall may re-issue the same
	// ocall, so the nesting depth is unbounded and every level consumes
	// trusted stack (§3.6). Found statically by the interface analyser.
	ProblemReentrancy
	// ProblemLargeCopies flags calls whose [in]/[out] buffer copies are
	// large or statically unbounded: the marshalling cost grows past the
	// transition round-trip itself (§6, "reduce copies"). Found statically
	// by the interface analyser from the machine's cost model.
	ProblemLargeCopies
	// ProblemTransitionBound flags calls that marshal almost nothing, so
	// the transition round-trip is their dominant cost — the static
	// counterpart of Equation 1's transition-dominated calls, and the
	// candidate set for switchless workers ("SGX Switchless Calls Made
	// Configless").
	ProblemTransitionBound
	// ProblemBoundarySync flags enclave code that holds an in-enclave lock
	// across an enclave transition or another blocking point: every thread
	// that contends on the lock meanwhile leaves the enclave through the
	// sleep/wake ocall pair (§3.4), so the critical section's cost is no
	// longer bounded by the work inside it. Found statically by the
	// concurrency dataflow analysis over the workload sources.
	ProblemBoundarySync
	// ProblemTransitionAmplification flags an ocall dispatch reached
	// inside a loop — directly or through a callee that transitively
	// dispatches — so the per-transition round trip (§3.1) multiplies by
	// the loop trip count. Found statically by the interprocedural
	// call-graph analysis; the fix is §6's: batch the buffer, cross once.
	ProblemTransitionAmplification
	// ProblemBoundaryDataHazard flags untrusted-shared data misuse at
	// the boundary (§3.6): an ecall handler re-reading a boundary-buffer
	// expression after an ocall crossing (TOCTOU double fetch), or an
	// enclave pointer escaping through an ocall argument. Found
	// statically by the interprocedural call-graph analysis.
	ProblemBoundaryDataHazard
	// ProblemSecretLeak flags enclave-confidential data — declarations
	// carrying //sgxperf:secret — reaching a boundary sink (an ocall
	// argument, a copy-back field, a user_check write) without passing a
	// seal/encrypt function (§3.6). Found statically by the secret-flow
	// taint analysis over the workload sources; the copy itself is also
	// priced by the machine model, so the leak shows up in the
	// performance ranking, not just as a security note.
	ProblemSecretLeak
	// ProblemDirectionMismatch flags an ecall handler whose boundary
	// buffer use contradicts the EDL's declared directions: an [in]
	// parameter written (the write is dropped at copy-back), an [out]
	// parameter read before its first write (stale enclave memory leaks
	// to the caller), or a [user_check] pointer dereferenced without a
	// bounds guard (§3.6). Found statically by the EDL cross-validation
	// of the taint analysis.
	ProblemDirectionMismatch
)

// String names the problem as in the paper.
func (p Problem) String() string {
	switch p {
	case ProblemSISC:
		return "Short Identical Successive Calls"
	case ProblemSDSC:
		return "Short Different Successive Calls"
	case ProblemSNC:
		return "Short Nested Calls"
	case ProblemSSC:
		return "Short Synchronisation Calls"
	case ProblemPaging:
		return "Paging"
	case ProblemPermissiveInterface:
		return "Permissive Enclave Interface"
	case ProblemReentrancy:
		return "Reentrant Enclave Interface"
	case ProblemLargeCopies:
		return "Expensive Boundary Copies"
	case ProblemTransitionBound:
		return "Transition-Bound Calls"
	case ProblemBoundarySync:
		return "Lock Held Across Enclave Boundary"
	case ProblemTransitionAmplification:
		return "Loop-Amplified Transitions"
	case ProblemBoundaryDataHazard:
		return "Boundary Data Hazard"
	case ProblemSecretLeak:
		return "Secret Data Crossing Boundary"
	case ProblemDirectionMismatch:
		return "Boundary Direction Mismatch"
	default:
		return "Unknown"
	}
}

// Solution is one mitigation strategy from Table 1.
type Solution int

const (
	// SolutionBatch batches repeated identical calls into one.
	SolutionBatch Solution = iota + 1
	// SolutionMerge merges different successive calls into one.
	SolutionMerge
	// SolutionMoveCaller moves the calling function across the boundary.
	SolutionMoveCaller
	// SolutionReorder moves a nested call before/after its parent.
	SolutionReorder
	// SolutionDuplicate duplicates ocall functionality inside the enclave.
	SolutionDuplicate
	// SolutionLockFree uses non-blocking data structures.
	SolutionLockFree
	// SolutionHybridLock spins in-enclave before sleeping outside.
	SolutionHybridLock
	// SolutionReduceMemory shrinks the enclave's working set.
	SolutionReduceMemory
	// SolutionPreloadPages loads pages into the EPC before the ecall.
	SolutionPreloadPages
	// SolutionSelfPaging manages memory inside the enclave instead of SGX
	// paging (Eleos/STANlite style).
	SolutionSelfPaging
	// SolutionLimitPublicEcalls declares ecalls private where possible.
	SolutionLimitPublicEcalls
	// SolutionLimitEcallsFromOcalls trims per-ocall allow lists.
	SolutionLimitEcallsFromOcalls
	// SolutionCheckPointers verifies user_check pointer handling.
	SolutionCheckPointers
	// SolutionSwitchless services the call with a worker thread instead of
	// an enclave transition ("SGX Switchless Calls Made Configless").
	SolutionSwitchless
	// SolutionReduceCopies shrinks or chunks the [in]/[out] buffer copies
	// of a call (§6).
	SolutionReduceCopies
	// SolutionRemoveDead deletes interface surface no caller can reach
	// (private ecalls allowed by no ocall).
	SolutionRemoveDead
)

// String names the solution.
func (s Solution) String() string {
	switch s {
	case SolutionBatch:
		return "batch calls"
	case SolutionMerge:
		return "merge calls"
	case SolutionMoveCaller:
		return "move caller in/out of enclave"
	case SolutionReorder:
		return "reorder calls"
	case SolutionDuplicate:
		return "duplicate ocalls inside enclave"
	case SolutionLockFree:
		return "use lock-free data structures"
	case SolutionHybridLock:
		return "use hybrid synchronisation primitives"
	case SolutionReduceMemory:
		return "reduce memory usage"
	case SolutionPreloadPages:
		return "load pages before ecall"
	case SolutionSelfPaging:
		return "do not use SGX paging"
	case SolutionLimitPublicEcalls:
		return "limit public ecalls"
	case SolutionLimitEcallsFromOcalls:
		return "limit ecalls from ocalls"
	case SolutionCheckPointers:
		return "check data and pointers"
	case SolutionSwitchless:
		return "use switchless calls"
	case SolutionReduceCopies:
		return "reduce boundary copies"
	case SolutionRemoveDead:
		return "remove unreachable ecalls"
	default:
		return "unknown"
	}
}

// Catalogue maps each problem to its Table 1 solutions.
func Catalogue() map[Problem][]Solution {
	return map[Problem][]Solution{
		ProblemSISC:   {SolutionBatch, SolutionMoveCaller},
		ProblemSDSC:   {SolutionMerge, SolutionMoveCaller},
		ProblemSNC:    {SolutionReorder, SolutionDuplicate},
		ProblemSSC:    {SolutionLockFree, SolutionHybridLock},
		ProblemPaging: {SolutionReduceMemory, SolutionPreloadPages, SolutionSelfPaging},
		ProblemPermissiveInterface: {
			SolutionLimitPublicEcalls, SolutionLimitEcallsFromOcalls, SolutionCheckPointers,
		},
		ProblemReentrancy: {SolutionLimitEcallsFromOcalls, SolutionRemoveDead},
		ProblemLargeCopies: {
			SolutionReduceCopies, SolutionSwitchless, SolutionMoveCaller,
		},
		ProblemTransitionBound: {SolutionSwitchless, SolutionBatch, SolutionDuplicate},
		ProblemBoundarySync:    {SolutionReorder, SolutionHybridLock, SolutionLockFree},
		ProblemTransitionAmplification: {
			SolutionBatch, SolutionSwitchless, SolutionMoveCaller,
		},
		ProblemBoundaryDataHazard: {SolutionCheckPointers, SolutionReduceCopies},
		ProblemSecretLeak: {
			SolutionCheckPointers, SolutionReduceCopies, SolutionMoveCaller,
		},
		ProblemDirectionMismatch: {SolutionCheckPointers, SolutionReduceCopies},
	}
}

// Finding is one detected problem with evidence and ranked solutions
// (§4.3.2: reordering first, then the TCB-increasing options; moving code
// out of the enclave requires a security evaluation).
type Finding struct {
	Problem  Problem
	Call     string
	Kind     events.CallKind
	Partner  string // merge partner / indirect parent, when applicable
	Evidence string
	// Solutions are ordered by recommendation priority.
	Solutions []Solution
	// SecurityNote flags solutions that change the TCB or move sensitive
	// code out of the enclave.
	SecurityNote string
	// Score orders findings within a problem class (higher = stronger).
	Score float64
}

// PagingStats summarises EPC paging activity.
type PagingStats struct {
	PageIns  int
	PageOuts int
	// DuringCalls counts paging events that fell inside a recorded call
	// window on the same thread.
	DuringCalls int
	// ByRegion counts events per enclave page kind (heap, stack, code…).
	ByRegion map[string]int
}

// WakeEdge says thread From woke thread To n times (§4.1.3 dependency
// tracking).
type WakeEdge struct {
	From  int64
	To    int64
	Count int
}

// isSyncName reports whether the call is one of the SDK sync ocalls.
func isSyncName(name string) bool {
	switch name {
	case "sgx_thread_wait_untrusted_event_ocall",
		"sgx_thread_set_untrusted_event_ocall",
		"sgx_thread_set_multiple_untrusted_events_ocall",
		"sgx_thread_setwait_untrusted_events_ocall":
		return true
	}
	return false
}
