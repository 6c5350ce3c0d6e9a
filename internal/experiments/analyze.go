package experiments

// The synthetic analysis trace: a deterministic, busy multi-threaded
// recording that the analyzer's tests and the root Go benchmarks
// (BenchmarkAnalyze, BenchmarkAnalyzeStream, BenchmarkCodecSaveLoad)
// feed to the fold and the trace codec.

import (
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// synthRNG is the deterministic generator for the synthetic trace.
type synthRNG uint64

func (x *synthRNG) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

func (x *synthRNG) intn(n int) int { return int(x.next() % uint64(n)) }

// SynthAnalysisTrace builds a deterministic trace of roughly the shape
// the logger records from a busy multi-threaded workload: nOps ecalls
// across 8 threads and 2 enclaves, nested ocalls with back-to-back
// repeats, sync sleep/wake traffic and EPC paging in and out of call
// windows. Rows are batch-inserted, so building is cheap compared to
// the phases being measured.
func SynthAnalysisTrace(nOps int) (*events.Trace, error) {
	tr, err := events.NewTrace()
	if err != nil {
		return nil, err
	}
	tr.Meta.Insert(events.TraceMeta{Workload: "analyze-bench", FrequencyHz: 3.5e9, TransitionCycles: 13500})
	rng := synthRNG(0x5eed)
	names := []string{"ecall_put", "ecall_get", "ecall_del", "ecall_tick", "ecall_crypto", "ecall_flush"}
	onames := []string{"ocall_write", "ocall_read", "ocall_log"}
	regions := []string{"heap", "stack", "code"}
	clock := make([]int64, 8)

	var (
		ecalls []events.CallEvent
		ocalls []events.CallEvent
		paging []events.PagingEvent
		syncs  []events.SyncEvent
	)
	id := int64(0)
	nextID := func() events.EventID { id++; return events.EventID(id) }
	for op := 0; op < nOps; op++ {
		thread := rng.intn(len(clock))
		clock[thread] += int64(100 + rng.intn(4000))
		start := clock[thread]
		dur := int64(100 + rng.intn(3000))
		eid := nextID()
		enclave := sgx.EnclaveID(1 + rng.intn(2))
		ecalls = append(ecalls, events.CallEvent{
			ID: eid, Kind: events.KindEcall, Enclave: enclave,
			Thread: sgx.ThreadID(thread), CallID: rng.intn(8),
			Name:  names[rng.intn(len(names))],
			Start: vtime.Cycles(start), End: vtime.Cycles(start + dur),
			Parent: events.NoEvent, AEXCount: rng.intn(3),
		})
		at := start + int64(rng.intn(50))
		for k, nested := 0, rng.intn(3); k < nested; k++ {
			oid := nextID()
			odur := int64(20 + rng.intn(200))
			oend := at + odur
			// Nested calls stay inside their parent's span, as the SDK
			// produces them — also the streaming fold's nesting
			// precondition.
			if oend > start+dur {
				oend = start + dur
			}
			if oend <= at {
				break
			}
			ocalls = append(ocalls, events.CallEvent{
				ID: oid, Kind: events.KindOcall, Enclave: enclave,
				Thread: sgx.ThreadID(thread), Name: onames[rng.intn(len(onames))],
				Start: vtime.Cycles(at), End: vtime.Cycles(oend),
				Parent: eid,
			})
			at = oend + int64(rng.intn(40))
			if rng.intn(4) == 0 {
				kind := events.SyncSleep
				var targets []sgx.ThreadID
				if rng.intn(2) == 0 {
					kind = events.SyncWake
					targets = []sgx.ThreadID{sgx.ThreadID(rng.intn(len(clock)))}
				}
				syncs = append(syncs, events.SyncEvent{
					ID: nextID(), Kind: kind, Thread: sgx.ThreadID(thread),
					Targets: targets, Time: vtime.Cycles(at), Call: oid,
				})
			}
		}
		if rng.intn(5) == 0 {
			kind := events.PageIn
			if rng.intn(2) == 0 {
				kind = events.PageOut
			}
			when := start + dur/2
			if rng.intn(2) == 0 {
				when = start + dur + 10
			}
			paging = append(paging, events.PagingEvent{
				ID: nextID(), Kind: kind, Enclave: enclave,
				Thread: sgx.ThreadID(thread), Vaddr: rng.next(),
				PageKind: regions[rng.intn(len(regions))],
				Time:     vtime.Cycles(when),
			})
		}
		clock[thread] = start + dur
	}
	tr.Ecalls.BatchInsert(ecalls)
	tr.Ocalls.BatchInsert(ocalls)
	tr.Paging.BatchInsert(paging)
	tr.Syncs.BatchInsert(syncs)
	return tr, nil
}
