package main

import (
	"bytes"
	"fmt"

	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// rng is a seeded xorshift64 generator: every input the benchmark builds
// comes from one, so the same seed gives the same inputs.
type rng struct{ s uint64 }

// newRNG scrambles seed with splitmix64 so neighbouring seeds start far
// apart.
func newRNG(seed uint64) *rng {
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return &rng{s: z}
}

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

var (
	synthEcalls = []string{"ecall_put", "ecall_get", "ecall_del", "ecall_tick", "ecall_crypto", "ecall_flush"}
	synthOcalls = []string{"ocall_write", "ocall_read", "ocall_log"}
	synthPages  = []string{"heap", "stack", "code"}
)

// synthEDL is the interface embedded in every synthetic trace, so the
// analyser recovers allow-sets and the served hybrid lint has an
// interface to join the trace with.
const synthEDL = `enclave {
	trusted {
		public ecall_put([in, size=len] buf, len);
		public ecall_get([out, size=len] buf, len);
		public ecall_del(key);
		public ecall_tick();
		public ecall_crypto([user_check] ctx);
		public ecall_flush();
	};
	untrusted {
		ocall_write([in, size=len] buf, len);
		ocall_read([out, size=len] buf, len);
		ocall_log([in, string] msg) allow(ecall_tick);
	};
};`

const synthThreads = 8

// traceGen emits seeded synthetic traces shaped like a busy recording:
// 8 threads over 2 enclaves, 6 ecall and 3 ocall names, nested ocalls,
// sleep/wake pairs and EPC paging inside and after call windows. One
// generator extends its trace with append-compatible deltas: event IDs
// keep increasing and each delta starts after every timestamp emitted
// so far, so a stream-sorted trace stays stream-sorted when a sorted
// delta is appended.
type traceGen struct {
	rng     *rng
	id      int64
	clock   [synthThreads]int64
	horizon int64
}

func newTraceGen(seed uint64) *traceGen { return &traceGen{rng: newRNG(seed)} }

// base builds a trace of nCalls top-level ecalls with its meta header and
// embedded EDL. sorted selects the stream-sorted table layout the
// streaming fold needs; unsorted traces keep generation order, which
// interleaves threads out of time order.
func (g *traceGen) base(nCalls int, sorted bool) (*events.Trace, error) {
	tr, err := events.NewTrace()
	if err != nil {
		return nil, err
	}
	tr.Meta.Insert(events.TraceMeta{Workload: "synth", FrequencyHz: 3.5e9, TransitionCycles: 13500})
	tr.Enclaves.Insert(
		events.EnclaveMeta{Enclave: 1, Name: "synth-a", NumPages: 256, EDL: synthEDL},
		events.EnclaveMeta{Enclave: 2, Name: "synth-b", NumPages: 256, EDL: synthEDL},
	)
	g.emit(tr, nCalls)
	if sorted {
		events.StreamSort(tr)
	}
	return tr, nil
}

// delta builds an append body of nCalls more ecalls: events only, every
// one after the generator's horizon.
func (g *traceGen) delta(nCalls int, sorted bool) (*events.Trace, error) {
	tr, err := events.NewTrace()
	if err != nil {
		return nil, err
	}
	for t := range g.clock {
		g.clock[t] = g.horizon + 1
	}
	g.emit(tr, nCalls)
	if sorted {
		events.StreamSort(tr)
	}
	return tr, nil
}

func (g *traceGen) nextID() events.EventID {
	g.id++
	return events.EventID(g.id)
}

func (g *traceGen) emit(tr *events.Trace, nCalls int) {
	r := g.rng
	var (
		ecalls []events.CallEvent
		ocalls []events.CallEvent
		paging []events.PagingEvent
		syncs  []events.SyncEvent
	)
	for op := 0; op < nCalls; op++ {
		thread := r.intn(synthThreads)
		g.clock[thread] += int64(100 + r.intn(4000))
		start := g.clock[thread]
		dur := int64(100 + r.intn(3000))
		eid := g.nextID()
		enclave := sgx.EnclaveID(1 + r.intn(2))
		call := r.intn(len(synthEcalls))
		ecalls = append(ecalls, events.CallEvent{
			ID: eid, Kind: events.KindEcall, Enclave: enclave,
			Thread: sgx.ThreadID(thread), CallID: call, Name: synthEcalls[call],
			Start: vtime.Cycles(start), End: vtime.Cycles(start + dur),
			Parent: events.NoEvent, AEXCount: r.intn(3),
		})
		at := start + int64(r.intn(50))
		for k, nested := 0, r.intn(3); k < nested; k++ {
			// Nested ocalls stay inside their parent's span, as the SDK
			// produces them; the streaming fold relies on it.
			oend := min(at+int64(20+r.intn(200)), start+dur)
			if oend <= at {
				break
			}
			oid := g.nextID()
			ocalls = append(ocalls, events.CallEvent{
				ID: oid, Kind: events.KindOcall, Enclave: enclave,
				Thread: sgx.ThreadID(thread), Name: synthOcalls[r.intn(len(synthOcalls))],
				Start: vtime.Cycles(at), End: vtime.Cycles(oend), Parent: eid,
			})
			at = oend + int64(r.intn(40))
			if r.intn(4) == 0 {
				kind := events.SyncSleep
				var targets []sgx.ThreadID
				if r.intn(2) == 0 {
					kind = events.SyncWake
					targets = []sgx.ThreadID{sgx.ThreadID(r.intn(synthThreads))}
				}
				syncs = append(syncs, events.SyncEvent{
					ID: g.nextID(), Kind: kind, Thread: sgx.ThreadID(thread),
					Targets: targets, Time: vtime.Cycles(at), Call: oid,
				})
			}
		}
		end := start + dur
		if r.intn(5) == 0 {
			kind := events.PageIn
			if r.intn(2) == 0 {
				kind = events.PageOut
			}
			when := start + dur/2
			if r.intn(2) == 0 {
				when = end + 10
			}
			paging = append(paging, events.PagingEvent{
				ID: g.nextID(), Kind: kind, Enclave: enclave,
				Thread: sgx.ThreadID(thread), Vaddr: r.next(),
				PageKind: synthPages[r.intn(len(synthPages))],
				Time:     vtime.Cycles(when),
			})
			g.horizon = max(g.horizon, when)
		}
		g.clock[thread] = end
		g.horizon = max(g.horizon, end)
	}
	tr.Ecalls.BatchInsert(ecalls)
	tr.Ocalls.BatchInsert(ocalls)
	tr.Paging.BatchInsert(paging)
	tr.Syncs.BatchInsert(syncs)
}

// traceEvents counts the event rows an analysis consumes.
func traceEvents(tr *events.Trace) int {
	return tr.Ecalls.Len() + tr.Ocalls.Len() + tr.AEXs.Len() + tr.Paging.Len() + tr.Syncs.Len()
}

// encode serialises a trace in the default on-disk format.
func encode(tr *events.Trace) ([]byte, error) {
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		return nil, fmt.Errorf("encode trace: %w", err)
	}
	return buf.Bytes(), nil
}

// appendTo lands delta's event rows on dst in table order — what the
// serve daemon does with an append body — so a client-side mirror holds
// the same events as the served trace.
func appendTo(dst, delta *events.Trace) {
	copyRows(dst.Ecalls.BatchInsert, delta.Ecalls.ScanChunks)
	copyRows(dst.Ocalls.BatchInsert, delta.Ocalls.ScanChunks)
	copyRows(dst.AEXs.BatchInsert, delta.AEXs.ScanChunks)
	copyRows(dst.Paging.BatchInsert, delta.Paging.ScanChunks)
	copyRows(dst.Syncs.BatchInsert, delta.Syncs.ScanChunks)
}

func copyRows[T any](insert func([]T), scan func(func([]T) bool)) {
	var rows []T
	scan(func(c []T) bool {
		rows = append(rows, c...)
		return true
	})
	if len(rows) > 0 {
		insert(rows)
	}
}
