package experiments

// The analysis-throughput experiment: how fast the post-processing
// pipeline (§4.2) chews through a recorded trace, and how fast traces
// save to and load from the chunked columnar file format. Unlike the
// paper's virtual-time figures these are wall-clock numbers for the tool
// itself — the sgx-perf analogue of "how long until the report is on
// screen".

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// CodecRow is one serialisation measurement.
type CodecRow struct {
	Op       string        `json:"op"` // "save" or "load"
	Bytes    int           `json:"bytes"`
	Wall     time.Duration `json:"wall_ns"`
	MBPerSec float64       `json:"mb_per_sec"`
}

// AnalyzeResult is the machine-readable output of the experiment.
type AnalyzeResult struct {
	Events  int `json:"events"`
	Threads int `json:"threads"` // GOMAXPROCS during the run
	Repeats int `json:"repeats"`
	// AnalyzeWall is the median wall time of one Analyze of the trace:
	// the fold over sorted copies of its tables, report assembled.
	AnalyzeWall  time.Duration `json:"analyze_wall_ns"`
	EventsPerSec float64       `json:"events_per_sec"`
	Codec        []CodecRow    `json:"codec"`
}

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

// traceEvents counts the event rows the analysis consumes.
func traceEvents(tr *events.Trace) int {
	return tr.Ecalls.Len() + tr.Ocalls.Len() + tr.AEXs.Len() + tr.Paging.Len() + tr.Syncs.Len()
}

// medianWall returns the median of the run durations.
func medianWall(runs []time.Duration) time.Duration {
	sort.Slice(runs, func(i, j int) bool { return runs[i] < runs[j] })
	return runs[len(runs)/2]
}

// RunAnalyzeThroughput measures the analysis pipeline and the trace
// codec on a synthetic nOps-call trace. repeats ≤ 0 selects a default;
// the median run is reported.
func RunAnalyzeThroughput(nOps, repeats int) (*AnalyzeResult, error) {
	if nOps <= 0 {
		nOps = 50000
	}
	if repeats <= 0 {
		repeats = 3
	}
	tr, err := SynthAnalysisTrace(nOps)
	if err != nil {
		return nil, err
	}
	nEvents := traceEvents(tr)
	res := &AnalyzeResult{Events: nEvents, Threads: runtime.GOMAXPROCS(0), Repeats: repeats}

	runs := make([]time.Duration, 0, repeats)
	for rep := 0; rep < repeats; rep++ {
		a, err := analyzer.New(tr, analyzer.Options{})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		a.Analyze()
		runs = append(runs, time.Since(start))
	}
	res.AnalyzeWall = medianWall(runs)
	res.EventsPerSec = float64(nEvents) / res.AnalyzeWall.Seconds()

	// Serialisation: save and load the same trace.
	var buf bytes.Buffer
	saves := make([]time.Duration, 0, repeats)
	for rep := 0; rep < repeats; rep++ {
		buf.Reset()
		start := time.Now()
		if err := tr.Save(&buf); err != nil {
			return nil, err
		}
		saves = append(saves, time.Since(start))
	}
	loads := make([]time.Duration, 0, repeats)
	for rep := 0; rep < repeats; rep++ {
		dst, err := events.NewTrace()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
			return nil, err
		}
		loads = append(loads, time.Since(start))
		if got := traceEvents(dst); got != nEvents {
			return nil, fmt.Errorf("analyze bench: load returned %d events, want %d", got, nEvents)
		}
	}
	for _, r := range []struct {
		op   string
		runs []time.Duration
	}{{"save", saves}, {"load", loads}} {
		wall := medianWall(r.runs)
		res.Codec = append(res.Codec, CodecRow{
			Op: r.op, Bytes: buf.Len(), Wall: wall,
			MBPerSec: float64(buf.Len()) / 1e6 / wall.Seconds(),
		})
	}
	return res, nil
}

// RenderAnalyze formats the result as the bench tool's report text.
func RenderAnalyze(res *AnalyzeResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Analysis throughput (%d events, GOMAXPROCS=%d, median of %d)\n",
		res.Events, res.Threads, res.Repeats)
	fmt.Fprintf(&b, "  %12s %14s\n", "wall", "events/sec")
	fmt.Fprintf(&b, "  %12v %14.0f\n\n", res.AnalyzeWall.Round(time.Microsecond), res.EventsPerSec)
	fmt.Fprintf(&b, "Trace codec (same trace)\n")
	fmt.Fprintf(&b, "  %-6s %10s %12s %10s\n", "op", "bytes", "wall", "MB/s")
	for _, r := range res.Codec {
		fmt.Fprintf(&b, "  %-6s %10d %12v %10.1f\n", r.Op, r.Bytes, r.Wall.Round(time.Microsecond), r.MBPerSec)
	}
	return b.String()
}
