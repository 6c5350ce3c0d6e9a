package analyzer

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sgxperf/internal/edl"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// xorshift is a tiny deterministic PRNG so the golden traces are stable
// across runs and platforms without importing math/rand.
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

func (x *xorshift) intn(n int) int { return int(x.next() % uint64(n)) }

// goldenTrace synthesises a trace exercising every kernel: many call
// names across threads and enclaves, nested ocalls with back-to-back
// repeats (merge/batch pressure), ecalls issued during ocalls, Parent
// links to calls that already ended, sync sleep/wake pairs, paging
// events inside and outside call windows, and AEX counts.
func goldenTrace(t *testing.T, seed uint64, nOps int) *events.Trace {
	t.Helper()
	b := newBuilder(t)
	rng := xorshift(seed | 1)
	names := []string{
		"ecall_put", "ecall_get", "ecall_del", "ecall_tick",
		"ecall_crypto", "ecall_flush",
	}
	onames := []string{"ocall_write", "ocall_read", "ocall_log"}
	clock := make([]float64, 8) // per-thread time in µs
	for op := 0; op < nOps; op++ {
		thread := int64(rng.intn(len(clock)))
		clock[thread] += float64(1 + rng.intn(40))
		start := clock[thread]
		dur := float64(1+rng.intn(30)) / 2
		name := names[rng.intn(len(names))]
		id := b.trace.NextID()
		enclave := sgx.EnclaveID(1 + rng.intn(2))
		b.trace.Ecalls.Insert(events.CallEvent{
			ID: id, Kind: events.KindEcall, Enclave: enclave,
			Thread: sgx.ThreadID(thread), CallID: rng.intn(8), Name: name,
			Start: b.cyc(start), End: b.cyc(start + dur),
			Parent: events.NoEvent, AEXCount: rng.intn(3),
		})
		// Nested ocalls, sometimes repeated back-to-back to trigger the
		// merge/batch detectors, sometimes near the parent's start for
		// the reordering detector.
		nested := rng.intn(3)
		at := start + float64(rng.intn(3))/4
		for k := 0; k < nested; k++ {
			oid := b.trace.NextID()
			oname := onames[rng.intn(len(onames))]
			odur := float64(1+rng.intn(6)) / 4
			b.trace.Ocalls.Insert(events.CallEvent{
				ID: oid, Kind: events.KindOcall, Enclave: enclave,
				Thread: sgx.ThreadID(thread), Name: oname,
				Start: b.cyc(at), End: b.cyc(at + odur),
				Parent: id,
			})
			// Every fifth ocall issues an ecall while it runs; every
			// seventh names as Parent an ecall that starts only after
			// the ocall returned.
			switch {
			case oid%5 == 0:
				b.trace.Ecalls.Insert(events.CallEvent{
					ID: b.trace.NextID(), Kind: events.KindEcall, Enclave: enclave,
					Thread: sgx.ThreadID(thread), Name: "ecall_cb",
					Start: b.cyc(at + odur/4), End: b.cyc(at + odur/2), Parent: oid,
				})
			case oid%7 == 0:
				b.trace.Ecalls.Insert(events.CallEvent{
					ID: b.trace.NextID(), Kind: events.KindEcall, Enclave: enclave,
					Thread: sgx.ThreadID(thread), Name: "ecall_cb_late",
					Start: b.cyc(at + odur + 0.1), End: b.cyc(at + odur + 0.2), Parent: oid,
				})
			}
			at += odur + float64(rng.intn(4))/4
			if rng.intn(4) == 0 { // occasional sync ocall with wake targets
				sid := b.trace.NextID()
				kind := events.SyncSleep
				var targets []sgx.ThreadID
				if rng.intn(2) == 0 {
					kind = events.SyncWake
					targets = []sgx.ThreadID{sgx.ThreadID(rng.intn(len(clock)))}
				}
				b.trace.Syncs.Insert(events.SyncEvent{
					ID: sid, Kind: kind, Thread: sgx.ThreadID(thread),
					Targets: targets, Time: b.cyc(at), Call: oid,
				})
			}
		}
		if rng.intn(5) == 0 {
			pid := b.trace.NextID()
			kind := events.PageIn
			if rng.intn(2) == 0 {
				kind = events.PageOut
			}
			// Half land inside the ecall window, half in the gaps.
			when := start + dur/2
			if rng.intn(2) == 0 {
				when = start + dur + 1
			}
			b.trace.Paging.Insert(events.PagingEvent{
				ID: pid, Kind: kind, Enclave: enclave,
				Thread: sgx.ThreadID(thread), Vaddr: rng.next(),
				PageKind: []string{"heap", "stack", "code"}[rng.intn(3)],
				Time:     b.cyc(when),
			})
		}
		clock[thread] = start + dur
	}
	return b.trace
}

// goldenEDL declares goldenTrace's interface: one already-private
// nested ecall, allow lists with unexercised entries and a user_check
// parameter.
const goldenEDL = `
enclave {
    trusted {
        public ecall_put();
        public ecall_get();
        public ecall_del();
        public ecall_tick([user_check] p);
        public ecall_crypto();
        public ecall_flush();
        ecall_cb();
        public ecall_cb_late();
    };
    untrusted {
        ocall_write() allow(ecall_cb, ecall_cb_late);
        ocall_read() allow(ecall_cb, ecall_put);
        ocall_log();
    };
};
`

// goldenVariants are the analysis options every golden trace is checked
// under: the whole trace, each enclave alone, and an explicit EDL.
func goldenVariants(t *testing.T) []struct {
	name string
	opts Options
} {
	t.Helper()
	iface, _, err := edl.Parse(goldenEDL)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		opts Options
	}{
		{"all", Options{}},
		{"enclave=1", Options{Enclave: 1}},
		{"enclave=2", Options{Enclave: 2}},
		{"edl", Options{Interface: iface}},
	}
}

func analyzeTrace(t *testing.T, trace *events.Trace, opts Options) *Report {
	t.Helper()
	a, err := New(trace, opts)
	if err != nil {
		t.Fatal(err)
	}
	return a.Analyze()
}

// TestAnalyzeMatchesReference holds the fold to the serial reference
// scan (reference_test.go): on traces exercising every kernel the two
// reports are reflect.DeepEqual — stats, findings (order included),
// security hints, paging, wake graph and call graph.
func TestAnalyzeMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		seed uint64
		ops  int
	}{
		{seed: 1, ops: 50},
		{seed: 7, ops: 400},
		{seed: 42, ops: 1500},
		{seed: 99, ops: 600},
		{seed: 1234, ops: 800},
	} {
		trace := goldenTrace(t, tc.seed, tc.ops)
		for _, v := range goldenVariants(t) {
			t.Run(fmt.Sprintf("seed=%d/ops=%d/%s", tc.seed, tc.ops, v.name), func(t *testing.T) {
				got, want := analyzeTrace(t, trace, v.opts), referenceReport(trace, v.opts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("report diverges from the reference:\ngot:  %+v\nwant: %+v", got, want)
				}
			})
		}
	}
}

// TestAnalyzeMatchesReferenceEmptyTrace checks the degenerate case: no
// calls, no paging, no syncs.
func TestAnalyzeMatchesReferenceEmptyTrace(t *testing.T) {
	trace, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	got, want := analyzeTrace(t, trace, Options{}), referenceReport(trace, Options{})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("empty trace: got %+v, want %+v", got, want)
	}
}

// TestAnalyzeMatchesStreamSortedCopy checks that a report does not
// depend on storage order: Analyze over goldenTrace's unsorted tables
// equals AnalyzeStream over a stream-sorted copy of the same events,
// Parent links to calls that already ended included.
func TestAnalyzeMatchesStreamSortedCopy(t *testing.T) {
	trace := goldenTrace(t, 42, 1500)
	sorted := goldenTrace(t, 42, 1500)
	events.StreamSort(sorted)
	for _, v := range goldenVariants(t) {
		t.Run(v.name, func(t *testing.T) {
			want, err := AnalyzeStream(NewTraceSource(sorted), v.opts)
			if err != nil {
				t.Fatal(err)
			}
			if got := analyzeTrace(t, trace, v.opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("Analyze differs from AnalyzeStream over the sorted copy:\ngot:  %+v\nwant: %+v", got, want)
			}
		})
	}
}

// TestAnalyzeRepeatable guards against output that depends on map
// iteration order: the same analyser yields the identical report run
// after run.
func TestAnalyzeRepeatable(t *testing.T) {
	a, err := New(goldenTrace(t, 1234, 800), Options{})
	if err != nil {
		t.Fatal(err)
	}
	first := a.Analyze()
	for i := 0; i < 5; i++ {
		if got := a.Analyze(); !reflect.DeepEqual(first, got) {
			t.Fatalf("run %d differs from the first", i)
		}
	}
}

// TestSortRowPosStable checks Analyze's row ordering against a stable
// comparison sort: by start (negative starts included), then event ID,
// ties in storage order.
func TestSortRowPosStable(t *testing.T) {
	rng := xorshift(99)
	var order []rowPos
	for i := 0; i < 5000; i++ {
		start := vtime.Cycles(rng.intn(2000)) - 1000
		if rng.intn(10) == 0 {
			start <<= 40
		}
		order = append(order, rowPos{
			key:   callKey{start: start, id: events.EventID(rng.intn(50))},
			chunk: int32(i / 1024), row: int32(i % 1024),
		})
	}
	want := slices.Clone(order)
	slices.SortStableFunc(want, func(a, b rowPos) int { return a.key.compare(b.key) })
	if got := sortRowPos(order); !slices.Equal(got, want) {
		t.Fatal("radix order differs from a stable sort by (start, ID)")
	}
}
