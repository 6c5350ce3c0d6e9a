package analyzer_test

// The streaming-equivalence gate of the out-of-core pipeline: the fold
// over a stream-sorted trace must reproduce the resident analyser's
// report bit-for-bit, fed from both the trace's own tables and a saved
// trace file read chunk-by-chunk.

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/edl"
	"sgxperf/internal/experiments"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
)

const streamTestEDL = `
enclave {
    trusted {
        public ecall_put();
        public ecall_get();
        ecall_del();
        ecall_tick([user_check] p);
        ecall_never_seen();
    };
    untrusted {
        ocall_write() allow(ecall_del, ecall_never_seen);
        ocall_read() allow(ecall_del);
        ocall_log();
    };
};
`

// streamTrace builds the stream-sorted synthetic trace the fold
// requires.
func streamTrace(t *testing.T, nOps int) *events.Trace {
	t.Helper()
	tr, err := experiments.SynthAnalysisTrace(nOps)
	if err != nil {
		t.Fatal(err)
	}
	events.StreamSort(tr)
	return tr
}

func TestAnalyzeStreamingMatchesResident(t *testing.T) {
	iface, _, err := edl.Parse(streamTestEDL)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		opts analyzer.Options
	}{
		{"default", analyzer.Options{}},
		{"enclave-filter", analyzer.Options{Enclave: sgx.EnclaveID(1)}},
		{"with-edl", analyzer.Options{Interface: iface}},
		{"edl-and-filter", analyzer.Options{Interface: iface, Enclave: sgx.EnclaveID(2)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := streamTrace(t, 3000)
			a, err := analyzer.New(tr, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			want := a.Analyze()

			// Fold fed from the resident tables.
			got, err := analyzer.AnalyzeStream(analyzer.NewTraceSource(tr), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("streaming (resident-fed) report differs from the resident analyser's:\ngot  %+v\nwant %+v", got, want)
			}

			// Fold fed from a saved file, chunk by chunk.
			path := filepath.Join(t.TempDir(), "trace.evc")
			if err := tr.SaveFile(path); err != nil {
				t.Fatal(err)
			}
			st, err := events.OpenStreamTrace(path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			src, err := analyzer.NewStreamTraceSource(st)
			if err != nil {
				t.Fatal(err)
			}
			got, err = analyzer.AnalyzeStream(src, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("streaming (file-fed) report differs from the resident analyser's:\ngot  %+v\nwant %+v", got, want)
			}
		})
	}
}

// Fold allocation budget: one AnalyzeStream of the saved
// SynthAnalysisTrace(100000), open and close included, as
// BenchmarkAnalyzeStream runs it. The counts they were set from (Go
// 1.24, linux/amd64) were 14,515–14,522 allocations and 2.31 MB. The
// margin covers the runtime and the read-ahead goroutines, not a
// per-call allocation: one more allocation per folded call made it
// 214,024 allocations and 3.90 MB.
const (
	streamMaxAllocs = 16_000
	streamMaxBytes  = 2_600_000
)

// raceEnabled is set in -race builds (race_test.go).
var raceEnabled bool

// TestAnalyzeStreamHeapBounded holds the out-of-core memory bound on a
// saved, stream-sorted 100k-call trace: the streaming report is
// byte-identical to the resident one, its peak heap stays under 64 MiB,
// and the resident path, which holds every table, peaks at least 3×
// higher. Outside the heap-sampling phases it counts one more streaming
// report's allocations against the budget above; under -race only the
// allocation count is held, because the race runtime allocates bytes
// the budget does not price. Not parallel: another test's allocations
// would count.
func TestAnalyzeStreamHeapBounded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.evc")
	if err := streamTrace(t, 100_000).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	resident, residentPeak, err := heapPeak(func() (*analyzer.Report, error) {
		tr, err := events.NewTrace()
		if err != nil {
			return nil, err
		}
		if err := tr.LoadFile(path); err != nil {
			return nil, err
		}
		a, err := analyzer.New(tr, analyzer.Options{})
		if err != nil {
			return nil, err
		}
		return a.Analyze(), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	streamReport := func() (*analyzer.Report, error) {
		st, err := events.OpenStreamTrace(path)
		if err != nil {
			return nil, err
		}
		defer st.Close()
		src, err := analyzer.NewStreamTraceSource(st)
		if err != nil {
			return nil, err
		}
		return analyzer.AnalyzeStream(src, analyzer.Options{})
	}
	stream, streamPeak, err := heapPeak(streamReport)
	if err != nil {
		t.Fatal(err)
	}

	residentDoc, err := apiv1.Marshal(apiv1.FromReport(resident))
	if err != nil {
		t.Fatal(err)
	}
	streamDoc, err := apiv1.Marshal(apiv1.FromReport(stream))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(residentDoc, streamDoc) {
		t.Fatal("streaming report differs from the resident one")
	}
	t.Logf("peak heap: resident %.1f MB, streaming %.1f MB", float64(residentPeak)/1e6, float64(streamPeak)/1e6)
	if limit := uint64(64 << 20); streamPeak > limit {
		t.Errorf("streaming peak %d B exceeds the %d B bound", streamPeak, limit)
	}
	if residentPeak < 3*streamPeak {
		t.Errorf("resident peak %d B is less than 3x the streaming peak %d B", residentPeak, streamPeak)
	}

	allocs, allocBytes, err := allocsOf(streamReport)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one streaming report: %d allocations, %.2f MB", allocs, float64(allocBytes)/1e6)
	if allocs > streamMaxAllocs {
		t.Errorf("one streaming report made %d allocations, budget %d", allocs, streamMaxAllocs)
	}
	if !raceEnabled && allocBytes > streamMaxBytes {
		t.Errorf("one streaming report allocated %d bytes, budget %d", allocBytes, streamMaxBytes)
	}
}

// Resident-fold budget: one Analyze of the unsorted
// SynthAnalysisTrace(100000), whose ecall, ocall and paging tables are
// out of fold order. The fold reads each through its sorted (key,
// position) records, one gathered 1,024-row chunk at a time; the
// records and the radix sort's scratch are most of the bytes. The
// counts it was set from (Go 1.24, linux/amd64) were 444 allocations
// and 11.52 MB; a sorted copy of each whole table made it 447 and
// 31.69 MB.
const (
	residentMaxAllocs = 530
	residentMaxBytes  = 14_000_000
)

// TestAnalyzeUnsortedAllocs holds the resident fold of an unsorted
// trace to the budget above: it must not copy a table to order it.
// Under -race only the allocation count is held. Not parallel: another
// test's allocations would count.
func TestAnalyzeUnsortedAllocs(t *testing.T) {
	tr, err := experiments.SynthAnalysisTrace(100_000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := analyzer.New(tr, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	allocs, allocBytes, err := allocsOf(func() (*analyzer.Report, error) { return a.AnalyzeContext(context.Background()) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one resident report of an unsorted trace: %d allocations, %.2f MB", allocs, float64(allocBytes)/1e6)
	if allocs > residentMaxAllocs {
		t.Errorf("one resident report made %d allocations, budget %d", allocs, residentMaxAllocs)
	}
	if !raceEnabled && allocBytes > residentMaxBytes {
		t.Errorf("one resident report allocated %d bytes, budget %d", allocBytes, residentMaxBytes)
	}
}

// allocsOf runs phase once and returns the heap allocations and bytes
// it made. Like testing.AllocsPerRun it pins GOMAXPROCS to 1 while
// counting.
func allocsOf(phase func() (*analyzer.Report, error)) (allocs, bytes uint64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = phase()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc, err
}

// heapPeak runs phase while sampling HeapAlloc every millisecond and
// returns its report with the peak growth over the post-GC baseline.
func heapPeak(phase func() (*analyzer.Report, error)) (*analyzer.Report, uint64, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base, peak := ms.HeapAlloc, ms.HeapAlloc
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			peak = max(peak, ms.HeapAlloc)
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	rep, err := phase()
	close(stop)
	<-done
	return rep, peak - base, err
}

// TestAnalyzeUnorderedFileBacked folds a saved multi-chunk trace in
// recording order through AnalyzeUnordered, which keeps every chunk its
// feeds return. A stream cursor recycles its rows at the next read, so
// the report must still equal Analyze of the same trace.
func TestAnalyzeUnorderedFileBacked(t *testing.T) {
	tr, err := experiments.SynthAnalysisTrace(3000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := analyzer.New(tr, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := a.Analyze()

	path := filepath.Join(t.TempDir(), "trace.evc")
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	st, err := events.OpenStreamTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	src, err := analyzer.NewStreamTraceSource(st)
	if err != nil {
		t.Fatal(err)
	}
	if n := src.Ecalls.NumChunks(); n < 2 {
		t.Fatalf("want a multi-chunk trace, got %d ecall chunks", n)
	}
	got, err := analyzer.AnalyzeUnordered(context.Background(), src, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("AnalyzeUnordered over the file differs from Analyze:\ngot  %+v\nwant %+v", got, want)
	}
}

func TestAnalyzeStreamUnsorted(t *testing.T) {
	tr, err := experiments.SynthAnalysisTrace(500)
	if err != nil {
		t.Fatal(err)
	}
	// SynthAnalysisTrace interleaves threads: per-thread monotone but
	// globally unsorted, exactly the layout the fold must reject.
	_, err = analyzer.AnalyzeStream(analyzer.NewTraceSource(tr), analyzer.Options{})
	if !errors.Is(err, analyzer.ErrUnsorted) {
		t.Fatalf("AnalyzeStream on an unsorted trace: err = %v, want ErrUnsorted", err)
	}
}

// TestAnalyzeStreamAcceptsEqualKeys pins the fold's order check: rows
// sharing a (Start, ID) key are in order, only a row sorting before its
// predecessor is ErrUnsorted. An ecall and an ocall recorded with one
// key — possible in uploaded traces — must not fail Analyze, which
// folds them in sorted order.
func TestAnalyzeStreamAcceptsEqualKeys(t *testing.T) {
	tr, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []events.CallKind{events.KindEcall, events.KindOcall} {
		ev := events.CallEvent{ID: 7, Kind: kind, Enclave: 1, Thread: 1, Name: kind.String(),
			Start: 100, End: 200, Parent: events.NoEvent}
		if kind == events.KindEcall {
			tr.Ecalls.Insert(ev)
		} else {
			tr.Ocalls.Insert(ev)
		}
	}
	rep, err := analyzer.AnalyzeStream(analyzer.NewTraceSource(tr), analyzer.Options{})
	if err != nil {
		t.Fatalf("AnalyzeStream with an equal-key pair: %v", err)
	}
	a, err := analyzer.New(tr, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Analyze(); !reflect.DeepEqual(got, rep) {
		t.Fatalf("Analyze = %+v, want %+v", got, rep)
	}
}

func TestStreamContentKeyMatchesResident(t *testing.T) {
	tr := streamTrace(t, 800)
	path := filepath.Join(t.TempDir(), "trace.evc")
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	st, err := events.OpenStreamTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got, want := st.ContentKey(), tr.ContentKey(); got != want {
		t.Fatalf("stream ContentKey = %s, resident = %s", got, want)
	}
	if got, want := st.Rows("ecalls"), tr.Ecalls.Len(); got != want {
		t.Fatalf("stream ecall rows = %d, resident = %d", got, want)
	}
	if st.Workload() != "analyze-bench" {
		t.Fatalf("workload = %q", st.Workload())
	}
}
