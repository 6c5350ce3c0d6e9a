package analyzer_test

// The streaming-equivalence gate of the out-of-core pipeline: the fold
// over a stream-sorted trace must reproduce the resident analyser's
// report bit-for-bit, fed from both the trace's own tables and a saved
// trace file read chunk-by-chunk.

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"sgxperf/internal/edl"
	"sgxperf/internal/experiments"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
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
// folds sorted copies.
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

// TestFoldWindowedMatchesSinglePass drives FoldWindow window-by-window
// with carry chaining — the serve daemon's access pattern — and checks
// the merged deltas assemble to the same report as one final pass.
func TestFoldWindowedMatchesSinglePass(t *testing.T) {
	tr := streamTrace(t, 3000)
	a, err := analyzer.New(tr, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := a.Analyze()

	src := analyzer.NewTraceSource(tr)
	pre, err := analyzer.PrescanSyncs(src.Syncs)
	if err != nil {
		t.Fatal(err)
	}
	swAgg, err := analyzer.FoldSwitchless(src.Switchless)
	if err != nil {
		t.Fatal(err)
	}
	cfg := &analyzer.FoldConfig{
		Weights:    analyzer.DefaultWeights(),
		Freq:       tr.Frequency(),
		Transition: tr.TransitionCycles(),
		SyncRefs:   pre.Refs,
	}
	in := analyzer.FoldInput{Ecalls: src.Ecalls, Ocalls: src.Ocalls, Paging: src.Paging}

	nE, nO := src.Ecalls.NumChunks(), src.Ocalls.NumChunks()
	n := nE
	if nO > n {
		n = nO
	}
	if n < 2 {
		t.Fatalf("want a multi-chunk trace, got %d ecall / %d ocall chunks", nE, nO)
	}
	carry := analyzer.NewFoldCarry()
	total := analyzer.NewFoldDelta()
	for k := 0; k < n; k++ {
		final := k == n-1
		var bound vtime.Cycles
		if !final {
			b, ok, err := analyzer.WindowBound(in, k)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				final = true
			}
			bound = b
		}
		delta, carryOut, err := analyzer.FoldWindow(cfg, carry, in, bound, final)
		if err != nil {
			t.Fatalf("window %d: %v", k, err)
		}
		total.MergeFrom(delta)
		carry = carryOut
		if final {
			break
		}
	}
	got := analyzer.AssembleReport("analyze-bench", cfg, total, pre,
		analyzer.SwitchlessStatsFrom(swAgg, tr.Frequency()), nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("windowed fold differs from the single pass:\ngot  %+v\nwant %+v", got, want)
	}
}
