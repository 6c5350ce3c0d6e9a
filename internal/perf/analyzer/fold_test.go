package analyzer

// Tests of the fold's carry and feed machinery against the serial
// reference (reference_test.go): paging attribution at and before cycle
// 0, a fuzzed equivalence over traces with non-nesting calls and every
// kind of Parent link, and the read-ahead's lifetime.

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sgxperf/internal/evstore"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// TestPagingDuringCallsAtOrBeforeZero pins paging attribution for calls
// that end at or before cycle 0: a page-in inside such a call counts as
// during a call, as it does for any other call.
func TestPagingDuringCallsAtOrBeforeZero(t *testing.T) {
	for _, tc := range []struct {
		name       string
		start, end vtime.Cycles
		page       vtime.Cycles
	}{
		{"call [0,0], page-in at 0", 0, 0, 0},
		{"call [-100,-50], page-in at -70", -100, -50, -70},
		{"call [-100,0], page-in at -1", -100, 0, -1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := events.NewTrace()
			if err != nil {
				t.Fatal(err)
			}
			tr.Ecalls.Insert(events.CallEvent{ID: 1, Kind: events.KindEcall, Enclave: 1, Thread: 1,
				Name: "ecall_a", Start: tc.start, End: tc.end, Parent: events.NoEvent})
			tr.Paging.Insert(events.PagingEvent{ID: 2, Kind: events.PageIn, Enclave: 1, Thread: 1,
				PageKind: "heap", Time: tc.page})
			got, want := analyzeTrace(t, tr, Options{}), referenceReport(tr, Options{})
			if got.Paging.DuringCalls != 1 {
				t.Errorf("Paging.DuringCalls = %d, want 1", got.Paging.DuringCalls)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("report diverges from the reference:\ngot:  %+v\nwant: %+v", got, want)
			}
		})
	}
}

// fuzzUnit is the fuzz traces' time unit: 0.25µs at the default
// frequency, so a byte of start or duration spans the detectors' 1, 5,
// 10 and 20µs bands.
const fuzzUnit = vtime.Cycles(vtime.DefaultFrequencyHz / 4e6)

// fuzzTrace decodes fuzz bytes into a small trace: unique event IDs,
// four threads, two enclaves, calls that overlap without nesting, and
// Parent links that are absent, nested, cross-thread, forward, self,
// dangling or late; plus sync sleeps and wakes and paging events. Times
// are signed, so cycle 0 and earlier occur. The same bytes always decode
// to the same trace, in recording (not stream) order.
func fuzzTrace(t *testing.T, data []byte) *events.Trace {
	t.Helper()
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	signed := func() vtime.Cycles { return vtime.Cycles(int8(next())) * fuzzUnit }
	tr, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	tr.Meta.Insert(events.TraceMeta{Workload: "fuzz", FrequencyHz: vtime.DefaultFrequencyHz,
		TransitionCycles: int64(next()%8) * int64(fuzzUnit)})
	nCalls, nPaging, nSyncs := next()%48, next()%16, next()%16
	names := []string{"call_a", "call_b", "call_c", "call_d", "call_e"}
	calls := make([]events.CallEvent, 0, nCalls)
	for i := 0; i < nCalls; i++ {
		flags, thread := next(), next()%4
		start, dur := signed(), vtime.Cycles(next()%64)*fuzzUnit
		sel, extra := next(), next()
		if flags&4 != 0 && flags&8 != 0 {
			dur = -dur // a call that ends before it starts
		}
		c := events.CallEvent{
			ID: events.EventID(i + 1), Kind: events.KindEcall, Enclave: sgx.EnclaveID(1 + flags>>1&1),
			Thread: sgx.ThreadID(thread), CallID: extra % 3, Name: names[extra%len(names)],
			Start: start, Parent: events.NoEvent, AEXCount: extra >> 6,
		}
		if flags&1 != 0 {
			c.Kind = events.KindOcall
		}
		switch sel % 4 {
		case 1: // any call: nested, overlapping, cross-thread, forward, self or late
			c.Parent = events.EventID(sel/4%nCalls + 1)
		case 2: // a child inside an earlier call, mostly on its thread
			if i > 0 {
				p := calls[sel/4%i]
				c.Parent = p.ID
				span := max(int64(p.End-p.Start), 0)/int64(fuzzUnit) + 1
				c.Start = p.Start + vtime.Cycles(int64(start/fuzzUnit)&0x7f%span)*fuzzUnit
				if flags&16 == 0 {
					c.Thread = p.Thread
				}
				if flags&32 == 0 {
					dur = min(dur, max(p.End-c.Start, 0))
				}
			}
		case 3: // a Parent that names no call
			c.Parent = events.EventID(nCalls + 1 + sel/4%8)
		}
		if c.Parent != events.NoEvent && c.Parent == c.ID && flags&64 == 0 {
			c.Parent = events.NoEvent
		}
		c.End = c.Start + dur
		calls = append(calls, c)
	}
	for _, c := range calls {
		if c.Kind == events.KindEcall {
			tr.Ecalls.Insert(c)
		} else {
			tr.Ocalls.Insert(c)
		}
	}
	id := events.EventID(nCalls + 100)
	for i := 0; i < nPaging; i++ {
		id++
		flags := next()
		p := events.PagingEvent{ID: id, Kind: events.PageIn, Enclave: sgx.EnclaveID(1 + flags>>1&1),
			Thread: sgx.ThreadID(next() % 4), Vaddr: uint64(flags), PageKind: []string{"heap", "stack", "code"}[flags%3],
			Time: signed()}
		if flags&1 != 0 {
			p.Kind = events.PageOut
		}
		tr.Paging.Insert(p)
	}
	for i := 0; i < nSyncs; i++ {
		id++
		flags, sel := next(), next()
		s := events.SyncEvent{ID: id, Kind: events.SyncSleep, Thread: sgx.ThreadID(flags % 4), Time: signed()}
		if nCalls > 0 {
			s.Call = events.EventID(sel%nCalls + 1)
		}
		if flags&4 != 0 {
			s.Kind = events.SyncWake
			s.Targets = []sgx.ThreadID{sgx.ThreadID(sel % 4)}
		}
		tr.Syncs.Insert(s)
	}
	return tr
}

// splitChunks cuts rows into chunks of n, a feed with many chunk
// boundaries.
func splitChunks[T any](rows []T, n int) Chunks[T] {
	var out Chunks[T]
	for len(rows) > n {
		out = append(out, rows[:n:n])
		rows = rows[n:]
	}
	return append(out, rows)
}

// foldChunked folds a stream-sorted trace in one pass through feeds of
// three-row chunks, so the sweep crosses a chunk boundary every few
// rows.
func foldChunked(t *testing.T, tr *events.Trace, opts Options) *Report {
	t.Helper()
	src := NewTraceSource(tr)
	src.Ecalls = splitChunks(tr.Ecalls.Rows(), 3)
	src.Ocalls = splitChunks(tr.Ocalls.Rows(), 3)
	src.Paging = splitChunks(tr.Paging.Rows(), 3)
	rep, err := AnalyzeStream(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// FuzzFoldMatchesReference holds the fold to the serial reference on
// fuzzed traces: Analyze over the recorded order and a fold of a
// stream-sorted copy through three-row chunks, for all enclaves and for
// enclave 1.
func FuzzFoldMatchesReference(f *testing.F) {
	// Calls ending at or before cycle 0 with a page-in inside: [0,0]
	// with a page-in at 0, then [-1µs,-1µs] and [-1µs,0] on two threads.
	f.Add([]byte{0, 1, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0})
	f.Add([]byte{0, 2, 2, 0, 0, 1, 0xfc, 0, 0, 0, 0, 2, 0xfc, 4, 0, 0, 0, 1, 0xfc, 0, 2, 0xfe})
	// Nesting with late, forward and cross-thread children.
	f.Add([]byte{3, 8, 4, 4,
		0, 1, 0, 40, 0, 1,
		1, 1, 2, 4, 2, 2,
		1, 1, 60, 4, 1, 3,
		0, 2, 4, 8, 22, 4,
		17, 3, 1, 2, 6, 0,
		0, 1, 5, 3, 3, 1,
		13, 1, 50, 9, 2, 2,
		1, 0, 70, 9, 9, 4,
		0, 1, 2, 1, 1, 0, 20, 5, 2, 3, 40, 0,
		4, 3, 9, 1, 1, 4, 5, 2, 6, 7, 2, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, opts := range []Options{{}, {Enclave: 1}} {
			want := referenceReport(fuzzTrace(t, data), opts)
			if got := analyzeTrace(t, fuzzTrace(t, data), opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("enclave %d: Analyze diverges from the reference:\ngot:  %+v\nwant: %+v", opts.Enclave, got, want)
			}
			sorted := fuzzTrace(t, data)
			events.StreamSort(sorted)
			if got := foldChunked(t, sorted, opts); !reflect.DeepEqual(got, want) {
				t.Fatalf("enclave %d: chunked fold diverges from the reference:\ngot:  %+v\nwant: %+v", opts.Enclave, got, want)
			}
		}
	})
}

// TestReadAheadEndsWithFold checks that a fold fed from a file reads
// ahead, and that no chunk read is still in flight once the fold
// returns: after a whole AnalyzeStream and after a corrupt third ecall
// chunk, which must surface as ErrCorrupt.
func TestReadAheadEndsWithFold(t *testing.T) {
	tr := goldenTrace(t, 5, 3000)
	events.StreamSort(tr)
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.evc")
	if err := tr.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	want := analyzeTrace(t, tr, Options{})
	if newSeqCursor(TableSeq(tr.Ecalls)).ahead != nil {
		t.Fatal("a resident feed reads ahead")
	}

	open := func(path string) *StreamSource {
		st, err := events.OpenStreamTrace(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		src, err := NewStreamTraceSource(st)
		if err != nil {
			t.Fatal(err)
		}
		if newSeqCursor(src.Ecalls).ahead == nil {
			t.Fatal("a file-backed feed does not read ahead")
		}
		return src
	}
	settled := func(what string) {
		t.Helper()
		if n := readsInFlight.Load(); n != 0 {
			t.Fatalf("%d chunk reads in flight after %s", n, what)
		}
	}

	got, err := AnalyzeStream(open(path), Options{})
	if err != nil {
		t.Fatal(err)
	}
	settled("a whole fold")
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("file-fed report differs from the resident one:\ngot  %+v\nwant %+v", got, want)
	}

	sr, err := evstore.OpenStream(path)
	if err != nil {
		t.Fatal(err)
	}
	chunks := sr.Chunks("ecalls")
	sr.Close()
	if len(chunks) < 3 {
		t.Fatalf("want at least three ecall chunks, got %d", len(chunks))
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[chunks[2].Offset+32] ^= 0xff // inside the third chunk's payload
	bad := filepath.Join(dir, "corrupt.evc")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeStream(open(bad), Options{}); !errors.Is(err, evstore.ErrCorrupt) {
		t.Fatalf("AnalyzeStream over a corrupt chunk: err = %v, want ErrCorrupt", err)
	}
	settled("a failed fold")
}
