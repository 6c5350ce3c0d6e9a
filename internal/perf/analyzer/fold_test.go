package analyzer

// Tests of the fold's carry and feed machinery against the serial
// reference (reference_test.go): paging attribution at and before cycle
// 0, a fuzzed equivalence over traces with non-nesting calls and every
// kind of Parent link, and the read-ahead's lifetime.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
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
// four threads, two enclaves, up to 64 call names, calls that overlap
// without nesting, and Parent links that are absent, nested,
// cross-thread, forward, self, dangling or late; plus sync sleeps and
// wakes and paging events. Times are signed, so cycle 0 and earlier
// occur. The same bytes always decode to the same trace, in recording
// (not stream) order.
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
	// The first byte's low three bits pick the transition cost and its
	// high five the call names: the five call_a…call_e when they are 0,
	// otherwise up to 64, so the pair table reaches many IDs.
	head := next()
	tr.Meta.Insert(events.TraceMeta{Workload: "fuzz", FrequencyHz: vtime.DefaultFrequencyHz,
		TransitionCycles: int64(head%8) * int64(fuzzUnit)})
	nCalls, nPaging, nSyncs := next()%48, next()%16, next()%16
	names := make([]string, 5)
	if head>>3 != 0 {
		names = make([]string, 2*(head>>3)+2)
	}
	for i := range names {
		if i < 26 {
			names[i] = fmt.Sprintf("call_%c", 'a'+i)
		} else {
			names[i] = fmt.Sprintf("call_%d", i)
		}
	}
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
	// 64 names: sixteen calls with names of their own, each but the
	// first inside an earlier call.
	f.Add([]byte{0xf8, 47, 2, 4,
		0, 0, 1, 2, 2, 7, 0, 1, 3, 4, 6, 9, 1, 1, 8, 6, 10, 11, 0, 2, 9, 5, 14, 13,
		0, 3, 12, 8, 18, 17, 1, 1, 15, 3, 22, 19, 0, 0, 20, 9, 26, 23, 16, 2, 22, 5, 30, 29,
		0, 1, 25, 4, 34, 31, 1, 3, 28, 7, 38, 37, 0, 2, 30, 2, 42, 41, 0, 0, 33, 6, 46, 43,
		1, 1, 36, 4, 50, 47, 0, 2, 38, 8, 54, 53, 0, 3, 41, 3, 58, 59, 16, 1, 44, 9, 62, 61})
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
	if newSeqCursor(Chunks[events.CallEvent](tr.Ecalls.Chunks())).ahead != nil {
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

// manyNamesTrace builds a trace of n calls in which every call has a
// name of its own: n/2 top-level ecalls on one thread, each the
// indirect neighbour of the next, and inside each one ocall whose
// resolved direct parent it is. Its pair table holds about n pairs over
// n names.
func manyNamesTrace(t *testing.T, n int) *events.Trace {
	t.Helper()
	b := newBuilder(t)
	for i := 0; i < n/2; i++ {
		start := float64(i) * 10
		e := b.ecall(fmt.Sprintf("ecall_%05d", i), 1, start, 5, events.NoEvent)
		b.ocall(fmt.Sprintf("ocall_%05d", i), 1, start+1, 1, e)
	}
	return b.trace
}

// foldBytes returns the bytes one fold of a stream-sorted trace
// allocates, with GOMAXPROCS pinned to 1 while counting, as
// testing.AllocsPerRun does.
func foldBytes(t *testing.T, tr *events.Trace) uint64 {
	t.Helper()
	cfg := &foldConfig{weights: DefaultWeights(), freq: tr.Frequency(), syncs: newSyncRefs(nil)}
	in := foldInput{
		ecalls: Chunks[events.CallEvent](tr.Ecalls.Chunks()),
		ocalls: Chunks[events.CallEvent](tr.Ocalls.Chunks()),
		paging: Chunks[events.PagingEvent](tr.Paging.Chunks()),
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	delta, err := fold(cfg, in)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(delta.names), tr.Ecalls.Len()+tr.Ocalls.Len(); got != want {
		t.Fatalf("fold interned %d names, want %d", got, want)
	}
	return after.TotalAlloc - before.TotalAlloc
}

// TestFoldManyNames holds the integer-keyed fold to the reference on a
// trace where every call has its own name and a resolved parent or an
// indirect neighbour, and checks that the fold's memory grows linearly
// with the number of names: a names × names structure grows 16× from
// 2k to 8k calls, the pair table and the per-name aggregates about 4×
// (the bound leaves room for the step in which a map or slice doubles).
func TestFoldManyNames(t *testing.T) {
	for _, n := range []int{200, 2000} {
		tr := manyNamesTrace(t, n)
		if got, want := analyzeTrace(t, tr, Options{}), referenceReport(tr, Options{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d calls: report diverges from the reference:\ngot:  %+v\nwant: %+v", n, got, want)
		}
	}
	small, large := manyNamesTrace(t, 2000), manyNamesTrace(t, 8000)
	events.StreamSort(small)
	events.StreamSort(large)
	bs, bl := foldBytes(t, small), foldBytes(t, large)
	t.Logf("fold allocations: %d B for 2k calls, %d B for 8k calls (%.1f×)", bs, bl, float64(bl)/float64(bs))
	if bl > 8*bs {
		t.Errorf("fold allocated %d B for 8k calls, more than 8× the %d B for 2k calls", bl, bs)
	}
}

// TestFoldShortWakes holds the sync filter to the reference: wake syncs
// that reference ecalls, ocalls and IDs no call has, and short calls
// whose IDs were chosen to hit the filter without being referenced.
// The fold's ShortWakes must equal a direct count, and the report the
// reference's.
func TestFoldShortWakes(t *testing.T) {
	tr, err := events.NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	tr.Meta.Insert(events.TraceMeta{Workload: "wakes", FrequencyHz: vtime.DefaultFrequencyHz})
	us := vtime.Cycles(vtime.DefaultFrequencyHz / 1e6)
	refs := make(map[events.EventID]int)
	var calls []events.CallEvent
	var syncs []events.SyncEvent
	syncID := events.EventID(1 << 40)
	wake := func(call events.EventID) {
		syncID++
		syncs = append(syncs, events.SyncEvent{ID: syncID, Kind: events.SyncWake, Thread: 1,
			Targets: []sgx.ThreadID{2}, Call: call})
		refs[call]++
	}
	// 300 calls, odd IDs ecalls and even IDs ocalls; every third is
	// long (20µs) and every fifth carries one or two wakes.
	for i := 1; i <= 300; i++ {
		c := events.CallEvent{ID: events.EventID(i), Kind: events.KindEcall, Enclave: 1, Thread: 1,
			Name: "ecall_w", Start: vtime.Cycles(i) * 30 * us, Parent: events.NoEvent}
		if i%2 == 0 {
			c.Kind, c.Name = events.KindOcall, "ocall_w"
		}
		dur := us
		if i%3 == 0 {
			dur = 20 * us
		}
		c.End = c.Start + dur
		calls = append(calls, c)
		if i%5 == 0 {
			wake(c.ID)
			if i%10 == 0 {
				wake(c.ID)
			}
		}
	}
	for i := 0; i < 20; i++ {
		wake(events.EventID(1<<20 + i)) // no call has these IDs
	}
	// Unreferenced short calls whose IDs land on a set filter bit.
	filter := newSyncRefs(refs)
	collide := 0
	for id := events.EventID(1 << 30); collide < 40; id++ {
		if _, ok := refs[id]; ok || !filter.admits(id) {
			continue
		}
		collide++
		calls = append(calls, events.CallEvent{ID: id, Kind: events.KindOcall, Enclave: 1, Thread: 2,
			Name: "ocall_c", Start: vtime.Cycles(collide) * 30 * us, End: vtime.Cycles(collide)*30*us + us,
			Parent: events.NoEvent})
	}
	for id, n := range refs {
		if got := filter.wakes(id); got != n {
			t.Fatalf("filter.wakes(%d) = %d, want %d", id, got, n)
		}
	}
	want := 0
	for _, c := range calls {
		if c.End-c.Start < 10*us {
			want += refs[c.ID]
		}
		if c.Kind == events.KindEcall {
			tr.Ecalls.Insert(c)
		} else {
			tr.Ocalls.Insert(c)
		}
	}
	tr.Syncs.BatchInsert(syncs)

	events.StreamSort(tr)
	pre, err := prescanSyncs(Chunks[events.SyncEvent](tr.Syncs.Chunks()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := &foldConfig{weights: DefaultWeights(), freq: tr.Frequency(), syncs: newSyncRefs(pre.refs)}
	delta, err := fold(cfg, foldInput{
		ecalls: Chunks[events.CallEvent](tr.Ecalls.Chunks()),
		ocalls: Chunks[events.CallEvent](tr.Ocalls.Chunks()),
		paging: Chunks[events.PagingEvent](tr.Paging.Chunks()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if delta.shortWakes != want {
		t.Errorf("fold ShortWakes = %d, want %d", delta.shortWakes, want)
	}
	if got, ref := analyzeTrace(t, tr, Options{}), referenceReport(tr, Options{}); !reflect.DeepEqual(got, ref) {
		t.Fatalf("report diverges from the reference:\ngot:  %+v\nwant: %+v", got, ref)
	}
}
