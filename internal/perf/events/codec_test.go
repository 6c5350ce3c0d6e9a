package events

import (
	"bytes"
	"fmt"
	"testing"

	"sgxperf/internal/evstore"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// populatedTrace builds a trace filling all nine tables, including the
// delta-unfriendly corners: out-of-order IDs, NoEvent parents, negative
// thread IDs, empty and multi-element wake target lists.
func populatedTrace(t testing.TB) *Trace {
	t.Helper()
	tr, err := NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	tr.Meta.Insert(TraceMeta{Workload: "codec-test", FrequencyHz: 2.1e9, Mitigation: "none", TransitionCycles: 13500})
	tr.Enclaves.Insert(
		EnclaveMeta{Enclave: 1, Name: "enc", NumPages: 256, EDL: "enclave{};"},
		EnclaveMeta{Enclave: 2, Name: "", NumPages: -1},
	)
	tr.Threads.Insert(
		ThreadEvent{Thread: 0, Name: "main", Time: 1},
		ThreadEvent{Thread: -1, Name: "", Time: 2},
	)
	for i := 0; i < 2500; i++ {
		id := EventID(i*2 + 1)
		tr.Ecalls.Insert(CallEvent{
			ID: id, Kind: KindEcall, Enclave: 1, Thread: sgx.ThreadID(i % 4),
			CallID: i % 9, Name: []string{"ecall_a", "ecall_b"}[i%2],
			Start: 1000 + 7*vtime.Cycles(i), End: 1200 + 7*vtime.Cycles(i),
			Parent: NoEvent, AEXCount: i % 3, Err: i%11 == 0,
		})
		tr.Ocalls.Insert(CallEvent{
			ID: id + 1, Kind: KindOcall, Enclave: 1, Thread: sgx.ThreadID(i % 4),
			Name: "ocall_x", Start: 1050 + 7*vtime.Cycles(i), End: 1100 + 7*vtime.Cycles(i),
			Parent: id,
		})
		if i%5 == 0 {
			tr.AEXs.Insert(AEXEvent{ID: id + 5000, Enclave: 1, Thread: 2, Time: 1010 + 7*vtime.Cycles(i), During: id})
		}
		if i%7 == 0 {
			tr.Paging.Insert(PagingEvent{ID: id + 9000, Kind: PageOut, Enclave: 1, Thread: 1,
				Vaddr: 0xfff0_0000_0000 + uint64(i)*4096, PageKind: "heap", Time: 1020 + 7*vtime.Cycles(i)})
		}
		if i%6 == 0 {
			var targets []sgx.ThreadID
			kind := SyncSleep
			if i%12 == 0 {
				kind = SyncWake
				targets = []sgx.ThreadID{0, 3}
			}
			tr.Syncs.Insert(SyncEvent{ID: id + 13000, Kind: kind, Thread: 3, Targets: targets,
				Time: 1030 + 7*vtime.Cycles(i), Call: id + 1})
		}
		if i%9 == 0 {
			tr.Switchless.Insert(SwitchlessEvent{ID: id + 17000, Kind: KindOcall, Enclave: 1, Thread: 2,
				CallID: 3, Name: "ocall_x", Start: 1040 + 7*vtime.Cycles(i), End: 1045 + 7*vtime.Cycles(i),
				Worker: 5, Fallback: i%18 == 0})
		}
	}
	return tr
}

// tracesEqual compares every table's rows by their Go syntax, which
// reads a NaN frequency as equal to itself where reflect.DeepEqual
// would not.
func tracesEqual(t *testing.T, a, b *Trace) {
	t.Helper()
	check := func(name string, x, y any) {
		if fmt.Sprintf("%#v", x) != fmt.Sprintf("%#v", y) {
			t.Fatalf("table %s did not round-trip", name)
		}
	}
	check("meta", a.Meta.Rows(), b.Meta.Rows())
	check("ecalls", a.Ecalls.Rows(), b.Ecalls.Rows())
	check("ocalls", a.Ocalls.Rows(), b.Ocalls.Rows())
	check("aexs", a.AEXs.Rows(), b.AEXs.Rows())
	check("paging", a.Paging.Rows(), b.Paging.Rows())
	check("syncs", a.Syncs.Rows(), b.Syncs.Rows())
	check("threads", a.Threads.Rows(), b.Threads.Rows())
	check("enclaves", a.Enclaves.Rows(), b.Enclaves.Rows())
	check("switchless", a.Switchless.Rows(), b.Switchless.Rows())
}

// TestTraceBinaryRoundTrip: a full trace survives the columnar codec,
// and the stream reader — which refuses any codec byte but columnar —
// opens all nine tables of the save.
func TestTraceBinaryRoundTrip(t *testing.T) {
	src := populatedTrace(t)
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	dst, err := NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	tracesEqual(t, src, dst)
	if dst.NextID() <= src.Ecalls.At(src.Ecalls.Len()-1).ID {
		t.Fatal("ID allocation did not continue past loaded events")
	}
	sr, err := evstore.NewStreamReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(sr.TableNames()); got != fmt.Sprint(traceTableOrder) {
		t.Fatalf("stream tables %s, want %s", got, fmt.Sprint(traceTableOrder))
	}
}

// FuzzTraceLoad drives the upload boundary: NewTrace then Load over raw
// bytes, as the serve daemon's upload and append handlers call it. Load
// must never panic; when it succeeds, Save then Load reproduces every
// table, and the content key read from the re-saved file's chunk index
// equals the resident trace's.
func FuzzTraceLoad(f *testing.F) {
	var seed bytes.Buffer
	if err := populatedTrace(f).Save(&seed); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := NewTrace()
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Load(bytes.NewReader(data)); err != nil {
			return
		}
		var buf bytes.Buffer
		if err := tr.Save(&buf); err != nil {
			t.Fatalf("re-save of a loaded trace: %v", err)
		}
		re, err := NewTrace()
		if err != nil {
			t.Fatal(err)
		}
		if err := re.Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("load of a re-saved trace: %v", err)
		}
		tracesEqual(t, tr, re)
		sr, err := evstore.NewStreamReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatalf("stream open of a re-saved trace: %v", err)
		}
		st, err := NewStreamTrace(sr)
		if err != nil {
			t.Fatalf("stream trace over a re-saved trace: %v", err)
		}
		if got, want := st.ContentKey(), tr.ContentKey(); got != want {
			t.Fatalf("stream content key %s, resident %s", got, want)
		}
	})
}
