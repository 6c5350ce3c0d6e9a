package events

import (
	"bytes"
	"testing"

	"sgxperf/internal/vtime"
)

func TestTraceIDsMonotonic(t *testing.T) {
	tr, err := NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	prev := EventID(0)
	for i := 0; i < 100; i++ {
		id := tr.NextID()
		if id <= prev {
			t.Fatalf("id %d not > %d", id, prev)
		}
		prev = id
	}
}

func TestTraceDefaults(t *testing.T) {
	tr, err := NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	if tr.Frequency() != vtime.DefaultFrequency {
		t.Fatalf("default frequency = %v", tr.Frequency())
	}
	if tr.TransitionCycles() != 0 {
		t.Fatal("default transition cycles nonzero")
	}
	tr.Meta.Insert(TraceMeta{FrequencyHz: 2e9, TransitionCycles: 4242})
	if tr.Frequency() != vtime.Frequency(2e9) {
		t.Fatalf("frequency = %v", tr.Frequency())
	}
	if tr.TransitionCycles() != 4242 {
		t.Fatalf("transition = %d", tr.TransitionCycles())
	}
}

func TestCallEventDuration(t *testing.T) {
	e := CallEvent{Start: 100, End: 350}
	if e.Duration() != 250 {
		t.Fatalf("duration = %d", e.Duration())
	}
}

func TestSaveLoadContinuesIDs(t *testing.T) {
	tr, err := NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	tr.Meta.Insert(TraceMeta{Workload: "w"})
	for i := 0; i < 5; i++ {
		tr.Ecalls.Insert(CallEvent{ID: tr.NextID(), Kind: KindEcall, Name: "e"})
	}
	tr.Syncs.Insert(SyncEvent{ID: tr.NextID(), Kind: SyncSleep})

	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Load(&buf); err != nil {
		t.Fatal(err)
	}
	if loaded.Ecalls.Len() != 5 || loaded.Syncs.Len() != 1 {
		t.Fatalf("loaded %d/%d", loaded.Ecalls.Len(), loaded.Syncs.Len())
	}
	next := loaded.NextID()
	for _, e := range loaded.Ecalls.Rows() {
		if next <= e.ID {
			t.Fatalf("NextID %d collides with %d", next, e.ID)
		}
	}
	for _, s := range loaded.Syncs.Rows() {
		if next <= s.ID {
			t.Fatalf("NextID %d collides with sync %d", next, s.ID)
		}
	}
}

func TestCallsAccessor(t *testing.T) {
	tr, err := NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	tr.Ecalls.Insert(CallEvent{ID: 1, Kind: KindEcall})
	tr.Ocalls.Insert(CallEvent{ID: 2, Kind: KindOcall}, CallEvent{ID: 3, Kind: KindOcall})
	if len(tr.Calls(KindEcall)) != 1 || len(tr.Calls(KindOcall)) != 2 {
		t.Fatal("Calls accessor broken")
	}
}

func TestStringers(t *testing.T) {
	tests := []struct {
		got  string
		want string
	}{
		{KindEcall.String(), "ecall"},
		{KindOcall.String(), "ocall"},
		{PageIn.String(), "page-in"},
		{PageOut.String(), "page-out"},
		{SyncSleep.String(), "sleep"},
		{SyncWake.String(), "wake"},
		{CallKind(99).String(), "unknown"},
		{PagingKind(99).String(), "unknown"},
		{SyncKind(99).String(), "unknown"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("got %q, want %q", tt.got, tt.want)
		}
	}
}

func TestCursorTriggersReadFlush(t *testing.T) {
	trace, err := NewTrace()
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a recorder with one buffered event: the flush hook inserts
	// it on first read, exactly like the logger's read-hook drain.
	buffered := []CallEvent{{ID: 1, Kind: KindOcall, Name: "buffered"}}
	trace.SetReadFlush(func() {
		if len(buffered) > 0 {
			rows := buffered
			buffered = nil
			trace.SetReadFlush(nil) // avoid re-entrant flush on the insert's readers
			trace.Ocalls.BatchInsert(rows)
		}
	})

	if n := trace.Ocalls.Len(); n != 1 || trace.Ocalls.At(0).Name != "buffered" {
		t.Fatalf("a table read did not drain the recorder's buffer: %d ocalls", n)
	}
}
