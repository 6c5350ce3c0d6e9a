package logger_test

import (
	"testing"

	"sgxperf/internal/perf/logger"
)

func TestLoggerOptions(t *testing.T) {
	a := newApp(t)
	l, err := logger.Attach(a.h, logger.Options{
		Workload:   "opts",
		AEX:        logger.AEXCount,
		SkipPaging: true,
		FlushEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	a.call(t, "ecall_noop", nil)
	tr := l.Trace()
	if tr.Meta.Len() != 1 || tr.Meta.At(0).Workload != "opts" {
		t.Fatalf("workload meta = %+v", tr.Meta.Rows())
	}
	if n := tr.Ecalls.Len(); n != 1 {
		t.Fatalf("recorded %d ecalls, want 1", n)
	}
}

func TestLoggerFlushAndDetached(t *testing.T) {
	a := newApp(t)
	l, err := logger.Attach(a.h, logger.Options{Workload: "flush", SkipPaging: true})
	if err != nil {
		t.Fatal(err)
	}
	if l.Detached() {
		t.Fatal("fresh logger reports detached")
	}
	// With the read flush cleared, reading a table no longer drains the
	// shards — so a row showing up after Flush proves Flush drained the
	// shard buffer into the database without any reader's help.
	tr := l.Trace()
	tr.SetReadFlush(nil)
	a.call(t, "ecall_noop", nil)
	if n := tr.Ecalls.Len(); n != 0 {
		t.Fatalf("event flushed before Flush (batch size is %d): table holds %d ecalls", 256, n)
	}
	l.Flush()
	if n := tr.Ecalls.Len(); n != 1 {
		t.Fatalf("after Flush the table holds %d ecalls, want 1", n)
	}
	l.Detach()
	if !l.Detached() {
		t.Fatal("Detach did not mark the logger detached")
	}
}
