package analyzer

import (
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestAnalyzeContextUncancelled proves the context variant is a pure
// extension: with a background context it produces exactly Analyze's
// report.
func TestAnalyzeContextUncancelled(t *testing.T) {
	trace := goldenTrace(t, 7, 400)
	a, err := New(trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := a.Analyze()
	got, err := a.AnalyzeContext(context.Background())
	if err != nil {
		t.Fatalf("AnalyzeContext = %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("AnalyzeContext diverged from Analyze")
	}
}

// TestAnalyzeContextCancelled proves a done context aborts the analysis
// with ctx.Err() and a nil report.
func TestAnalyzeContextCancelled(t *testing.T) {
	trace := goldenTrace(t, 7, 400)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := New(trace, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := a.AnalyzeContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if r != nil {
		t.Error("cancelled analysis returned a report")
	}
}
