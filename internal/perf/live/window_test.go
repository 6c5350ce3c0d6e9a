package live

import (
	"testing"

	"sgxperf/internal/vtime"
)

func TestRingWindow(t *testing.T) {
	r := ring{width: 10}
	for i := 0; i < 5; i++ {
		r.add(vtime.Cycles(i * 10))
	}
	if r.sum() != 5 {
		t.Fatalf("sum = %d, want 5", r.sum())
	}
	// Jump far ahead: old buckets expire.
	r.add(vtime.Cycles(10 * 10 * ringBuckets))
	if r.sum() != 1 {
		t.Fatalf("after expiry sum = %d, want 1", r.sum())
	}
	// Late event older than the window clamps into the oldest bucket.
	r.add(0)
	if r.sum() != 2 {
		t.Fatalf("late event dropped: sum = %d, want 2", r.sum())
	}
}
