package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheHitOnSameKey proves identical keys return the cached
// artifact without recomputation.
func TestCacheHitOnSameKey(t *testing.T) {
	c := NewArtifactCache(8)
	calls := 0
	compute := func() (any, error) { calls++; return "artifact", nil }

	v, hit, err := c.GetOrCompute("k", compute)
	if err != nil || hit || v != "artifact" {
		t.Fatalf("first get = (%v, %v, %v)", v, hit, err)
	}
	v, hit, err = c.GetOrCompute("k", compute)
	if err != nil || !hit || v != "artifact" {
		t.Fatalf("second get = (%v, %v, %v), want cache hit", v, hit, err)
	}
	if calls != 1 {
		t.Errorf("compute ran %d times, want 1", calls)
	}
	m := c.Metrics()
	if m.Hits != 1 || m.Misses != 1 || m.Entries != 1 {
		t.Errorf("metrics = %+v, want 1 hit / 1 miss / 1 entry", m)
	}
}

// TestCacheSingleflight race-exercises the coalescing path: many
// concurrent requests for one missing key must run exactly one compute
// and all observe its result.
func TestCacheSingleflight(t *testing.T) {
	c := NewArtifactCache(8)
	const waiters = 32
	var computes atomic.Int64
	var release sync.WaitGroup
	release.Add(1)

	var wg sync.WaitGroup
	results := make([]any, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.GetOrCompute("k", func() (any, error) {
				computes.Add(1)
				release.Wait() // hold every concurrent caller in coalesce
				return "shared", nil
			})
			if err != nil {
				t.Errorf("waiter %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	// Give the waiters time to pile onto the flight, then release it.
	time.Sleep(20 * time.Millisecond)
	release.Done()
	wg.Wait()

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	for i, v := range results {
		if v != "shared" {
			t.Errorf("waiter %d saw %v", i, v)
		}
	}
	m := c.Metrics()
	if m.Misses != 1 {
		t.Errorf("misses = %d, want 1", m.Misses)
	}
	if m.Coalesced != waiters-1 {
		t.Errorf("coalesced = %d, want %d", m.Coalesced, waiters-1)
	}
}

// TestCacheErrorsNotCached proves a failed compute leaves no entry, so
// the next request retries.
func TestCacheErrorsNotCached(t *testing.T) {
	c := NewArtifactCache(8)
	boom := errors.New("boom")
	_, _, err := c.GetOrCompute("k", func() (any, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.Len() != 0 {
		t.Fatalf("failed compute was cached (%d entries)", c.Len())
	}
	v, hit, err := c.GetOrCompute("k", func() (any, error) { return "ok", nil })
	if err != nil || hit || v != "ok" {
		t.Fatalf("retry = (%v, %v, %v), want fresh ok", v, hit, err)
	}
}

// TestCacheLRUEviction proves the cache holds at most its capacity,
// evicting least-recently-used entries.
func TestCacheLRUEviction(t *testing.T) {
	c := NewArtifactCache(2)
	get := func(k string) (any, bool) {
		t.Helper()
		v, hit, err := c.GetOrCompute(k, func() (any, error) { return "v" + k, nil })
		if err != nil {
			t.Fatal(err)
		}
		return v, hit
	}
	get("a")
	get("b")
	get("a") // refresh a: b is now LRU
	get("c") // evicts b
	if _, hit := get("a"); !hit {
		t.Error("a was evicted although recently used")
	}
	if _, hit := get("b"); hit {
		t.Error("b survived although least recently used")
	}
	if c.Len() != 2 {
		t.Errorf("entries = %d, want 2", c.Len())
	}
	if m := c.Metrics(); m.Evictions == 0 {
		t.Error("no evictions counted")
	}
}

// TestCacheConcurrentKeys race-exercises independent keys computing in
// parallel with repeated hits.
func TestCacheConcurrentKeys(t *testing.T) {
	c := NewArtifactCache(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("k%d", i%16)
				v, _, err := c.GetOrCompute(key, func() (any, error) { return key, nil })
				if err != nil || v != key {
					t.Errorf("key %s: (%v, %v)", key, v, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
