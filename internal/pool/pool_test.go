package pool

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestDoRunsEveryTask(t *testing.T) {
	var ran [64]atomic.Bool
	tasks := make([]func(), len(ran))
	for i := range tasks {
		i := i
		tasks[i] = func() { ran[i].Store(true) }
	}
	Do(tasks...)
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("task %d did not run", i)
		}
	}
}

func TestDoEmptyAndSingle(t *testing.T) {
	Do() // no-op
	n := 0
	Do(func() { n++ })
	if n != 1 {
		t.Fatalf("single task ran %d times", n)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	const n = 1000
	var hits [n]atomic.Int32
	ForEach(n, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d processed %d times", i, got)
		}
	}
}

func TestForEachZeroAndNegative(t *testing.T) {
	called := false
	ForEach(0, func(int) { called = true })
	ForEach(-3, func(int) { called = true })
	if called {
		t.Fatal("fn called for empty range")
	}
}

// TestNestedDoDoesNotDeadlock exercises the inline fallback: tasks on
// the pool fan out again, recursively, deeper than the budget.
func TestNestedDoDoesNotDeadlock(t *testing.T) {
	var total atomic.Int64
	var fan func(depth int)
	fan = func(depth int) {
		total.Add(1)
		if depth == 0 {
			return
		}
		Do(
			func() { fan(depth - 1) },
			func() { fan(depth - 1) },
		)
	}
	fan(6)
	if got := total.Load(); got != 127 {
		t.Fatalf("expected 127 node visits, got %d", got)
	}
}

func TestNestedForEachInsideDo(t *testing.T) {
	var total atomic.Int64
	Do(
		func() { ForEach(100, func(int) { total.Add(1) }) },
		func() { ForEach(100, func(int) { total.Add(1) }) },
	)
	if got := total.Load(); got != 200 {
		t.Fatalf("expected 200 iterations, got %d", got)
	}
}

func TestSizePositive(t *testing.T) {
	if Size() < 1 {
		t.Fatalf("Size() = %d, want >= 1", Size())
	}
}

// TestPanicReachesCaller proves a task's panic is re-raised on the
// caller's goroutine after every other task ran, with the semaphore
// released: the next fan-out still gets the whole budget.
func TestPanicReachesCaller(t *testing.T) {
	const boom = "task 3 failed"
	for _, fanOut := range []struct {
		name string
		run  func(n int, fn func(i int))
	}{
		{"Do", func(n int, fn func(i int)) {
			tasks := make([]func(), n)
			for i := range tasks {
				tasks[i] = func() { fn(i) }
			}
			Do(tasks...)
		}},
		{"ForEach", ForEach},
	} {
		var ran [16]atomic.Bool
		got := func() (v any) {
			defer func() { v = recover() }()
			fanOut.run(len(ran), func(i int) {
				ran[i].Store(true)
				if i == 3 {
					panic(boom)
				}
			})
			return nil
		}()
		if got != boom {
			t.Fatalf("%s: caller recovered %v, want %q", fanOut.name, got, boom)
		}
		for i := range ran {
			if !ran[i].Load() {
				t.Errorf("%s: task %d did not run after task 3 panicked", fanOut.name, i)
			}
		}
		if n := len(sem); n != 0 {
			t.Fatalf("%s: %d pool slots still held after the panic", fanOut.name, n)
		}
		// Size tasks that each wait until all have started: with the
		// budget still spent they would run inline one after another,
		// and the first would wait forever.
		var started atomic.Int64
		tasks := make([]func(), Size())
		for i := range tasks {
			tasks[i] = func() {
				started.Add(1)
				for started.Load() < int64(len(tasks)) {
					runtime.Gosched()
				}
			}
		}
		Do(tasks...)
	}
}
