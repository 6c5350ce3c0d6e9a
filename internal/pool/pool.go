// Package pool is the repository's shared bounded worker pool: one
// GOMAXPROCS-sized concurrency budget for every CPU-bound fan-out. The
// evstore codec's chunk encode/decode and its chunk hashing draw from
// it, and so does internal/lint: its type-check of the packages whose
// in-tree imports are checked, and the package-local scans of its fact
// base. Sharing one budget keeps the process from oversubscribing the
// machine when several fan-outs run at once (the daemon decoding one
// upload while linting a source tree, say).
//
// The pool is deliberately tiny: no long-lived workers, no queues to
// drain on shutdown, no wall-clock timeouts (the simulator packages run
// on virtual time and this package is covered by the vclock lint). A
// global semaphore bounds how many pool goroutines exist at any moment;
// when the budget is spent, work runs inline on the calling goroutine.
// That inline fallback is what makes the pool safe to nest — a task
// running on the pool may itself call Do or ForEach without any risk of
// deadlock, it just degrades towards serial execution. With a budget of
// one (GOMAXPROCS=1 at start-up) every fan-out runs inline.
//
// A task's panic reaches the caller: Do and ForEach recover it, let the
// other tasks finish, and panic with the recovered value on the calling
// goroutine. A panic on a pool goroutine would otherwise end the
// process, where the caller (an HTTP handler, whose panics net/http
// recovers) could have failed alone.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// sem is the global concurrency budget. Its capacity is fixed at init to
// GOMAXPROCS: the pool exists to use the hardware, not to multiplex I/O.
var sem = make(chan struct{}, runtime.GOMAXPROCS(0))

// Size returns the pool's concurrency budget (the GOMAXPROCS value the
// process started with). Callers use it to pick shard counts; sharding
// wider than Size only adds merge work.
func Size() int { return cap(sem) }

// A catch keeps the first panic value its tasks raise (never nil: since
// Go 1.21 panic(nil) raises a *runtime.PanicNilError).
type catch struct {
	mu  sync.Mutex
	val any
}

// run calls f, recovering a panic into c.
func (c *catch) run(f func()) {
	defer func() {
		if v := recover(); v != nil {
			c.mu.Lock()
			if c.val == nil {
				c.val = v
			}
			c.mu.Unlock()
		}
	}()
	f()
}

// rethrow panics with the value c caught, if any. The tasks it caught
// from have finished, so no lock is needed.
func (c *catch) rethrow() {
	if c.val != nil {
		panic(c.val)
	}
}

// Do runs every task and returns when all have finished. Up to Size
// tasks run on pool goroutines; the rest run inline on the caller's
// goroutine as the budget allows. Tasks must synchronise among
// themselves if they share state; Do only guarantees completion
// (happens-before Do returning). When tasks panic, every other task
// still runs, and Do then panics with the first value it recovered.
func Do(tasks ...func()) {
	if len(tasks) == 0 {
		return
	}
	if len(tasks) == 1 {
		tasks[0]()
		return
	}
	var c catch
	var wg sync.WaitGroup
	for _, task := range tasks {
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(f func()) {
				defer wg.Done()
				defer func() { <-sem }()
				c.run(f)
			}(task)
		default:
			// Budget spent: run on the calling goroutine. This also
			// makes nested Do calls deadlock-free by construction.
			c.run(task)
		}
	}
	wg.Wait()
	c.rethrow()
}

// ForEach runs fn(i) for every i in [0, n), distributing indexes over at
// most Size workers via an atomic counter, so uneven per-index costs
// balance automatically. It returns when every index has been processed.
// Like Do, it runs every index even when some panic and then panics with
// the first value it recovered; cross-index synchronisation is the
// caller's business.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := Size()
	if workers > n {
		workers = n
	}
	var c catch
	var next atomic.Int64
	drain := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			c.run(func() { fn(i) })
		}
	}
	tasks := make([]func(), workers)
	for w := range tasks {
		tasks[w] = drain
	}
	Do(tasks...) // one task runs inline
	c.rethrow()
}
