// Package pool is the repository's shared bounded worker pool: one
// GOMAXPROCS-sized concurrency budget for every CPU-bound fan-out — the
// evstore codec's chunk encode/decode and its chunk hashing draw from
// it. Sharing one budget keeps the process from oversubscribing the
// machine when several fan-outs run at once (the daemon decoding one
// upload while hashing another trace, say).
//
// The pool is deliberately tiny: no long-lived workers, no queues to
// drain on shutdown, no wall-clock timeouts (the simulator packages run
// on virtual time and this package is covered by the vclock lint). A
// global semaphore bounds how many pool goroutines exist at any moment;
// when the budget is spent, work runs inline on the calling goroutine.
// That inline fallback is what makes the pool safe to nest — a task
// running on the pool may itself call Do or ForEach without any risk of
// deadlock, it just degrades towards serial execution.
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

// Do runs every task and returns when all have finished. Up to Size
// tasks run on pool goroutines; the rest run inline on the caller's
// goroutine as the budget allows. Tasks must synchronise among
// themselves if they share state; Do only guarantees completion
// (happens-before Do returning).
func Do(tasks ...func()) {
	if len(tasks) == 0 {
		return
	}
	if len(tasks) == 1 {
		tasks[0]()
		return
	}
	var wg sync.WaitGroup
	for _, task := range tasks {
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func(f func()) {
				defer wg.Done()
				defer func() { <-sem }()
				f()
			}(task)
		default:
			// Budget spent: run on the calling goroutine. This also
			// makes nested Do calls deadlock-free by construction.
			task()
		}
	}
	wg.Wait()
}

// ForEach runs fn(i) for every i in [0, n), distributing indexes over at
// most Size workers via an atomic counter, so uneven per-index costs
// balance automatically. It returns when every index has been processed.
// fn must not panic; like Do, cross-index synchronisation is the
// caller's business.
func ForEach(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers := Size()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	drain := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			fn(i)
		}
	}
	tasks := make([]func(), workers)
	for w := range tasks {
		tasks[w] = drain
	}
	Do(tasks...)
}
