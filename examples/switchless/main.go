// switchless demonstrates the transition-elimination technique from the
// paper's related work (SCONE's asynchronous calls, HotCalls, Eleos —
// §2.3, §6), which this library implements as sdk.Switchless: worker
// threads parked inside the enclave service a call queue, so a short
// ecall costs a queue round trip instead of an EENTER/EEXIT round trip.
//
// The example runs two demonstrations:
//
//  1. the fixed-worker ablation: the Glamdring signing workload three
//     ways — the broken partition, the same partition over switchless
//     calls on two workers (a configuration with MinWorkers ==
//     MaxWorkers, so the scheduler never runs), and the paper's
//     interface redesign;
//  2. the self-tuning runtime: the closed lint → config → re-measure
//     loop on a transition-bound workload, printing every per-epoch
//     scaling decision the scheduler took on its way to convergence.
//
// Run with: go run ./examples/switchless [-signs 3] [-ops 400]
package main

import (
	"flag"
	"fmt"
	"log"

	"sgxperf/internal/experiments"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	signs := flag.Int("signs", 3, "signatures per variant (fixed-worker ablation)")
	ops := flag.Int("ops", 400, "transition-bound calls per caller (self-tuning loop)")
	flag.Parse()

	// Part 1 — fixed workers (equal bounds): the technique applied by hand.
	rows, err := experiments.RunSwitchlessAblation(*signs)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderSwitchless(rows))
	fmt.Println()
	fmt.Println("reading the table:")
	fmt.Println("  enclave    — every bn_sub_part_words is an EENTER/EEXIT round trip")
	fmt.Println("  switchless — the same calls go through an in-enclave worker queue:")
	fmt.Println("               most of the loss is recovered without touching the partition")
	fmt.Println("  optimized  — the paper's fix (move bn_mul_recursive inside) still wins,")
	fmt.Println("               because no cross-boundary traffic beats cheap cross-boundary traffic")
	fmt.Println()

	// Part 2 — self-tuning: the analyzer picks the calls, the scheduler
	// picks the workers between the default bounds of 1 and 8. The epoch
	// log shows the pools growing from one worker until the queueing
	// model prices the next worker below the wake cost, then holding
	// there.
	loop, err := experiments.RunSwitchlessLoop(0, *ops)
	if err != nil {
		return err
	}
	fmt.Print(experiments.RenderSwitchlessLoop(loop))
	fmt.Println()
	fmt.Println("reading the epoch log:")
	fmt.Println("  grow — the model prices the backlog above the 2×wake-cost threshold")
	fmt.Println("  hold — one more worker would not pay for its wake-ups; convergence")
	fmt.Println("  the measured column is the observed per-call queue wait; the scheduler")
	fmt.Println("  scales on the model, not the noisy measurement")
	return nil
}
