package live

import (
	"context"
	"fmt"
	"time"

	"sgxperf/internal/perf/analyzer"
)

// Counts are the raw event totals the collector has observed, per table.
type Counts struct {
	Ecalls     int `json:"ecalls"`
	Ocalls     int `json:"ocalls"`
	Syncs      int `json:"syncs"`
	AEXs       int `json:"aexs"`
	Paging     int `json:"paging"`
	Switchless int `json:"switchless"`
}

// Rates are sliding-window event rates in events per second of virtual
// time, over the window the snapshot reports.
type Rates struct {
	Window time.Duration `json:"window"`
	Ecalls float64       `json:"ecalls_per_sec"`
	Ocalls float64       `json:"ocalls_per_sec"`
	AEXs   float64       `json:"aexs_per_sec"`
	Paging float64       `json:"paging_per_sec"`
}

// Snapshot is one consistent view of the live analysis: totals and rates
// for dashboards, plus the analyser's statistics and findings over the
// rows its counts describe. Once the workload quiesces, Stats, Findings,
// Paging, WakeGraph and Switchless equal the post-mortem analyser's
// report over the same trace.
type Snapshot struct {
	Workload string `json:"workload"`
	Counts   Counts `json:"counts"`
	Rates    Rates  `json:"rates"`

	Stats      []analyzer.CallStats     `json:"stats"`
	Findings   []analyzer.Finding       `json:"findings"`
	Paging     analyzer.PagingStats     `json:"paging_summary"`
	WakeGraph  []analyzer.WakeEdge      `json:"wake_graph"`
	Switchless analyzer.SwitchlessStats `json:"switchless"`
}

// Snapshot catches up and folds every row read so far through the
// analyser. It is safe to call at any time, concurrently with
// recording; the counts, rates and chunks it reports are read together
// under the collector's lock, and the fold runs outside it.
func (c *Collector) Snapshot() Snapshot {
	c.mu.Lock()
	c.catchUpLocked()
	s := Snapshot{
		Workload: c.workload,
		Counts:   c.counts,
		Rates: Rates{
			Window: c.opts.Window,
			Ecalls: c.ecallRing.rate(c.freq),
			Ocalls: c.ocallRing.rate(c.freq),
			AEXs:   c.aexRing.rate(c.freq),
			Paging: c.pageRing.rate(c.freq),
		},
	}
	// A catch-up replaces the chunk lists rather than rewriting them, and
	// the chunks themselves are never rewritten, so the lists taken here
	// stay valid after the lock is released.
	src := &analyzer.StreamSource{
		Workload:   c.workload,
		Freq:       c.freq,
		Transition: c.transition,
		Ecalls:     c.ecalls,
		Ocalls:     c.ocalls,
		Paging:     c.paging,
		Syncs:      c.syncs,
		Switchless: c.switchless,
	}
	c.mu.Unlock()

	rep, err := analyzer.AnalyzeUnordered(context.TODO(), src,
		analyzer.Options{Weights: c.opts.Weights, Enclave: c.opts.Enclave})
	if err != nil {
		// In-memory chunks cannot fail to read, the context is never
		// done and the fold's input is sorted first.
		panic(fmt.Sprintf("live: snapshot fold: %v", err))
	}
	s.Stats, s.Findings, s.Paging = rep.Stats, rep.Findings, rep.Paging
	s.WakeGraph, s.Switchless = rep.WakeGraph, rep.Switchless
	return s
}
