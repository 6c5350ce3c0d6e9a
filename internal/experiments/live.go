package experiments

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"sgxperf/internal/host"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/live"
	"sgxperf/internal/perf/logger"
	"sgxperf/internal/workloads/keeper"
)

// LiveTick is one periodic observation of a running workload: the
// snapshot, plus the number of call events recorded since the previous
// tick (the growth of the snapshot's ecall and ocall counts).
type LiveTick struct {
	Tick     int           `json:"tick"`
	Elapsed  time.Duration `json:"elapsed"`
	NewCalls int           `json:"new_calls"`
	Snapshot live.Snapshot `json:"snapshot"`
}

// LiveRunResult is the outcome of monitoring a SecureKeeper run live.
type LiveRunResult struct {
	Duration time.Duration `json:"duration"`
	Ticks    int           `json:"ticks"`
	// Final is the drained snapshot after the workload quiesced,
	// identical to what the post-mortem analyser reports over the same
	// trace (RunLive checks it).
	Final live.Snapshot `json:"final"`
	// EventsSeen is the collector's processed-event total, across tables.
	EventsSeen int64 `json:"events_seen"`
}

// RunLive drives the SecureKeeper workload (§5.2.4) for the given virtual
// duration with a live collector attached, emitting a snapshot roughly
// every interval of wall-clock time while the run is in flight. emit may
// be nil. RunLive fails when an interim snapshot counts fewer events of
// some table than the one before it, or when the drained final snapshot
// differs from the post-mortem report over the same trace.
func RunLive(duration, interval time.Duration, emit func(LiveTick)) (*LiveRunResult, error) {
	if duration <= 0 {
		duration = time.Second
	}
	if interval <= 0 {
		interval = 200 * time.Millisecond
	}
	h, err := host.New()
	if err != nil {
		return nil, err
	}
	l, err := logger.Attach(h, logger.Options{Workload: "securekeeper-live", AEX: logger.AEXCount})
	if err != nil {
		return nil, err
	}
	defer l.Detach()
	ctx := h.NewContext("main")
	w, err := keeper.New(h, ctx)
	if err != nil {
		return nil, err
	}
	col, err := live.Attach(l, live.Options{Window: 250 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	defer col.Close()

	done := make(chan error, 1)
	go func() {
		_, err := w.Run(keeper.RunOptions{Clients: 8, Duration: duration})
		done <- err
	}()

	out := &LiveRunResult{Duration: duration}
	start := time.Now()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	var prev live.Counts
	for running := true; running; {
		select {
		case err := <-done:
			if err != nil {
				return nil, err
			}
			running = false
		case <-ticker.C:
			out.Ticks++
			snap := col.Snapshot()
			c := snap.Counts
			if c.Ecalls < prev.Ecalls || c.Ocalls < prev.Ocalls || c.Syncs < prev.Syncs ||
				c.AEXs < prev.AEXs || c.Paging < prev.Paging || c.Switchless < prev.Switchless {
				return nil, fmt.Errorf("live: tick %d counts %+v fell below the previous tick's %+v", out.Ticks, c, prev)
			}
			newCalls := c.Ecalls - prev.Ecalls + c.Ocalls - prev.Ocalls
			prev = c
			if emit != nil {
				emit(LiveTick{Tick: out.Ticks, Elapsed: time.Since(start), NewCalls: newCalls, Snapshot: snap})
			}
		}
	}

	col.Drain()
	out.Final = col.Snapshot()
	out.EventsSeen = col.EventsSeen()
	if err := checkLiveFinal(out.Final, l); err != nil {
		return nil, err
	}
	return out, nil
}

// checkLiveFinal holds the drained snapshot to the post-mortem report
// over the same logger's trace.
func checkLiveFinal(s live.Snapshot, l *logger.Logger) error {
	a, err := analyzer.New(l.Trace(), analyzer.Options{})
	if err != nil {
		return err
	}
	rep := a.Analyze()
	for _, f := range []struct {
		name       string
		live, post any
	}{
		{"stats", s.Stats, rep.Stats},
		{"findings", s.Findings, rep.Findings},
		{"paging summary", s.Paging, rep.Paging},
		{"wake graph", s.WakeGraph, rep.WakeGraph},
		{"switchless summary", s.Switchless, rep.Switchless},
	} {
		if !reflect.DeepEqual(f.live, f.post) {
			return fmt.Errorf("live: the drained snapshot's %s differ from the post-mortem report's", f.name)
		}
	}
	return nil
}

// RenderLiveSnapshot renders one snapshot as a compact terminal view.
func RenderLiveSnapshot(s live.Snapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "live view — workload %q\n", s.Workload)
	fmt.Fprintf(&b, "events: %d ecalls, %d ocalls, %d syncs, %d AEXs, %d paging\n",
		s.Counts.Ecalls, s.Counts.Ocalls, s.Counts.Syncs, s.Counts.AEXs, s.Counts.Paging)
	fmt.Fprintf(&b, "rates (per second of enclave time, window %v): %.0f ecalls, %.0f ocalls, %.0f AEXs, %.0f paging\n",
		s.Rates.Window, s.Rates.Ecalls, s.Rates.Ocalls, s.Rates.AEXs, s.Rates.Paging)
	top := s.Stats
	if len(top) > 5 {
		top = top[:5]
	}
	for _, st := range top {
		fmt.Fprintf(&b, "  %-40s %8d calls  mean %10v  p99 %10v\n", st.Name, st.Count, st.Mean, st.P99)
	}
	if len(s.Findings) == 0 {
		b.WriteString("findings: none yet\n")
		return b.String()
	}
	fmt.Fprintf(&b, "findings: %d\n", len(s.Findings))
	byProblem := make(map[string]int)
	for _, f := range s.Findings {
		byProblem[f.Problem.String()]++
	}
	problems := make([]string, 0, len(byProblem))
	for p := range byProblem {
		problems = append(problems, p)
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Fprintf(&b, "  %-35s ×%d\n", p, byProblem[p])
	}
	return b.String()
}

// RenderLiveRun renders the final view plus run totals.
func RenderLiveRun(r *LiveRunResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "SecureKeeper monitored live for %v (%d interim snapshots, %d events streamed)\n",
		r.Duration, r.Ticks, r.EventsSeen)
	b.WriteString(RenderLiveSnapshot(r.Final))
	return b.String()
}
