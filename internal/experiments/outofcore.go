package experiments

// The out-of-core analysis experiment: the streaming fold must produce
// the resident analyser's report byte-for-byte while holding peak
// memory at the chunk-window scale — bounded by chunk size times the
// number of cursors, not by the trace size — so traces larger than RAM
// analyse fine. The resident path is priced on the same file for
// comparison.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
)

// OutOfCoreResult is the machine-readable output of the experiment.
type OutOfCoreResult struct {
	Ops       int   `json:"ops"`
	Events    int   `json:"events"`
	FileBytes int64 `json:"file_bytes"`
	// StreamEqualsResident records the byte-level comparison of the two
	// paths' api/v1 wire reports — the run is invalid if false.
	StreamEqualsResident bool          `json:"stream_equals_resident"`
	ResidentWall         time.Duration `json:"resident_wall_ns"`
	StreamWall           time.Duration `json:"stream_wall_ns"`
	// Peak heap growth over each phase's post-GC baseline, sampled at
	// millisecond granularity while the phase runs.
	ResidentPeakBytes uint64  `json:"resident_peak_bytes"`
	StreamPeakBytes   uint64  `json:"stream_peak_bytes"`
	PeakReduction     float64 `json:"peak_reduction"`
}

// memSampler watches HeapAlloc while a phase runs and keeps the peak.
type memSampler struct {
	baseline uint64
	peak     uint64
	stop     chan struct{}
	done     chan struct{}
}

func startMemSampler() *memSampler {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := &memSampler{baseline: ms.HeapAlloc, peak: ms.HeapAlloc,
		stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > s.peak {
				s.peak = ms.HeapAlloc
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops sampling and returns the peak heap growth over the
// phase's baseline.
func (s *memSampler) finish() uint64 {
	close(s.stop)
	<-s.done
	if s.peak < s.baseline {
		return 0
	}
	return s.peak - s.baseline
}

// RunOutOfCore saves a stream-sorted synthetic trace of nOps top-level
// calls to disk, analyses it resident (load everything, analyse) and
// out-of-core (chunk cursors through the fold), checks the two wire
// reports are byte-identical, and prices wall time and peak heap for
// both. nOps <= 0 selects a default sized to show the separation
// without needing a multi-GiB scratch disk; pass a bigger count to
// push the resident path past RAM while the streaming path stays flat.
func RunOutOfCore(nOps int) (*OutOfCoreResult, error) {
	if nOps <= 0 {
		nOps = 400_000
	}
	tr, err := SynthAnalysisTrace(nOps)
	if err != nil {
		return nil, err
	}
	events.StreamSort(tr)
	dir, err := os.MkdirTemp("", "sgxperf-outofcore-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "trace.evc")
	if err := tr.SaveFile(path); err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	res := &OutOfCoreResult{Ops: nOps, Events: traceEvents(tr), FileBytes: fi.Size()}
	tr = nil // the measured phases must not inherit the builder's heap

	// Resident phase: load the whole file, analyse in memory.
	var residentDoc []byte
	{
		sampler := startMemSampler()
		start := time.Now()
		loaded, err := events.NewTrace()
		if err != nil {
			return nil, err
		}
		if err := loaded.LoadFile(path); err != nil {
			return nil, err
		}
		a, err := analyzer.New(loaded, analyzer.Options{})
		if err != nil {
			return nil, err
		}
		rep := a.Analyze()
		res.ResidentWall = time.Since(start)
		res.ResidentPeakBytes = sampler.finish()
		residentDoc, err = apiv1.Marshal(apiv1.FromReport(rep))
		if err != nil {
			return nil, err
		}
	}

	// Streaming phase: chunk cursors only, nothing materialised.
	var streamDoc []byte
	{
		sampler := startMemSampler()
		start := time.Now()
		st, err := events.OpenStreamTrace(path)
		if err != nil {
			return nil, err
		}
		src, err := analyzer.NewStreamTraceSource(st)
		if err != nil {
			st.Close()
			return nil, err
		}
		rep, err := analyzer.AnalyzeStream(src, analyzer.Options{})
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		res.StreamWall = time.Since(start)
		res.StreamPeakBytes = sampler.finish()
		streamDoc, err = apiv1.Marshal(apiv1.FromReport(rep))
		if err != nil {
			return nil, err
		}
	}

	res.StreamEqualsResident = bytes.Equal(residentDoc, streamDoc)
	if !res.StreamEqualsResident {
		return nil, fmt.Errorf("outofcore: streaming report diverges from resident")
	}
	if res.StreamPeakBytes > 0 {
		res.PeakReduction = float64(res.ResidentPeakBytes) / float64(res.StreamPeakBytes)
	}
	return res, nil
}

// RenderOutOfCore formats the result as the bench tool's report text.
func RenderOutOfCore(res *OutOfCoreResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Out-of-core analysis (%d events, %.1f MB trace file)\n",
		res.Events, float64(res.FileBytes)/1e6)
	fmt.Fprintf(&b, "  %-9s %12s %14s\n", "path", "wall", "peak heap")
	fmt.Fprintf(&b, "  %-9s %12v %11.1f MB\n", "resident",
		res.ResidentWall.Round(time.Microsecond), float64(res.ResidentPeakBytes)/1e6)
	fmt.Fprintf(&b, "  %-9s %12v %11.1f MB\n", "stream",
		res.StreamWall.Round(time.Microsecond), float64(res.StreamPeakBytes)/1e6)
	fmt.Fprintf(&b, "  peak memory reduction: %.1fx (reports byte-identical: %v)\n",
		res.PeakReduction, res.StreamEqualsResident)
	return b.String()
}
