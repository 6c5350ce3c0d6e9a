package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync/atomic"
	"time"
)

// series is one metric's samples, in the unit the metric is reported in.
type series struct {
	Unit    string
	Samples []float64
}

// summary is the results-file form of a series.
type summary struct {
	Unit    string    `json:"unit"`
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	P25     float64   `json:"p25"`
	P75     float64   `json:"p75"`
	Samples []float64 `json:"samples"`
}

func (s *series) summary() summary {
	return summary{
		Unit:    s.Unit,
		N:       len(s.Samples),
		Median:  quantile(s.Samples, 0.5),
		P25:     quantile(s.Samples, 0.25),
		P75:     quantile(s.Samples, 0.75),
		Samples: s.Samples,
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (0 for no samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// heapObjects is the runtime metric for live plus not-yet-swept heap
// object bytes (MemStats.HeapAlloc). Reading it does not stop the world,
// unlike runtime.ReadMemStats, so sampling it every millisecond barely
// disturbs the operation being measured.
const heapObjects = "/memory/classes/heap/objects:bytes"

func heapBytes() uint64 {
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapPeak tracks the peak heap over a post-GC baseline while one
// operation runs.
type heapPeak struct {
	base uint64
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

// startHeapPeak collects garbage, takes the baseline and starts sampling
// every millisecond until finish.
func startHeapPeak() *heapPeak {
	runtime.GC()
	h := &heapPeak{base: heapBytes(), stop: make(chan struct{}), done: make(chan struct{})}
	h.peak.Store(h.base)
	go func() {
		defer close(h.done)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.note()
			}
		}
	}()
	return h
}

func (h *heapPeak) note() {
	v := heapBytes()
	for {
		old := h.peak.Load()
		if v <= old || h.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// finish stops sampling and returns the peak growth over the baseline
// in MB.
func (h *heapPeak) finish() float64 {
	h.note()
	close(h.stop)
	<-h.done
	return float64(h.peak.Load()-h.base) / 1e6
}

// allocCounter is the heap bytes allocated and GC cycles completed since
// the process started; two readings bracket a phase.
type allocCounter struct{ bytes, gcs uint64 }

func readAlloc() allocCounter {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return allocCounter{bytes: s[0].Value.Uint64(), gcs: s[1].Value.Uint64()}
}
