package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one recorded call into a layer: its name is "<layer>.<stage>",
// its parent the span that caused it (-1 for an operation root), and req
// the operation it belongs to, shared by every span of that operation.
type span struct {
	ID     int64  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer keeps spans in memory until the benchmark ends. Spans are taken
// only around calls the benchmark's own files make into a layer's public
// functions; the layers themselves are not instrumented.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanRef is an open span. Operations that are not traced still get a
// spanRef, so every stage is timed the same way; only recording is
// skipped.
type spanRef struct {
	t      *tracer
	on     bool
	id     int64
	req    int64
	parent int64
	name   string
	start  time.Time
}

// root opens an operation's root span; on selects whether the operation
// and all its children are recorded.
func (t *tracer) root(name string, req int64, on bool) spanRef {
	return t.open(name, req, -1, on)
}

// rootAt is root for an operation that began at start, before this call:
// an open-loop request begins at its due time.
func (t *tracer) rootAt(name string, req int64, on bool, start time.Time) spanRef {
	s := t.open(name, req, -1, on)
	s.start = start
	return s
}

// child opens a span caused by s.
func (s spanRef) child(name string) spanRef {
	return s.t.open(name, s.req, s.id, s.on)
}

func (t *tracer) open(name string, req, parent int64, on bool) spanRef {
	s := spanRef{t: t, on: on, id: -1, req: req, parent: parent, name: name}
	if on {
		s.id = t.nextID.Add(1)
	}
	s.start = time.Now()
	return s
}

// end closes the span and returns its duration.
func (s spanRef) end() time.Duration {
	now := time.Now()
	d := now.Sub(s.start)
	if s.on {
		s.t.mu.Lock()
		s.t.spans = append(s.t.spans, span{
			ID: s.id, Name: s.name, Parent: s.parent, Req: s.req,
			Start: int64(s.start.Sub(s.t.t0)), End: int64(now.Sub(s.t.t0)),
		})
		s.t.mu.Unlock()
	}
	return d
}

// selfTimes attributes every recorded span's self time — its duration
// minus the part of it covered by its children — to the span's name,
// and sums the duration of the operation roots.
func (t *tracer) selfTimes() (self map[string]time.Duration, roots time.Duration, nRoots int) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += time.Duration(s.End-s.Start) - covered(s, children[s.ID])
		if s.Parent < 0 {
			roots += time.Duration(s.End - s.Start)
			nRoots++
		}
	}
	return self, roots, nRoots
}

// covered returns how much of parent's interval the union of its
// children's intervals covers. Children may overlap when the benchmark
// drives a layer from several goroutines.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
			continue
		}
		curE = max(curE, e)
	}
	total += curE - curS
	return time.Duration(total)
}

// write saves every recorded span as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
