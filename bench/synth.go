package main

import (
	"bytes"
	"os"
	"path/filepath"
	"time"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/evstore"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
)

// synthBench reports a large stream-sorted synthetic trace from disk
// through the out-of-core path: chunk cursors feed the streaming fold,
// so peak memory stays at the chunk-window scale. The stream cursors and
// the fold do the work; the event store is only read, and the logger,
// the live collector, the daemon and the lints are not used.
type synthBench struct {
	e         *env
	path      string
	events    int
	fileBytes int64
}

func newSynthBench(e *env) (bench, error) {
	tr, err := newTraceGen(e.cfg.seed).base(e.cfg.size.synthCalls, true)
	if err != nil {
		return nil, err
	}
	s := &synthBench{e: e, path: filepath.Join(e.dir, "synth.evc"), events: traceEvents(tr)}
	if err := tr.SaveFile(s.path); err != nil {
		return nil, err
	}
	fi, err := os.Stat(s.path)
	if err != nil {
		return nil, err
	}
	s.fileBytes = fi.Size()
	if _, err := s.report(-1, false); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *synthBench) close() {}

// synthOp is one stream report's timings and output.
type synthOp struct {
	op, open, fold, marshal time.Duration
	peakMB                  float64
	doc                     []byte
	stats                   int
}

func (s *synthBench) report(req int64, traced bool) (*synthOp, error) {
	r := &synthOp{}
	hp := startHeapPeak()
	op := s.e.tr.root("bench.op", req, traced)
	sp := op.child("evstore.open_stream")
	st, err := events.OpenStreamTrace(s.path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	r.open = sp.end()
	sp = op.child("analyzer.stream")
	src, err := analyzer.NewStreamTraceSource(st)
	if err != nil {
		return nil, err
	}
	rep, err := analyzer.AnalyzeStream(src, analyzer.Options{})
	if err != nil {
		return nil, err
	}
	r.fold = sp.end()
	sp = op.child("apiv1.marshal")
	r.doc, err = apiv1.Marshal(apiv1.FromReport(rep))
	if err != nil {
		return nil, err
	}
	r.marshal = sp.end()
	r.op = op.end()
	r.peakMB = hp.finish()
	r.stats = len(rep.Stats)
	return r, nil
}

// reference computes the resident analyser's report of the saved file:
// the bytes every stream report must reproduce.
func (s *synthBench) reference() ([]byte, error) {
	tr, err := events.NewTrace()
	if err != nil {
		return nil, err
	}
	if err := tr.LoadFile(s.path); err != nil {
		return nil, err
	}
	a, err := analyzer.New(tr, analyzer.Options{})
	if err != nil {
		return nil, err
	}
	return apiv1.Marshal(apiv1.FromReport(a.Analyze()))
}

func (s *synthBench) measure(budget time.Duration) error {
	e := s.e
	ref, err := s.reference()
	if err != nil {
		return err
	}
	var scans []float64
	ev := float64(s.events)
	distinct := 0
	start := time.Now()
	for i := 0; i < e.cfg.size.minOps || time.Since(start) < budget; i++ {
		r, err := s.report(int64(i), e.traced(i))
		if err != nil {
			return err
		}
		e.res.check(bytes.Equal(r.doc, ref), "synth: stream report %d differs from the resident report", i)
		distinct = r.stats
		e.opDone(i, r.op)
		e.res.add("throughput_per_s", "1/s", ev/r.op.Seconds())
		e.res.add("peak_heap_mb", "MB", r.peakMB)
		e.res.add("report_s", "s", r.op.Seconds())
		e.res.add("open_stream_ms", "ms", ms(r.open))
		e.res.add("fold_s", "s", r.fold.Seconds())
		e.res.add("marshal_ms", "ms", ms(r.marshal))
		if e.traced(i) {
			// Control: decode every chunk of every table with no
			// analysis, the floor under the fold.
			d, chunks, err := s.decodeScan()
			if err != nil {
				return err
			}
			scans = append(scans, d.Seconds())
			e.res.add("stream_decode_s", "s", d.Seconds())
			e.res.layer["evstore.chunks_per_op"] = float64(chunks)
		}
	}
	e.res.add("trace_bytes_per_event", "B/event", float64(s.fileBytes)/ev)
	l := e.res.layer
	l["evstore.bytes_per_event"] = float64(s.fileBytes) / ev
	l["analyzer.events_per_op"] = ev
	l["analyzer.sorted_frac"] = 1
	l["apiv1.bytes_per_op"] = float64(len(ref))
	if len(scans) > 0 {
		l["evstore.decode_floor_frac"] = quantile(scans, 0.5) / e.res.median("report_s")
	}
	l["analyzer.distinct_calls"] = float64(distinct)
	return nil
}

// decodeScan reads every chunk of every event table through the stream
// cursors and returns the time taken and the chunk count.
func (s *synthBench) decodeScan() (time.Duration, int, error) {
	start := time.Now()
	st, err := events.OpenStreamTrace(s.path)
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	chunks := 0
	for _, open := range []func() (int, error){
		func() (int, error) { return drain(st.Ecalls()) },
		func() (int, error) { return drain(st.Ocalls()) },
		func() (int, error) { return drain(st.AEXs()) },
		func() (int, error) { return drain(st.Paging()) },
		func() (int, error) { return drain(st.Syncs()) },
	} {
		n, err := open()
		if err != nil {
			return 0, 0, err
		}
		chunks += n
	}
	return time.Since(start), chunks, nil
}

// drain reads a table's chunks to the end and returns how many there
// were.
func drain[T any](c *evstore.StreamCursor[T], err error) (int, error) {
	if err != nil {
		return 0, err
	}
	for {
		rows, err := c.Next()
		if err != nil {
			return 0, err
		}
		if rows == nil {
			return c.NumChunks(), nil
		}
	}
}
