// Package serve implements the always-on analysis service behind
// sgx-perf-serve: traces are uploaded (or appended to) as evstore
// streams, analyses run concurrently on the shared worker pool with
// per-request cancellation, live snapshots stream to any number of
// subscribers over SSE or long-poll, and every computed artifact is
// cached content-addressed by the trace's chunk hashes, so a repeat
// request for unchanged content computes nothing. Each report is one
// fold of the whole trace.
//
// Every response body is an api/v1 wire document in the canonical
// apiv1.Marshal serialisation — byte-for-byte what the offline CLIs
// emit for the same trace.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/evstore"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/perf/staticlint"
	"sgxperf/internal/sgx"
)

// Options configures a Server.
type Options struct {
	// CacheCapacity bounds the artifact cache in entries (0 = default).
	CacheCapacity int
	// MaxUploadBytes bounds one upload or append body (0 = 256 MiB).
	MaxUploadBytes int64
	// PollTimeout bounds how long a long-poll waits for a change before
	// answering with the unchanged snapshot (0 = 25s).
	PollTimeout time.Duration
	// SourceRoot, when set, enables the source-aware lint path
	// (?source=1 on /v1/traces/{id}/lint): the interprocedural and
	// concurrency dataflow passes run over the Go tree at this root and
	// their findings — plus the per-entry transition predictions — join
	// the interface report.
	SourceRoot string
	// SourceDirs limits the source passes to these root-relative
	// directories (empty = the whole tree).
	SourceDirs []string
}

// maxArtifactAttempts bounds the optimistic-concurrency retry loop: an
// artifact computed while the trace was being appended to is discarded
// and recomputed against the new content key.
const maxArtifactAttempts = 8

// Server is the analysis service: a registry of uploaded traces, the
// shared artifact cache, and the HTTP handler tree over them.
type Server struct {
	opts  Options
	cache *ArtifactCache

	mu     sync.RWMutex
	traces map[string]*traceEntry
	nextID int

	requests atomic.Uint64
	peakHeap atomic.Uint64
	mux      *http.ServeMux
}

// noteHeap samples the live heap into the peak gauge and returns the
// snapshot. It is called where the heap actually crests — after cold
// report computations — and on each metrics read, rather than on every
// request: ReadMemStats briefly stops the world, so pricing it per
// request would tax the hot cached path for a gauge that only moves
// when analysis work runs.
func (s *Server) noteHeap() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		old := s.peakHeap.Load()
		if ms.HeapAlloc <= old || s.peakHeap.CompareAndSwap(old, ms.HeapAlloc) {
			return ms
		}
	}
}

// traceEntry is one registered trace. The trace's tables are internally
// synchronised (analyses read them while appends land); appendMu only
// serialises whole append bodies so each lands atomically across
// tables.
type traceEntry struct {
	id       string
	trace    *events.Trace
	hub      *hub
	appendMu sync.Mutex
}

// New builds a Server.
func New(opts Options) *Server {
	if opts.MaxUploadBytes <= 0 {
		opts.MaxUploadBytes = 256 << 20
	}
	if opts.PollTimeout <= 0 {
		opts.PollTimeout = 25 * time.Second
	}
	s := &Server{
		opts:   opts,
		cache:  NewArtifactCache(opts.CacheCapacity),
		traces: make(map[string]*traceEntry),
		mux:    http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/traces", s.handleUpload)
	s.mux.HandleFunc("GET /v1/traces", s.handleList)
	s.mux.HandleFunc("GET /v1/traces/{id}", s.handleInfo)
	s.mux.HandleFunc("POST /v1/traces/{id}/append", s.handleAppend)
	s.mux.HandleFunc("GET /v1/traces/{id}/report", s.handleReport)
	s.mux.HandleFunc("GET /v1/traces/{id}/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/traces/{id}/lint", s.handleLint)
	s.mux.HandleFunc("GET /v1/traces/{id}/live", s.handleLive)
	s.mux.HandleFunc("GET /v1/traces/{id}/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("GET /v1/report", s.handleReportDefault)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		s.mux.ServeHTTP(w, r)
	})
}

// Preload registers an already-loaded trace under id (empty = assigned
// name), for embedding the server in-process and for the daemon's
// positional trace-file arguments.
func (s *Server) Preload(id string, tr *events.Trace) error {
	_, err := s.register(id, tr)
	return err
}

// register adds an already-loaded trace under id (empty = assigned);
// the HTTP upload path funnels through here.
func (s *Server) register(id string, tr *events.Trace) (*traceEntry, error) {
	if tr == nil {
		return nil, fmt.Errorf("serve: %w", analyzer.ErrNoTrace)
	}
	if id != "" && (!traceIDPattern.MatchString(id) || id == "." || id == "..") {
		return nil, fmt.Errorf("%w: trace id %q (want %s, other than \".\" and \"..\")", ErrBadRequest, id, traceIDPattern)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id == "" {
		for {
			s.nextID++
			id = fmt.Sprintf("t%d", s.nextID)
			if _, taken := s.traces[id]; !taken {
				break
			}
		}
	} else if _, taken := s.traces[id]; taken {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, id)
	}
	e := &traceEntry{id: id, trace: tr, hub: newHub()}
	e.hub.bump() // seq 1: the upload itself is the first change
	s.traces[id] = e
	return e, nil
}

// traceIDPattern is what a trace id may spell; "." and ".." match it
// but are refused, because the mux cleans them out of every
// /v1/traces/{id}/... path and such a trace could not be addressed.
var traceIDPattern = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// lookup resolves a request's {id} path value.
func (s *Server) lookup(r *http.Request) (*traceEntry, error) {
	id := r.PathValue("id")
	s.mu.RLock()
	e := s.traces[id]
	s.mu.RUnlock()
	if e == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return e, nil
}

// --- artifact computation -----------------------------------------------

// retryable decides whether an artifact computation should be retried:
// the trace was appended to mid-computation, or a coalesced waiter
// inherited the cancellation of some other request's context while its
// own is still live.
func retryable(ctx context.Context, err error, attempt int) bool {
	if attempt >= maxArtifactAttempts || ctx.Err() != nil {
		return false
	}
	return errors.Is(err, errConcurrentAppend) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded)
}

// reportEntry is the cached full-report artifact: the wire report and
// its canonical apiv1.Marshal bytes, which is what a report request
// writes, so a cache hit marshals nothing.
type reportEntry struct {
	rep *apiv1.Report
	raw []byte
}

// reportArtifact returns the trace's full wire report, cached by
// content key, together with that content key. Each report is one fold
// of the trace (Analyzer.AnalyzeContext), sorted or not: the fold runs
// over the tables in place when they are stream-sorted and gathers
// their rows in fold order a chunk at a time otherwise. Concurrency is
// optimistic: the key is computed before the analysis and revalidated
// after; since the store is append-only, an unchanged key proves the
// analysis saw exactly the keyed content, and a changed one discards
// the run (nothing is cached) and retries under the new key. A returned
// entry therefore always belongs to the returned content key, cache hit
// or not.
func (s *Server) reportArtifact(ctx context.Context, e *traceEntry, enclave sgx.EnclaveID) (*reportEntry, string, error) {
	suffix := "|" + strconv.FormatUint(uint64(enclave), 10)
	for attempt := 0; ; attempt++ {
		contentKey := e.trace.ContentKey()
		key := "report|" + contentKey + suffix
		v, hit, err := s.cache.GetOrCompute(key, func() (any, error) {
			a, err := analyzer.New(e.trace, analyzer.Options{Enclave: enclave})
			if err != nil {
				return nil, err
			}
			rep, err := a.AnalyzeContext(ctx)
			if err != nil {
				return nil, err
			}
			if e.trace.ContentKey() != contentKey {
				return nil, errConcurrentAppend
			}
			wire := apiv1.FromReport(rep)
			raw, err := apiv1.Marshal(wire)
			if err != nil {
				return nil, err
			}
			return &reportEntry{rep: wire, raw: raw}, nil
		})
		if err == nil {
			if !hit {
				s.noteHeap() // a fresh analysis is where the heap crests
			}
			return v.(*reportEntry), contentKey, nil
		}
		if retryable(ctx, err, attempt) {
			continue
		}
		return nil, "", err
	}
}

// lintArtifact returns the trace's hybrid lint report (static findings
// from the EDL embedded in the trace, re-ranked by observed traffic) in
// its canonical apiv1.Marshal bytes, cached by content key like
// reportArtifact. Nothing reads the report but the response, so only
// the bytes are kept. With src set the source passes join in under the
// server's configured root; the artifact is cached under its own key so
// the two variants never collide.
func (s *Server) lintArtifact(ctx context.Context, e *traceEntry, src bool) ([]byte, error) {
	prefix := "lint|"
	var opts staticlint.Options
	if src {
		prefix = "lint+src|"
		opts.SourceRoot = s.opts.SourceRoot
		opts.SourceDirs = s.opts.SourceDirs
	}
	for attempt := 0; ; attempt++ {
		contentKey := e.trace.ContentKey()
		v, _, err := s.cache.GetOrCompute(prefix+contentKey, func() (any, error) {
			rep, err := staticlint.HybridContext(ctx, nil, e.trace, opts)
			if err != nil {
				return nil, err
			}
			if e.trace.ContentKey() != contentKey {
				return nil, errConcurrentAppend
			}
			return apiv1.Marshal(apiv1.FromLintReport(rep))
		})
		if err == nil {
			return v.([]byte), nil
		}
		if retryable(ctx, err, attempt) {
			continue
		}
		return nil, err
	}
}

// statsReport answers /stats from the cached report artifact: its
// per-call statistics and the content key the artifact is cached under,
// which pins the content the statistics describe.
func (s *Server) statsReport(ctx context.Context, e *traceEntry, enclave sgx.EnclaveID) (*apiv1.StatsReport, error) {
	ent, contentKey, err := s.reportArtifact(ctx, e, enclave)
	if err != nil {
		return nil, err
	}
	return &apiv1.StatsReport{
		SchemaVersion: apiv1.Version,
		Workload:      ent.rep.Workload,
		ContentKey:    contentKey,
		Stats:         ent.rep.Stats,
	}, nil
}

// snapshotDoc builds the trace's live snapshot: the cached full report
// plus current raw counts and the change sequence number. Seq is read
// before the report so it never claims to be newer than the analysis it
// carries. Rates stay zero: they are defined over a live logger's
// sliding clock window, which an uploaded trace does not have.
func (s *Server) snapshotDoc(ctx context.Context, e *traceEntry) (*apiv1.LiveSnapshot, error) {
	seq := e.hub.current()
	ent, _, err := s.reportArtifact(ctx, e, 0)
	if err != nil {
		return nil, err
	}
	rep := ent.rep
	return &apiv1.LiveSnapshot{
		SchemaVersion: apiv1.Version,
		Workload:      rep.Workload,
		Seq:           seq,
		Counts:        countsOf(e.trace),
		Stats:         rep.Stats,
		Findings:      rep.Findings,
		Paging:        rep.Paging,
		WakeGraph:     rep.WakeGraph,
		Switchless:    rep.Switchless,
	}, nil
}

// --- handlers -----------------------------------------------------------

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	tr, err := events.NewTrace()
	if err != nil {
		writeError(w, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	if err := tr.Load(body); err != nil {
		writeError(w, fmt.Errorf("%w: %w", ErrBadRequest, err))
		return
	}
	e, err := s.register(r.URL.Query().Get("id"), tr)
	if err != nil {
		writeError(w, err)
		return
	}
	writeDoc(w, http.StatusCreated, s.traceInfo(e))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	entries := make([]*traceEntry, 0, len(s.traces))
	for _, e := range s.traces {
		entries = append(entries, e)
	}
	s.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].id < entries[j].id })
	list := apiv1.TraceList{SchemaVersion: apiv1.Version, Traces: make([]apiv1.TraceInfo, 0, len(entries))}
	for _, e := range entries {
		list.Traces = append(list.Traces, s.traceInfo(e))
	}
	writeDoc(w, http.StatusOK, list)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	e, err := s.lookup(r)
	if err != nil {
		writeError(w, err)
		return
	}
	writeDoc(w, http.StatusOK, s.traceInfo(e))
}

func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	e, err := s.lookup(r)
	if err != nil {
		writeError(w, err)
		return
	}
	delta, err := events.NewTrace()
	if err != nil {
		writeError(w, err)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxUploadBytes)
	if err := delta.Load(body); err != nil {
		writeError(w, fmt.Errorf("%w: %w", ErrBadRequest, err))
		return
	}
	e.appendMu.Lock()
	appendTrace(e.trace, delta)
	e.appendMu.Unlock()
	e.hub.bump()
	writeDoc(w, http.StatusOK, s.traceInfo(e))
}

// appendTrace lands a delta trace's events onto the base. Event tables
// are appended wholesale; the delta's meta is adopted only when the
// base has none, and enclave descriptors only for enclaves the base has
// not seen.
func appendTrace(base, delta *events.Trace) {
	if base.Meta.Len() == 0 {
		appendRows(base.Meta, delta.Meta)
	}
	appendRows(base.Ecalls, delta.Ecalls)
	appendRows(base.Ocalls, delta.Ocalls)
	appendRows(base.AEXs, delta.AEXs)
	appendRows(base.Paging, delta.Paging)
	appendRows(base.Syncs, delta.Syncs)
	appendRows(base.Threads, delta.Threads)
	appendRows(base.Switchless, delta.Switchless)
	seen := make(map[sgx.EnclaveID]bool)
	base.Enclaves.Scan(func(_ int, m events.EnclaveMeta) bool {
		seen[m.Enclave] = true
		return true
	})
	var fresh []events.EnclaveMeta
	delta.Enclaves.Scan(func(_ int, m events.EnclaveMeta) bool {
		if !seen[m.Enclave] {
			fresh = append(fresh, m)
			seen[m.Enclave] = true
		}
		return true
	})
	base.Enclaves.BatchInsert(fresh)
}

// appendRows copies every row of src onto dst in one batch.
func appendRows[T any](dst, src *evstore.Table[T]) {
	n := src.Len()
	if n == 0 {
		return
	}
	rows := make([]T, 0, n)
	src.ScanChunks(func(c []T) bool {
		rows = append(rows, c...)
		return true
	})
	dst.BatchInsert(rows)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	e, err := s.lookup(r)
	if err != nil {
		writeError(w, err)
		return
	}
	s.serveReport(w, r, e)
}

// handleReportDefault is GET /v1/report: the report of ?trace=<id>, or
// of the sole registered trace when the parameter is omitted.
func (s *Server) handleReportDefault(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("trace")
	s.mu.RLock()
	e := s.traces[id]
	if id == "" && len(s.traces) == 1 {
		for _, only := range s.traces {
			e = only
		}
	}
	s.mu.RUnlock()
	if e == nil {
		if id == "" {
			writeError(w, fmt.Errorf("%w: ?trace= required unless exactly one trace is registered", ErrBadRequest))
		} else {
			writeError(w, fmt.Errorf("%w: %q", ErrNotFound, id))
		}
		return
	}
	s.serveReport(w, r, e)
}

func (s *Server) serveReport(w http.ResponseWriter, r *http.Request, e *traceEntry) {
	enclave, err := enclaveParam(r)
	if err != nil {
		writeError(w, err)
		return
	}
	ent, _, err := s.reportArtifact(r.Context(), e, enclave)
	if err != nil {
		writeError(w, err)
		return
	}
	writeRaw(w, http.StatusOK, ent.raw)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	e, err := s.lookup(r)
	if err != nil {
		writeError(w, err)
		return
	}
	enclave, err := enclaveParam(r)
	if err != nil {
		writeError(w, err)
		return
	}
	doc, err := s.statsReport(r.Context(), e, enclave)
	if err != nil {
		writeError(w, err)
		return
	}
	writeDoc(w, http.StatusOK, doc)
}

// handleLint serves the hybrid lint report. ?source=1 asks for the
// source-aware variant; it is answerable only when the daemon was
// started with a source root.
func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) {
	e, err := s.lookup(r)
	if err != nil {
		writeError(w, err)
		return
	}
	src, err := uintParam(r, "source")
	if err != nil {
		writeError(w, err)
		return
	}
	if src != 0 && s.opts.SourceRoot == "" {
		writeError(w, fmt.Errorf("%w: pass -source-root when starting the daemon", ErrNoSource))
		return
	}
	raw, err := s.lintArtifact(r.Context(), e, src != 0)
	if err != nil {
		writeError(w, err)
		return
	}
	writeRaw(w, http.StatusOK, raw)
}

// handleSnapshot is the long-poll subscription: with ?seq=N the
// response is delayed until the trace moves past N (or the poll timeout
// expires, returning the unchanged snapshot for the client to re-poll).
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	e, err := s.lookup(r)
	if err != nil {
		writeError(w, err)
		return
	}
	after, err := uintParam(r, "seq")
	if err != nil {
		writeError(w, err)
		return
	}
	ctx := r.Context()
	if after > 0 {
		waitCtx, cancel := context.WithTimeout(ctx, s.opts.PollTimeout)
		_, werr := e.hub.wait(waitCtx, after)
		cancel()
		if werr != nil && ctx.Err() != nil {
			writeError(w, ctx.Err())
			return
		}
	}
	snap, err := s.snapshotDoc(ctx, e)
	if err != nil {
		writeError(w, err)
		return
	}
	writeDoc(w, http.StatusOK, snap)
}

// handleLive streams snapshots over server-sent events: one event
// immediately, then one per change, each a compact one-line LiveSnapshot.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	e, err := s.lookup(r)
	if err != nil {
		writeError(w, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, errors.New("serve: response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	ctx := r.Context()
	var last uint64
	for {
		snap, err := s.snapshotDoc(ctx, e)
		if err != nil {
			return
		}
		raw, err := apiv1.MarshalCompact(snap)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "event: snapshot\ndata: %s\n\n", raw); err != nil {
			return
		}
		flusher.Flush()
		last = snap.Seq
		if _, err := e.hub.wait(ctx, last); err != nil {
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.traces)
	s.mu.RUnlock()
	ms := s.noteHeap()
	writeDoc(w, http.StatusOK, apiv1.ServerMetrics{
		SchemaVersion: apiv1.Version,
		Traces:        n,
		Cache:         s.cache.Metrics(),
		Memory: apiv1.MemoryMetrics{
			HeapAllocBytes:     ms.HeapAlloc,
			HeapSysBytes:       ms.HeapSys,
			PeakHeapAllocBytes: s.peakHeap.Load(),
			NumGC:              ms.NumGC,
		},
		Requests: s.requests.Load(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// --- small helpers ------------------------------------------------------

func (s *Server) traceInfo(e *traceEntry) apiv1.TraceInfo {
	return apiv1.TraceInfo{
		SchemaVersion: apiv1.Version,
		ID:            e.id,
		Workload:      workloadOf(e.trace),
		ContentKey:    e.trace.ContentKey(),
		Counts:        countsOf(e.trace),
		Seq:           e.hub.current(),
	}
}

func workloadOf(tr *events.Trace) string {
	if tr.Meta.Len() > 0 {
		return tr.Meta.At(0).Workload
	}
	return ""
}

func countsOf(tr *events.Trace) apiv1.Counts {
	return apiv1.Counts{
		Ecalls:     tr.Ecalls.Len(),
		Ocalls:     tr.Ocalls.Len(),
		Syncs:      tr.Syncs.Len(),
		AEXs:       tr.AEXs.Len(),
		Paging:     tr.Paging.Len(),
		Switchless: tr.Switchless.Len(),
	}
}

func enclaveParam(r *http.Request) (sgx.EnclaveID, error) {
	v, err := uintParam(r, "enclave")
	return sgx.EnclaveID(v), err
}

func uintParam(r *http.Request, name string) (uint64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%w: %s=%q is not an unsigned integer", ErrBadRequest, name, raw)
	}
	return v, nil
}

// writeDoc writes a wire document in the canonical serialisation. It
// is for documents with per-request fields; cached artifacts keep their
// canonical bytes and go out through writeRaw.
func writeDoc(w http.ResponseWriter, status int, v any) {
	raw, err := apiv1.Marshal(v)
	if err != nil {
		writeError(w, err)
		return
	}
	writeRaw(w, status, raw)
}

// writeRaw writes a wire document already in its canonical bytes.
func writeRaw(w http.ResponseWriter, status int, raw []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(raw)
}

// writeError maps err through the sentinel status table and writes the
// apiv1.Error body.
func writeError(w http.ResponseWriter, err error) {
	status := StatusOf(err)
	doc := apiv1.Error{SchemaVersion: apiv1.Version, Status: status, Error: err.Error()}
	raw, merr := apiv1.Marshal(doc)
	if merr != nil {
		http.Error(w, err.Error(), status)
		return
	}
	writeRaw(w, status, raw)
}
