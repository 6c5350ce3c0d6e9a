package serve

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/evstore"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
	"sgxperf/internal/vtime"
)

// The windowed full-report engine behind GET /v1/traces/{id}/report.
//
// When the trace is stream-sorted (events.StreamSort order), the report
// is computed through the analyzer's streaming fold: one cached
// artifact per chunk window, each holding the window's FoldDelta and
// carry-out. The carry chains window keys — window k's key includes
// carry-in.Hash() — so after an append every frozen window replays from
// the cache and only the tail windows are folded again, for the
// complete report: statistics, detectors, call graph, security hints.
// Uploads that are not stream-sorted fall back to one fold over sorted
// copies of the tables; either way the response is byte-identical to
// the offline analyser's.
//
// Window keys exploit the store's append-only growth: a row, once
// written, never changes, so the consumed span of each table — from the
// carry-in's resume positions to the first row at or past the window's
// time bound — is fully pinned by the carry-in hash plus the COUNT of
// rows before the bound (total rows, for the final window). An append
// therefore leaves a frozen window's key intact even when it lands in a
// chunk the window had consumed only partially (the appended rows sort
// after the bound); only windows whose before-bound population actually
// grew are refolded. Counts address content only within one append-only
// table, so the key is scoped to the trace id — unlike the sync and
// switchless digests, these artifacts are not shared across traces.
// GET /v1/traces/{id}/stats reads the same report artifact. Every window
// also folds the full sync chunk-hash array: the sync prescan's wake
// references feed short-wake classification everywhere, so a sync
// append conservatively recomputes all windows.
type reportWindowArtifact struct {
	delta *analyzer.FoldDelta
	carry *analyzer.FoldCarry
}

// windowCounts reports how much of a report request was replayed from
// the window cache (zero-valued on the monolithic fallback).
type windowCounts struct {
	total, computed, reused int
}

// hashFold folds the first n chunk hashes (and n itself, so growing a
// table is always visible) into one key component.
func hashFold(hashes []uint64, n int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(n))
	h.Write(b[:])
	for _, v := range hashes[:n] {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	return h.Sum64()
}

// rowsBefore counts rows whose timestamp sorts before bound in a
// time-sorted table: linear over chunk first rows, binary search inside
// the chunk the bound falls into. (On a trace that is not actually
// sorted the count is meaningless, but so is the whole window path —
// the fold's own monotonicity check rejects it before anything wrong
// can be cached.)
func rowsBefore[T any](tbl *evstore.Table[T], timeOf func(*T) vtime.Cycles, bound vtime.Cycles) int {
	n := 0
	tbl.ScanChunks(func(rows []T) bool {
		if len(rows) == 0 {
			return true
		}
		if timeOf(&rows[0]) >= bound {
			return false
		}
		if timeOf(&rows[len(rows)-1]) >= bound {
			n += sort.Search(len(rows), func(i int) bool { return timeOf(&rows[i]) >= bound })
			return false
		}
		n += len(rows)
		return true
	})
	return n
}

// syncPrescanArtifact returns the order-free sync digest, cached by the
// fold of every sync chunk hash (content-addressed: shared across
// traces).
func (s *Server) syncPrescanArtifact(e *traceEntry, src *analyzer.StreamSource, syncFold uint64) (*analyzer.SyncPrescan, error) {
	key := fmt.Sprintf("rsync|%016x", syncFold)
	v, _, err := s.cache.GetOrCompute(key, func() (any, error) {
		pre, err := analyzer.PrescanSyncs(src.Syncs)
		if err != nil {
			return nil, err
		}
		live := e.trace.Syncs.ChunkHashes()
		if hashFold(live, len(live)) != syncFold {
			return nil, errConcurrentAppend
		}
		return pre, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*analyzer.SyncPrescan), nil
}

// switchlessArtifact returns the per-name switchless aggregates, cached
// by the fold of every switchless chunk hash.
func (s *Server) switchlessArtifact(e *traceEntry, src *analyzer.StreamSource, swFold uint64) (map[string]*analyzer.SwitchlessAgg, error) {
	key := fmt.Sprintf("rswl|%016x", swFold)
	v, _, err := s.cache.GetOrCompute(key, func() (any, error) {
		agg, err := analyzer.FoldSwitchless(src.Switchless)
		if err != nil {
			return nil, err
		}
		live := e.trace.Switchless.ChunkHashes()
		if hashFold(live, len(live)) != swFold {
			return nil, errConcurrentAppend
		}
		return agg, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(map[string]*analyzer.SwitchlessAgg), nil
}

// foldedReport computes the full wire report through the streaming
// fold, replaying frozen windows from the artifact cache. It returns
// analyzer.ErrUnsorted when the trace is not stream-sorted (the caller
// falls back to monolithicReport) and errConcurrentAppend when an
// append landed mid-computation (the caller retries).
func (s *Server) foldedReport(ctx context.Context, e *traceEntry, enclave sgx.EnclaveID) (*apiv1.Report, windowCounts, error) {
	tr := e.trace
	src := analyzer.NewTraceSource(tr)
	eh, oh := tr.Ecalls.ChunkHashes(), tr.Ocalls.ChunkHashes()
	ph, sh := tr.Paging.ChunkHashes(), tr.Syncs.ChunkHashes()
	wh := tr.Switchless.ChunkHashes()
	weights := analyzer.DefaultWeights()
	var wc windowCounts

	syncFold := hashFold(sh, len(sh))
	pre, err := s.syncPrescanArtifact(e, src, syncFold)
	if err != nil {
		return nil, wc, err
	}
	swAgg, err := s.switchlessArtifact(e, src, hashFold(wh, len(wh)))
	if err != nil {
		return nil, wc, err
	}

	cfg := &analyzer.FoldConfig{
		Weights:    weights,
		Freq:       src.Freq,
		Transition: src.Transition,
		Enclave:    enclave,
		SyncRefs:   pre.Refs,
	}
	in := analyzer.FoldInput{Ecalls: src.Ecalls, Ocalls: src.Ocalls, Paging: src.Paging}
	callStart := func(c *events.CallEvent) vtime.Cycles { return c.Start }
	pageTime := func(p *events.PagingEvent) vtime.Cycles { return p.Time }
	spanCounts := func(bound vtime.Cycles, final bool) (eCnt, oCnt, pCnt int) {
		if final {
			return tr.Ecalls.Len(), tr.Ocalls.Len(), tr.Paging.Len()
		}
		return rowsBefore(tr.Ecalls, callStart, bound),
			rowsBefore(tr.Ocalls, callStart, bound),
			rowsBefore(tr.Paging, pageTime, bound)
	}

	n := len(eh)
	if len(oh) > n {
		n = len(oh)
	}
	if n == 0 {
		n = 1 // no call chunks: one final window still folds paging
	}
	wc.total = n
	carry := analyzer.NewFoldCarry()
	total := analyzer.NewFoldDelta()
	for k := 0; k < n; k++ {
		if err := ctx.Err(); err != nil {
			return nil, wc, err
		}
		final := k == n-1
		var bound vtime.Cycles
		if !final {
			b, ok, err := analyzer.WindowBound(in, k)
			if err != nil {
				return nil, wc, err
			}
			if !ok {
				final = true
			} else {
				bound = b
			}
		}
		eCnt, oCnt, pCnt := spanCounts(bound, final)
		key := fmt.Sprintf("rwin|%s|%d|c%016x|b%d|e%d|o%d|p%d|s%016x|n%d|f%g|t%d|w%d|fin%t",
			e.id, k, carry.Hash(), int64(bound), eCnt, oCnt, pCnt, syncFold,
			enclave, float64(src.Freq), int64(src.Transition),
			int64(weights.SyncShortLimit), final)
		carryIn := carry
		v, hit, err := s.cache.GetOrCompute(key, func() (any, error) {
			delta, carryOut, err := analyzer.FoldWindow(cfg, carryIn, in, bound, final)
			if err != nil {
				return nil, err
			}
			// Revalidate the counts the key was built from: an append
			// mid-fold may have grown the window's consumed span, and
			// recounting is cheap.
			le, lo, lp := spanCounts(bound, final)
			if le != eCnt || lo != oCnt || lp != pCnt {
				return nil, errConcurrentAppend
			}
			return &reportWindowArtifact{delta: delta, carry: carryOut}, nil
		})
		if err != nil {
			return nil, wc, err
		}
		art := v.(*reportWindowArtifact)
		total.MergeFrom(art.delta)
		carry = art.carry
		if hit {
			wc.reused++
		} else {
			wc.computed++
		}
		if final {
			wc.total = k + 1
			break
		}
	}

	// The hash snapshots were taken table-by-table; re-reading them
	// proves no append interleaved anywhere the report looked, so the
	// assembled windows form one consistent view of the trace.
	if !hashesEqual(eh, tr.Ecalls.ChunkHashes()) ||
		!hashesEqual(oh, tr.Ocalls.ChunkHashes()) ||
		!hashesEqual(ph, tr.Paging.ChunkHashes()) ||
		!hashesEqual(sh, tr.Syncs.ChunkHashes()) ||
		!hashesEqual(wh, tr.Switchless.ChunkHashes()) {
		return nil, wc, errConcurrentAppend
	}

	rep := analyzer.AssembleReport(src.Workload, cfg, total, pre,
		analyzer.SwitchlessStatsFrom(swAgg, src.Freq), src.Interface())
	return apiv1.FromReport(rep), wc, nil
}
