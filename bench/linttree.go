package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/lint"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/staticlint"
)

// lintBench lints a freshly generated Go module each repetition: a vet
// pass (the ten analyzers, as sgx-perf-vet runs them), the source pass
// of the interface lint, then an edit that plants one more violation and
// a second vet pass. Parsing, type-checking, the summary engines and the
// analyzers do all the work; every other layer is idle. The second pass
// shows whether re-linting reuses work that the edit did not touch.
type lintBench struct {
	e *env
}

func newLintBench(e *env) (bench, error) {
	b := &lintBench{e: e}
	// A checked vet pass over a one-package tree reads the
	// standard-library sources the type checker imports, so the page
	// cache is warm when timing starts.
	tree, err := genTree(b.treeSeed(-1), treeSize{pkgs: 1, fillers: e.cfg.size.tree.fillers})
	if err != nil {
		return nil, err
	}
	root := filepath.Join(e.dir, "warmup")
	if err := tree.write(root); err != nil {
		return nil, err
	}
	diags, err := lint.Run(root, lint.Analyzers())
	if err != nil {
		return nil, err
	}
	e.res.check(slices.Equal(diagKeys(root, diags), keys(tree.plants)), "lint: warm-up vet pass missed planted violations")
	return b, os.RemoveAll(root)
}

func (b *lintBench) close() {}

// lintRep is one repetition's timings and sizes.
type lintRep struct {
	op, source, relint time.Duration
	peakMB             float64
	files, diags       int
	findings, docBytes int
	root               string
}

// treeSeed derives repetition i's tree seed, so every repetition lints
// a tree it has never seen.
func (b *lintBench) treeSeed(i int64) uint64 { return b.e.cfg.seed<<20 + uint64(i+1) }

func (b *lintBench) rep(req int64, traced bool) (*lintRep, error) {
	size := b.e.cfg.size.tree
	tree, err := genTree(b.treeSeed(req), size)
	if err != nil {
		return nil, err
	}
	r := &lintRep{files: tree.sourceFiles(), root: filepath.Join(b.e.dir, fmt.Sprintf("tree%d", req+1))}
	if err := tree.write(r.root); err != nil {
		return nil, err
	}
	hp := startHeapPeak()
	op := b.e.tr.root("bench.op", req, traced)
	sp := op.child("lint.load")
	loaded, err := lint.LoadTree(r.root)
	if err != nil {
		return nil, err
	}
	sp.end()
	sp = op.child("lint.run")
	diags, err := lint.RunTree(loaded, lint.Analyzers())
	if err != nil {
		return nil, err
	}
	sp.end()
	sp = op.child("apiv1.marshal")
	doc, err := apiv1.Marshal(apiv1.FromDiagnostics(r.root, analyzerNames, diags))
	if err != nil {
		return nil, err
	}
	sp.end()
	sp = op.child("staticlint.source")
	findings, err := staticlint.AnalyzeSource(r.root, nil, staticlint.Options{})
	if err != nil {
		return nil, err
	}
	sp.end()
	r.source = time.Since(op.start)

	added, err := tree.edit(r.root)
	if err != nil {
		return nil, err
	}
	relintStart := time.Now()
	sp = op.child("lint.relint_load")
	reloaded, err := lint.LoadTree(r.root)
	if err != nil {
		return nil, err
	}
	sp.end()
	sp = op.child("lint.relint_run")
	rediags, err := lint.RunTree(reloaded, lint.Analyzers())
	if err != nil {
		return nil, err
	}
	sp.end()
	r.relint = time.Since(relintStart)
	r.op = op.end()
	r.peakMB = hp.finish()
	r.diags, r.findings, r.docBytes = len(diags), len(findings), len(doc)

	res := b.e.res
	want := keys(tree.plants)
	res.check(slices.Equal(diagKeys(r.root, diags), want), "lint: vet pass reported %v, planted %v", diagKeys(r.root, diags), want)
	res.check(slices.Equal(diagKeys(r.root, rediags), keys(append(append([]plant(nil), tree.plants...), added))),
		"lint: re-lint after the edit did not add exactly %v", added)
	res.check(sourceFindingsOK(findings, size.pkgs), "lint: source pass found %d findings, want one held-lock and one lock-cycle finding per package", len(findings))
	return r, nil
}

func (b *lintBench) measure(budget time.Duration) error {
	e := b.e
	start := time.Now()
	for i := 0; i < e.cfg.size.minOps || time.Since(start) < budget; i++ {
		r, err := b.rep(int64(i), e.traced(i))
		if err != nil {
			return err
		}
		e.opDone(i, r.op)
		e.res.add("throughput_per_s", "1/s", float64(r.files)/r.op.Seconds())
		e.res.add("peak_heap_mb", "MB", r.peakMB)
		e.res.add("lint_source_s", "s", r.source.Seconds())
		e.res.add("lint_relint_s", "s", r.relint.Seconds())
		if e.traced(i) {
			if err := b.oneAtATime(r.root); err != nil {
				return err
			}
		}
		if err := os.RemoveAll(r.root); err != nil {
			return err
		}
		e.res.layer["lint.files"] = float64(r.files)
		e.res.layer["lint.diagnostics"] = float64(r.diags)
		e.res.layer["staticlint.findings_per_op"] = float64(r.findings)
		e.res.layer["apiv1.bytes_per_op"] = float64(r.docBytes)
	}
	var total float64
	for _, n := range analyzerNames {
		total += e.res.median("analyzer_" + n + "_s")
	}
	if total > 0 {
		for _, n := range analyzerNames {
			e.res.layer["lint.analyzer."+n+".share"] = e.res.median("analyzer_"+n+"_s") / total
		}
	}
	return nil
}

// oneAtATime is the traced run's control pass: the analyzers run one at
// a time, in suite order, over one freshly loaded tree, so the first
// analyzer that needs types pays for type-checking.
func (b *lintBench) oneAtATime(root string) error {
	tree, err := lint.LoadTree(root)
	if err != nil {
		return err
	}
	for _, a := range lint.Analyzers() {
		start := time.Now()
		if _, err := lint.RunTree(tree, []*lint.Analyzer{a}); err != nil {
			return err
		}
		b.e.res.add("analyzer_"+a.Name+"_s", "s", time.Since(start).Seconds())
	}
	return nil
}

func keys(ps []plant) []string {
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = fmt.Sprintf("%s:%d:%s", p.File, p.Line, p.Analyzer)
	}
	sort.Strings(out)
	return out
}

func diagKeys(root string, diags []lint.Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		rel, err := filepath.Rel(root, d.Pos.Filename)
		if err != nil {
			rel = d.Pos.Filename
		}
		out[i] = fmt.Sprintf("%s:%d:%s", filepath.ToSlash(rel), d.Pos.Line, d.Analyzer)
	}
	sort.Strings(out)
	return out
}

// sourceFindingsOK checks the source pass: each generated package holds
// one lock held across a channel send and one lock-order cycle.
func sourceFindingsOK(fs []analyzer.Finding, pkgs int) bool {
	held, cycles := 0, 0
	for _, f := range fs {
		switch f.Problem {
		case analyzer.ProblemBoundarySync:
			held++
		case analyzer.ProblemSSC:
			cycles++
		}
	}
	return len(fs) == 2*pkgs && held == pkgs && cycles == pkgs
}
