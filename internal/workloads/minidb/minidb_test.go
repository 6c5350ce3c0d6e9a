package minidb_test

import (
	"fmt"
	"strings"
	"testing"

	"sgxperf/internal/host"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/perf/logger"
	"sgxperf/internal/sgx"
	"sgxperf/internal/workloads"
	"sgxperf/internal/workloads/minidb"
)

func newNativeEngine(t *testing.T) (*minidb.Engine, *sgx.Context) {
	t.Helper()
	h, err := host.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("db")
	eng, err := minidb.NewEngine(minidb.NewDirectVFS(h.Kernel.FS, ctx), "test.db", nil)
	if err != nil {
		t.Fatal(err)
	}
	return eng, ctx
}

func TestSQLParser(t *testing.T) {
	tests := []struct {
		sql  string
		ok   bool
		desc string
	}{
		{"CREATE TABLE t (a, b)", true, "create"},
		{"create table t (a)", true, "case-insensitive"},
		{"INSERT INTO t VALUES ('x', 1)", true, "insert"},
		{"INSERT INTO t VALUES ('it''s', -5)", true, "escaped quote + negative"},
		{"SELECT * FROM t", true, "select star"},
		{"SELECT COUNT(*) FROM t WHERE a = 'x'", true, "count with where"},
		{"SELECT * FROM t WHERE a = 1;", true, "trailing semicolon"},
		{"DROP TABLE t", false, "unsupported"},
		{"SELECT FROM t", false, "missing projection"},
		{"INSERT INTO t VALUES (", false, "unterminated"},
		{"CREATE TABLE t ()", false, "no columns"},
		{"SELECT * FROM t WHERE a = 'unterminated", false, "bad string"},
		{"SELECT * FROM t extra", false, "trailing garbage"},
	}
	for _, tt := range tests {
		t.Run(tt.desc, func(t *testing.T) {
			_, err := minidb.Parse(tt.sql)
			if tt.ok && err != nil {
				t.Fatalf("parse %q: %v", tt.sql, err)
			}
			if !tt.ok && err == nil {
				t.Fatalf("parse %q succeeded", tt.sql)
			}
		})
	}
}

func TestEngineCRUD(t *testing.T) {
	eng, _ := newNativeEngine(t)
	if _, err := eng.Exec("CREATE TABLE users (name, age)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sql := fmt.Sprintf("INSERT INTO users VALUES ('user%d', %d)", i, 20+i)
		res, err := eng.Exec(sql)
		if err != nil {
			t.Fatal(err)
		}
		if res.RowsAffected != 1 {
			t.Fatalf("rows affected = %d", res.RowsAffected)
		}
	}
	res, err := eng.Exec("SELECT COUNT(*) FROM users")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 10 {
		t.Fatalf("count = %d, want 10", res.Count)
	}
	res, err = eng.Exec("SELECT * FROM users WHERE name = 'user3'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Int != 23 {
		t.Fatalf("where result = %+v", res.Rows)
	}
	res, err = eng.Exec("SELECT COUNT(*) FROM users WHERE age = 25")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("count where = %d", res.Count)
	}
}

func TestEngineErrors(t *testing.T) {
	eng, _ := newNativeEngine(t)
	if _, err := eng.Exec("INSERT INTO ghost VALUES (1)"); err == nil {
		t.Fatal("insert into missing table succeeded")
	}
	if _, err := eng.Exec("CREATE TABLE t (a)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec("CREATE TABLE t (a)"); err == nil {
		t.Fatal("duplicate create succeeded")
	}
	if _, err := eng.Exec("INSERT INTO t VALUES (1, 2)"); err == nil {
		t.Fatal("column count mismatch accepted")
	}
	if _, err := eng.Exec("SELECT * FROM t WHERE ghost = 1"); err == nil {
		t.Fatal("unknown column accepted")
	}
}

func TestEngineMultiPageGrowth(t *testing.T) {
	eng, _ := newNativeEngine(t)
	if _, err := eng.Exec("CREATE TABLE big (payload)"); err != nil {
		t.Fatal(err)
	}
	// ~400 bytes per row: a few hundred rows span many pages.
	payload := strings.Repeat("x", 400)
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO big VALUES ('%s%d')", payload, i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Exec("SELECT COUNT(*) FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != n {
		t.Fatalf("count = %d, want %d", res.Count, n)
	}
	// Every row must be retrievable from the last page too.
	res, err = eng.Exec(fmt.Sprintf("SELECT * FROM big WHERE payload = '%s%d'", payload, n-1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("last row not found")
	}
}

func TestEnginePersistsAcrossReopen(t *testing.T) {
	h, err := host.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("db")
	vfs := minidb.NewDirectVFS(h.Kernel.FS, ctx)
	eng, err := minidb.NewEngine(vfs, "persist.db", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec("CREATE TABLE kv (k, v)"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Exec("INSERT INTO kv VALUES ('a', 1)"); err != nil {
		t.Fatal(err)
	}
	// Reopen: catalog and data must come back from the file.
	eng2, err := minidb.NewEngine(vfs, "persist.db", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng2.Exec("SELECT COUNT(*) FROM kv")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("count after reopen = %d", res.Count)
	}
}

func TestPagerRollback(t *testing.T) {
	h, err := host.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("db")
	vfs := minidb.NewDirectVFS(h.Kernel.FS, ctx)
	p, err := minidb.OpenPager(vfs, "roll.db")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	n, err := p.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	pg, err := p.Write(n)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg[100:], "committed")
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}

	// Modify and roll back.
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	pg, err = p.Write(n)
	if err != nil {
		t.Fatal(err)
	}
	copy(pg[100:], "discarded")
	if _, err := p.Allocate(); err != nil {
		t.Fatal(err)
	}
	if err := p.Rollback(); err != nil {
		t.Fatal(err)
	}
	got, err := p.Get(n)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[100:109]) != "committed" {
		t.Fatalf("page after rollback: %q", got[100:109])
	}
	if p.PageCount() != n+1 {
		t.Fatalf("page count after rollback = %d, want %d", p.PageCount(), n+1)
	}
	// Pager usable again after rollback.
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestPagerTxnDiscipline(t *testing.T) {
	h, _ := host.New()
	ctx := h.NewContext("db")
	p, err := minidb.OpenPager(minidb.NewDirectVFS(h.Kernel.FS, ctx), "disc.db")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Write(0); err == nil {
		t.Fatal("write outside txn succeeded")
	}
	if err := p.Commit(); err == nil {
		t.Fatal("commit outside txn succeeded")
	}
	if err := p.Begin(); err != nil {
		t.Fatal(err)
	}
	if err := p.Begin(); err == nil {
		t.Fatal("nested txn succeeded")
	}
}

func newWorkload(t *testing.T, variant minidb.Variant) (*host.Host, *sgx.Context, *minidb.Workload) {
	t.Helper()
	h, err := host.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("driver")
	w, err := minidb.New(h, variant, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return h, ctx, w
}

func TestWorkloadCorrectAcrossVariants(t *testing.T) {
	for _, v := range minidb.Variants() {
		v := v
		t.Run(string(v), func(t *testing.T) {
			_, ctx, w := newWorkload(t, v)
			res, err := w.Run(ctx, workloads.Options{Ops: 50})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != 50 {
				t.Fatalf("ops = %d", res.Ops)
			}
			count, err := w.Exec(ctx, "SELECT COUNT(*) FROM commits")
			if err != nil {
				t.Fatal(err)
			}
			if count.Count != 50 {
				t.Fatalf("count = %d, want 50", count.Count)
			}
		})
	}
}

func TestVariantOrderingMatchesPaper(t *testing.T) {
	// §5.2.2: native ≈23,087 req/s; enclavised ≈0.57×; merged recovers
	// ≈+33%.
	rates := map[minidb.Variant]float64{}
	for _, v := range minidb.Variants() {
		_, ctx, w := newWorkload(t, v)
		res, err := w.Run(ctx, workloads.Options{Ops: 400})
		if err != nil {
			t.Fatal(err)
		}
		rates[v] = res.Throughput()
	}
	native, enclave, merged := rates[minidb.VariantNative], rates[minidb.VariantEnclave], rates[minidb.VariantMerged]
	if !(native > merged && merged > enclave) {
		t.Fatalf("ordering wrong: native=%.0f merged=%.0f enclave=%.0f", native, merged, enclave)
	}
	if native < 12000 || native > 40000 {
		t.Errorf("native = %.0f inserts/s, want ≈23k", native)
	}
	if ratio := enclave / native; ratio < 0.35 || ratio > 0.75 {
		t.Errorf("enclave/native = %.2f, want ≈0.57", ratio)
	}
	if gain := merged/enclave - 1; gain < 0.15 || gain > 0.55 {
		t.Errorf("merged gain = %.0f%%, want ≈33%%", gain*100)
	}
}

func TestEnclaveCallShapeAndSDSCDetection(t *testing.T) {
	// §5.2.2: lseek ocalls are short (≈4µs), writes longer (≈17µs), and
	// sgx-perf's analyser flags the lseek→write merge.
	h, err := host.New()
	if err != nil {
		t.Fatal(err)
	}
	l, err := logger.Attach(h, logger.Options{Workload: "sqlite"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("driver")
	w, err := minidb.New(h, minidb.VariantEnclave, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(ctx, workloads.Options{Ops: 200}); err != nil {
		t.Fatal(err)
	}

	trace := l.Trace()
	lseeks := trace.Ocalls.Count(func(e events.CallEvent) bool { return e.Name == minidb.OcallLseek })
	writes := trace.Ocalls.Count(func(e events.CallEvent) bool { return e.Name == minidb.OcallWrite })
	fsyncs := trace.Ocalls.Count(func(e events.CallEvent) bool { return e.Name == minidb.OcallFsync })
	if lseeks == 0 || writes == 0 || fsyncs == 0 {
		t.Fatalf("ocall mix: lseek=%d write=%d fsync=%d", lseeks, writes, fsyncs)
	}
	if lseeks < writes {
		t.Errorf("lseek (%d) should be at least as frequent as write (%d)", lseeks, writes)
	}

	a, err := analyzer.New(trace, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	report := a.Analyze()
	// lseek is much shorter than write on average.
	ls, _ := report.StatsFor(minidb.OcallLseek)
	ws, _ := report.StatsFor(minidb.OcallWrite)
	if ls.Mean >= ws.Mean {
		t.Errorf("lseek mean %v not shorter than write mean %v", ls.Mean, ws.Mean)
	}

	merge := false
	for _, f := range report.Findings {
		if f.Problem == analyzer.ProblemSDSC &&
			((f.Call == minidb.OcallWrite && f.Partner == minidb.OcallLseek) ||
				(f.Call == minidb.OcallLseek && f.Partner == minidb.OcallWrite)) {
			merge = true
		}
	}
	if !merge {
		t.Errorf("analyser did not flag the lseek+write merge; findings: %+v", report.Findings)
	}
}

func TestMergedVariantEliminatesPairs(t *testing.T) {
	h, err := host.New()
	if err != nil {
		t.Fatal(err)
	}
	l, err := logger.Attach(h, logger.Options{Workload: "sqlite-merged"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("driver")
	w, err := minidb.New(h, minidb.VariantMerged, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Run(ctx, workloads.Options{Ops: 100}); err != nil {
		t.Fatal(err)
	}
	trace := l.Trace()
	mergedCalls := trace.Ocalls.Count(func(e events.CallEvent) bool { return e.Name == minidb.OcallLseekWrite })
	writes := trace.Ocalls.Count(func(e events.CallEvent) bool { return e.Name == minidb.OcallWrite })
	if mergedCalls == 0 {
		t.Fatal("merged variant issued no merged ocalls")
	}
	if writes != 0 {
		t.Fatalf("merged variant still issued %d separate writes", writes)
	}
}

func TestEngineDelete(t *testing.T) {
	eng, _ := newNativeEngine(t)
	if _, err := eng.Exec("CREATE TABLE t (name, n)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO t VALUES ('row%d', %d)", i, i%4)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Exec("DELETE FROM t WHERE n = 2")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 5 {
		t.Fatalf("deleted %d rows, want 5", res.RowsAffected)
	}
	count, err := eng.Exec("SELECT COUNT(*) FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if count.Count != 15 {
		t.Fatalf("count = %d, want 15", count.Count)
	}
	if c, _ := eng.Exec("SELECT COUNT(*) FROM t WHERE n = 2"); c.Count != 0 {
		t.Fatalf("deleted rows still present: %d", c.Count)
	}
	// DELETE without WHERE empties the table.
	if res, err = eng.Exec("DELETE FROM t"); err != nil || res.RowsAffected != 15 {
		t.Fatalf("delete all = %+v, %v", res, err)
	}
	if c, _ := eng.Exec("SELECT COUNT(*) FROM t"); c.Count != 0 {
		t.Fatalf("table not empty: %d", c.Count)
	}
	// Table still usable afterwards.
	if _, err := eng.Exec("INSERT INTO t VALUES ('fresh', 1)"); err != nil {
		t.Fatal(err)
	}
	if c, _ := eng.Exec("SELECT COUNT(*) FROM t"); c.Count != 1 {
		t.Fatalf("count after reinsert = %d", c.Count)
	}
}

func TestEngineUpdate(t *testing.T) {
	eng, _ := newNativeEngine(t)
	if _, err := eng.Exec("CREATE TABLE users (name, age)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO users VALUES ('u%d', %d)", i, 20+i)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Exec("UPDATE users SET age = 99 WHERE name = 'u3'")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("updated %d rows", res.RowsAffected)
	}
	row, err := eng.Exec("SELECT * FROM users WHERE name = 'u3'")
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Rows) != 1 || row.Rows[0][1].Int != 99 {
		t.Fatalf("row = %+v", row.Rows)
	}
	// Multi-assignment update of everything.
	res, err = eng.Exec("UPDATE users SET age = 1, name = 'same'")
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 10 {
		t.Fatalf("updated %d rows, want 10", res.RowsAffected)
	}
	if c, _ := eng.Exec("SELECT COUNT(*) FROM users WHERE name = 'same'"); c.Count != 10 {
		t.Fatalf("count = %d", c.Count)
	}
	// Unknown column rejected.
	if _, err := eng.Exec("UPDATE users SET ghost = 1"); err == nil {
		t.Fatal("unknown SET column accepted")
	}
	if _, err := eng.Exec("UPDATE users SET age = 1 WHERE ghost = 1"); err == nil {
		t.Fatal("unknown WHERE column accepted")
	}
}

func TestEngineUpdateGrowingRowOverflows(t *testing.T) {
	// Updating a row so it no longer fits its page must relocate it, not
	// lose it.
	eng, _ := newNativeEngine(t)
	if _, err := eng.Exec("CREATE TABLE t (k, payload)"); err != nil {
		t.Fatal(err)
	}
	// Fill a page nearly to the brim with mid-sized rows.
	pad := strings.Repeat("x", 360)
	for i := 0; i < 11; i++ {
		if _, err := eng.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, '%s')", i, pad)); err != nil {
			t.Fatal(err)
		}
	}
	// Grow one row by 3 KiB: the rewritten page cannot hold it.
	big := strings.Repeat("y", 3200)
	res, err := eng.Exec(fmt.Sprintf("UPDATE t SET payload = '%s' WHERE k = 5", big))
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAffected != 1 {
		t.Fatalf("affected = %d", res.RowsAffected)
	}
	row, err := eng.Exec("SELECT * FROM t WHERE k = 5")
	if err != nil {
		t.Fatal(err)
	}
	if len(row.Rows) != 1 || row.Rows[0][1].Str != big {
		t.Fatalf("relocated row lost or corrupted (%d rows)", len(row.Rows))
	}
	if c, _ := eng.Exec("SELECT COUNT(*) FROM t"); c.Count != 11 {
		t.Fatalf("count = %d, want 11", c.Count)
	}
}

func TestDeleteUpdateThroughEnclaveVariant(t *testing.T) {
	_, ctx, w := newWorkload(t, minidb.VariantEnclave)
	if _, err := w.Exec(ctx, "CREATE TABLE kv (k, v)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := w.Exec(ctx, fmt.Sprintf("INSERT INTO kv VALUES (%d, %d)", i, i)); err != nil {
			t.Fatal(err)
		}
	}
	if res, err := w.Exec(ctx, "UPDATE kv SET v = 100 WHERE k = 3"); err != nil || res.RowsAffected != 1 {
		t.Fatalf("update: %+v, %v", res, err)
	}
	if res, err := w.Exec(ctx, "DELETE FROM kv WHERE k = 0"); err != nil || res.RowsAffected != 1 {
		t.Fatalf("delete: %+v, %v", res, err)
	}
	if c, err := w.Exec(ctx, "SELECT COUNT(*) FROM kv"); err != nil || c.Count != 5 {
		t.Fatalf("count: %+v, %v", c, err)
	}
}
