package analyzer

import (
	"strconv"
	"strings"
	"testing"

	"sgxperf/internal/perf/events"
	"sgxperf/internal/sgx"
)

func exportFixture(t *testing.T) *Analyzer {
	t.Helper()
	b := newBuilder(t)
	for i := 0; i < 40; i++ {
		b.ecall("e,call \"x\"", 1, float64(i*100), float64(5+i%7), events.NoEvent)
	}
	parent := b.ecall("parent", 2, 10000, 500, events.NoEvent)
	oid := b.ocall("sgx_thread_set_untrusted_event_ocall", 2, 10010, 2, parent)
	b.trace.Syncs.Insert(events.SyncEvent{
		ID: b.trace.NextID(), Kind: events.SyncWake, Thread: 2,
		Targets: []sgx.ThreadID{5}, Time: b.cyc(10010), Call: oid,
	})
	return b.analyze(Options{})
}

func TestStatsCSV(t *testing.T) {
	csv := exportFixture(t).Analyze().StatsCSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	// Header + 3 distinct calls.
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), csv)
	}
	if !strings.HasPrefix(lines[0], "call,kind,count,mean_ns") {
		t.Fatalf("header = %q", lines[0])
	}
	// The comma-and-quote call name must be escaped.
	if !strings.Contains(csv, `"e,call ""x"""`) {
		t.Fatalf("call name not CSV-escaped:\n%s", csv)
	}
	// Every data row has the full column count.
	for _, line := range lines[1:] {
		if n := len(splitCSVRow(line)); n != 15 {
			t.Fatalf("row has %d fields: %q", n, line)
		}
	}
}

// splitCSVRow splits one CSV row honouring quotes (test helper).
func splitCSVRow(line string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(line); i++ {
		c := line[i]
		switch {
		case c == '"':
			inQuote = !inQuote
			cur.WriteByte(c)
		case c == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	out = append(out, cur.String())
	return out
}

func TestHistogramCSV(t *testing.T) {
	a := exportFixture(t)
	csv, err := a.HistogramCSV("e,call \"x\"", 10)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 11 {
		t.Fatalf("lines = %d", len(lines))
	}
	total := 0
	for _, line := range lines[1:] {
		parts := strings.Split(line, ",")
		n, err := strconv.Atoi(parts[2])
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != 40 {
		t.Fatalf("histogram total = %d, want 40", total)
	}
	if _, err := a.HistogramCSV("missing", 10); err == nil {
		t.Fatal("missing call accepted")
	}
}

func TestScatterCSV(t *testing.T) {
	a := exportFixture(t)
	csv, err := a.ScatterCSV("parent")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 2 || lines[0] != "t_since_start_ns,execution_ns" {
		t.Fatalf("csv:\n%s", csv)
	}
	if _, err := a.ScatterCSV("missing"); err == nil {
		t.Fatal("missing call accepted")
	}
}

func TestWakeGraphCSV(t *testing.T) {
	csv := exportFixture(t).Analyze().WakeGraphCSV()
	if !strings.Contains(csv, "2,5,1") {
		t.Fatalf("wake graph csv:\n%s", csv)
	}
}

func TestGnuplotScripts(t *testing.T) {
	hist := GnuplotHistogram("sgx_ecall_handle_input", "h.csv", "h.pdf")
	for _, want := range []string{"pdfcairo", "h.csv", "h.pdf", `sgx\_ecall\_handle\_input`, "with boxes"} {
		if !strings.Contains(hist, want) {
			t.Fatalf("histogram script missing %q:\n%s", want, hist)
		}
	}
	scat := GnuplotScatter("call", "s.csv", "s.pdf")
	for _, want := range []string{"with points", "s.csv", "s.pdf"} {
		if !strings.Contains(scat, want) {
			t.Fatalf("scatter script missing %q:\n%s", want, scat)
		}
	}
}
