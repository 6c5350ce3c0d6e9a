package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	apiv1 "sgxperf/api/v1"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
)

// spec is BENCHMARK.json.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range keys {
		got = append(got, k)
	}
	sort.Strings(got)
	if want := "command,end_to_end,paths,per_layer,run_seconds,workloads"; strings.Join(got, ",") != want {
		t.Fatalf("BENCHMARK.json keys = %v, want %s", got, want)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s spec
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSpec checks BENCHMARK.json against the limits it must meet and
// against the metrics and workloads this program actually has.
func TestSpec(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) < 2 || len(s.Workloads) > 8 {
		t.Errorf("%d workloads, want 2 to 8", len(s.Workloads))
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", len(s.EndToEnd))
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", len(s.PerLayer))
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds = %d, want 1 to 60", s.RunSeconds)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var loads []string
	for _, w := range s.Workloads {
		name(w.Name)
		loads = append(loads, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	sort.Strings(loads)
	if strings.Join(loads, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program workloads %v", loads, workloadNames())
	}
	setup := false
	for _, m := range s.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end-to-end %s: unit %q, better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound must be in (0, 0.25]", m.Name)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range s.EndToEnd {
				if *o.Bound > *m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s has %v)", *m.Bound, o.Name, *o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range s.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != nil {
			t.Errorf("per-layer %s: unit %q, better %q, bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
	}
	for _, p := range s.Paths {
		if strings.HasPrefix(p, "/") || strings.Contains(p, "..") {
			t.Errorf("path %q leaves the repository", p)
		}
	}
}

// TestWorkloadsSmoke runs every workload at a tiny size, untraced and
// traced: each must pass its own output checks and print exactly the
// metrics BENCHMARK.json lists for that mode, with their units.
func TestWorkloadsSmoke(t *testing.T) {
	s := loadSpec(t)
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 7, budget: 50 * time.Millisecond, trace: trace, work: t.TempDir(), size: tinySizes}
			out, err := execute(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var buf bytes.Buffer
			if err := out.report(cfg, &buf); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var last struct {
				Correct   bool              `json:"correct"`
				Attempted int               `json:"attempted"`
				Failed    int               `json:"failed"`
				Metrics   map[string]metric `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&last); err != nil {
				t.Fatalf("%s trace=%v: last line: %v", name, trace, err)
			}
			if !last.Correct || last.Failed != 0 || last.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d: %v",
					name, trace, last.Correct, last.Attempted, last.Failed, out.res.problems)
			}
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, trace, len(last.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := last.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
				if !trace && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", name, m.Name)
				}
			}
		}
	}
}

// TestGeneratorsAreSeeded checks the input generators: one seed gives
// byte-identical trace files and source trees, another seed different
// bytes.
func TestGeneratorsAreSeeded(t *testing.T) {
	traceFile := func(seed uint64, sorted bool) []byte {
		g := newTraceGen(seed)
		tr, err := g.base(3000, sorted)
		if err != nil {
			t.Fatal(err)
		}
		d, err := g.delta(100, sorted)
		if err != nil {
			t.Fatal(err)
		}
		appendTo(tr, d)
		path := filepath.Join(t.TempDir(), "t.evc")
		if err := tr.SaveFile(path); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	for _, sorted := range []bool{false, true} {
		if !bytes.Equal(traceFile(3, sorted), traceFile(3, sorted)) {
			t.Errorf("sorted=%v: seed 3 gave two different trace files", sorted)
		}
		if bytes.Equal(traceFile(3, sorted), traceFile(4, sorted)) {
			t.Errorf("sorted=%v: seeds 3 and 4 gave the same trace file", sorted)
		}
	}

	size := treeSize{pkgs: 2, fillers: 2}
	a, err := genTree(5, size)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genTree(5, size)
	c, _ := genTree(6, size)
	same, differ := true, false
	for path, src := range a.files {
		same = same && b.files[path] == src
		differ = differ || c.files[path] != src
	}
	if !same || len(a.files) != len(b.files) || a.editFile != b.editFile {
		t.Error("seed 5 gave two different source trees")
	}
	if !differ {
		t.Error("seeds 5 and 6 gave the same source tree")
	}
	if len(a.plants) != 10*size.pkgs {
		t.Errorf("%d planted violations, want %d", len(a.plants), 10*size.pkgs)
	}
}

// TestDeltasKeepSortedTracesSorted checks the property the serve workload
// relies on: sorted deltas appended to a sorted trace leave it foldable,
// with the resident report, while an unsorted trace is refused by the
// fold.
func TestDeltasKeepSortedTracesSorted(t *testing.T) {
	report := func(tr *events.Trace) ([]byte, error) {
		rep, err := analyzer.AnalyzeStream(analyzer.NewTraceSource(tr), analyzer.Options{})
		if err != nil {
			return nil, err
		}
		return apiv1.Marshal(apiv1.FromReport(rep))
	}
	g := newTraceGen(11)
	tr, err := g.base(2000, true)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		d, err := g.delta(150, true)
		if err != nil {
			t.Fatal(err)
		}
		appendTo(tr, d)
	}
	streamed, err := report(tr)
	if err != nil {
		t.Fatalf("fold of a sorted trace with sorted deltas: %v", err)
	}
	a, err := analyzer.New(tr, analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	resident, err := apiv1.Marshal(apiv1.FromReport(a.Analyze()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, resident) {
		t.Error("streamed report differs from the resident report")
	}

	unsorted, err := newTraceGen(11).base(2000, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := report(unsorted); !errors.Is(err, analyzer.ErrUnsorted) {
		t.Errorf("fold of an unsorted trace: err = %v, want ErrUnsorted", err)
	}
}
