package talos_test

import (
	"strings"
	"testing"

	"sgxperf/internal/host"
	"sgxperf/internal/perf/analyzer"
	"sgxperf/internal/perf/events"
	"sgxperf/internal/perf/logger"
	"sgxperf/internal/sgx"
	"sgxperf/internal/workloads"
	"sgxperf/internal/workloads/talos"
)

func newServer(t *testing.T) (*host.Host, *sgx.Context, *talos.Server) {
	t.Helper()
	h, err := host.New()
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("nginx")
	s, err := talos.NewServer(h, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return h, ctx, s
}

func TestServeRequests(t *testing.T) {
	_, ctx, s := newServer(t)
	res, err := s.Run(ctx, workloads.Options{Ops: 25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ops != 25 {
		t.Fatalf("ops = %d", res.Ops)
	}
	if res.Throughput() <= 0 {
		t.Fatal("no throughput")
	}
}

func TestCallShapeMatchesFig5(t *testing.T) {
	// §5.2.1 / Fig. 5: for 1,000 GETs the paper logs 27,631 ecall and
	// 28,969 ocall events across 61 and 10 distinct calls; SSL_read runs
	// ≈5.1× per request, SSL_shutdown exactly 2×, the handshake issues a
	// storm of info-callback ocalls.
	h, err := host.New()
	if err != nil {
		t.Fatal(err)
	}
	l, err := logger.Attach(h, logger.Options{Workload: "talos-nginx"})
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("nginx")
	s, err := talos.NewServer(h, ctx)
	if err != nil {
		t.Fatal(err)
	}
	const reqs = 100
	if _, err := s.Run(ctx, workloads.Options{Ops: reqs}); err != nil {
		t.Fatal(err)
	}

	trace := l.Trace()
	count := func(name string) int {
		return trace.Ecalls.Count(func(e events.CallEvent) bool { return e.Name == name })
	}
	countO := func(name string) int {
		return trace.Ocalls.Count(func(e events.CallEvent) bool { return e.Name == name })
	}
	perReq := func(n int) float64 { return float64(n) / reqs }

	if got := perReq(count(talos.EcallSSLRead)); got < 4.5 || got > 6 {
		t.Errorf("SSL_read per request = %.2f, want ≈5.1", got)
	}
	if got := count(talos.EcallSSLShutdown); got != 2*reqs {
		t.Errorf("SSL_shutdown = %d, want %d", got, 2*reqs)
	}
	for _, name := range []string{
		talos.EcallSSLNew, talos.EcallSSLSetFD, talos.EcallSSLSetAcceptState,
		talos.EcallSSLFree, talos.EcallSSLGetRbio, talos.EcallBIOIntCtrl,
		talos.EcallSSLSetQuietShutdown,
	} {
		if got := count(name); got != reqs {
			t.Errorf("%s = %d, want %d", name, got, reqs)
		}
	}
	if got := count(talos.EcallSSLDoHandshake); got != 2*reqs {
		t.Errorf("SSL_do_handshake = %d, want %d", got, 2*reqs)
	}
	// ERR_clear_error accompanies every read attempt (Fig. 5: same 5,138
	// count as SSL_read).
	if clear, read := count(talos.EcallERRClearError), count(talos.EcallSSLRead); clear < read {
		t.Errorf("ERR_clear_error (%d) should be ≥ SSL_read (%d)", clear, read)
	}
	if got := perReq(countO(talos.OcallInfoCallback)); got < 15 || got > 25 {
		t.Errorf("info callbacks per request = %.1f, want ≈19", got)
	}
	if got := countO(talos.OcallALPNSelect); got != reqs {
		t.Errorf("alpn callbacks = %d, want %d", got, reqs)
	}
	if got := perReq(countO(talos.OcallWrite)); got < 2.5 || got > 4 {
		t.Errorf("write ocalls per request = %.1f, want ≈3.3", got)
	}
	if got := perReq(countO(talos.OcallRead)); got < 2 || got > 7 {
		t.Errorf("read ocalls per request = %.1f", got)
	}

	// Totals land in the paper's order of magnitude: ≈27.6 ecalls and
	// ≈29 ocalls per request.
	if got := perReq(trace.Ecalls.Len()); got < 22 || got > 34 {
		t.Errorf("ecall events per request = %.1f, want ≈27.6", got)
	}
	if got := perReq(trace.Ocalls.Len()); got < 23 || got > 36 {
		t.Errorf("ocall events per request = %.1f, want ≈29", got)
	}

	// Distinct calls: 61 ecalls (14 hot + 46 config + SSL_get_error) and
	// ≈10 ocalls (§5.2.1: "61 and 10 were called").
	distinctE := map[string]bool{}
	for _, e := range trace.Ecalls.Rows() {
		distinctE[e.Name] = true
	}
	distinctO := map[string]bool{}
	for _, o := range trace.Ocalls.Rows() {
		distinctO[o.Name] = true
	}
	if len(distinctE) < 55 || len(distinctE) > 65 {
		t.Errorf("distinct ecalls = %d, want ≈61", len(distinctE))
	}
	if len(distinctO) < 6 || len(distinctO) > 12 {
		t.Errorf("distinct ocalls = %d, want ≈10", len(distinctO))
	}
}

func TestShortCallFractionsMatchPaper(t *testing.T) {
	// §5.2.1: 60.78% of ecalls and 73.69% of ocalls were shorter than
	// 10µs.
	h, err := host.New()
	if err != nil {
		t.Fatal(err)
	}
	l, err := logger.Attach(h, logger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("nginx")
	s, err := talos.NewServer(h, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, workloads.Options{Ops: 100}); err != nil {
		t.Fatal(err)
	}
	a, err := analyzer.New(l.Trace(), analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var shortE, totalE, shortO, totalO float64
	for _, st := range a.Analyze().Stats {
		if st.Kind == events.KindEcall {
			totalE += float64(st.Count)
			shortE += st.FracBelow10us * float64(st.Count)
		} else {
			totalO += float64(st.Count)
			shortO += st.FracBelow10us * float64(st.Count)
		}
	}
	fe, fo := shortE/totalE, shortO/totalO
	if fe < 0.45 || fe > 0.85 {
		t.Errorf("short ecall fraction = %.2f, want ≈0.61", fe)
	}
	if fo < 0.60 || fo > 0.98 {
		t.Errorf("short ocall fraction = %.2f, want ≈0.74", fo)
	}
}

func TestAnalyzerFlagsOpenSSLInterface(t *testing.T) {
	// §5.2.1's conclusion: the OpenSSL interface is unsuitable as an
	// enclave interface — the error-queue ecalls are flagged as trivially
	// short, and a DOT call graph in the Fig. 5 style is produced.
	h, err := host.New()
	if err != nil {
		t.Fatal(err)
	}
	l, err := logger.Attach(h, logger.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := h.NewContext("nginx")
	s, err := talos.NewServer(h, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(ctx, workloads.Options{Ops: 100}); err != nil {
		t.Fatal(err)
	}
	a, err := analyzer.New(l.Trace(), analyzer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	report := a.Analyze()
	flagged := map[string]bool{}
	for _, f := range report.Findings {
		flagged[f.Call] = true
	}
	for _, name := range []string{talos.EcallERRClearError, talos.EcallSSLGetError} {
		if !flagged[name] {
			t.Errorf("short error-queue ecall %s not flagged; findings: %v", name, flagged)
		}
	}
	// The Fig. 5-style graph: square SSL_read node with its ocall edges.
	dot := report.Graph.DOT()
	for _, want := range []string{
		talos.EcallSSLRead, talos.OcallRead, talos.OcallInfoCallback, "style=dashed",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT graph missing %q", want)
		}
	}
	if n, ok := report.Graph.Node(talos.EcallSSLRead); !ok || n.Count == 0 {
		t.Error("SSL_read node missing from the call graph")
	}
	// Direct edges from the handshake ecall to its callback ocalls.
	if c := report.Graph.EdgeCount(talos.EcallSSLDoHandshake, talos.OcallInfoCallback, false); c == 0 {
		t.Error("no handshake→info-callback edges")
	}
}

func TestResponseIntegrity(t *testing.T) {
	// End-to-end: a full request must return the HTTP body to the client
	// intact (exercised inside ServeRequest; corrupting the socket breaks
	// the run).
	_, ctx, s := newServer(t)
	if err := s.ServeRequest(ctx); err != nil {
		t.Fatal(err)
	}
}
