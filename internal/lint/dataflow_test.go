package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

// --- lockorder ------------------------------------------------------------

// The acceptance fixture: A→B in one function, B→A in another.
const inversionSrc = `package locks

import "sync"

type server struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *server) forward() {
	s.a.Lock()
	defer s.a.Unlock()
	s.b.Lock()
	defer s.b.Unlock()
}

func (s *server) backward() {
	s.b.Lock()
	defer s.b.Unlock()
	s.a.Lock()
	defer s.a.Unlock()
}
`

func TestLockOrderReportsInversion(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/locks/locks.go": inversionSrc})
	diags, err := Run(root, []*Analyzer{LockOrder})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want 1 cycle", messages(diags))
	}
	msg := diags[0].Message
	for _, want := range []string{"lock-order cycle", "server.a", "server.b", "forward", "backward"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("cycle report missing %q: %s", want, msg)
		}
	}
}

func TestLockOrderConsistentOrderPasses(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/locks/locks.go": `package locks

import "sync"

type server struct {
	a sync.Mutex
	b sync.Mutex
}

func (s *server) one() {
	s.a.Lock()
	s.b.Lock()
	s.b.Unlock()
	s.a.Unlock()
}

func (s *server) two() {
	s.a.Lock()
	defer s.a.Unlock()
	s.b.Lock()
	defer s.b.Unlock()
}
`})
	diags, err := Run(root, []*Analyzer{LockOrder})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("consistent order flagged: %v", messages(diags))
	}
}

// Instances must unify: the same field on two different receivers is one
// lock, so self-edges (a→a) must not be reported as cycles.
func TestLockOrderInstancesUnify(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/locks/locks.go": `package locks

import "sync"

type node struct {
	mu sync.Mutex
}

func transfer(from, to *node) {
	from.mu.Lock()
	defer from.mu.Unlock()
	to.mu.Lock()
	defer to.mu.Unlock()
}
`})
	diags, err := Run(root, []*Analyzer{LockOrder})
	if err != nil {
		t.Fatal(err)
	}
	// transfer(x, y) + transfer(y, x) deadlocks for real, but by
	// declaration the edge is node.mu→node.mu: identical IDs are skipped
	// rather than reported as a self-cycle (instance-level order needs
	// runtime identity the static pass does not have).
	if len(diags) != 0 {
		t.Fatalf("same-field self edge flagged: %v", messages(diags))
	}
}

func TestLockOrderCrossPackageCycle(t *testing.T) {
	root := writeTree(t, map[string]string{
		"pkg/a/a.go": `package a

import "sync"

var MuA sync.Mutex
var MuB sync.Mutex

func Forward() {
	MuA.Lock()
	defer MuA.Unlock()
	MuB.Lock()
	defer MuB.Unlock()
}
`,
		"pkg/b/b.go": `package b

import "lintfixture/pkg/a"

func Backward() {
	a.MuB.Lock()
	defer a.MuB.Unlock()
	a.MuA.Lock()
	defer a.MuA.Unlock()
}
`,
	})
	diags, err := Run(root, []*Analyzer{LockOrder})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "lock-order cycle") {
		t.Fatalf("cross-package inversion not reported: %v", messages(diags))
	}
}

func TestLockOrderDirectiveExemptsEdge(t *testing.T) {
	// The directive sits on the line above the inverted acquisition.
	src := strings.Replace(inversionSrc,
		"\tdefer s.b.Unlock()\n\ts.a.Lock()",
		"\tdefer s.b.Unlock()\n\t//sgxperf:lockorder b precedes a on the drain path by design\n\ts.a.Lock()", 1)
	root := writeTree(t, map[string]string{"pkg/locks/locks.go": src})
	diags, err := Run(root, []*Analyzer{LockOrder})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("annotated hierarchy still flagged: %v", messages(diags))
	}
}

func TestLockOrderDirectiveNeedsJustification(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/locks/locks.go": `package locks

import "sync"

var a, b sync.Mutex

func f() {
	a.Lock()
	//sgxperf:lockorder
	b.Lock()
	b.Unlock()
	a.Unlock()
}
`})
	diags, err := Run(root, []*Analyzer{LockOrder})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "justification") {
		t.Fatalf("unjustified directive not flagged: %v", messages(diags))
	}
}

func TestLockOrderStaleDirective(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/locks/locks.go": `package locks

import "sync"

var a sync.Mutex

func f() {
	//sgxperf:lockorder nothing is nested here
	a.Lock()
	a.Unlock()
}
`})
	diags, err := Run(root, []*Analyzer{LockOrder})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "stale") {
		t.Fatalf("stale directive not flagged: %v", messages(diags))
	}
}

// --- heldacross -----------------------------------------------------------

// The acceptance fixture: a mutex held across a channel send.
const heldSendSrc = `package held

import "sync"

type q struct {
	mu  sync.Mutex
	out chan int
	n   int
}

func (s *q) push(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	s.out <- v
}
`

func TestHeldAcrossChannelSend(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/held/held.go": heldSendSrc})
	diags, err := Run(root, []*Analyzer{HeldAcross})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want 1", messages(diags))
	}
	msg := diags[0].Message
	for _, want := range []string{"q.mu", "channel send", "push"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("report missing %q: %s", want, msg)
		}
	}
}

func TestHeldAcrossReleaseBeforeSendPasses(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/held/held.go": `package held

import "sync"

type q struct {
	mu  sync.Mutex
	out chan int
	n   int
}

func (s *q) push(v int) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.out <- v
}
`})
	diags, err := Run(root, []*Analyzer{HeldAcross})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("release-before-send flagged: %v", messages(diags))
	}
}

// Must-hold join: a lock released on every path before the boundary is
// not held at it, even when one branch returns early.
func TestHeldAcrossBranchJoin(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/held/held.go": `package held

import "sync"

type q struct {
	mu  sync.Mutex
	out chan int
	n   int
}

func (s *q) push(v int) {
	s.mu.Lock()
	if s.n == 0 {
		s.mu.Unlock()
		return
	}
	s.n++
	s.mu.Unlock()
	s.out <- v
}
`})
	diags, err := Run(root, []*Analyzer{HeldAcross})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("joined-release flagged: %v", messages(diags))
	}
}

// A call into a function that transitively blocks is a boundary too.
func TestHeldAcrossTransitiveBlockingCall(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/held/held.go": `package held

import "sync"

type q struct {
	mu  sync.Mutex
	out chan int
}

func (s *q) emit(v int) {
	s.forward(v)
}

func (s *q) forward(v int) {
	s.out <- v
}

func (s *q) push(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.emit(v)
}
`})
	diags, err := Run(root, []*Analyzer{HeldAcross})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want 1", messages(diags))
	}
	if !strings.Contains(diags[0].Message, "may block") {
		t.Fatalf("report does not explain the transitive chain: %s", diags[0].Message)
	}
}

// TestGenericCalleesResolveToDeclaredSummaries calls blocking and
// dispatching generic functions and methods every way Go spells them. A
// method of an instantiated type and an explicit instantiation resolve
// to the summary of the generic declaration, as the non-generic and the
// implicitly instantiated calls do, so heldacross reports all four held
// sends and transamp the looped call into a dispatching generic method.
func TestGenericCalleesResolveToDeclaredSummaries(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/sdk/sdk.go": sdkStub,
		"internal/workloads/gen/gen.go": `package gen

import (
	"sync"

	"lintfixture/internal/sdk"
)

type Queue[T any] struct{ ch chan T }

func (q *Queue[T]) Push(v T) { q.ch <- v }

func Send[T any](c chan T, v T) { c <- v }

type plain struct{ ch chan int }

func (p *plain) Push(v int) { p.ch <- v }

type server struct {
	mu sync.Mutex
	q  *Queue[int]
	p  *plain
	c  chan int
}

func (s *server) instantiatedMethod() {
	s.mu.Lock()
	s.q.Push(1)
	s.mu.Unlock()
}

func (s *server) explicitInstantiation() {
	s.mu.Lock()
	Send[int](s.c, 1)
	s.mu.Unlock()
}

func (s *server) implicitInstantiation() {
	s.mu.Lock()
	Send(s.c, 1)
	s.mu.Unlock()
}

func (s *server) nonGeneric() {
	s.mu.Lock()
	s.p.Push(1)
	s.mu.Unlock()
}

type Batch[T any] struct{ env *sdk.Env }

func (b *Batch[T]) Put(v T) { b.env.Ocall("ocall_put", v) }

func drain(b *Batch[int], items []int) {
	for _, v := range items {
		b.Put(v)
	}
}
`,
	})
	diags, err := Run(root, []*Analyzer{HeldAcross, TransAmp})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"heldacross:" + "(*lintfixture/internal/workloads/gen.Queue[T]).Push" + ":instantiatedMethod",
		"heldacross:lintfixture/internal/workloads/gen.Send:explicitInstantiation",
		"heldacross:lintfixture/internal/workloads/gen.Send:implicitInstantiation",
		"heldacross:(*lintfixture/internal/workloads/gen.plain).Push:nonGeneric",
		"transamp:(*lintfixture/internal/workloads/gen.Batch[T]).Put:drain",
	}
	if len(diags) != len(want) {
		t.Fatalf("diagnostics = %v, want %d", messages(diags), len(want))
	}
	for i, d := range diags {
		parts := strings.SplitN(want[i], ":", 3)
		if d.Analyzer != parts[0] || !strings.Contains(d.Message, parts[1]) || !strings.Contains(d.Message, parts[2]) {
			t.Errorf("diagnostic %d = %s: %s, want %s naming %s in %s", i, d.Analyzer, d.Message, parts[0], parts[1], parts[2])
		}
	}
}

// cond.Wait holding exactly the cond's lock is the contract, not a bug;
// a second lock held across the wait is one.
func TestHeldAcrossCondWaitContract(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/held/held.go": `package held

import "sync"

type q struct {
	mu    sync.Mutex
	extra sync.Mutex
	cond  *sync.Cond
	n     int
}

func (s *q) waitFine() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.n == 0 {
		s.cond.Wait()
	}
}

func (s *q) waitBad() {
	s.extra.Lock()
	defer s.extra.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.n == 0 {
		s.cond.Wait()
	}
}
`})
	diags, err := Run(root, []*Analyzer{HeldAcross})
	if err != nil {
		t.Fatal(err)
	}
	// Both held locks hit the same boundary line; dedupe keeps one
	// diagnostic per (file, line, analyzer).
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want 1 (at the two-lock wait)", messages(diags))
	}
	if !strings.Contains(diags[0].Message, "waitBad") {
		t.Fatalf("single-lock cond.Wait flagged: %s", diags[0])
	}
}

// select with a default never parks; without one it does.
func TestHeldAcrossSelect(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/held/held.go": `package held

import "sync"

type q struct {
	mu  sync.Mutex
	out chan int
}

func (s *q) tryPush(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.out <- v:
	default:
	}
}

func (s *q) mustPush(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case s.out <- v:
	}
}
`})
	diags, err := Run(root, []*Analyzer{HeldAcross})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "mustPush") {
		t.Fatalf("diagnostics = %v, want 1 in mustPush only", messages(diags))
	}
}

// Goroutine bodies start with an empty held set: the launch site's locks
// are not held inside the goroutine.
func TestHeldAcrossGoroutineBodyIsSeparate(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/held/held.go": `package held

import "sync"

type q struct {
	mu  sync.Mutex
	out chan int
}

func (s *q) spawn(v int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	go func() {
		s.out <- v
	}()
}
`})
	diags, err := Run(root, []*Analyzer{HeldAcross})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("goroutine body charged with launcher's locks: %v", messages(diags))
	}
}

// Holding a sync.Mutex across an ocall dispatch into the real sdk package
// is the paper's §2.3.2 shape; the report names the ocall when its name
// is a compile-time constant.
func TestHeldAcrossOcallDispatch(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/encl/encl.go": `package encl

import (
	"sync"

	"sgxperf/internal/sdk"
)

type state struct {
	mu sync.Mutex
	n  int
}

func (s *state) audit(env *sdk.Env) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	env.Ocall("ocall_audit_log", s.n)
}
`})
	diags, err := Run(root, []*Analyzer{HeldAcross})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want 1", messages(diags))
	}
	msg := diags[0].Message
	for _, want := range []string{"ocall dispatch", "ocall_audit_log", "state.mu"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("report missing %q: %s", want, msg)
		}
	}
}

func TestHeldAcrossAllowSuppresses(t *testing.T) {
	src := strings.Replace(heldSendSrc, "\ts.out <- v",
		"\t//sgxperf:allow(heldacross) the channel is buffered to len(q) and drained by a dedicated goroutine\n\ts.out <- v", 1)
	root := writeTree(t, map[string]string{"pkg/held/held.go": src})
	diags, err := Run(root, []*Analyzer{HeldAcross})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("justified allow did not suppress: %v", messages(diags))
	}
}

func TestAllowWithoutJustification(t *testing.T) {
	src := strings.Replace(heldSendSrc, "\ts.out <- v",
		"\t//sgxperf:allow(heldacross)\n\ts.out <- v", 1)
	root := writeTree(t, map[string]string{"pkg/held/held.go": src})
	diags, err := Run(root, []*Analyzer{HeldAcross})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "justification") {
		t.Fatalf("bare allow not flagged: %v", messages(diags))
	}
}

func TestStaleAllowIsFlagged(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/held/held.go": `package held

//sgxperf:allow(heldacross) nothing here blocks any more
func fine() {}
`})
	diags, err := Run(root, []*Analyzer{HeldAcross})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "stale") {
		t.Fatalf("stale allow not flagged: %v", messages(diags))
	}
}

// --- atomicmix ------------------------------------------------------------

func TestAtomicMixFlagsMixedField(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/mix/mix.go": `package mix

import "sync/atomic"

type counter struct {
	n    int64
	safe atomic.Int64
}

func (c *counter) inc() {
	atomic.AddInt64(&c.n, 1)
}

func (c *counter) read() int64 {
	return c.n // plain read of an atomically-written field
}

func (c *counter) fine() int64 {
	c.safe.Add(1) // atomic value type: methods only, cannot be mixed
	return c.safe.Load()
}
`})
	diags, err := Run(root, []*Analyzer{AtomicMix})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want 1", messages(diags))
	}
	if !strings.Contains(diags[0].Message, "field n") {
		t.Fatalf("report does not name the field: %s", diags[0].Message)
	}
}

func TestAtomicMixConsistentAtomicPasses(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/mix/mix.go": `package mix

import "sync/atomic"

type counter struct {
	n int64
}

func (c *counter) inc() {
	atomic.AddInt64(&c.n, 1)
}

func (c *counter) read() int64 {
	return atomic.LoadInt64(&c.n)
}
`})
	diags, err := Run(root, []*Analyzer{AtomicMix})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("consistent atomic use flagged: %v", messages(diags))
	}
}

// atomic.Pointer.Store(&x) stores the address as a value; x is not being
// atomically accessed and plain use of it stays legal.
func TestAtomicMixIgnoresAtomicValueMethods(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/mix/mix.go": `package mix

import "sync/atomic"

type registry struct {
	table atomic.Pointer[map[string]int]
}

func (r *registry) set(m map[string]int) {
	next := make(map[string]int, len(m))
	for k, v := range m {
		next[k] = v
	}
	r.table.Store(&next)
}
`})
	diags, err := Run(root, []*Analyzer{AtomicMix})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("atomic.Pointer.Store operand flagged: %v", messages(diags))
	}
}

func TestAtomicMixPackageVariable(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/mix/mix.go": `package mix

import "sync/atomic"

var hits int64

func inc() {
	atomic.AddInt64(&hits, 1)
}

func reset() {
	hits = 0 // plain store racing the atomic adds
}
`})
	diags, err := Run(root, []*Analyzer{AtomicMix})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "variable hits") {
		t.Fatalf("mixed package var not reported: %v", messages(diags))
	}
}

// A mixed field declared in the standard library has no position in the
// tree's FileSet (the shared GOROOT table owns it), so the report lands
// on the first atomic access in the tree instead of the declaration.
func TestAtomicMixOutOfTreeFieldReportedAtAccess(t *testing.T) {
	root := writeTree(t, map[string]string{"pkg/mix/mix.go": `package mix

import (
	"runtime"
	"sync/atomic"
)

var stats runtime.MemStats

func bump() {
	atomic.AddUint64(&stats.Alloc, 1)
}

func reset() {
	stats.Alloc = 0
}
`})
	diags, err := Run(root, []*Analyzer{AtomicMix})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "field Alloc") {
		t.Fatalf("mixed standard-library field not reported: %v", messages(diags))
	}
	if got := diags[0].Pos; filepath.Base(got.Filename) != "mix.go" || got.Line != 11 {
		t.Errorf("reported at %s, want mix.go:11 (the atomic access)", got)
	}
}

// --- AnalyzeSyncTree (the raw API staticlint consumes) --------------------

func TestAnalyzeSyncReportsHoldsAndCycles(t *testing.T) {
	root := writeTree(t, map[string]string{
		"pkg/locks/locks.go": inversionSrc,
		"pkg/held/held.go":   heldSendSrc,
	})
	tree, err := LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeSyncTree(tree, nil)
	if len(rep.Cycles) != 1 {
		t.Fatalf("cycles = %+v, want 1", rep.Cycles)
	}
	if len(rep.Held) != 1 {
		t.Fatalf("held sites = %+v, want 1", rep.Held)
	}
	h := rep.Held[0]
	if h.Lock.Field != "mu" || h.Boundary != "channel send" || h.Func != "q.push" {
		t.Fatalf("held site = %+v", h)
	}
	// Scoping: restrict to a directory with no findings.
	rep = AnalyzeSyncTree(tree, []string{"pkg/none"})
	if len(rep.Cycles)+len(rep.Held) != 0 {
		t.Fatalf("scoped run found %+v", rep)
	}
}
