package lint

import (
	"strings"
	"testing"
)

// sdkStub is a minimal SDK lookalike: interproc classification is
// name-based (type name + package basename "sdk"), so fixture trees
// exercise the same code paths the real sgxperf/internal/sdk does.
const sdkStub = `package sdk

type Env struct{}

func (e *Env) Ocall(name string, args any) (any, error)   { return nil, nil }
func (e *Env) OcallByID(id uint64, args any) (any, error) { return nil, nil }

type Mutex struct{}

func (m *Mutex) Lock(env *Env) error   { return nil }
func (m *Mutex) Unlock(env *Env) error { return nil }

type TrustedFn func(env *Env, args any) (any, error)

type Proxy func(args any) (any, error)
`

func TestTransAmpFlagsDirectAndTransitiveLoops(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/sdk/sdk.go": sdkStub,
		"internal/workloads/enclave/enclave.go": `package enclave

import "lintfixture/internal/sdk"

// Direct: a counted loop around a dispatch.
func flushAll(env *sdk.Env) error {
	for i := 0; i < 8; i++ {
		if _, err := env.Ocall("ocall_put_chunk", i); err != nil {
			return err
		}
	}
	return nil
}

// Transitive: the loop body calls a helper that dispatches.
func drain(env *sdk.Env, items []int) error {
	for range items {
		if err := putOne(env); err != nil {
			return err
		}
	}
	return nil
}

func putOne(env *sdk.Env) error {
	_, err := env.Ocall("ocall_put_one", nil)
	return err
}

// A single dispatch outside any loop is the fix, not a finding.
func flushOnce(env *sdk.Env) error {
	_, err := env.Ocall("ocall_put_batch", nil)
	return err
}

// Ecall dispatch through a proxy in a loop is the untrusted driver's
// job, not amplification the enclave can batch away.
func drive(p sdk.Proxy) {
	for i := 0; i < 100; i++ {
		p(i)
	}
}
`,
	})
	diags, err := Run(root, []*Analyzer{TransAmp})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("diagnostics = %v, want 2", messages(diags))
	}
	direct, transitive := diags[0], diags[1]
	if !strings.Contains(direct.Message, `ocall "ocall_put_chunk"`) ||
		!strings.Contains(direct.Message, "8 iterations") {
		t.Errorf("direct finding = %q, want ocall_put_chunk at 8 iterations", direct.Message)
	}
	if !strings.Contains(transitive.Message, "putOne") ||
		!strings.Contains(transitive.Message, "transitively dispatches") ||
		!strings.Contains(transitive.Message, "unknown number of iterations") {
		t.Errorf("transitive finding = %q, want looped call into putOne", transitive.Message)
	}
}

func TestTransAmpOutOfScopePackagesAreIgnored(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/sdk/sdk.go": sdkStub,
		"internal/serve/loop.go": `package serve

import "lintfixture/internal/sdk"

func pump(env *sdk.Env) {
	for {
		env.Ocall("ocall_tick", nil)
	}
}
`,
	})
	diags, err := Run(root, []*Analyzer{TransAmp})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("diagnostics = %v, want none outside internal/workloads+internal/sdk", messages(diags))
	}
}

// TestTransAmpSeesCalleesInEveryPackage loops, in a workload, over a
// helper declared outside the reporting scope that dispatches an ocall:
// the looped call is reported, because the call graph the crossings are
// lifted through covers the whole tree, like AnalyzeInterprocTree's.
func TestTransAmpSeesCalleesInEveryPackage(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/sdk/sdk.go": sdkStub,
		"internal/host/host.go": `package host

import "lintfixture/internal/sdk"

func PutOne(env *sdk.Env) error {
	_, err := env.Ocall("ocall_put_one", nil)
	return err
}
`,
		"internal/workloads/w/w.go": `package w

import (
	"lintfixture/internal/host"
	"lintfixture/internal/sdk"
)

func drain(env *sdk.Env, items []int) {
	for range items {
		host.PutOne(env)
	}
}
`,
	})
	diags, err := Run(root, []*Analyzer{TransAmp})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "calls lintfixture/internal/host.PutOne inside a loop") {
		t.Fatalf("diagnostics = %v, want the looped call into host.PutOne", messages(diags))
	}
	tree, err := LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeInterprocTree(tree, TransAmp.Packages)
	if len(rep.Loops) != 1 || rep.Loops[0].Via != "lintfixture/internal/host.PutOne" {
		t.Errorf("loops = %+v, want the same looped call", rep.Loops)
	}
}

func TestDoubleFetchFlagsReReadAcrossCrossing(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/sdk/sdk.go": sdkStub,
		"internal/enclave/handlers.go": `package enclave

import "lintfixture/internal/sdk"

type PutArgs struct {
	Key string
	Len int
}

// The §3.6 shape: a.Len validated before the crossing, trusted again
// after it.
func handlePut(env *sdk.Env, args any) (any, error) {
	a, _ := args.(*PutArgs)
	if a.Len > 64 {
		return nil, nil
	}
	if _, err := env.Ocall("ocall_log", a.Key); err != nil {
		return nil, err
	}
	return a.Len, nil
}

// Copy-once is the fix: every read happens before the dispatch.
func handleGet(env *sdk.Env, args any) (any, error) {
	a, _ := args.(*PutArgs)
	n := a.Len
	if _, err := env.Ocall("ocall_log", a.Key); err != nil {
		return nil, err
	}
	return n, nil
}

// Not a handler shape: boundary tracking does not apply.
func helper(env *sdk.Env, a *PutArgs) (any, error) {
	if a.Len > 64 {
		return nil, nil
	}
	env.Ocall("ocall_log", nil)
	return a.Len, nil
}
`,
	})
	diags, err := Run(root, []*Analyzer{DoubleFetchCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want 1", messages(diags))
	}
	if !strings.Contains(diags[0].Message, "a.Len") ||
		!strings.Contains(diags[0].Message, `ocall "ocall_log"`) ||
		!strings.Contains(diags[0].Message, "handlePut") {
		t.Errorf("finding = %q, want a.Len re-read across ocall_log in handlePut", diags[0].Message)
	}
}

func TestDoubleFetchWriteIsNotARead(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/sdk/sdk.go": sdkStub,
		"internal/enclave/handlers.go": `package enclave

import "lintfixture/internal/sdk"

type Reply struct{ N int }

// Storing the result into the boundary buffer after the crossing is a
// write-back, not a double fetch.
func handle(env *sdk.Env, args any) (any, error) {
	a, _ := args.(*Reply)
	if _, err := env.Ocall("ocall_fill", a.N); err != nil {
		return nil, err
	}
	a.N = 7
	return nil, nil
}
`,
	})
	diags, err := Run(root, []*Analyzer{DoubleFetchCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("diagnostics = %v, want none for a write-back", messages(diags))
	}
}

func TestPtrEscapeFlagsAddressArguments(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/sdk/sdk.go": sdkStub,
		"internal/enclave/share.go": `package enclave

import "lintfixture/internal/sdk"

type state struct{ table [4]int }

type Note struct{ ID int }

var s state

// The untrusted side keeps &s.table after the call returns.
func share(env *sdk.Env) error {
	_, err := env.Ocall("ocall_register", &s.table)
	return err
}

// A fresh composite literal is a value built for the call, not enclave
// state.
func note(env *sdk.Env) error {
	_, err := env.Ocall("ocall_note", &Note{ID: 1})
	return err
}
`,
	})
	diags, err := Run(root, []*Analyzer{PtrEscapeCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want 1", messages(diags))
	}
	if !strings.Contains(diags[0].Message, "&s.table") ||
		!strings.Contains(diags[0].Message, `ocall "ocall_register"`) {
		t.Errorf("finding = %q, want &s.table escaping through ocall_register", diags[0].Message)
	}
}

func TestInterprocAllowSuppressionAndStaleness(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/sdk/sdk.go": sdkStub,
		"internal/workloads/enclave/enclave.go": `package enclave

import "lintfixture/internal/sdk"

func retryWake(env *sdk.Env) error {
	for {
		//sgxperf:allow(transamp) one wake ocall per park round by design
		if _, err := env.Ocall("ocall_wake", nil); err == nil {
			return nil
		}
	}
}

// Nothing to suppress on the next line: both stale.
//sgxperf:allow(doublefetch) justified but pointless
func quiet() {}

//sgxperf:allow(ptrescape) justified but pointless
func alsoQuiet() {}
`,
	})
	diags, err := Run(root, []*Analyzer{TransAmp, DoubleFetchCheck, PtrEscapeCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("diagnostics = %v, want the two stale allows only", messages(diags))
	}
	for i, want := range []string{"doublefetch", "ptrescape"} {
		if !strings.Contains(diags[i].Message, "stale //sgxperf:allow("+want+")") {
			t.Errorf("diags[%d] = %q, want stale %s allow", i, diags[i].Message, want)
		}
	}
}

func TestAnalyzeInterprocPredictions(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/sdk/sdk.go": sdkStub,
		"internal/enclave/enclave.go": `package enclave

import "lintfixture/internal/sdk"

var impls = map[string]sdk.TrustedFn{
	"ecall_flush": handleFlush,
	"ecall_maybe": handleMaybe,
	"ecall_drain": handleDrain,
	"ecall_deep":  handleDeep,
}

// 8 iterations × 1 dispatch: predicted 8, exact.
func handleFlush(env *sdk.Env, args any) (any, error) {
	for i := 0; i < 8; i++ {
		if _, err := env.Ocall("ocall_put", i); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

// Branch-guarded dispatch: predicted 1, conditional.
func handleMaybe(env *sdk.Env, args any) (any, error) {
	if args != nil {
		return env.Ocall("ocall_spill", args)
	}
	return nil, nil
}

// Unknown trip count: predicted counts the site once, loop-unknown.
func handleDrain(env *sdk.Env, args any) (any, error) {
	n, _ := args.(int)
	for n > 0 {
		if _, err := env.Ocall("ocall_pop", nil); err != nil {
			return nil, err
		}
		n--
	}
	return nil, nil
}

// Transitive with multiplication: 3 × (2 × 1) = 6 dispatches.
func handleDeep(env *sdk.Env, args any) (any, error) {
	for i := 0; i < 3; i++ {
		if err := pair(env); err != nil {
			return nil, err
		}
	}
	return nil, nil
}

func pair(env *sdk.Env) error {
	for i := 0; i < 2; i++ {
		if _, err := env.Ocall("ocall_half", i); err != nil {
			return err
		}
	}
	return nil
}
`,
	})
	tree, err := LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeInterprocTree(tree, []string{"internal/enclave"})
	want := []EntryPrediction{
		{Ecall: "ecall_deep", Handler: "handleDeep", Predicted: 6},
		{Ecall: "ecall_drain", Handler: "handleDrain", Predicted: 1, LoopUnknown: true},
		{Ecall: "ecall_flush", Handler: "handleFlush", Predicted: 8},
		{Ecall: "ecall_maybe", Handler: "handleMaybe", Predicted: 1, Conditional: true},
	}
	if len(rep.Entries) != len(want) {
		t.Fatalf("entries = %+v, want %d", rep.Entries, len(want))
	}
	for i, w := range want {
		if rep.Entries[i] != w {
			t.Errorf("entries[%d] = %+v, want %+v", i, rep.Entries[i], w)
		}
	}
	// The loop facts are exported too (handleFlush, handleDrain,
	// handleDeep's call into pair, pair's own loop).
	if len(rep.Loops) != 4 {
		t.Errorf("loops = %+v, want 4", rep.Loops)
	}
}
