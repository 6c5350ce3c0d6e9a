package lint

import (
	"fmt"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// taintFixture merges the stub sdk/edl packages — the dispatch and
// declaration surfaces the taint engine classifies by name — with the
// test's own enclave sources.
func taintFixture(extra map[string]string) map[string]string {
	files := map[string]string{
		"internal/sdk/env.go": `package sdk

type Env struct{}

func (e *Env) Ocall(name string, args any) (any, error) { return nil, nil }
`,
		"internal/sdk/trusted.go": `package sdk

type TrustedFn func(env *Env, args any) (any, error)
`,
		"internal/edl/edl.go": `package edl

type PtrDir int

const (
	DirValue PtrDir = iota + 1
	DirIn
	DirOut
	DirInOut
	DirUserCheck
)

type Param struct {
	Name string
	Dir  PtrDir
	Size string
}

type Interface struct{}

func New() *Interface { return &Interface{} }

func (i *Interface) AddEcall(name string, public bool, params ...Param) {}

func (i *Interface) AddOcall(name string, allow []string, params ...Param) {}
`,
	}
	for k, v := range extra {
		files[k] = v
	}
	return files
}

// TestSecretFlowWitnessChain proves the engine carries a secret through
// a local copy and an interprocedural hop and renders every step of the
// witness: source, helper passage, sink.
func TestSecretFlowWitnessChain(t *testing.T) {
	root := writeTree(t, taintFixture(map[string]string{
		"internal/enclave/vault.go": `package enclave

import "lintfixture/internal/sdk"

type vault struct {
	//sgxperf:secret master key
	key [8]byte
}

func ship(env *sdk.Env, blob [8]byte) error {
	_, err := env.Ocall("ocall_ship", blob)
	return err
}

func (v *vault) export(env *sdk.Env) error {
	copied := v.key
	return ship(env, copied)
}
`,
	}))
	tree, err := LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeTaintTree(tree, nil)
	if len(rep.Flows) != 1 {
		t.Fatalf("flows = %+v, want exactly 1", rep.Flows)
	}
	fl := rep.Flows[0]
	if fl.Call != "ocall_ship" || fl.SinkKind != "ocall-arg" {
		t.Errorf("flow sink = %q/%q, want ocall_ship/ocall-arg", fl.Call, fl.SinkKind)
	}
	if !strings.Contains(fl.Source, "key") {
		t.Errorf("flow source = %q, want the annotated key field", fl.Source)
	}
	if fl.Bytes != 8 {
		t.Errorf("flow bytes = %d, want the static 8-byte array size", fl.Bytes)
	}
	if len(fl.Chain) < 3 {
		t.Fatalf("witness chain %+v, want source, interprocedural hop and sink", fl.Chain)
	}
	if first := fl.Chain[0].Note; !strings.Contains(first, "key") {
		t.Errorf("chain starts at %q, want the secret source", first)
	}
	if last := fl.Chain[len(fl.Chain)-1].Note; !strings.Contains(last, "ocall_ship") {
		t.Errorf("chain ends at %q, want the ocall sink", last)
	}
}

// TestSecretFlowSanitizerSilences proves a seal/encrypt-named function
// launders taint: the sealed crossing produces no flow at all.
func TestSecretFlowSanitizerSilences(t *testing.T) {
	root := writeTree(t, taintFixture(map[string]string{
		"internal/enclave/vault.go": `package enclave

import "lintfixture/internal/sdk"

type vault struct {
	//sgxperf:secret master key
	key [8]byte
}

func sealKey(k [8]byte) []byte {
	out := make([]byte, len(k))
	for i, b := range k {
		out[i] = b ^ 0x5a
	}
	return out
}

func (v *vault) backup(env *sdk.Env) error {
	_, err := env.Ocall("ocall_backup", sealKey(v.key))
	return err
}
`,
	}))
	tree, err := LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeTaintTree(tree, nil)
	if len(rep.Flows) != 0 {
		t.Errorf("flows = %+v, want none: sealKey sanitizes the crossing", rep.Flows)
	}
}

// TestSecretFlowFieldSensitivity proves taint stays on the annotated
// field: shipping an un-annotated sibling from the same struct is
// silent.
func TestSecretFlowFieldSensitivity(t *testing.T) {
	root := writeTree(t, taintFixture(map[string]string{
		"internal/enclave/vault.go": `package enclave

import "lintfixture/internal/sdk"

type vault struct {
	//sgxperf:secret master key
	key   [8]byte
	epoch int
}

func (v *vault) stamp(env *sdk.Env) error {
	_, err := env.Ocall("ocall_stamp", v.epoch)
	return err
}
`,
	}))
	tree, err := LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeTaintTree(tree, nil)
	if len(rep.Flows) != 0 {
		t.Errorf("flows = %+v, want none: only the key field is secret", rep.Flows)
	}
}

// TestSecretFlowAllowDirective proves //sgxperf:allow(secretflow) on the
// sink line suppresses the repository diagnostic, while a stale allow —
// nothing underneath to suppress — becomes a diagnostic itself.
func TestSecretFlowAllowDirective(t *testing.T) {
	root := writeTree(t, taintFixture(map[string]string{
		"internal/enclave/vault.go": `package enclave

import "lintfixture/internal/sdk"

type vault struct {
	//sgxperf:secret master key
	key [8]byte
}

func (v *vault) export(env *sdk.Env) error {
	//sgxperf:allow(secretflow) deliberate exhibit for the test
	_, err := env.Ocall("ocall_ship", v.key)
	return err
}

func (v *vault) clean(env *sdk.Env) error {
	//sgxperf:allow(secretflow) nothing leaks here
	_, err := env.Ocall("ocall_ping", struct{}{})
	return err
}
`,
	}))
	diags, err := Run(root, []*Analyzer{SecretFlowCheck})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Fatalf("diagnostics = %v, want only the stale-allow complaint", messages(diags))
	}
	if !strings.Contains(diags[0].Message, "stale") {
		t.Errorf("diagnostic %q, want the stale //sgxperf:allow report", diags[0].Message)
	}
}

// TestSecretFlowThroughLongHelperChain passes a secret through fourteen
// helpers declared caller-first, the usual Go layout, to an ocall. Each
// summary round lifts the sink one helper up the chain, so the flow is
// found only when the rounds run until no summary grows.
func TestSecretFlowThroughLongHelperChain(t *testing.T) {
	const n = 14
	var b strings.Builder
	b.WriteString(`package enclave

import "lintfixture/internal/sdk"

type vault struct {
	//sgxperf:secret master key
	key [8]byte
}

func (v *vault) export(env *sdk.Env) error { return hop0(env, v.key) }
`)
	for i := 0; i < n-1; i++ {
		fmt.Fprintf(&b, "\nfunc hop%d(env *sdk.Env, k [8]byte) error { return hop%d(env, k) }\n", i, i+1)
	}
	fmt.Fprintf(&b, `
func hop%d(env *sdk.Env, k [8]byte) error {
	_, err := env.Ocall("ocall_ship", k)
	return err
}
`, n-1)
	root := writeTree(t, taintFixture(map[string]string{"internal/enclave/vault.go": b.String()}))
	tree, err := LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeTaintTree(tree, nil)
	if len(rep.Flows) != 1 || rep.Flows[0].Call != "ocall_ship" || rep.Flows[0].Func != "vault.export" {
		t.Fatalf("flows = %+v, want the key reaching ocall_ship from vault.export", rep.Flows)
	}
}

// TestEDLFlowEveryRegisteredHandler registers one ecall name in two
// packages, each with a handler of its own that writes the [in] param:
// edlflow must check both handlers and report both writes, and the
// entry predictions must list both registrations.
func TestEDLFlowEveryRegisteredHandler(t *testing.T) {
	pkg := func(name string) string {
		return `package ` + name + `

import (
	"lintfixture/internal/edl"
	"lintfixture/internal/sdk"
)

type dupArgs struct{ Tag int }

func handleDup(env *sdk.Env, args any) (any, error) {
	a := args.(*dupArgs)
	a.Tag = 7
	return nil, nil
}

func wire() (map[string]sdk.TrustedFn, *edl.Interface) {
	impl := map[string]sdk.TrustedFn{"ecall_dup": handleDup}
	iface := edl.New()
	iface.AddEcall("ecall_dup", true, edl.Param{Name: "tag", Dir: edl.DirIn})
	return impl, iface
}
`
	}
	root := writeTree(t, taintFixture(map[string]string{
		"internal/gen01/enclave.go": pkg("gen01"),
		"internal/gen02/enclave.go": pkg("gen02"),
	}))
	diags, err := Run(root, []*Analyzer{EDLFlowCheck})
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, d := range diags {
		files = append(files, filepath.Base(filepath.Dir(d.Pos.Filename)))
	}
	sort.Strings(files)
	if want := []string{"gen01", "gen02"}; !slices.Equal(files, want) {
		t.Fatalf("edlflow reported in %v, want one [in] write in each of %v: %v", files, want, messages(diags))
	}
	tree, err := LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeInterprocTree(tree, nil)
	if len(rep.Entries) != 2 || rep.Entries[0].Ecall != "ecall_dup" || rep.Entries[1].Ecall != "ecall_dup" {
		t.Errorf("entries = %+v, want one ecall_dup prediction per registration", rep.Entries)
	}
}

// TestEDLFlowDirectionIssues proves the EDL cross-validation flags each
// mismatch kind — an [in] param written, an [out] param read before its
// first write, a user_check pointer dereferenced unguarded — while a
// bounds-guarded user_check handler stays clean.
func TestEDLFlowDirectionIssues(t *testing.T) {
	root := writeTree(t, taintFixture(map[string]string{
		"internal/enclave/handlers.go": `package enclave

import (
	"lintfixture/internal/edl"
	"lintfixture/internal/sdk"
)

type stampArgs struct{ Tag int }
type readArgs struct{ Sum int }
type scatterArgs struct {
	Buf []byte
	N   int
}
type pokeArgs struct {
	Buf []byte
	N   int
}

type enclave struct{ epoch int }

func (e *enclave) stamp(env *sdk.Env, args any) (any, error) {
	a := args.(*stampArgs)
	a.Tag = e.epoch
	return nil, nil
}

func (e *enclave) readout(env *sdk.Env, args any) (any, error) {
	a := args.(*readArgs)
	stale := a.Sum
	a.Sum = stale + 1
	return a.Sum, nil
}

func (e *enclave) scatter(env *sdk.Env, args any) (any, error) {
	a := args.(*scatterArgs)
	a.Buf[0] = 1
	return nil, nil
}

func (e *enclave) poke(env *sdk.Env, args any) (any, error) {
	a := args.(*pokeArgs)
	if a.N < 1 || len(a.Buf) < a.N {
		return nil, nil
	}
	a.Buf[0] = 1
	return nil, nil
}

func wire() (map[string]sdk.TrustedFn, *edl.Interface) {
	e := &enclave{}
	impl := map[string]sdk.TrustedFn{
		"ecall_stamp":   e.stamp,
		"ecall_readout": e.readout,
		"ecall_scatter": e.scatter,
		"ecall_poke":    e.poke,
	}
	iface := edl.New()
	iface.AddEcall("ecall_stamp", true, edl.Param{Name: "tag", Dir: edl.DirIn})
	iface.AddEcall("ecall_readout", true, edl.Param{Name: "sum", Dir: edl.DirOut})
	iface.AddEcall("ecall_scatter", true, edl.Param{Name: "buf", Dir: edl.DirUserCheck})
	iface.AddEcall("ecall_poke", true, edl.Param{Name: "buf", Dir: edl.DirUserCheck})
	return impl, iface
}
`,
	}))
	tree, err := LoadTree(root)
	if err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeTaintTree(tree, nil)
	kinds := make(map[string]string, len(rep.Issues))
	for _, is := range rep.Issues {
		kinds[is.Ecall] = is.Kind
	}
	want := map[string]string{
		"ecall_stamp":   "in-written",
		"ecall_readout": "out-stale-read",
		"ecall_scatter": "user-check-unguarded",
	}
	if len(rep.Issues) != len(want) {
		t.Fatalf("issues = %+v, want one per seeded mismatch and the guarded poke silent", rep.Issues)
	}
	for ecall, kind := range want {
		if kinds[ecall] != kind {
			t.Errorf("%s: kind %q, want %q", ecall, kinds[ecall], kind)
		}
	}
}
