package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// relintSDK and relintEDL are the stub sdk and edl packages of the
// re-lint fixtures: the dispatch, registration and declaration surfaces
// the engines classify by name.
const (
	relintSDK = `package sdk

type Env struct{}

func (e *Env) Ocall(name string, args any) (any, error) { return nil, nil }

type TrustedFn func(env *Env, args any) (any, error)
`
	relintEDL = `package edl

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
}

type Interface struct{}

func New() *Interface { return &Interface{} }

func (i *Interface) AddEcall(name string, public bool, params ...Param) {}
`
)

// relintModule is a generated module for the re-lint budgets: stub sdk
// and edl packages, a core package of blocking, dispatching and
// secret-passing helpers, and pkgs workload packages that call into it.
// Each workload package holds locks across blocking helpers, loops over
// a dispatching one, passes a secret through a helper to an ocall, and
// registers a handler against its EDL, so every engine has rows to build.
func relintModule(pkgs, funcs int) map[string]string {
	files := map[string]string{
		"go.mod":     "module example.com/relint\n\ngo 1.22\n",
		"sdk/sdk.go": relintSDK,
		"edl/edl.go": relintEDL,
		"core/core.go": `package core

import "example.com/relint/sdk"

func Flush(ch chan int, v int) { send(ch, v) }

func send(ch chan int, v int) { ch <- v }

func Put(env *sdk.Env, v int) { env.Ocall("ocall_put", v) }

func Pass(v [16]byte) [16]byte { return v }

func Mix(a, b int) int { return a*31 + b }
`,
	}
	for p := 0; p < pkgs; p++ {
		var b strings.Builder
		fmt.Fprintf(&b, `package w%02d

import (
	"sync"

	"example.com/relint/core"
	"example.com/relint/edl"
	"example.com/relint/sdk"
)

type state struct {
	mu, aux sync.Mutex
	out     chan int
	//sgxperf:secret generated key material
	key [16]byte
}

var st state

type args struct{ Key [16]byte }

func handle(env *sdk.Env, a any) (any, error) {
	x := a.(*args)
	x.Key = core.Pass(st.key)
	return nil, nil
}

func Wire() (map[string]sdk.TrustedFn, *edl.Interface) {
	iface := edl.New()
	iface.AddEcall("ecall_w%02d", true, edl.Param{Name: "key", Dir: edl.DirOut})
	return map[string]sdk.TrustedFn{"ecall_w%02d": handle}, iface
}
`, p, p, p)
		for f := 0; f < funcs; f++ {
			fmt.Fprintf(&b, `
func step%d(env *sdk.Env, v int) int {
	st.mu.Lock()
	core.Flush(st.out, v)
	st.mu.Unlock()
	for i := 0; i < %d; i++ {
		core.Put(env, core.Mix(v, i))
	}
	env.Ocall("ocall_leak", core.Pass(st.key))
	return core.Mix(v, %d)
}
`, f, f+2, f)
			if f > 0 {
				fmt.Fprintf(&b, `
func order%d() {
	st.aux.Lock()
	st.mu.Lock()
	step%d(nil, %d)
	st.mu.Unlock()
	st.aux.Unlock()
}
`, f, f-1, f)
			}
		}
		files[fmt.Sprintf("w%02d/w.go", p)] = b.String()
	}
	return files
}

// allocsOf counts the heap allocations f makes. Like
// testing.AllocsPerRun it pins GOMAXPROCS to 1 while counting.
func allocsOf(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// Re-lint budgets over relintModule(8, 12), counted on Go 1.24,
// linux/amd64 (see TestRelintAllocs). While every Tree rebuilt the
// function table, the held-set walk, the call graph and the taint
// summaries of every package, the re-lint made 57.7k allocations and the
// reload 13.6k. With fact rows kept per checked package they make 14.1k
// and 0.41k (15.3k and 0.42k under -race), on the pool's fan-outs and at
// GOMAXPROCS=1 alike; the budgets leave headroom for toolchain drift
// while failing the rebuild-everything path.
const (
	// relintMaxAllocs bounds LoadTree and RunTree of the full suite
	// after a one-file edit to one workload package.
	relintMaxAllocs = 20000
	// reloadSyncMaxAllocs bounds LoadTree and AnalyzeSyncTree over the
	// unchanged root, the staticlint source pass after a vet pass.
	reloadSyncMaxAllocs = 800
)

// TestRelintAllocs pins what the later loads of one root cost once a
// cold vet pass has checked it and built its facts: a reload that
// changes nothing adopts every package's check and fact rows, and a
// re-lint after a one-file edit re-checks one package and builds rows
// for it alone.
func TestRelintAllocs(t *testing.T) {
	root := writeTree(t, relintModule(8, 12))
	lintedTree(t, root) // cold: checks the tree and the GOROOT imports
	var err error
	reload := allocsOf(func() {
		var tree *Tree
		if tree, err = LoadTree(root); err == nil {
			AnalyzeSyncTree(tree, nil)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	edited := filepath.Join(root, "w03", "w.go")
	src, err := os.ReadFile(edited)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(edited, append(src, "\nfunc extra() {}\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	var diags []Diagnostic
	relint := allocsOf(func() {
		var tree *Tree
		if tree, err = LoadTree(root); err == nil {
			diags, err = RunTree(tree, Analyzers())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("the re-lint reported nothing; want the module's planted findings")
	}
	t.Logf("reload + AnalyzeSyncTree: %d allocations; edit + re-lint: %d allocations (%d diagnostics)", reload, relint, len(diags))
	if reload > reloadSyncMaxAllocs {
		t.Errorf("reload + AnalyzeSyncTree made %d allocations, budget %d", reload, reloadSyncMaxAllocs)
	}
	if relint > relintMaxAllocs {
		t.Errorf("edit + re-lint made %d allocations, budget %d", relint, relintMaxAllocs)
	}
}

// relintMix is a package of relintModule's re-lint fixture with two
// mixed-discipline counters, one of them under a justified allow.
const relintMix = `package mix

import "sync/atomic"

var hits int64

//sgxperf:allow(atomicmix) read once after every writer has stopped
var misses int64

func Hit() { atomic.AddInt64(&hits, 1) }

func Hits() int64 { return hits }

func Miss() { atomic.AddInt64(&misses, 1) }

func Misses() int64 { return misses }
`

// TestRelintKeepsAtomicMixRows proves atomicmix findings are a row of
// the checked package: after a one-file edit the kept packages' rows
// are the previous load's objects, whose findings are still reported
// and still suppressed by their allow, while the edited package's row
// is rebuilt and reports the mixed access the edit planted.
func TestRelintKeepsAtomicMixRows(t *testing.T) {
	files := relintModule(3, 2)
	files["mix/mix.go"] = relintMix
	root := writeTree(t, files)
	before, _ := lintedTree(t, root)
	rows := make(map[string]*mixRows, len(before.Pkgs))
	for _, pkg := range before.Pkgs {
		if rows[pkg.Dir] = loadRows(&pkg.checked.mix); rows[pkg.Dir] == nil {
			t.Fatalf("%s published no atomicmix row", pkg.Dir)
		}
	}
	if n := len(rows["mix"].findings); n != 2 {
		t.Fatalf("mix holds %d atomicmix findings, want 2 (one reported, one allowed)", n)
	}
	edited := filepath.Join(root, "w01", "w.go")
	src, err := os.ReadFile(edited)
	if err != nil {
		t.Fatal(err)
	}
	planted := strings.Replace(string(src), "\t\"sync\"\n", "\t\"sync\"\n\t\"sync/atomic\"\n", 1) + `
var calls int64

func call() { atomic.AddInt64(&calls, 1) }

func Calls() int64 { return calls }
`
	if err := os.WriteFile(edited, []byte(planted), 0o644); err != nil {
		t.Fatal(err)
	}
	after, diags := lintedTree(t, root)
	for _, pkg := range after.Pkgs {
		row := loadRows(&pkg.checked.mix)
		if kept := pkg.Dir != "w01"; kept != (row == rows[pkg.Dir]) {
			t.Errorf("%s: atomicmix row reused = %v, want %v", pkg.Dir, !kept, kept)
		}
	}
	var mixed []string
	for _, d := range diags {
		if strings.Contains(d, ": atomicmix: ") {
			mixed = append(mixed, d)
		}
	}
	if len(mixed) != 2 || !strings.Contains(mixed[0], "variable hits is accessed") ||
		!strings.Contains(mixed[1], "variable calls is accessed") {
		t.Errorf("atomicmix diagnostics after the edit = %v, want hits (kept row) and calls (planted)", mixed)
	}
}
