package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/template"
)

// The lint-tree workload lints a generated Go module instead of this
// repository, so its input does not grow with the repository's code.
// The module mirrors the shape the analyzers look for: stub
// internal/sdk and internal/edl packages like the sgx-perf-vet badrepo
// fixture, and generated packages under internal/workloads/gen*. Each
// generated package holds clean filler — locks taken and released,
// atomics used one way, ocalls outside loops, secrets sealed before they
// cross, handlers registered against their EDL — plus one planted
// violation for each of the ten analyzers. Every planted line carries a
// "// plant:<analyzer>" marker, from which the manifest is read.

// plant is one violation the vet pass must report.
type plant struct {
	File     string // slash-separated, relative to the tree root
	Line     int
	Analyzer string
}

// srcTree is a generated module: file contents by root-relative path,
// the manifest of planted violations, and the file the edit extends.
type srcTree struct {
	files    map[string]string
	plants   []plant
	editFile string
	editTag  string
}

// treeSize is how many generated packages a tree has and how many
// filler files each holds.
type treeSize struct{ pkgs, fillers int }

const plantMarker = "// plant:"

// genTree builds the module for seed.
func genTree(seed uint64, size treeSize) (*srcTree, error) {
	r := newRNG(seed)
	t := &srcTree{files: map[string]string{
		"go.mod":                  "module lintbench\n\ngo 1.22\n",
		"internal/sdk/env.go":     sdkStub,
		"internal/edl/edl.go":     edlStub,
		"internal/sdk/runtime.go": sdkRuntimeStub,
	}}
	for p := 0; p < size.pkgs; p++ {
		pkg := fmt.Sprintf("gen%02d", p)
		dir := "internal/workloads/" + pkg
		tag := fmt.Sprintf("%c%c%d", 'a'+r.intn(26), 'a'+r.intn(26), r.intn(100))
		files := make([]int, size.fillers)
		for i := range files {
			files[i] = i
			data := fillerData{Pkg: pkg, I: i, Prev: i - 1, K: 2 + r.intn(8), Shift: 1 + r.intn(5)}
			if err := t.render(dir+fmt.Sprintf("/filler%02d.go", i), fillerTmpl, data); err != nil {
				return nil, err
			}
		}
		if err := t.render(dir+"/entries.go", entriesTmpl, struct {
			Pkg   string
			Files []int
		}{pkg, files}); err != nil {
			return nil, err
		}
		for _, name := range analyzerNames {
			data := plantData{Pkg: pkg, T: tag, Trip: 2 + r.intn(15)}
			if err := t.render(dir+"/plant_"+name+".go", plantTmpls[name], data); err != nil {
				return nil, err
			}
		}
	}
	t.editFile = fmt.Sprintf("internal/workloads/gen%02d/filler%02d.go", r.intn(size.pkgs), r.intn(size.fillers))
	t.editTag = fmt.Sprintf("%c%c%d", 'a'+r.intn(26), 'a'+r.intn(26), r.intn(100))
	for path, src := range t.files {
		t.plants = append(t.plants, plantsIn(path, src)...)
	}
	sortPlants(t.plants)
	return t, nil
}

func (t *srcTree) render(path string, tmpl *template.Template, data any) error {
	var b bytes.Buffer
	if err := tmpl.Execute(&b, data); err != nil {
		return fmt.Errorf("gentree: %s: %w", path, err)
	}
	t.files[path] = b.String()
	return nil
}

// plantsIn reads the planted-violation markers of one file.
func plantsIn(path, src string) []plant {
	var out []plant
	for i, line := range strings.Split(src, "\n") {
		if at := strings.Index(line, plantMarker); at >= 0 {
			out = append(out, plant{File: path, Line: i + 1, Analyzer: strings.TrimSpace(line[at+len(plantMarker):])})
		}
	}
	return out
}

func sortPlants(ps []plant) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Analyzer < b.Analyzer
	})
}

// write materialises the tree under root.
func (t *srcTree) write(root string) error {
	for path, src := range t.files {
		full := filepath.Join(root, filepath.FromSlash(path))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// sourceFiles counts the tree's Go files.
func (t *srcTree) sourceFiles() int {
	n := 0
	for path := range t.files {
		if strings.HasSuffix(path, ".go") {
			n++
		}
	}
	return n
}

// edit appends one more violation — an ocall dispatched inside a loop —
// to one filler file of the tree written under root, and returns it.
func (t *srcTree) edit(root string) (plant, error) {
	var b bytes.Buffer
	if err := editTmpl.Execute(&b, struct{ T string }{t.editTag}); err != nil {
		return plant{}, err
	}
	old := t.files[t.editFile]
	full := filepath.Join(root, filepath.FromSlash(t.editFile))
	if err := os.WriteFile(full, []byte(old+b.String()), 0o644); err != nil {
		return plant{}, err
	}
	added := plantsIn(t.editFile, old+b.String())
	return added[len(added)-1], nil
}

type fillerData struct {
	Pkg      string
	I, Prev  int
	K, Shift int
}

type plantData struct {
	Pkg, T string
	Trip   int
}

const sdkStub = `// Package sdk stubs the trusted-runtime surface the analyzers classify
// by name: handlers receive an *Env and cross the boundary through
// Env.Ocall, and are registered as TrustedFn values.
package sdk

// Env is the trusted runtime handle handlers receive.
type Env struct{}

// Ocall dispatches an ocall by name.
func (e *Env) Ocall(name string, args any) (any, error) { return nil, nil }

// TrustedFn is the in-enclave handler shape.
type TrustedFn func(env *Env, args any) (any, error)
`

const sdkRuntimeStub = `package sdk

type runtime struct{ served int }

// Serve keeps the hot-path check's must-annotate scope satisfied.
//
//sgxperf:hotpath
func (r *runtime) Serve() { r.served++ }
`

const edlStub = `// Package edl stubs the interface builder the EDL recovery reads.
package edl

// PtrDir is an explicit pointer direction annotation.
type PtrDir int

const (
	DirValue PtrDir = iota + 1
	DirIn
	DirOut
	DirInOut
	DirUserCheck
)

// Param is one declared call parameter.
type Param struct {
	Name     string
	Dir      PtrDir
	Size     string
	IsString bool
}

// Interface is a minimal boundary-interface builder.
type Interface struct{}

// New returns an empty interface.
func New() *Interface { return &Interface{} }

// AddEcall declares one ecall.
func (i *Interface) AddEcall(name string, public bool, params ...Param) {}

// AddOcall declares one ocall.
func (i *Interface) AddOcall(name string, allow []string, params ...Param) {}
`

var fillerTmpl = template.Must(template.New("filler").Parse(`package {{.Pkg}}

import (
	"sync"
	"sync/atomic"

	"lintbench/internal/sdk"
)

// table{{.I}} guards its rows with one mutex and counts reads atomically.
type table{{.I}} struct {
	mu    sync.Mutex
	rows  map[int]int
	order []int
	reads atomic.Int64
}

func newTable{{.I}}() *table{{.I}} { return &table{{.I}}{rows: make(map[int]int)} }

func (t *table{{.I}}) put(k, v int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rows[k] = v
	t.order = append(t.order, k)
}

func (t *table{{.I}}) get(k int) (int, bool) {
	t.mu.Lock()
	v, ok := t.rows[k]
	t.mu.Unlock()
	t.reads.Add(1)
	return v, ok
}

// scan folds the first n keys without leaving the enclave.
func (t *table{{.I}}) scan(n int) int {
	total := 0
	for i := 0; i < n; i++ {
		v, ok := t.get(i % {{.K}})
		if !ok {
			continue
		}
		total += mix{{.I}}(v, i)
	}
	return total
}

func mix{{.I}}(a, b int) int {
	x := a*{{.K}} + b
	switch {
	case x%3 == 0:
		x ^= b << {{.Shift}}
	case x%3 == 1:
		x += a >> {{.Shift}}
	default:
		x -= b
	}
{{- if ge .Prev 0}}
	return mix{{.Prev}}(x, a)
{{- else}}
	return x
{{- end}}
}

type req{{.I}} struct {
	Len  int
	Data string
}

// handle{{.I}} copies the boundary fields once and crosses once.
func (t *table{{.I}}) handle{{.I}}(env *sdk.Env, args any) (any, error) {
	a, ok := args.(*req{{.I}})
	if !ok {
		return nil, nil
	}
	n, data := a.Len, a.Data
	if n > 64 {
		return nil, nil
	}
	t.put(n, len(data))
	if _, err := env.Ocall("ocall_note_{{.I}}", n); err != nil {
		return nil, err
	}
	return t.scan(n), nil
}

type vault{{.I}} struct {
	//sgxperf:secret filler key, sealed before every crossing
	key   [16]byte
	epoch int
}

func seal{{.I}}(k [16]byte, epoch int) []byte {
	out := make([]byte, len(k))
	for i := range k {
		out[i] = k[i] ^ byte(epoch+i)
	}
	return out
}

func (v *vault{{.I}}) backup(env *sdk.Env) error {
	_, err := env.Ocall("ocall_backup_{{.I}}", seal{{.I}}(v.key, v.epoch))
	return err
}
`))

var entriesTmpl = template.Must(template.New("entries").Parse(`package {{.Pkg}}

import (
	"lintbench/internal/edl"
	"lintbench/internal/sdk"
)

// entries registers every filler handler and declares its EDL.
func entries() (map[string]sdk.TrustedFn, *edl.Interface) {
{{- range .Files}}
	t{{.}} := newTable{{.}}()
{{- end}}
	impl := map[string]sdk.TrustedFn{
{{- range .Files}}
		"ecall_handle_{{.}}": t{{.}}.handle{{.}},
{{- end}}
	}
	i := edl.New()
{{- range .Files}}
	i.AddEcall("ecall_handle_{{.}}", true, edl.Param{Name: "len", Dir: edl.DirIn}, edl.Param{Name: "data", Dir: edl.DirIn, IsString: true})
{{- end}}
	return impl, i
}
`))

// plantTmpls holds one planted violation per analyzer.
var plantTmpls = map[string]*template.Template{
	"vclock": template.Must(template.New("vclock").Parse(`package {{.Pkg}}

import "time"

// stamp{{.T}} reads the host clock inside a simulator package.
func stamp{{.T}}() int64 {
	return time.Now().UnixNano() // plant:vclock
}
`)),
	"hotpath": template.Must(template.New("hotpath").Parse(`package {{.Pkg}}

import "sync"

type recorder{{.T}} struct {
	mu sync.Mutex
	n  int
}

// record is the per-event entry point.
//
//sgxperf:hotpath
func (r *recorder{{.T}}) record() {
	r.mu.Lock() // plant:hotpath
	r.n++
	r.mu.Unlock()
}
`)),
	"lockorder": template.Must(template.New("lockorder").Parse(`package {{.Pkg}}

import "sync"

type core{{.T}} struct {
	a sync.Mutex
	b sync.Mutex
}

func (c *core{{.T}}) ab() {
	c.a.Lock()
	c.b.Lock() // plant:lockorder
	c.b.Unlock()
	c.a.Unlock()
}

func (c *core{{.T}}) ba() {
	c.b.Lock()
	c.a.Lock()
	c.a.Unlock()
	c.b.Unlock()
}
`)),
	"heldacross": template.Must(template.New("heldacross").Parse(`package {{.Pkg}}

import "sync"

type queue{{.T}} struct {
	mu  sync.Mutex
	out chan int
	n   int
}

func (q *queue{{.T}}) push(v int) {
	q.mu.Lock()
	q.n++
	q.out <- v // plant:heldacross
	q.mu.Unlock()
}
`)),
	"atomicmix": template.Must(template.New("atomicmix").Parse(`package {{.Pkg}}

import "sync/atomic"

type counter{{.T}} struct {
	hits int64 // plant:atomicmix
}

func (c *counter{{.T}}) bump() { atomic.AddInt64(&c.hits, 1) }

func (c *counter{{.T}}) read() int64 { return c.hits }
`)),
	"transamp": template.Must(template.New("transamp").Parse(`package {{.Pkg}}

import "lintbench/internal/sdk"

// flush{{.T}} dispatches once per chunk instead of batching.
func flush{{.T}}(env *sdk.Env) error {
	for i := 0; i < {{.Trip}}; i++ {
		if _, err := env.Ocall("ocall_put_chunk_{{.T}}", i); err != nil { // plant:transamp
			return err
		}
	}
	return nil
}
`)),
	"doublefetch": template.Must(template.New("doublefetch").Parse(`package {{.Pkg}}

import "lintbench/internal/sdk"

type putReq{{.T}} struct {
	Len  int
	Data string
}

type putter{{.T}} struct{ written int }

// handlePut validates the length, crosses, then trusts the shared
// buffer again.
func (h *putter{{.T}}) handlePut(env *sdk.Env, args any) (any, error) {
	a, ok := args.(*putReq{{.T}})
	if !ok {
		return nil, nil
	}
	if a.Len > 64 {
		return nil, nil
	}
	if _, err := env.Ocall("ocall_append_log_{{.T}}", a.Data); err != nil {
		return nil, err
	}
	h.written += a.Len // plant:doublefetch
	return nil, nil
}
`)),
	"ptrescape": template.Must(template.New("ptrescape").Parse(`package {{.Pkg}}

import "lintbench/internal/sdk"

type sharer{{.T}} struct{ table [4]uint64 }

// share hands the untrusted side the address of enclave state.
func (h *sharer{{.T}}) share(env *sdk.Env) error {
	_, err := env.Ocall("ocall_register_table_{{.T}}", &h.table) // plant:ptrescape
	return err
}
`)),
	"secretflow": template.Must(template.New("secretflow").Parse(`package {{.Pkg}}

import "lintbench/internal/sdk"

type keyring{{.T}} struct {
	//sgxperf:secret long-term sealing key, must never cross unsealed
	sealKey [16]byte
}

// leakKey ships the raw key through an ocall.
func (v *keyring{{.T}}) leakKey(env *sdk.Env) error {
	_, err := env.Ocall("ocall_backup_key_{{.T}}", v.sealKey) // plant:secretflow
	return err
}
`)),
	"edlflow": template.Must(template.New("edlflow").Parse(`package {{.Pkg}}

import (
	"lintbench/internal/edl"
	"lintbench/internal/sdk"
)

type clampReq{{.T}} struct{ Len int }

type clamp{{.T}} struct{ limit int }

// clampLen writes a boundary param its EDL declares [in].
func (v *clamp{{.T}}) clampLen(env *sdk.Env, args any) (any, error) {
	a, ok := args.(*clampReq{{.T}})
	if !ok {
		return nil, nil
	}
	a.Len = v.limit // plant:edlflow
	return nil, nil
}

func newClamp{{.T}}() (map[string]sdk.TrustedFn, *edl.Interface) {
	v := &clamp{{.T}}{limit: 64}
	impl := map[string]sdk.TrustedFn{
		"ecall_clamp_len_{{.T}}": v.clampLen,
	}
	i := edl.New()
	i.AddEcall("ecall_clamp_len_{{.T}}", true, edl.Param{Name: "len", Dir: edl.DirIn})
	return impl, i
}
`)),
}

var editTmpl = template.Must(template.New("edit").Parse(`
// drain{{.T}} crosses once per queued item.
func drain{{.T}}(env *sdk.Env) error {
	for i := 0; i < 4; i++ {
		if _, err := env.Ocall("ocall_drain_{{.T}}", i); err != nil { // plant:transamp
			return err
		}
	}
	return nil
}
`))
