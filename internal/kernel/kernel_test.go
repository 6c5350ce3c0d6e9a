package kernel

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"

	"sgxperf/internal/sgx"
)

func newTestKernel(t *testing.T, opts ...sgx.Option) *Kernel {
	t.Helper()
	m, err := sgx.NewMachine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return New(m)
}

func TestCreateEnclaveLoadsAllPages(t *testing.T) {
	k := newTestKernel(t)
	ctx := k.Machine.NewContext("main")
	enc, err := k.Driver.CreateEnclave(ctx, sgx.Config{Name: "e"})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range enc.Pages() {
		if !p.Resident() {
			t.Fatalf("page %v not resident after creation", p)
		}
	}
	if ctx.Now() == 0 {
		t.Fatal("enclave creation charged no time")
	}
}

func TestCreateEnclaveFromInsideEnclaveRejected(t *testing.T) {
	k := newTestKernel(t)
	ctx := k.Machine.NewContext("main")
	enc, err := k.Driver.CreateEnclave(ctx, sgx.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.EEnter(enc); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ctx.EExit() }()
	if _, err := k.Driver.CreateEnclave(ctx, sgx.Config{}); err == nil {
		t.Fatal("enclave creation from inside an enclave succeeded")
	}
}

func TestDestroyEnclaveFreesEPC(t *testing.T) {
	k := newTestKernel(t)
	ctx := k.Machine.NewContext("main")
	enc, err := k.Driver.CreateEnclave(ctx, sgx.Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := k.Machine.EPC().Resident()
	k.Driver.DestroyEnclave(enc)
	if got := k.Machine.EPC().Resident(); got != before-enc.NumPages() {
		t.Fatalf("resident after destroy = %d, want %d", got, before-enc.NumPages())
	}
	if k.Machine.Enclave(enc.ID) != nil {
		t.Fatal("enclave still registered after destroy")
	}
}

func TestPagingFiresKprobes(t *testing.T) {
	// EPC too small for both enclaves: creating the second evicts pages of
	// the first, and touching the first pages them back in.
	// Each enclave below is 32 pages; 48 slots force the second creation
	// to evict pages of the first.
	k := newTestKernel(t, sgx.WithEPCCapacity(48))
	ctx := k.Machine.NewContext("main")

	var eldu, ewb []KprobeEvent
	detachIn := k.Kprobes.Register(SymbolELDU, func(ev KprobeEvent) { eldu = append(eldu, ev) })
	defer detachIn()
	detachOut := k.Kprobes.Register(SymbolEWB, func(ev KprobeEvent) { ewb = append(ewb, ev) })
	defer detachOut()

	cfg := sgx.Config{CodeBytes: 4096, HeapBytes: 24 * 4096, StackBytes: 4096}
	e1, err := k.Driver.CreateEnclave(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.Driver.CreateEnclave(ctx, cfg); err != nil {
		t.Fatal(err)
	}
	if len(ewb) == 0 {
		t.Fatal("no EWB kprobe events despite EPC pressure")
	}
	// Touch e1's heap: evicted pages fault back in.
	if err := ctx.EEnter(e1); err != nil {
		t.Fatal(err)
	}
	v, err := ctx.HeapAlloc(24 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.TouchRange(v, 24*4096, true); err != nil {
		t.Fatal(err)
	}
	if err := ctx.EExit(); err != nil {
		t.Fatal(err)
	}
	if len(eldu) == 0 {
		t.Fatal("no ELDU kprobe events on fault-in")
	}
	for _, ev := range eldu {
		if ev.Enclave != e1.ID {
			t.Fatalf("ELDU attributed to enclave %d, want %d", ev.Enclave, e1.ID)
		}
		if ev.Vaddr == 0 || ev.Time == 0 {
			t.Fatalf("ELDU event missing vaddr/time: %+v", ev)
		}
	}
	ins, outs := k.Driver.Stats()
	if ins == 0 || outs == 0 {
		t.Fatalf("driver stats ins=%d outs=%d, want both nonzero", ins, outs)
	}
}

func TestPagingPreservesContentUnderPressure(t *testing.T) {
	k := newTestKernel(t, sgx.WithEPCCapacity(80))
	ctx := k.Machine.NewContext("main")
	cfg := sgx.Config{HeapBytes: 16 * 4096}
	enc, err := k.Driver.CreateEnclave(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.EEnter(enc); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ctx.EExit() }()
	v, err := ctx.HeapAlloc(16 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	// Write a distinct pattern into each page.
	for i := 0; i < 16; i++ {
		pat := bytes.Repeat([]byte{byte('A' + i)}, 128)
		if err := ctx.WriteBytes(v+sgx.Vaddr(i*4096), pat); err != nil {
			t.Fatal(err)
		}
	}
	// Second enclave (created from another untrusted thread) forces
	// evictions while the first thread is still inside its enclave.
	ctx2 := k.Machine.NewContext("other")
	if _, err := k.Driver.CreateEnclave(ctx2, cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		got := make([]byte, 128)
		if err := ctx.ReadBytes(v+sgx.Vaddr(i*4096), got); err != nil {
			t.Fatal(err)
		}
		want := bytes.Repeat([]byte{byte('A' + i)}, 128)
		if !bytes.Equal(got, want) {
			t.Fatalf("page %d corrupted: got %q", i, got[:8])
		}
	}
}

func TestKprobeDetach(t *testing.T) {
	kp := NewKprobes()
	n := 0
	detach := kp.Register("sym", func(KprobeEvent) { n++ })
	kp.Fire(KprobeEvent{Symbol: "sym"})
	detach()
	detach() // idempotent
	kp.Fire(KprobeEvent{Symbol: "sym"})
	if n != 1 {
		t.Fatalf("handler ran %d times, want 1", n)
	}
	if kp.Registered("sym") != 0 {
		t.Fatal("handler still registered after detach")
	}
}

func TestSignalsChaining(t *testing.T) {
	s := NewSignals()
	var order []string
	first := func(ctx *sgx.Context, sig Signal, info *SigInfo) bool {
		order = append(order, "first")
		return true
	}
	if old := s.Sigaction(SIGSEGV, first); old != nil {
		t.Fatal("fresh table returned old handler")
	}
	// A tool (the logger) installs its own handler and chains, as §4
	// describes for overloaded signal/sigaction.
	old := s.Sigaction(SIGSEGV, nil)
	s.Sigaction(SIGSEGV, func(ctx *sgx.Context, sig Signal, info *SigInfo) bool {
		order = append(order, "logger")
		if old != nil {
			return old(ctx, sig, info)
		}
		return false
	})
	if !s.Deliver(nil, SIGSEGV, &SigInfo{}) {
		t.Fatal("delivery failed")
	}
	if len(order) != 2 || order[0] != "logger" || order[1] != "first" {
		t.Fatalf("chain order %v", order)
	}
	if s.Deliver(nil, SIGUSR1, nil) {
		t.Fatal("unhandled signal reported handled")
	}
}

func TestFSLifecycle(t *testing.T) {
	fs := NewFS(FSCost{})
	m, err := sgx.NewMachine()
	if err != nil {
		t.Fatal(err)
	}
	ctx := m.NewContext("t")

	fd, err := fs.Open(ctx, "db")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := fs.Write(ctx, fd, []byte("hello world")); err != nil || n != 11 {
		t.Fatalf("write = %d, %v", n, err)
	}
	if pos, err := fs.Lseek(ctx, fd, 6, SeekSet); err != nil || pos != 6 {
		t.Fatalf("lseek = %d, %v", pos, err)
	}
	buf := make([]byte, 5)
	if n, err := fs.Read(ctx, fd, buf); err != nil || n != 5 || string(buf) != "world" {
		t.Fatalf("read = %d %q %v", n, buf, err)
	}
	if err := fs.Fsync(ctx, fd); err != nil {
		t.Fatal(err)
	}
	if err := fs.Truncate(ctx, fd, 5); err != nil {
		t.Fatal(err)
	}
	if size, err := fs.Size("db"); err != nil || size != 5 {
		t.Fatalf("size = %d, %v", size, err)
	}
	snap, err := fs.Snapshot("db")
	if err != nil || string(snap) != "hello" {
		t.Fatalf("snapshot = %q, %v", snap, err)
	}
	if err := fs.Close(fd); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(ctx, fd, []byte("x")); !errors.Is(err, ErrBadFD) {
		t.Fatalf("write to closed fd: %v", err)
	}
	if ctx.Now() == 0 {
		t.Fatal("filesystem operations charged no virtual time")
	}
}

func TestFSSeekModes(t *testing.T) {
	fs := NewFS(FSCost{})
	m, _ := sgx.NewMachine()
	ctx := m.NewContext("t")
	fd, err := fs.Open(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(ctx, fd, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if pos, _ := fs.Lseek(ctx, fd, 0, SeekEnd); pos != 100 {
		t.Fatalf("SeekEnd pos = %d", pos)
	}
	if pos, _ := fs.Lseek(ctx, fd, -10, SeekCur); pos != 90 {
		t.Fatalf("SeekCur pos = %d", pos)
	}
	if _, err := fs.Lseek(ctx, fd, -1000, SeekCur); !errors.Is(err, ErrInvalidSeek) {
		t.Fatalf("negative seek: %v", err)
	}
	if _, err := fs.Lseek(ctx, fd, 0, 99); !errors.Is(err, ErrInvalidSeek) {
		t.Fatalf("bad whence: %v", err)
	}
	// Sparse write past EOF extends with zeroes.
	if _, err := fs.Lseek(ctx, fd, 200, SeekSet); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Write(ctx, fd, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if size, _ := fs.Size("f"); size != 201 {
		t.Fatalf("sparse size = %d, want 201", size)
	}
}

func TestFSReadEOF(t *testing.T) {
	fs := NewFS(FSCost{})
	m, _ := sgx.NewMachine()
	ctx := m.NewContext("t")
	fd, _ := fs.Open(ctx, "f")
	buf := make([]byte, 4)
	if _, err := fs.Read(ctx, fd, buf); !errors.Is(err, io.EOF) {
		t.Fatalf("read empty file: %v, want EOF", err)
	}
}

func TestSpawnAndWait(t *testing.T) {
	k := newTestKernel(t)
	results := make(chan sgx.ThreadID, 3)
	for i := 0; i < 3; i++ {
		k.Spawn("worker", func(ctx *sgx.Context) {
			ctx.Compute(time.Microsecond)
			results <- ctx.ID()
		})
	}
	k.Wait()
	close(results)
	seen := map[sgx.ThreadID]bool{}
	for id := range results {
		if seen[id] {
			t.Fatalf("duplicate thread id %d", id)
		}
		seen[id] = true
	}
	if len(seen) != 3 {
		t.Fatalf("spawned %d threads, want 3", len(seen))
	}
}

func TestMMUFaultGoesThroughSignals(t *testing.T) {
	k := newTestKernel(t)
	ctx := k.Machine.NewContext("main")
	enc, err := k.Driver.CreateEnclave(ctx, sgx.Config{HeapBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	k.Signals.Sigaction(SIGSEGV, func(c *sgx.Context, sig Signal, info *SigInfo) bool {
		hits++
		k.Machine.SetMMUPerm(info.Page, info.Page.SGXPerm)
		return true
	})
	if err := ctx.EEnter(enc); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ctx.EExit() }()
	v, err := ctx.HeapAlloc(64)
	if err != nil {
		t.Fatal(err)
	}
	k.Machine.SetMMUPerm(enc.PageAt(v), 0)
	if err := ctx.TouchRange(v, 64, true); err != nil {
		t.Fatal(err)
	}
	if hits != 1 {
		t.Fatalf("signal handler hits = %d, want 1", hits)
	}
}

func TestSGXv2GrowthUnderEPCPressure(t *testing.T) {
	// An SGXv2 enclave grows its heap (EAUG) past the build-time size
	// while the EPC is too small to hold everything: growth and paging
	// must compose.
	k := newTestKernel(t, sgx.WithEPCCapacity(96))
	ctx := k.Machine.NewContext("main")
	enc, err := k.Driver.CreateEnclave(ctx, sgx.Config{
		Name:             "v2",
		HeapBytes:        8 * 4096,
		HeapReserveBytes: 64 * 4096,
		SGXv2:            true,
		CodeBytes:        4096,
		StackBytes:       4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctx.EEnter(enc); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ctx.EExit() }()

	// Allocate far beyond the committed heap: EAUG commits reserve pages.
	v, err := ctx.HeapAlloc(60 * 4096)
	if err != nil {
		t.Fatal(err)
	}
	pattern := bytes.Repeat([]byte{0xAB}, 64)
	for i := 0; i < 60; i++ {
		if err := ctx.WriteBytes(v+sgx.Vaddr(i*4096), pattern); err != nil {
			t.Fatalf("write page %d: %v", i, err)
		}
	}
	// Sweep back: evicted EAUG pages must return intact.
	for i := 0; i < 60; i++ {
		got := make([]byte, 64)
		if err := ctx.ReadBytes(v+sgx.Vaddr(i*4096), got); err != nil {
			t.Fatalf("read page %d: %v", i, err)
		}
		if !bytes.Equal(got, pattern) {
			t.Fatalf("EAUG page %d corrupted", i)
		}
	}
	ins, outs := k.Driver.Stats()
	if ins == 0 || outs == 0 {
		t.Fatalf("expected paging under pressure: ins=%d outs=%d", ins, outs)
	}
}
