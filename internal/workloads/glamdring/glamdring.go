// Package glamdring reproduces the paper's Glamdring-partitioned LibreSSL
// workload (§5.2.3): a certificate-signing benchmark whose big-number
// subtraction (bn_sub_part_words) lives inside the enclave while the rest
// of the signing code stays outside — the partition the Glamdring tool
// produced, and the one whose excessive short ecalls sgx-perf diagnoses.
//
// Three variants:
//
//   - VariantNative:    everything outside, no enclave.
//   - VariantEnclave:   the Glamdring partition — every bn_sub_part_words
//     is an ecall, issued in pairs by bn_mul_recursive;
//     short allocation ocalls fire from inside.
//   - VariantOptimized: bn_mul_recursive moved entirely into the enclave
//     (the paper's fix), one ecall per multiplication.
package glamdring

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/big"
	"time"

	"sgxperf/internal/edl"
	"sgxperf/internal/host"
	"sgxperf/internal/sdk"
	"sgxperf/internal/sgx"
	"sgxperf/internal/workloads"
	"sgxperf/internal/workloads/bignum"
)

// Variant selects the partition (see package doc).
type Variant string

// Variants.
const (
	VariantNative    Variant = "native"
	VariantEnclave   Variant = "enclave"
	VariantOptimized Variant = "optimized"
	// VariantSwitchless keeps the Glamdring partition (every
	// bn_sub_part_words crosses the boundary) but issues the calls over
	// an in-enclave worker queue instead of EENTER/EEXIT — the
	// SCONE/HotCalls/Eleos technique the paper discusses as the
	// alternative to interface redesign (§2.3, §6). Not part of the
	// paper's Fig. 6; used by the switchless ablation.
	VariantSwitchless Variant = "switchless"
)

// Variants lists the paper's variants in evaluation order.
func Variants() []Variant {
	return []Variant{VariantNative, VariantEnclave, VariantOptimized}
}

// AllVariants additionally includes the switchless extension.
func AllVariants() []Variant {
	return append(Variants(), VariantSwitchless)
}

// Interface-shape constants from §5.2.3: the Glamdring-generated enclave
// declares 171 ecalls and 3,357 ocalls, of which only a handful are hot.
const (
	declaredEcalls = 171
	declaredOcalls = 3357
	// expandEvery issues one short allocation ocall per this many
	// bn_sub_part_words calls, reproducing the ≈110k ocalls per 6.6M
	// ecalls ratio.
	expandEvery = 58
	// scratchPages is the in-enclave scratch region the hot path cycles
	// through, shaping the steady-state working set (§5.2.3: 32 pages).
	scratchPages = 24
	// startupPages are touched once at initialisation (§5.2.3: 61 pages
	// after start-up).
	startupPages = 52
)

// RecommendedHostOptions returns the host configuration the experiment
// uses for this workload: a mitigation level plus the in-enclave compute
// penalty for the data-heavy big-number code.
func RecommendedHostOptions(m sgx.MitigationLevel) []host.Option {
	return []host.Option{
		host.WithMitigation(m),
		host.WithEnclaveComputeFactor(2.0),
	}
}

// Key is the deterministic 512-bit signing key (modulus and private
// exponent). Fixed so runs are reproducible.
type Key struct {
	N bignum.Int
	D bignum.Int
}

// DefaultKey returns the workload's fixed key.
func DefaultKey() Key {
	n, _ := new(big.Int).SetString(
		"c3a5c85c97cb3127b11d55faf0c5402e8ae186de983ef4e4a9b4c225f6d5dd7f"+
			"2e0f0f9e6e0ebc9a37dfd0ab1a9c1fbc8a3c2b1d4e5f60718293a4b5c6d7e8f1", 16)
	d, _ := new(big.Int).SetString(
		"9d2b5e8f1c4a70d6b3e9f2a5c8d1407eb6a3f0c9d2e5b8a1f4c7d0a3b6e9f2c5"+
			"d8a1b4e7f0a3c6d9b2e5f8a1c4d7e0b3a6f9c2d5e8b1a4f7c0d3a6b9e2f5c801", 16)
	return Key{N: bignum.MustFromBig(n), D: bignum.MustFromBig(d)}
}

// Certificate is the to-be-signed document.
type Certificate struct {
	Serial  uint64
	Subject string
}

// digest hashes the certificate into a number below the modulus width.
func (c Certificate) digest() bignum.Int {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], c.Serial)
	h := sha256.New()
	h.Write(buf[:])
	h.Write([]byte(c.Subject))
	sum := h.Sum(nil)
	// Widen to 512 bits by doubling the hash, as a simple deterministic
	// padding (this is a performance workload, not a secure scheme).
	return bignum.FromBytes(append(sum, sum...))
}

// DigestForTest exposes the certificate digest so tests can verify
// signatures independently with math/big.
func DigestForTest(c Certificate) *big.Int { return c.digest().Big() }

// subArgs are the marshalled arguments of ecall_bn_sub_part_words.
type subArgs struct {
	Dst, A, B bignum.Int
	Neg       bignum.Word
}

// CopyInBytes implements sdk.Copied.
func (a *subArgs) CopyInBytes() int { return 8 * (len(a.A) + len(a.B)) }

// CopyOutBytes implements sdk.Copied.
func (a *subArgs) CopyOutBytes() int { return 8 * len(a.Dst) }

// mulArgs are the marshalled arguments of ecall_bn_mul_recursive.
type mulArgs struct {
	X, Y bignum.Int
	Out  bignum.Int
}

// CopyInBytes implements sdk.Copied.
func (a *mulArgs) CopyInBytes() int { return 8 * (len(a.X) + len(a.Y)) }

// CopyOutBytes implements sdk.Copied.
func (a *mulArgs) CopyOutBytes() int { return 8 * len(a.Out) }

// Workload is one configured Glamdring-LibreSSL instance.
type Workload struct {
	h       *host.Host
	variant Variant
	key     Key

	app        *sdk.AppEnclave
	proxies    map[string]sdk.Proxy
	otab       *sdk.OcallTable
	switchless *sdk.Switchless
	initDone   bool
}

// New builds the workload on the host. For the enclave variants this
// creates the partitioned enclave with its 171-ecall / 3,357-ocall
// interface.
func New(h *host.Host, variant Variant) (*Workload, error) {
	w := &Workload{h: h, variant: variant, key: DefaultKey()}
	if variant == VariantNative {
		return w, nil
	}

	iface := edl.NewInterface()
	hot := []string{"ecall_bn_sub_part_words", "ecall_bn_mul_recursive", "ecall_glamdring_init"}
	for _, name := range hot {
		if _, err := iface.AddEcall(name, true); err != nil {
			return nil, err
		}
	}
	for i := len(hot); i < declaredEcalls; i++ {
		if _, err := iface.AddEcall(fmt.Sprintf("ecall_glamdring_gen_%03d", i), true); err != nil {
			return nil, err
		}
	}
	if _, err := iface.AddOcall("enclave_ocall_bn_expand", nil); err != nil {
		return nil, err
	}
	for i := 1; i < declaredOcalls; i++ {
		if _, err := iface.AddOcall(fmt.Sprintf("enclave_ocall_gen_%04d", i), nil); err != nil {
			return nil, err
		}
	}

	var scratch sgx.Vaddr
	subCount := 0
	// meterOf charges big-number work to the executing thread (inside the
	// enclave, so the compute factor applies).
	meterOf := func(env *sdk.Env) bignum.Meter {
		return bignum.MeterFunc(func(d time.Duration) { env.Compute(d) })
	}
	touchScratch := func(env *sdk.Env) {
		if scratch == 0 {
			return
		}
		page := subCount % scratchPages
		_ = env.Touch(scratch+sgx.Vaddr(page*sgx.PageSize), 8, true)
	}
	impl := map[string]sdk.TrustedFn{
		"ecall_glamdring_init": func(env *sdk.Env, args any) (any, error) {
			if scratch != 0 {
				return nil, nil // already initialised
			}
			v, err := env.Alloc(startupPages * sgx.PageSize)
			if err != nil {
				return nil, err
			}
			if err := env.Touch(v, startupPages*sgx.PageSize, true); err != nil {
				return nil, err
			}
			scratch = v
			return nil, nil
		},
		"ecall_bn_sub_part_words": func(env *sdk.Env, args any) (any, error) {
			a, ok := args.(*subArgs)
			if !ok {
				return nil, fmt.Errorf("glamdring: bad subArgs %T", args)
			}
			subCount++
			touchScratch(env)
			a.Neg = bignum.SubPartWords(meterOf(env), a.Dst, a.A, a.B)
			if subCount%expandEvery == 0 {
				if _, err := env.Ocall("enclave_ocall_bn_expand", nil); err != nil {
					return nil, err
				}
			}
			return a, nil
		},
		"ecall_bn_mul_recursive": func(env *sdk.Env, args any) (any, error) {
			a, ok := args.(*mulArgs)
			if !ok {
				return nil, fmt.Errorf("glamdring: bad mulArgs %T", args)
			}
			m := meterOf(env)
			a.Out = bignum.MulRecursive(m, a.X, a.Y, func(dst, x, y bignum.Int) bignum.Word {
				subCount++
				touchScratch(env)
				if subCount%expandEvery == 0 {
					_, _ = env.Ocall("enclave_ocall_bn_expand", nil)
				}
				return bignum.SubPartWords(m, dst, x, y)
			})
			return a, nil
		},
	}

	numTCS := 2
	if variant == VariantSwitchless {
		numTCS = 4 // two parked workers plus the regular entries
	}
	ctx := h.NewContext("glamdring-init")
	app, err := h.URTS.CreateEnclave(ctx, sgx.Config{
		Name:       "glamdring-libressl",
		CodeBytes:  6 * sgx.PageSize,
		HeapBytes:  (startupPages + scratchPages + 8) * sgx.PageSize,
		StackBytes: 4 * sgx.PageSize,
		NumTCS:     numTCS,
	}, iface, impl)
	if err != nil {
		return nil, fmt.Errorf("glamdring: %w", err)
	}

	ocalls := map[string]sdk.OcallFn{
		"enclave_ocall_bn_expand": func(ctx *sgx.Context, args any) (any, error) {
			// A very short untrusted allocation (§5.2.3: 78.65% of ocalls
			// are shorter than 1µs).
			ctx.Compute(300 * time.Nanosecond)
			return nil, nil
		},
	}
	for i := 1; i < declaredOcalls; i++ {
		ocalls[fmt.Sprintf("enclave_ocall_gen_%04d", i)] = func(ctx *sgx.Context, args any) (any, error) {
			return nil, nil
		}
	}
	otab, err := sdk.BuildOcallTable(iface, h.URTS, ocalls)
	if err != nil {
		return nil, err
	}
	w.app = app
	w.otab = otab
	w.proxies = sdk.Proxies(app, h.Proc, otab)
	if variant == VariantSwitchless {
		// Equal bounds: two workers for the run's lifetime, no scheduler.
		cfg := sdk.SwitchlessConfig{MinWorkers: 2, MaxWorkers: 2, QueueDepth: 16}
		sl, err := h.URTS.StartSwitchless(app, cfg, otab)
		if err != nil {
			return nil, fmt.Errorf("glamdring: %w", err)
		}
		w.switchless = sl
	}
	return w, nil
}

// Close stops any switchless workers. Safe on every variant.
func (w *Workload) Close() {
	if w.switchless != nil {
		w.switchless.Stop()
	}
}

// SwitchlessStats reports queue statistics for the switchless variant;
// nil otherwise.
func (w *Workload) SwitchlessStats() (served, fellBack uint64) {
	if w.switchless == nil {
		return 0, 0
	}
	return w.switchless.Stats()
}

// Enclave returns the workload's enclave (nil for the native variant), for
// working-set estimation.
func (w *Workload) Enclave() *sgx.Enclave {
	if w.app == nil {
		return nil
	}
	return w.app.Enclave()
}

// Init performs the start-up phase (enclave initialisation touches its
// startup pages). A no-op for the native variant.
func (w *Workload) Init(ctx *sgx.Context) error {
	if w.variant == VariantNative || w.initDone {
		return nil
	}
	w.initDone = true
	_, err := w.proxies["ecall_glamdring_init"](ctx, nil)
	return err
}

// Sign signs one certificate, routing the big-number work according to
// the variant, and returns the signature.
func (w *Workload) Sign(ctx *sgx.Context, cert Certificate) (bignum.Int, error) {
	meter := bignum.MeterFunc(func(d time.Duration) { ctx.Compute(d) })
	z := cert.digest()
	zmod, err := bignum.Mod(meter, z, w.key.N)
	if err != nil {
		return nil, err
	}
	return w.modExp(ctx, meter, zmod, w.key.D, w.key.N)
}

// modExp is the signing exponentiation with variant-specific
// multiplication.
func (w *Workload) modExp(ctx *sgx.Context, meter bignum.Meter, base, exp, n bignum.Int) (bignum.Int, error) {
	mul, err := w.mulFn(ctx, meter)
	if err != nil {
		return nil, err
	}
	result := bignum.Int{1}
	b := base.Clone()
	e := exp
	for i := 0; i < len(e)*64; i++ {
		if e[i/64]>>(uint(i)%64)&1 == 1 {
			prod, err := mul(result, b)
			if err != nil {
				return nil, err
			}
			if result, err = bignum.Mod(meter, prod, n); err != nil {
				return nil, err
			}
		}
		sq, err := mul(b, b)
		if err != nil {
			return nil, err
		}
		if b, err = bignum.Mod(meter, sq, n); err != nil {
			return nil, err
		}
	}
	return result, nil
}

// mulFn returns the variant's multiplication strategy.
func (w *Workload) mulFn(ctx *sgx.Context, meter bignum.Meter) (func(x, y bignum.Int) (bignum.Int, error), error) {
	switch w.variant {
	case VariantNative:
		return func(x, y bignum.Int) (bignum.Int, error) {
			return bignum.MulRecursive(meter, x, y, nil), nil
		}, nil
	case VariantEnclave:
		sub := w.proxies["ecall_bn_sub_part_words"]
		return func(x, y bignum.Int) (bignum.Int, error) {
			var callErr error
			out := bignum.MulRecursive(meter, x, y, func(dst, a, b bignum.Int) bignum.Word {
				res, err := sub(ctx, &subArgs{Dst: dst, A: a, B: b})
				if err != nil {
					callErr = err
					return 0
				}
				return res.(*subArgs).Neg
			})
			return out, callErr
		}, nil
	case VariantOptimized:
		mul := w.proxies["ecall_bn_mul_recursive"]
		return func(x, y bignum.Int) (bignum.Int, error) {
			res, err := mul(ctx, &mulArgs{X: x, Y: y})
			if err != nil {
				return nil, err
			}
			return res.(*mulArgs).Out, nil
		}, nil
	case VariantSwitchless:
		decl, ok := w.app.Interface().Lookup("ecall_bn_sub_part_words")
		if !ok {
			return nil, fmt.Errorf("glamdring: sub ecall undeclared")
		}
		subID := decl.ID
		return func(x, y bignum.Int) (bignum.Int, error) {
			var callErr error
			out := bignum.MulRecursive(meter, x, y, func(dst, a, b bignum.Int) bignum.Word {
				res, err := w.switchless.Call(ctx, subID, w.otab, &subArgs{Dst: dst, A: a, B: b})
				if err != nil {
					callErr = err
					return 0
				}
				return res.(*subArgs).Neg
			})
			return out, callErr
		}, nil
	default:
		return nil, fmt.Errorf("glamdring: unknown variant %q", w.variant)
	}
}

// Run executes the signing benchmark: as many signatures as possible
// within opts.Duration of virtual time (the paper runs 30 s), or exactly
// opts.Ops signatures when set.
func (w *Workload) Run(ctx *sgx.Context, opts workloads.Options) (workloads.Result, error) {
	if opts.Duration <= 0 && opts.Ops <= 0 {
		opts.Duration = 30 * time.Second
	}
	if err := w.Init(ctx); err != nil {
		return workloads.Result{}, err
	}
	start := ctx.Now()
	deadline := start + ctx.Clock().Frequency().Cycles(opts.Duration)
	signs := 0
	for {
		if opts.Ops > 0 && signs >= opts.Ops {
			break
		}
		if opts.Duration > 0 && ctx.Now() >= deadline {
			break
		}
		cert := Certificate{Serial: uint64(signs), Subject: "CN=sgx-perf.example"}
		if _, err := w.Sign(ctx, cert); err != nil {
			return workloads.Result{}, fmt.Errorf("glamdring: sign %d: %w", signs, err)
		}
		signs++
	}
	return workloads.Result{
		Workload: "glamdring-libressl",
		Variant:  string(w.variant),
		Ops:      signs,
		Virtual:  ctx.Clock().Frequency().Duration(ctx.Now() - start),
	}, nil
}
