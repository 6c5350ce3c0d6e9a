GO ?= go
GOFMT ?= gofmt

.PHONY: build test vet lint race verify fuzz bench-switchless serve-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs go vet, fails when gofmt -l lists any file, and runs the
# repository's own analyzer suite (cmd/sgx-perf-vet): the virtual-clock
# and lock-free hot-path invariants, the concurrency dataflow checks
# (lock order, held-across, atomic mixing), the interprocedural
# boundary checks (transition amplification, double fetch, pointer
# escape) and the taint checks (secret flow, EDL directions).
lint: vet
	@unformatted="$$($(GOFMT) -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) run ./cmd/sgx-perf-vet

# The recording pipeline, the live collector (internal/perf/live), whose
# reads flush the recorder's shards while it records, the event store
# with its chunk snapshots and parallel codec (internal/evstore), the
# shared worker pool (internal/pool) behind the
# codec's chunk encode, decode and hashing, and the serve daemon's
# concurrent reports, appends and cache fills are the
# concurrency-sensitive packages; run
# their suites under the race detector, together with the simulator
# layers they drive (machine, SDK runtime, host) — lock-ordering bugs
# between the logger and the SDK sync primitives only surface when both
# run raced. internal/lint joins them for its process-wide tables of
# type-checked GOROOT packages and of the last root's parsed and checked
# packages, which concurrently checked trees share, and for its fan-outs
# on the pool: one tree type-checks its packages and builds their fact
# rows there. The SecureKeeper workload (internal/workloads/keeper)
# joins them for the per-session path MACs and each client's free list
# of request buffers, which its simulated client threads share.
# RACE_PKGS is the one place that list lives; race and verify share it.
RACE_PKGS = ./internal/perf/... ./internal/evstore/... \
	./internal/pool/... ./internal/serve/... ./internal/experiments/... \
	./internal/sgx/... ./internal/sdk/... ./internal/host/... \
	./internal/lint/... ./internal/workloads/keeper/...

race:
	$(GO) test -race $(RACE_PKGS)

# verify is the documented check for this repo: lint (go vet, the gofmt
# gate and the custom analyzers), the tier-1 gate (build + full test
# suite, see ROADMAP.md), the race-detector suites, one iteration of
# each root Go benchmark that times the toolchain (analysis, codec,
# recorder, re-lint and the daemon's warm report read: one that fails
# or panics breaks the build, and no timing is asserted), and vet and tests of the bench/ module, which
# the root ./... does not reach.
verify: lint
	$(GO) build ./...
	$(GO) test ./...
	$(GO) test -race $(RACE_PKGS)
	$(GO) test -run '^$$' -bench 'Analyze|CodecSaveLoad|LoggerContention|LintRelint|ServeWarm' -benchtime 1x .
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Short fuzz smoke over the boundaries that accept untrusted bytes: the
# columnar trace codec round-trip, trace loading as the serve daemon's
# upload and append handlers call it, and the EDL parser; plus the
# analysis fold against its serial reference on fuzzed traces. FUZZTIME
# bounds each target (CI uses the default).
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz=FuzzCodecRoundTrip -fuzztime=$(FUZZTIME) ./internal/evstore
	$(GO) test -fuzz=FuzzTraceLoad -fuzztime=$(FUZZTIME) ./internal/perf/events
	$(GO) test -fuzz=FuzzParse -fuzztime=$(FUZZTIME) ./internal/edl
	$(GO) test -fuzz=FuzzFoldMatchesReference -fuzztime=$(FUZZTIME) ./internal/perf/analyzer

# Run the closed switchless loop (baseline → lint → auto-config →
# re-measure) and merge the outcome into BENCH_results.json under the
# "switchless" key; the bench exits non-zero unless the auto-configured
# run beats the 1.5x speedup bar with identical results and a converged
# scheduler.
bench-switchless:
	$(GO) run ./cmd/sgx-perf-bench -exp switchless -json BENCH_results.json

# End-to-end daemon smoke: build the binaries, record a trace, check
# `sgx-perf-analyze -stream -json` is byte-identical to `-json`, boot
# sgx-perf-serve on a free port, upload the trace over HTTP and check
# GET /v1/report is byte-identical to offline `sgx-perf-analyze -json`.
serve-smoke:
	./scripts/serve_smoke.sh
