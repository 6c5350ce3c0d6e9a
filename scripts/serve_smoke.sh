#!/usr/bin/env bash
# End-to-end smoke test for the always-on analysis service: build the
# binaries, record a real workload trace with sgx-perf-log, check the
# out-of-core `sgx-perf-analyze -stream -json` report against the
# resident `-json` one, boot sgx-perf-serve on a free port, upload the
# trace over HTTP, and check that GET /v1/report is byte-for-byte what
# `sgx-perf-analyze -json` prints for the same file — both the cold
# answer and a second, warm one written from the cached bytes.
# Exercises the daemon the way a user does — over the wire, not through
# httptest.
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
serve_pid=""
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
    [ -n "$serve_pid" ] && wait "$serve_pid" 2>/dev/null || true
    rm -rf "$work"
}
trap cleanup EXIT

echo "== build"
go build -o "$work" ./cmd/sgx-perf-log ./cmd/sgx-perf-analyze ./cmd/sgx-perf-serve

echo "== record a golden trace (securekeeper, 500 ops)"
"$work/sgx-perf-log" -workload securekeeper -ops 500 -o "$work/trace.evdb"

echo "== offline reference report"
"$work/sgx-perf-analyze" -json "$work/trace.evdb" > "$work/offline.json"

echo "== out-of-core report (-stream) byte-compared with the resident one"
"$work/sgx-perf-analyze" -stream -json "$work/trace.evdb" > "$work/stream.json"
cmp "$work/offline.json" "$work/stream.json"

echo "== boot sgx-perf-serve on a free port"
"$work/sgx-perf-serve" -addr 127.0.0.1:0 -addr-file "$work/addr" &
serve_pid=$!
for _ in $(seq 1 50); do
    [ -s "$work/addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { echo "serve exited early" >&2; exit 1; }
    sleep 0.1
done
[ -s "$work/addr" ] || { echo "serve never wrote its address" >&2; exit 1; }
addr="$(head -n1 "$work/addr")"
echo "   listening on $addr"

echo "== upload the trace"
curl -sfS -X POST --data-binary @"$work/trace.evdb" \
    "http://$addr/v1/traces?id=golden" > "$work/info.json"
grep -q '"id": "golden"' "$work/info.json"

echo "== fetch the served report"
curl -sfS "http://$addr/v1/report?trace=golden" > "$work/served.json"

echo "== byte-compare served vs offline"
cmp "$work/offline.json" "$work/served.json"

echo "== fetch it again (a cache hit, written from the cached bytes) and byte-compare"
curl -sfS "http://$addr/v1/traces/golden/report" > "$work/served_warm.json"
cmp "$work/offline.json" "$work/served_warm.json"

echo "== health and metrics"
curl -sfS "http://$addr/v1/healthz" > /dev/null
curl -sfS "http://$addr/v1/metrics" | grep -q '"schema_version"'

echo "serve smoke: OK (-stream, cold and warm served reports byte-identical to sgx-perf-analyze -json)"
