#!/usr/bin/env bash
# Tier-1 gate for the ctbia workspace. Every PR must pass this script
# unchanged; it is what the repo means by "the tests are green".
#
#   scripts/ci.sh
#
# Steps, in order (fail fast):
#   1. cargo fmt --check      -- formatting is canonical
#   2. cargo clippy -D warnings, all targets (tests, benches, examples)
#   3. cargo build --release  -- the release artifacts build, and so does
#                                perfbench (its own workspace, so the
#                                workspace build never compiles it)
#   4. cargo test -q          -- the full unit/property/integration suite
#   5. cargo bench --no-run   -- the criterion microbenches still compile
#   6. golden-trace suite     -- regenerated JSONL traces byte-match the
#                                committed fixtures under tests/golden/
#   7. ctbia bench --quick --metrics
#                             -- sweep-engine smoke run; BENCH_sweep.json
#                                must exist, be byte-deterministic, and
#                                show a fully-memoized warm phase;
#                                BENCH_metrics.json must round-trip;
#                                serial sim-accesses/s must clear a
#                                conservative perf floor and the run must
#                                land in BENCH_history.jsonl
#   8. ctbia trace smoke      -- cycle attribution reconciles (the command
#                                exits non-zero if phases don't sum)
#   9. ctbia verify --quick   -- leakage-verifier smoke run: the CT grid
#                                verifies clean, the intentionally leaky
#                                control is caught (non-zero exit), and
#                                the spectre gadget verifies clean at
#                                spec-window 0 but is caught — with a
#                                wrong-path-fill provenance report — at
#                                spec-window 32
#  10. ctbia analyze --quick  -- static-certification smoke run (hard
#                                60s timeout): the quick grid certifies
#                                0 bits for every protected cell, flags
#                                every insecure cell, and the leaky
#                                control fails `ctbia analyze` non-zero
#  11. serve suites + smoke    -- the e2e/protocol/stress/chaos/tenants/
#                                loadgen suites for the batch-simulation
#                                daemon (chaos runs its first scenario
#                                over TCP), a `ctbia loadgen --quick`
#                                smoke whose BENCH_serve.json must carry
#                                per-phase p99 + throughput keys, then a
#                                live cycle: start `ctbia serve` on a
#                                temp socket + TCP port, submit a cell
#                                that must come back from the shared
#                                memo cache with the digest the direct
#                                run reported (over UDS and again over
#                                TCP), query status --metrics, and exit
#                                cleanly on SIGTERM; every live-daemon
#                                client step runs under a hard `timeout`
#                                so a wedged daemon fails the gate
#                                instead of hanging it
#  12. chaos smoke             -- a daemon with one injected worker panic
#                                answers the poisoned submit cell-failed,
#                                respawns the worker, serves the retry,
#                                reports the restart via `ctbia health`,
#                                and drains cleanly on SIGTERM
set -euo pipefail
cd "$(dirname "$0")/.."

run() {
    echo "==> $*"
    "$@"
}

run cargo fmt --all --check
run cargo clippy --workspace --all-targets -- -D warnings
run cargo build --workspace --release
run cargo build --release --offline --manifest-path perfbench/Cargo.toml
run cargo test --workspace -q
run cargo bench --workspace --no-run

run cargo test -q --test golden_traces
echo "==> golden traces byte-match their fixtures"

run ./target/release/ctbia bench --quick --metrics
grep -q '"schema": "ctbia-bench-sweep-v1"' BENCH_sweep.json
grep -q '"byte_identical": true' BENCH_sweep.json
# The warm phase must be fully memoized whatever the grid size: zero
# cells simulated, every cell a cache hit. The document's own "cells"
# field says how many that is, so this check survives grid changes.
CELLS=$(sed -n 's/.*"cells": \([0-9]*\).*/\1/p' BENCH_sweep.json | head -n 1)
test -n "$CELLS" && test "$CELLS" -gt 0
grep -q "\"executed\": 0, \"cache_hits\": $CELLS }" BENCH_sweep.json
echo "==> BENCH_sweep.json is well-formed and deterministic (warm phase: $CELLS/$CELLS memoized)"
grep -q '"schema": "ctbia-metrics-v1"' BENCH_metrics.json
grep -q '"phase.compute":' BENCH_metrics.json
echo "==> BENCH_metrics.json is versioned and round-trip verified"
# Perf smoke: the serial phase must report a throughput figure, and it
# must clear a conservative floor — a tenth of the data-oriented core's
# steady-state rate, far above noise but low enough that only an
# order-of-magnitude regression (e.g. an accidental debug-path or
# allocation reintroduction) trips it.
PERF_FLOOR=25000000
RATE=$(sed -n 's/.*"sim_accesses_per_sec": \([0-9]*\).*/\1/p' BENCH_sweep.json | head -n 1)
test -n "$RATE"
if [ "$RATE" -lt "$PERF_FLOOR" ]; then
    echo "perf smoke failed: sim_accesses_per_sec $RATE < floor $PERF_FLOOR" >&2
    exit 1
fi
grep -q '"schema": "ctbia-bench-history-v1"' BENCH_history.jsonl
echo "==> perf smoke: $RATE sim accesses/s (floor $PERF_FLOOR), history appended"

run ./target/release/ctbia trace histogram 400 --top 5
echo "==> trace cycle attribution reconciles"

run ./target/release/ctbia verify --quick
echo "==> ctbia verify leaky-bin 300 (must fail)"
if ./target/release/ctbia verify leaky-bin 300 >/dev/null 2>&1; then
    echo "leaky control verified clean — the verifier is blind" >&2
    exit 1
fi
echo "==> verifier catches the leaky control"

# Spectre negative control: the gadget's architectural trace is
# secret-independent, so it verifies clean without speculation — but
# with a wrong-path window the verifier must fail it non-zero AND the
# provenance report must name the wrong-path fill that carried the
# secret.
run ./target/release/ctbia verify spectre 192 --spec-window 0
echo "==> ctbia verify spectre 192 --spec-window 32 (must fail)"
if ./target/release/ctbia verify spectre 192 --spec-window 32 \
    >SPECTRE_verify.out 2>&1; then
    cat SPECTRE_verify.out
    rm -f SPECTRE_verify.out
    echo "spectre gadget verified clean under speculation — the verifier is blind" >&2
    exit 1
fi
grep -q "wrong-path" SPECTRE_verify.out
rm -f SPECTRE_verify.out
echo "==> verifier catches the spectre gadget's wrong-path fills"

# Static certification smoke: the quick grid must certify (protected
# cells at 0 bits, insecure cells caught) within a hard timeout, and the
# leaky control must fail `ctbia analyze` with a non-zero exit.
run timeout 60 ./target/release/ctbia analyze --quick
echo "==> ctbia analyze leaky-bin 300 --strategy insecure (must fail)"
if timeout 60 ./target/release/ctbia analyze leaky-bin 300 --strategy insecure \
    >/dev/null 2>&1; then
    echo "leaky control certified constant-time — the analyzer is blind" >&2
    exit 1
fi
echo "==> analyzer refuses to certify the leaky control"

run cargo test -q -p ctbia-serve --test serve_e2e --test serve_protocol --test serve_stress \
    --test serve_chaos --test serve_tenants --test loadgen_determinism

# Loadgen smoke: the CI-sized run must complete under a hard timeout,
# write a versioned BENCH_serve.json carrying per-phase tail latency and
# throughput figures, and append a serve-history line next to it. CI
# writes to a scratch directory so the committed full-run record at the
# repo root stays the recorded trajectory.
LOADGEN_DIR=$(mktemp -d)
run timeout 120 ./target/release/ctbia loadgen --quick --seed 1 \
    --out "$LOADGEN_DIR/BENCH_serve.json"
grep -q '"schema": "ctbia-serve-bench-v1"' "$LOADGEN_DIR/BENCH_serve.json"
grep -q '"phase.uds_single_warm.p99_us"' "$LOADGEN_DIR/BENCH_serve.json"
grep -q '"phase.tcp_multi_warm.p99_us"' "$LOADGEN_DIR/BENCH_serve.json"
grep -q '"phase.uds_single_warm.throughput_rps"' "$LOADGEN_DIR/BENCH_serve.json"
grep -q '"phase.shard1_warm.throughput_rps"' "$LOADGEN_DIR/BENCH_serve.json"
grep -q '"phase.shard16_warm.throughput_rps"' "$LOADGEN_DIR/BENCH_serve.json"
grep -q '"schema": "ctbia-serve-history-v1"' "$LOADGEN_DIR/BENCH_history.jsonl"
rm -rf "$LOADGEN_DIR"
echo "==> loadgen smoke: per-phase p99 + throughput recorded, history appended"

# Waits (bounded) for a daemon PID to exit after SIGTERM; kills and fails
# the gate if the drain wedges.
drain_or_die() {
    local pid="$1"
    for _ in $(seq 1 100); do
        kill -0 "$pid" 2>/dev/null || break
        sleep 0.1
    done
    if kill -0 "$pid" 2>/dev/null; then
        echo "serve daemon (pid $pid) did not drain within 10s" >&2
        kill -KILL "$pid"
        exit 1
    fi
    wait "$pid"
}

# Live serve cycle. Prime the memo cache with a direct run and record the
# cell's digest; a served submit for the same cell must then come back
# from the cache with that exact digest, and SIGTERM must drain cleanly.
run ./target/release/ctbia run hist 200 --strategy bia --placement l1d --metrics
RUN_DIGEST=$(sed -n 's/.*"digest": \([0-9]*\).*/\1/p' RUN_metrics.json | head -n 1)
test -n "$RUN_DIGEST"
SERVE_DIR=$(mktemp -d)
SOCK="$SERVE_DIR/ctbia.sock"
echo "==> ctbia serve --socket $SOCK --tcp 127.0.0.1:0"
./target/release/ctbia serve --socket "$SOCK" --threads 2 --tcp 127.0.0.1:0 \
    >"$SERVE_DIR/serve.out" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && break
    sleep 0.1
done
test -S "$SOCK"
TCP_ADDR=""
for _ in $(seq 1 100); do
    TCP_ADDR=$(sed -n 's/^tcp listening on //p' "$SERVE_DIR/serve.out" | head -n 1)
    [ -n "$TCP_ADDR" ] && break
    sleep 0.1
done
test -n "$TCP_ADDR"
echo "==> ctbia submit --socket $SOCK hist:200:bia:l1d"
SUBMIT_OUT=$(timeout 60 ./target/release/ctbia submit --socket "$SOCK" hist:200:bia:l1d)
echo "$SUBMIT_OUT"
echo "$SUBMIT_OUT" | grep -q "digest=$RUN_DIGEST "
echo "$SUBMIT_OUT" | grep -q "cached=yes"
run timeout 60 ./target/release/ctbia status --socket "$SOCK" --metrics
grep -q '"schema": "ctbia-metrics-v1"' SERVE_metrics.json
grep -q '"serve.cache_hits": 1' SERVE_metrics.json
# The same daemon serves the same cell over TCP with the same digest.
echo "==> ctbia submit --tcp $TCP_ADDR hist:200:bia:l1d"
timeout 60 ./target/release/ctbia submit --tcp "$TCP_ADDR" hist:200:bia:l1d \
    | grep -q "digest=$RUN_DIGEST "
kill -TERM "$SERVE_PID"
drain_or_die "$SERVE_PID"
test ! -e "$SOCK"
rm -rf "$SERVE_DIR"
echo "==> serve cycle: cache-backed response over UDS and TCP, clean SIGTERM drain"

# Chaos smoke: one injected worker panic. The poisoned submit must fail
# with the typed cell-failed error (and a non-zero exit), the supervisor
# must respawn the worker so a retried submit succeeds, `ctbia health`
# must report the restart, and SIGTERM must still drain cleanly.
CHAOS_DIR=$(mktemp -d)
CSOCK="$CHAOS_DIR/ctbia.sock"
echo "==> ctbia serve --socket $CSOCK --chaos panic:1"
./target/release/ctbia serve --socket "$CSOCK" --threads 1 --no-cache --chaos panic:1 &
CHAOS_PID=$!
for _ in $(seq 1 100); do
    [ -S "$CSOCK" ] && break
    sleep 0.1
done
test -S "$CSOCK"
echo "==> poisoned submit fails typed"
if timeout 60 ./target/release/ctbia submit --socket "$CSOCK" hist:200:bia:l1d \
    >"$CHAOS_DIR/poisoned.out" 2>&1; then
    echo "poisoned submit unexpectedly succeeded" >&2
    exit 1
fi
grep -q "cell-failed" "$CHAOS_DIR/poisoned.out"
echo "==> retried submit succeeds on the respawned worker"
timeout 60 ./target/release/ctbia submit --socket "$CSOCK" --retries 3 --backoff-ms 20 \
    hist:200:bia:l1d | grep -q "digest="
HEALTH_OUT=$(timeout 60 ./target/release/ctbia health --socket "$CSOCK")
echo "$HEALTH_OUT"
echo "$HEALTH_OUT" | grep -Eq "worker_restarts +1"
kill -TERM "$CHAOS_PID"
drain_or_die "$CHAOS_PID"
test ! -e "$CSOCK"
rm -rf "$CHAOS_DIR"
echo "==> chaos smoke: typed failure, worker respawn, clean SIGTERM drain"

echo "==> tier-1 gate passed"
