#!/usr/bin/env bash
# Hermetic-build verification: the workspace must build, test, and bench
# with zero network access and zero non-workspace crates in the
# dependency graph (DESIGN.md §6).
set -euo pipefail
cd "$(dirname "$0")/.."

WORKSPACE_CRATES="hstencil hstencil-testkit hstencil-core hstencil-serve hstencil-bench hstencil-conformance lx2-isa lx2-sim"

# The gates below change meaning with the host's ISA: the avx512
# conformance variants and bench group register only where avx512f
# exists, and check_bench_json skips gates over the bench groups an
# artifact lists in `skipped_groups`. Print what this host has so a log
# line explains any skip notices.
host_features() {
    local flags have=""
    flags="$(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null || true)"
    for f in avx2 fma avx512f; do
        case " $flags " in
            *" $f "*) have="$have $f" ;;
            *) have="$have !$f" ;;
        esac
    done
    echo "$have"
}
# Which bodies of the temporally-vectorized wavefront family (DESIGN.md
# §15) this host can execute: the scalar body always runs; the avx2 and
# avx512 bodies (and their conformance twins) need the matching flags.
tempvec_variants() {
    local feats="$1" v="scalar"
    case "$feats" in *" avx2"*) case "$feats" in *" fma"*) v="$v avx2" ;; esac ;; esac
    case "$feats" in *" avx512f"*) v="$v avx512" ;; esac
    echo "$v"
}
FEATURES="$(host_features)"
echo "==> host CPU features:$FEATURES"
echo "==> tempvec bodies this host can run: $(tempvec_variants "$FEATURES")"
# Which kernel the auto path resolves for one streaming f64 shape (the
# perfbench stream_timesteps case): "tempvec" means multi-sweep runs
# take the fused wavefront by default on this host (DESIGN.md §15).
echo "==> streaming f64 auto dispatch: $(cargo run -q --release --offline --bin hstencil -- dispatch --stencil star2d5p --size 12800 --threads 2 --dtype f64)"

echo "==> formatting gate"
cargo fmt --check

echo "==> clippy gate (all targets, warnings are errors)"
cargo clippy -q --workspace --offline --all-targets -- -D warnings

echo "==> rustdoc gate (no-deps, warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --offline

echo "==> offline release build"
cargo build --release --workspace --offline

echo "==> offline test suite"
cargo test -q --workspace --offline

echo "==> conformance matrix (fast tier; CONFORMANCE_EXHAUSTIVE=1 widens it)"
# Differential + metamorphic matrix over every registered variant,
# golden lx2-sim traces, fault-injection self-check.
cargo test -q -p hstencil-conformance --offline

echo "==> conformance coverage artifact"
COVERAGE_JSON="$PWD/target/CONFORMANCE.json"
rm -f "$COVERAGE_JSON"
cargo bench -p hstencil-conformance --bench coverage --offline -- "--out=$COVERAGE_JSON"
if [ ! -f "$COVERAGE_JSON" ]; then
    echo "ERROR: coverage run did not produce $COVERAGE_JSON" >&2
    exit 1
fi

echo "==> dependency-graph audit (workspace crates only)"
# Every node in the resolved graph must be one of ours; any external
# crate name here means the hermetic policy was broken.
tree="$(cargo tree --workspace --offline --edges normal,dev,build --prefix none --format '{p}')"
bad="$(echo "$tree" | awk 'NF {print $1}' | sort -u | grep -vxF -e ${WORKSPACE_CRATES// / -e } || true)"
if [ -n "$bad" ]; then
    echo "ERROR: non-workspace crates in the dependency graph:" >&2
    echo "$bad" >&2
    exit 1
fi
echo "    graph contains only: $(echo "$tree" | awk 'NF {print $1}' | sort -u | tr '\n' ' ')"

echo "==> native executor bench (smoke: 1 sample per config)"
# Smoke numbers are meaningless as a baseline, so write them to a
# scratch path: the repo-root BENCH_native.json is the recorded
# wall-clock trajectory and must only be replaced by real (non-smoke)
# runs committed deliberately.
SMOKE_JSON="$PWD/target/BENCH_native.smoke.json"
rm -f "$SMOKE_JSON"
cargo bench -p hstencil-bench --bench native --offline -- --smoke "--out=$SMOKE_JSON"
if [ ! -f "$SMOKE_JSON" ]; then
    echo "ERROR: bench did not produce $SMOKE_JSON" >&2
    exit 1
fi
# check_bench_json parses the artifact with the testkit JSON reader,
# checks its schema, and judges it against every entry of the gate table
# crates/bench/gates.txt that is bounded in the artifact's own tier (its
# `smoke` field): the loose smoke bounds here, the acceptance bounds on
# the committed baseline below. Each bound's reason and reading history
# is the table's last column (DESIGN.md §16).
cargo run -q --release --offline -p hstencil-bench --bin check_bench_json -- "$SMOKE_JSON"
# The committed baseline must still exist, parse, and hold the recorded
# speedups at the baseline-tier bounds.
if [ ! -f BENCH_native.json ]; then
    echo "ERROR: recorded baseline BENCH_native.json is missing" >&2
    exit 1
fi
cargo run -q --release --offline -p hstencil-bench --bin check_bench_json -- BENCH_native.json

echo "==> serve load-generator bench (smoke tier)"
# Seeded open-loop scenario against the job server: every scenario's p99
# is held to the `serve_p99_ms` entry of crates/bench/gates.txt (loose in
# the smoke tier). Smoke numbers go to a scratch path for the same reason
# as the native bench: the repo-root BENCH_serve.json is the recorded
# latency baseline.
SERVE_SMOKE_JSON="$PWD/target/BENCH_serve.smoke.json"
rm -f "$SERVE_SMOKE_JSON"
cargo bench -p hstencil-bench --bench serve --offline -- --smoke "--out=$SERVE_SMOKE_JSON"
if [ ! -f "$SERVE_SMOKE_JSON" ]; then
    echo "ERROR: serve bench did not produce $SERVE_SMOKE_JSON" >&2
    exit 1
fi
cargo run -q --release --offline -p hstencil-bench --bin check_bench_json -- "$SERVE_SMOKE_JSON"
if [ ! -f BENCH_serve.json ]; then
    echo "ERROR: recorded latency baseline BENCH_serve.json is missing" >&2
    exit 1
fi
cargo run -q --release --offline -p hstencil-bench --bin check_bench_json -- BENCH_serve.json

echo "==> perf diff vs committed baseline (report-only)"
# Smoke samples are too noisy to gate on; this is a human-readable
# trend line. Deliberate baseline refreshes can rerun with
# --fail-on-regression (see scripts/bench_diff.sh).
./scripts/bench_diff.sh BENCH_native.json "$SMOKE_JSON" || true

echo "==> OK: hermetic build verified"
