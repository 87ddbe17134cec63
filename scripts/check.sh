#!/usr/bin/env bash
# Single CI gate for the RouteNet workspace:
#   formatting -> clippy (deny warnings) -> clippy lint policy -> static
#   analysis -> build -> tests
#
# Usage: scripts/check.sh [--quick]
#   --quick   pre-commit loop: formatting, the library lint policy (panics,
#             casts, float equality, hash-order iteration, discarded errors,
#             direct std::fs, std::sync locks), the analyzer gate (the same
#             full scan as the full mode), and the analyzer's own test
#             suite — no all-targets clippy, no release build, no workspace
#             tests.
set -euo pipefail

cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
    QUICK=1
elif [[ -n "${1:-}" ]]; then
    echo "usage: scripts/check.sh [--quick]" >&2
    exit 2
fi

step() { printf '\n==> %s\n' "$*"; }

step "cargo fmt --check"
cargo fmt --all --check

if [[ "$QUICK" -eq 0 ]]; then
    step "cargo clippy (deny warnings)"
    cargo clippy --workspace --all-targets -- -D warnings
fi

# The lint policy that replaced the analyzer's retired rules (IDs in
# parentheses; see CONTRIBUTING.md). Binaries may panic, discard errors and
# touch std::fs directly, but float comparison and lossy casts are checked
# everywhere. Suppress a finding with `#[expect(clippy::<lint>, reason = "...")]`
# on the narrowest statement or item; clippy reports the expectation when it
# goes stale. clippy.toml holds the disallowed method and type lists, and
# `#![deny(clippy::indexing_slicing)]` at the top of each hot-path file adds
# the indexing check there.
NUMERIC_LINTS=(
    -D clippy::float_cmp                # RN002 float-eq
    -D clippy::cast_possible_truncation # RN004 cast
    -D clippy::cast_sign_loss
    -D clippy::cast_possible_wrap
)
LIBRARY_LINTS=(
    "${NUMERIC_LINTS[@]}"
    -D clippy::unwrap_used              # RN001 panic
    -D clippy::expect_used
    -D clippy::panic
    -D clippy::unreachable
    -D clippy::todo
    -D clippy::unimplemented
    -D clippy::iter_over_hash_type      # RN101 determinism
    -D clippy::let_underscore_must_use  # RN102 error-discard
    -D clippy::unused_result_ok
    -D clippy::disallowed_methods       # RN101 determinism, RN202/RN203 one parallel region, RN301 io-seam
    -D clippy::disallowed_types         # RN301 io-seam, RN204 hot-loop-lock (std::sync locks)
)
step "cargo clippy --lib (library lint policy)"
cargo clippy --workspace --lib -- -D warnings "${LIBRARY_LINTS[@]}"
if [[ "$QUICK" -eq 0 ]]; then
    step "cargo clippy --bins (float and cast lints)"
    cargo clippy --workspace --bins -- -D warnings "${NUMERIC_LINTS[@]}"
fi

# The analyzer checks what clippy cannot: NaN-unsound comparisons, unchecked
# invariants, relaxed publication, and unit/NaN dataflow (rule table in
# CONTRIBUTING.md). Racing writes in parallel code are the borrow checker's
# (`unsafe_code` is denied workspace-wide; it replaced RN201), hot-loop
# allocation is measured by tests/alloc_counts.rs (RN103), and parallel
# determinism rests on one scoped-thread helper,
# routenet_core::par::strided_map, that the library clippy step above keeps
# the only parallel region, plus the 1-vs-N byte-identity tests in the
# workspace test step (RN202, RN203). Locks (RN204) are the library clippy
# step's disallowed std::sync::Mutex and RwLock, and tests/alloc_counts.rs
# keeps telemetry calls, the one lock the hot loops can reach, out of the
# simulator's event loop and the training epoch. Every finding fails the
# gate, so the rule registry alone decides what blocks CI. --quick runs the
# same whole-workspace scan: the unit environment spans the whole tree
# either way.
#
# The scan runs under a wall-clock budget of ANALYZER_BUDGET_S seconds
# (default 20; raise it on slow machines), so a rule that slows the gate down
# fails CI instead of taxing every run. Compilation is outside the budget.
step "routenet-analyzer --workspace"
mkdir -p target
cargo build -q -p routenet-analyzer
ANALYZER_STATUS=0
TIMEFORMAT='analyzer gate: %3Rs wall'
time timeout "${ANALYZER_BUDGET_S:-20}" ./target/debug/routenet-analyzer --workspace \
    --json target/analyzer-report.json || ANALYZER_STATUS=$?
if [[ "$ANALYZER_STATUS" -eq 124 ]]; then
    echo "error: analyzer gate exceeded its budget (${ANALYZER_BUDGET_S:-20}s)" >&2
    exit 1
elif [[ "$ANALYZER_STATUS" -ne 0 ]]; then
    exit "$ANALYZER_STATUS"
fi

if [[ "$QUICK" -eq 1 ]]; then
    step "cargo test -p routenet-analyzer (rules + fixtures + golden)"
    cargo test -q -p routenet-analyzer
    step "quick checks passed"
    exit 0
fi

step "cargo build --release"
cargo build --release

# Allocation counts in release: debug builds allocate in debug_assert!
# checks once per hop, so only here must a warm predict pass and a served
# batch allocate the same count at every t_iterations.
step "allocation counts (release)"
cargo test -q --release --test alloc_counts

# The pin on every published table's bytes (a tiny `report` run) trains
# eight small models: 3 s in release, about 40 s in debug, where the test is
# ignored. Debug and release write the same bytes, so it runs here.
step "published-table pin (release)"
cargo test -q --release -p routenet-bench --test report_pin

step "cargo test --workspace"
cargo test --workspace -q

# The benchmark package (bench/) is outside the Cargo workspace, so the step
# above never compiles it, yet it calls nn and core APIs directly. Its schema
# test runs every workload at a tiny size and checks every metric is emitted.
step "cargo test bench-ledger (benchmark schema test)"
cargo test -q --release --offline --manifest-path bench/Cargo.toml

# Resume-determinism smoke test: training 2 epochs, checkpointing, and
# resuming for 2 more must be bit-identical to training 4 epochs straight.
# Guards the crash-safety contract (see DESIGN.md "Failure model & recovery").
step "resume-determinism smoke test"
cargo test -q --test resume_determinism

# Chaos smoke test: replay the pinned fault-schedule corpus through the IO
# seam (see DESIGN.md "Fault model & injection"). Under every schedule the
# run must complete or fail with a typed error plus a loadable checkpoint,
# transient faults must be absorbed by retry, and telemetry faults must
# leave training byte-identical. The library clippy step above already
# enforces the seam boundary itself (clippy's disallowed std::fs lists).
step "chaos smoke test (fault-injection corpus)"
cargo test -q --test chaos

# Telemetry smoke test: a tiny end-to-end training run and a single
# simulation must each leave a parseable, gapless telemetry JSONL with the
# expected event kinds (see DESIGN.md "Observability"). validate-telemetry
# checks strict seq ordering and required kinds; a regression in any sink,
# event type, or bin wiring fails here before it can silently blind a run.
step "telemetry smoke test"
TELDIR="$(mktemp -d)"
trap 'rm -rf "$TELDIR"' EXIT
cargo run -q --release -p routenet-bench --bin gen-dataset -- \
    --samples 4 --seed 7 --duration 60 --out "$TELDIR/train.jsonl" >/dev/null
cargo run -q --release -p routenet-bench --bin train-model -- \
    --train "$TELDIR/train.jsonl" --lenient --epochs 2 \
    --out "$TELDIR/model.json" >/dev/null
cargo run -q --release -p routenet-bench --bin validate-telemetry -- \
    --log "$TELDIR/model.json.telemetry.jsonl" \
    --require RunStart,DatasetLoad,Epoch,RunEnd
cargo run -q --release -p routenet-bench --bin simulate -- \
    --topology nsfnet --duration 40 --warmup 4 --seed 7 \
    --out "$TELDIR/sim.telemetry.jsonl" >/dev/null
cargo run -q --release -p routenet-bench --bin validate-telemetry -- \
    --log "$TELDIR/sim.telemetry.jsonl" \
    --require RunStart,SimRun,RunEnd
# Disabled telemetry must stay within noise of an enabled handle (the
# wall-clock comparison is #[ignore]d from the default suite; see the test).
cargo test -q --release -p routenet-simnet --test telemetry_overhead \
    -- --ignored

# Thread-count equivalence smoke test: training splits each minibatch
# across workers and reduces per-sample gradients in sample order, so the
# model artifact must be byte-identical at every worker count (see DESIGN.md
# "Batched execution & memory arenas"). Threads=1 is the reference. The
# sweep is capped at the machine's core count: running 4 workers on a 2-core
# box measures oversubscription, not scaling, so those points are skipped
# with a note rather than reported as data.
step "thread-count equivalence smoke test"
cargo run -q --release -p routenet-bench --bin train-model -- \
    --train "$TELDIR/train.jsonl" --lenient --epochs 2 --threads 1 \
    --out "$TELDIR/model-t1.json" --no-telemetry >/dev/null
CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
for THREADS in 2 4; do
    if [[ "$THREADS" -gt "$CORES" ]]; then
        echo "note: skipping ${THREADS}-thread smoke (only ${CORES} core(s) available)"
        continue
    fi
    cargo run -q --release -p routenet-bench --bin train-model -- \
        --train "$TELDIR/train.jsonl" --lenient --epochs 2 --threads "$THREADS" \
        --out "$TELDIR/model-t$THREADS.json" --no-telemetry >/dev/null
    cmp "$TELDIR/model-t$THREADS.json" "$TELDIR/model-t1.json"
done

# Serving smoke test: start the micro-batching daemon on an ephemeral
# loopback port with the model trained above, fire the training scenarios at
# it from concurrent pipelined connections, and require the served responses
# to be BYTE-identical to the offline predict path serialized through the
# same wire encoder (see DESIGN.md "Serving" — micro-batch composition must
# never perturb answers). The daemon's telemetry must carry the Serve digest.
step "serve smoke test (daemon vs offline byte-equivalence)"
cargo run -q --release -p routenet-bench --bin routenet-serve -- \
    --model "$TELDIR/model.json" --listen 127.0.0.1:0 \
    --port-file "$TELDIR/serve.port" --max-batch 16 --batch-window-us 2000 \
    --telemetry "$TELDIR/serve.telemetry.jsonl" 2>"$TELDIR/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
    [[ -f "$TELDIR/serve.port" ]] && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$TELDIR/serve.log" >&2; exit 1; }
    sleep 0.1
done
[[ -f "$TELDIR/serve.port" ]] || { echo "daemon never bound" >&2; cat "$TELDIR/serve.log" >&2; exit 1; }
SERVE_PORT="$(cat "$TELDIR/serve.port")"
cargo run -q --release -p routenet-bench --bin serve-loadgen -- \
    --connect "127.0.0.1:$SERVE_PORT" --data "$TELDIR/train.jsonl" \
    --repeat 6 --concurrency 4 --window 4 \
    --out "$TELDIR/served.jsonl" --shutdown
wait "$SERVE_PID" || { echo "daemon exited nonzero" >&2; cat "$TELDIR/serve.log" >&2; exit 1; }
cargo run -q --release -p routenet-bench --bin serve-loadgen -- \
    --offline --model "$TELDIR/model.json" --data "$TELDIR/train.jsonl" \
    --repeat 6 --out "$TELDIR/offline.jsonl"
cmp "$TELDIR/served.jsonl" "$TELDIR/offline.jsonl"
cargo run -q --release -p routenet-bench --bin validate-telemetry -- \
    --log "$TELDIR/serve.telemetry.jsonl" \
    --require RunStart,Serve,RunEnd

step "all checks passed"
