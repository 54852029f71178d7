#!/usr/bin/env bash
# Tier-1 verification: build, test, lint. Fully offline — all third-party
# dependencies resolve to the vendored stubs in third_party/.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo build --release --workspace"
cargo build --release --workspace

echo "== cargo test -q --workspace"
cargo test -q --workspace

# Distributed group: the ghost-source boundary exchange, the distributed
# driver's bitwise serial-equivalence suite, the rank-count invariance run
# (1/2/4/5 ranks x mailbox/TCP x both schedules, plus a 2-worker hybrid
# world, all hashing equal to the serial Dycore), and the zero-allocation
# gate for the distributed step. Redundant with the workspace run above but
# named explicitly so a failure localizes immediately.
echo "== distributed test group"
cargo test -q -p homme --lib bndry
cargo test -q -p homme --lib dist
cargo test -q -p homme --test rank_invariance
cargo test -q -p homme --test dist_alloc
cargo test -q -p swcam-bench --test distributed_step

# Fault-injection group: the seeded fault plan and reliable-mode machinery
# in swmpi, the checkpoint codec, the health guards, and the end-to-end
# recovery suite (message faults, checkpoint restart, rank crash + rollback).
echo "== fault-injection test group"
cargo test -q -p swmpi --lib fault
cargo test -q -p swmpi --lib comm
cargo test -q -p swcam-core --lib checkpoint
cargo test -q -p homme --lib health
cargo test -q -p swcam-bench --test fault_injection

# Gather-DSS group: every DSS of the blocked step is an element-parallel
# gather sweep on the scheduler pool, so the bitwise pins against the
# scalar scatter oracle and the standalone member runs are repeated at
# worker counts 1 (serial inline), 2, and 3 (does not divide the element
# counts) — the same matrix CI's thread-parity job runs.
echo "== gather-DSS test group (SWCAM_THREADS 1, 2, 3)"
cargo test -q -p homme --lib dss
for threads in 1 2 3; do
    SWCAM_THREADS=$threads cargo test -q -p homme --test blocked_parity
    SWCAM_THREADS=$threads cargo test -q -p swcam-core --test ensemble_sequential_parity
done
cargo test -q -p swcam-core --test ensemble_thread_parity

# Physics-sweep group: the coupled step has no serial section (DESIGN.md
# §5.11). The physics column sweep is pinned bitwise to the serial column
# loop it replaced for every registered scenario at 1/2/3/5 workers, with
# the lowest rejected column named at every worker count; the blocked
# tracer stage (per tracer chunk, a one-chunk raw buffer → DSS gather sweep
# with the limiter as its epilogue) is pinned to the scalar oracle across
# nlev × qsize × limiter × workers; and three gates hold allocations at
# exactly zero — the pool's worker-owned scratch slots, `Swcam::step` for
# every column suite at 1 and 3 workers beside busy threads, and the moist
# ensemble window. The scheduler's own tests pin the element windows every
# sweep writes through (each element once over an offset range, gaps left
# untouched, nested arenas, short arenas and out-of-window writes
# rejected). Run under each default worker count, as CI's matrix does.
echo "== physics-sweep test group (SWCAM_THREADS 1, 2, 3)"
for threads in 1 2 3; do
    SWCAM_THREADS=$threads cargo test -q -p homme --lib sched
    SWCAM_THREADS=$threads cargo test -q -p swcam-core --test physics_sweep
    SWCAM_THREADS=$threads cargo test -q -p homme --test tracer_sweep
    SWCAM_THREADS=$threads cargo test -q -p homme --test sched_scratch_alloc
    SWCAM_THREADS=$threads cargo test -q -p swcam-core --test swcam_step_alloc
    SWCAM_THREADS=$threads cargo test -q -p swcam-core --test ensemble_alloc
done

# Tracer-chunk group: the cache-resident tracer stage (DESIGN.md §5.12).
# The slot-major DSS gather is pinned bitwise to the scatter walk for 1, 3
# and 4 fields, 1 to 650 levels and a source stride
# deeper than the window, and keeps NaN / ±inf / -0.0 bits; the chunked
# blocked tracer stage (ragged last chunks included) is pinned to the
# scalar oracle at every default worker count; and the remap verdict names
# the lowest failing element whatever the worker count.
echo "== tracer-chunk test group (SWCAM_THREADS 1, 2, 3)"
cargo test -q -p homme --lib dss::tests::gather
cargo test -q -p homme --lib prim::tests::vertical_remap_reports_lowest_failing_element
for threads in 1 2 3; do
    SWCAM_THREADS=$threads cargo test -q -p homme --test tracer_sweep
done

# Step-arenas group: the lean default step (DESIGN.md §5.13). The tracer
# step runs all three SSP stages of a chunk before the next chunk, and the
# blocked KG5 loop reads u_0 from the state and overwrites one stage arena
# in place, one loop for plain and guarded stepping. Guarded == plain
# bitwise at the nggps shape with 25 tracers at 1/2/3 workers, a stage-1..4
# rejection leaves the state untouched (stage 5 leaves u_5), the limiter's
# fast path keeps NaN / ±0.0 / +inf bits and still clips an underflowing
# negative, the chunk-major tracer step is pinned to the scalar oracle, and
# the workspace sizes pin the two dynamics arenas every phase borrows from.
# The zero-allocation gates ride along under each default worker count.
echo "== step-arenas test group (SWCAM_THREADS 1, 2, 3)"
cargo test -q -p homme --test step_arenas
cargo test -q -p homme --lib euler::tests::limiter
cargo test -q -p homme --lib workspace
for threads in 1 2 3; do
    SWCAM_THREADS=$threads cargo test -q -p homme --test tracer_sweep
    SWCAM_THREADS=$threads cargo test -q -p homme --test alloc_regression
    SWCAM_THREADS=$threads cargo test -q -p swcam-core --test swcam_step_alloc
done

# Kernel-parity group: the blocked (default) kernel path must stay bitwise
# identical to the scalar oracle, per operator and over whole serial and
# distributed trajectories, and both must land on the seed driver's pinned
# trajectory hashes (state_arena) under each default worker count. The
# DSS walks' arena-length checks must fire in release builds too.
echo "== kernel-parity test group (SWCAM_THREADS 1, 2, 3)"
cargo test -q -p homme --lib kernels
cargo test -q -p homme --test blocked_parity
cargo test -q -p swcam-bench --test distributed_step
for threads in 1 2 3; do
    SWCAM_THREADS=$threads cargo test -q -p homme --test state_arena
done
cargo test -q --release -p homme --lib dss

# Process-backend group: the transport seam (DESIGN.md §5.8) — the shared
# CRC (known answer + differential against a bit-wise reference), the TCP
# frame codec property suite, the socket transport and elastic-process
# units in swmpi, the exchange-buffer shape-interleaving guard, the
# zero-allocation gate over loopback TCP (reader threads included), the
# loopback TCP↔mailbox bitwise parity run, the multi-process supervisor
# world, and the kill-and-respawn recovery scenario (real SIGKILL,
# checkpoint respawn, epoch re-admission).
echo "== process-backend test group"
cargo test -q -p swmpi --lib wire
cargo test -q -p swmpi --lib tcp
cargo test -q -p swmpi --lib transport
cargo test -q -p swmpi --lib process
cargo test -q -p swmpi --test tcp_frame
cargo test -q -p homme --lib bndry::tests::one_buffer_set_serves_interleaved_shapes
cargo test -q -p homme --test dist_alloc
cargo test -q -p swcam-bench --test process_backend

# Hypervis group: the per-element hyperviscosity plan (DESIGN.md §5.7) —
# plan build/validation units, the fused-sweep bitwise parity across
# level/sponge shapes, mass conservation, shallow-column sponge clamps
# (serial + distributed), the typed-rejection rollback routing, and the
# subcycle count derived from the element-local lambda_max bound: the count
# rule and the unstable-count rejection (units), the bound at most 2% above
# a converged assembled power iteration and never below it, its symmetry
# wedge equal to the all-element maximum for both blocks, tight against the
# stability edge from both sides, its bits equal on every rank and in the
# ensemble's dycore, and the 3-vs-36-subcycle agreement run.
echo "== hypervis test group"
cargo test -q -p homme --lib hypervis
cargo test -q -p homme --test hypervis_parity
cargo test -q -p swcam-core --test ensemble_parity ensemble_dycore_measures_the_standalone_lambda_max

# Ensemble group: the ensemble engine (DESIGN.md §5.9–§5.10) — the
# scenario registry units, the checked physics coupling, the driver's own
# queue/collect/batch-error units, the member-vs-standalone bitwise pins
# (admission, retirement, rollback isolation included), the N × nlev
# parity sweep, the zero-allocation gates for steady ensemble stepping,
# and the Katrina registry adapter.
echo "== ensemble test group"
cargo test -q -p swcam-core --lib config
cargo test -q -p swcam-core --lib coupling
cargo test -q -p swcam-core --lib ensemble
cargo test -q -p swcam-core --test ensemble_parity
cargo test -q -p swcam-core --test ensemble_sequential_parity
cargo test -q -p swcam-core --test ensemble_alloc
cargo test -q -p katrina --lib scenario

# Every table/figure/bench binary must keep building against the current
# APIs, and the kernels bench must run end-to-end (its in-bench asserts pin
# blocked==scalar bitwise before any timing). --smoke does one untimed
# sweep per kernel.
echo "== bench binaries build + kernels/ensemble smoke"
cargo build --release -p swcam-bench --bins
./target/release/kernels --smoke
./target/release/ensemble --smoke

# Bench-regression guard over whatever BENCH_kernels.json the last kernels
# run produced. A smoke artifact (the line above; BENCH_*.json is
# gitignored, so CI only ever sees smoke rows) gets structural checks; a
# full-sweep dev-host artifact must show no blocked kernel losing to its
# scalar oracle and the planned vertical remap holding its 1.5x bar.
# The guard's own selftest runs first: the guard is awk over
# hand-formatted JSON and once misparsed exponent-form floats
# (see scripts/bench_guard_selftest.sh).
echo "== bench-regression guard + selftest"
./scripts/bench_guard_selftest.sh
./scripts/bench_guard.sh

# Clippy is not part of every toolchain install; lint when present.
if cargo clippy --version >/dev/null 2>&1; then
    echo "== cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "== clippy unavailable; skipping lint" >&2
fi

echo "verify: OK"
