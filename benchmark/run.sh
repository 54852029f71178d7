#!/usr/bin/env bash
# The repo benchmark's one command. See benchmark/README.md.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of standard output is the result object
#   benchmark/run.sh [--seed <n>] [--seconds <s>]
#       all four workloads with tracing off: every end-to-end metric
#   benchmark/run.sh --trace [--seed <n>] [--seconds <s>]
#       all four workloads traced: every per-layer metric, and one Chrome
#       trace per workload under $SWCAM_BENCH_OUT (default benchmark/out)
#   benchmark/run.sh --smoke
#       2 measured steps per workload, output checks still on
#   benchmark/run.sh --selfcheck [<runs>] [--seed <n>] [--seconds <s>]
#       two full sets of <runs> (default 3) untraced runs and one traced run
#       per workload; fails if an end-to-end median differs by more than its
#       bound or an exact count differs at all
#   benchmark/run.sh --baseline [<runs>]
#       <runs> (default 5) untraced runs and one traced run per workload,
#       summarized into benchmark/results/
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

WORKLOADS=(hv_ne8 tracers_ne8 dist_ne8_r2tcp ens_aqua_l4)

# The benchmark restates the repository's [profile.release]; a program built
# differently is a different program, so the two may not drift.
profile_release() {
    awk '/^\[profile\.release\]/ { on = 1; next } /^\[/ { on = 0 }
         on { sub(/#.*/, ""); gsub(/[ \t]/, ""); if ($0 != "") print }' "$1" | sort
}
if [[ ! -f Cargo.toml ]]; then
    echo "run.sh: no Cargo.toml above benchmark/: not a checkout of the repository" >&2
    exit 1
fi
if [[ "$(profile_release Cargo.toml)" != "$(profile_release benchmark/Cargo.toml)" ]]; then
    echo "run.sh: [profile.release] differs between Cargo.toml and benchmark/Cargo.toml" >&2
    exit 1
fi

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
BIN="${CARGO_TARGET_DIR:-benchmark/target}/release/swcam-benchmark"

# What only the build knows, for the host fingerprint.
export SWCAM_BENCH_RUSTC="$(rustc -V)"
config_flags="$(sed -n 's/^rustflags *= *//p' .cargo/config.toml 2>/dev/null | tr -d '[]",' | xargs || true)"
export SWCAM_BENCH_RUSTFLAGS="$(echo "${config_flags} ${RUSTFLAGS:-}" | xargs)"
export SWCAM_BENCH_GIT_SHA="$(git rev-parse HEAD 2>/dev/null || echo unknown)"

for arg in "$@"; do
    if [[ "$arg" == "--workload" ]]; then
        exec "$BIN" "$@"
    fi
done

run_seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
mode=all
seed=1
seconds="$run_seconds"
trace=0
runs=5
while (($#)); do
    case "$1" in
        --trace) trace=1 ;;
        --smoke) mode=smoke ;;
        --selfcheck | --baseline)
            mode="${1#--}"
            [[ "$mode" == selfcheck ]] && runs=3
            if [[ "${2:-}" =~ ^[0-9]+$ ]]; then runs="$2"; shift; fi
            ;;
        --seed) seed="$2"; shift ;;
        --seconds) seconds="$2"; shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
    shift
done

OUT="${SWCAM_BENCH_OUT:-benchmark/out}"
mkdir -p "$OUT"

# one <workload> <seed> <trace> <record file> [extra arguments]
one() {
    local workload="$1" run_seed="$2" traced="$3" record="$4"
    shift 4
    "$BIN" --workload "$workload" --seed "$run_seed" --seconds "$seconds" \
        --trace "$traced" --out "$record" "$@" | sed '$d'
    return "${PIPESTATUS[0]}"
}

# full_set <summary file> <trace file prefix, or "">: per workload, $runs
# untraced runs (seeds $seed, $seed + 1, ...) and one traced run (seed
# $seed), folded into one summary
full_set() {
    local summary="$1" traces="$2" records=() record extra i
    for w in "${WORKLOADS[@]}"; do
        for ((i = 0; i < runs; i++)); do
            record="$OUT/$(basename "$summary" .json).$w.$i.json"
            one "$w" "$((seed + i))" 0 "$record"
            records+=("$record")
        done
        record="$OUT/$(basename "$summary" .json).$w.layers.json"
        extra=()
        [[ -n "$traces" ]] && extra=(--trace-out "$traces.$w.json")
        one "$w" "$seed" 1 "$record" ${extra[@]+"${extra[@]}"}
        records+=("$record")
    done
    "$BIN" summarize "$summary" "${records[@]}"
}

case "$mode" in
    all)
        for w in "${WORKLOADS[@]}"; do
            if ((trace)); then
                one "$w" "$seed" 1 "$OUT/$w.layers.json" --trace-out "$OUT/$w.trace.json"
            else
                one "$w" "$seed" 0 "$OUT/$w.e2e.json"
            fi
        done
        ;;
    smoke)
        for w in "${WORKLOADS[@]}"; do
            one "$w" "$seed" 0 "$OUT/smoke.$w.json" --steps 2
        done
        echo "smoke: all output checks passed"
        ;;
    selfcheck)
        full_set "$OUT/selfcheck-a.json" "" >/dev/null
        full_set "$OUT/selfcheck-b.json" "" >/dev/null
        "$BIN" compare BENCHMARK.json "$OUT/selfcheck-a.json" "$OUT/selfcheck-b.json"
        ;;
    baseline)
        mkdir -p benchmark/results
        full_set benchmark/results/baseline.json benchmark/results/trace
        ;;
esac
