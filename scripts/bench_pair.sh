#!/usr/bin/env bash
# Paired, alternating benchmark runs of a git ref against the working tree —
# ROADMAP's working rule (i): the host drifts 10-40% for minutes at a time,
# so a gain is only what survives ref and change taking turns on it.
#
#   scripts/bench_pair.sh <git-ref> <workload> [pairs] [seconds]
#
# Checks <git-ref> out as a git worktree under .bench_build/<sha> (ignored by
# git; remove it with `git worktree remove .bench_build/<sha>`), lets each
# tree's own benchmark/run.sh build and run its own benchmark binary, and
# alternates <pairs> (default 10) untraced runs of <seconds> (default:
# run_seconds in BENCHMARK.json) each, swapping which side goes first every
# pair. Both sides of pair i use seed i. Prints every end-to-end metric
# (step_ms_p50, sypd, setup_s, peak_rss_mb) of both sides per pair, so a
# bimodal metric shows run by run, then for every metric both medians, how
# many pairs the working tree won, and the ref's quartile distance (Q3 - Q1
# of its own runs) — a difference of medians inside it is the host, not the
# change.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

if (($# < 2)); then
    sed -n '2,18p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
    exit 2
fi
ref="$1"
workload="$2"
pairs="${3:-10}"
seconds="${4:-$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)}"

sha="$(git rev-parse --verify "${ref}^{commit}")"
tree=".bench_build/$sha"
if [[ ! -d "$tree" ]]; then
    mkdir -p .bench_build
    git worktree add --detach "$tree" "$sha" >&2
fi

# Build both before the first timed run, so no run shares the host with rustc.
cargo build --release --offline --manifest-path "$tree/benchmark/Cargo.toml" >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2

METRICS=(step_ms_p50 sypd setup_s peak_rss_mb)
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# one <ref|change> <seed>: one run; appends each metric to $out/<side>.<metric>
one() {
    local side="$1" seed="$2" runner=benchmark/run.sh line value m
    [[ "$side" == ref ]] && runner="$tree/benchmark/run.sh"
    line="$("$runner" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
        2>/dev/null | tail -n 1)"
    if [[ "$line" != *'"correct": true'* || "$line" != *'"failed": 0,'* ]]; then
        echo "bench_pair: $side run (seed $seed) failed its checks: $line" >&2
        exit 1
    fi
    for m in "${METRICS[@]}"; do
        value="$(sed -n "s/.*\"$m\": {\"value\": \([-+0-9.eE]*\).*/\1/p" <<<"$line")"
        [[ -n "$value" ]] || { echo "bench_pair: no $m in: $line" >&2; exit 1; }
        echo "$value" >>"$out/$side.$m"
    done
}

echo "pairs of $workload, ${seconds}s a run: ref ${sha:0:7} vs working tree"
printf '%4s  %11s %11s  %9s %9s  %9s %9s  %9s %9s\n' pair ref.step_ms chg.step_ms \
    ref.sypd chg.sypd ref.setup chg.setup ref.rss_mb chg.rss_mb
# last <side> <metric>: the value of the latest run
last() { tail -n 1 "$out/$1.$2"; }
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then one ref "$i"; one change "$i"; else one change "$i"; one ref "$i"; fi
    printf '%4d  %11.1f %11.1f  %9.2f %9.2f  %9.4f %9.4f  %9.2f %9.2f\n' "$i" \
        "$(last ref step_ms_p50)" "$(last change step_ms_p50)" \
        "$(last ref sypd)" "$(last change sypd)" \
        "$(last ref setup_s)" "$(last change setup_s)" \
        "$(last ref peak_rss_mb)" "$(last change peak_rss_mb)"
done

# quantile <file> <q>: linear interpolation between order statistics
quantile() {
    sort -g "$1" | awk -v q="$2" '{ v[NR] = $1 }
        END { h = (NR - 1) * q + 1; lo = int(h); hi = lo < NR ? lo + 1 : lo
              printf "%.6g", v[lo] + (h - lo) * (v[hi] - v[lo]) }'
}

echo
printf '%-12s %12s %12s %8s %9s %14s\n' metric ref.median change.median delta wins ref.q3-q1
for m in "${METRICS[@]}"; do
    better=lower
    [[ "$m" == sypd ]] && better=higher
    wins="$(paste "$out/ref.$m" "$out/change.$m" | awk -v b="$better" \
        '(b == "lower" && $2 < $1) || (b == "higher" && $2 > $1) { n++ } END { print n + 0 }')"
    r="$(quantile "$out/ref.$m" 0.5)"
    c="$(quantile "$out/change.$m" 0.5)"
    spread="$(awk -v a="$(quantile "$out/ref.$m" 0.25)" -v b="$(quantile "$out/ref.$m" 0.75)" \
        'BEGIN { printf "%.6g", b - a }')"
    delta="$(awk -v r="$r" -v c="$c" 'BEGIN { printf "%+.1f%%", 100 * (c - r) / r }')"
    printf '%-12s %12s %12s %8s %6s/%-2s %14s\n' "$m" "$r" "$c" "$delta" "$wins" "$pairs" "$spread"
done
