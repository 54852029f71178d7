#!/usr/bin/env bash
# Self-test for scripts/bench_guard.sh against synthetic artifacts.
#
# The guard is awk over hand-formatted JSON, which is exactly the kind of
# code that rots silently — the motivating bug: number extraction with
# `sub(/[^0-9.].*/, "", s)` truncated exponent-form floats, so a
# "speedup": 9.5e-1 (= 0.95, a regression) parsed as 9.5 and sailed past
# every floor. Each case below runs the real guard on a synthetic
# artifact and asserts the exit code; the exponent cases pin the fix.
#
# Usage: scripts/bench_guard_selftest.sh   (no arguments; uses mktemp)
set -uo pipefail
cd "$(dirname "$0")/.."

GUARD=scripts/bench_guard.sh
T="$(mktemp -d "${TMPDIR:-/tmp}/bench_guard_selftest.XXXXXX")"
trap 'rm -rf "$T"' EXIT
ABSENT="$T/absent.json"
fails=0
case_no=0

check() { # check <expected_exit> <label> <kernels> <ensemble>
    local expect="$1" label="$2" out rc
    case_no=$((case_no + 1))
    out="$("$GUARD" "$3" "$4" 2>&1)"
    rc=$?
    if [[ "$rc" -ne "$expect" ]]; then
        echo "FAIL case $case_no ($label): exit $rc, expected $expect"
        echo "$out" | sed 's/^/    /'
        fails=$((fails + 1))
    else
        echo "ok   case $case_no ($label)"
    fi
}

kernels_artifact() { # kernels_artifact <file> <laplace_speedup> <smoke> [lane_resident]
    # The hypervis_member_lanes row is pinned at 0.75 in every case: the
    # end-to-end lane row pays gather + scatter against a baseline that
    # pays neither and is exempt from the generic 1.0 floor — a case run
    # on it failing would mean the exemption regressed.
    local resident="${4:-1.02}"
    cat > "$1" <<EOF
{
  "bench": "kernels",
  "smoke": $3,
  "kernels": [
    {"name": "laplace", "scalar_ms": 1.2, "blocked_ms": 0.9, "speedup": $2},
    {"name": "biharmonic_planned", "scalar_ms": 8.5, "blocked_ms": 4.2, "speedup": 1.997},
    {"name": "hypervis_fullpass", "scalar_ms": 468.9, "blocked_ms": 280.3, "speedup": 1.673},
    {"name": "hypervis_member_lanes", "scalar_ms": 18.9, "blocked_ms": 25.2, "speedup": 0.75},
    {"name": "hypervis_member_lanes_resident", "scalar_ms": 18.9, "blocked_ms": 18.5, "speedup": $resident},
    {"name": "vertical_remap", "scalar_ms": 23.5, "blocked_ms": 11.4, "speedup": 2.047},
    {"name": "vertical_remap_planned", "scalar_ms": 23.5, "blocked_ms": 9.2, "speedup": 2.533}
  ]
}
EOF
}

ensemble_artifact() { # ensemble_artifact <file> <mode> <bitwise> <e2e> <steady> [path] [members] [steady_target]
    # The batch rows repeat a "members": key — present here so a case
    # catches the guard ever reading a batch row's count as the top-level
    # member count.
    local path="${6:-chunked}" members="${7:-4}" steady_target="${8:-1.8}"
    cat > "$1" <<EOF
{
  "bench": "ensemble",
  "mode": "$2",
  "members": $members,
  "member_kernel_path": "$path",
  "batches": [
    {"members": 1, "speedup": 0.99},
    {"members": 2, "speedup": 1.05}
  ],
  "speedup_steady_state": $5,
  "steady_target_speedup": $steady_target,
  "steady_target_met": false,
  "speedup_end_to_end": $4,
  "bitwise_ok": $3,
  "target_speedup": 3.0,
  "target_met": false
}
EOF
}

# --- Section 1: kernels ---------------------------------------------------
kernels_artifact "$T/k_good.json" 1.226 false
check 0 "kernels: healthy full artifact passes" "$T/k_good.json" "$ABSENT"

kernels_artifact "$T/k_lost.json" 0.83 false
check 1 "kernels: blocked kernel losing to scalar fails" "$T/k_lost.json" "$ABSENT"

# The motivating bug: 9.5e-1 = 0.95 < 1.0. The broken parser read 9.5.
kernels_artifact "$T/k_exp.json" 9.5e-1 false
check 1 "kernels: exponent-form losing speedup fails (old parser read 9.5e-1 as 9.5)" \
    "$T/k_exp.json" "$ABSENT"

kernels_artifact "$T/k_smoke.json" 0.83 true
check 0 "kernels: smoke artifact skips floors" "$T/k_smoke.json" "$ABSENT"

printf '{\n  "bench": "kernels",\n  "kernels": [\n    {"name": "laplace", "speedup": 1.2}\n  ]\n}\n' > "$T/k_missing.json"
check 1 "kernels: required row missing fails structurally" "$T/k_missing.json" "$ABSENT"

check 0 "kernels: absent artifact skips" "$ABSENT" "$ABSENT"

# Member-lane rows. Every healthy case above already pins the end-to-end
# exemption (hypervis_member_lanes hardcoded at 0.75 passes); what must
# fail is the tiles-resident row losing member-serial compute.
kernels_artifact "$T/k_lane_res.json" 1.226 false 0.7
check 1 "kernels: lane resident row under its 0.9 floor fails" "$T/k_lane_res.json" "$ABSENT"

kernels_artifact "$T/k_lane_exp.json" 1.226 false 8.5e-1
check 1 "kernels: exponent-form losing lane resident fails (8.5e-1 = 0.85)" \
    "$T/k_lane_exp.json" "$ABSENT"

# --- Section 2: ensemble --------------------------------------------------
ensemble_artifact "$T/e_good.json" full true 1.02 1.06
check 0 "ensemble: full artifact above floors passes" "$ABSENT" "$T/e_good.json"

ensemble_artifact "$T/e_slow.json" full true 0.55 0.55
check 1 "ensemble: regressed speedup fails the floor" "$ABSENT" "$T/e_slow.json"

ensemble_artifact "$T/e_exp.json" full true 5.5e-1 5.5e-1
check 1 "ensemble: exponent-form regressed speedup fails" "$ABSENT" "$T/e_exp.json"

ensemble_artifact "$T/e_smoke.json" smoke true 0.55 0.55
check 0 "ensemble: smoke artifact skips floors" "$ABSENT" "$T/e_smoke.json"

ensemble_artifact "$T/e_bitwise.json" smoke false 1.02 1.06
check 1 "ensemble: bitwise pin failure fails even in smoke mode" "$ABSENT" "$T/e_bitwise.json"

printf '{\n  "bench": "ensemble",\n  "mode": "full"\n}\n' > "$T/e_fields.json"
check 1 "ensemble: missing fields fail structurally" "$ABSENT" "$T/e_fields.json"

# --- Section 2b: lane steady floor ----------------------------------------
# The 1.8x lane floor binds only when the kernels artifact shows the lane
# arithmetic beating member-serial compute (resident >= LANE_EDGE_MIN);
# otherwise it skips with the reason logged (exit 0). Both branches and
# the exponent parse are pinned.
kernels_artifact "$T/k_edge.json" 1.226 false 1.7
kernels_artifact "$T/k_noedge.json" 1.226 false 1.02

ensemble_artifact "$T/e_lane_good.json" full true 1.9 2.1 lanes 4
check 0 "lane floor: steady above 1.8x with a lane compute edge passes" \
    "$T/k_edge.json" "$T/e_lane_good.json"

ensemble_artifact "$T/e_lane_slow.json" full true 1.1 1.3 lanes 4
check 1 "lane floor: steady under 1.8x with a lane compute edge fails" \
    "$T/k_edge.json" "$T/e_lane_slow.json"

check 0 "lane floor: same artifact skips when the host shows no lane edge" \
    "$T/k_noedge.json" "$T/e_lane_slow.json"

check 0 "lane floor: skips without a kernels artifact to establish the edge" \
    "$ABSENT" "$T/e_lane_slow.json"

# 9.5e-1 = 0.95 clears the generic 0.9 floor but not the 1.8x lane floor;
# the broken parser would read 9.5 and pass it.
ensemble_artifact "$T/e_lane_exp.json" full true 1.0 9.5e-1 lanes 4
check 1 "lane floor: exponent-form steady fails (9.5e-1 = 0.95 < 1.8)" \
    "$T/k_edge.json" "$T/e_lane_exp.json"

ensemble_artifact "$T/e_lane_part.json" full true 1.0 1.0 lanes 2
check 0 "lane floor: not armed under a full 4-lane batch" \
    "$T/k_edge.json" "$T/e_lane_part.json"

ensemble_artifact "$T/e_lane_chunk.json" full true 1.0 1.0 chunked 4
check 0 "lane floor: not armed on the chunked path" \
    "$T/k_edge.json" "$T/e_lane_chunk.json"

# --------------------------------------------------------------------------
if [[ "$fails" -ne 0 ]]; then
    echo "bench_guard selftest: $fails of $case_no cases FAILED"
    exit 1
fi
echo "bench_guard selftest: all $case_no cases passed"
