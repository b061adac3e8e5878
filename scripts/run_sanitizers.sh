#!/usr/bin/env bash
# Sanitizer presets over the tier-1 suites most sensitive to the TM
# runtime's memory and ordering tricks: the TM core (longjmp rollback,
# allocation logs), privatization (quiesce-before-free and the mode-aware
# routed reclamation, rerun under a seeded htm_zombie fault matrix), the data
# structures (node reclamation under concurrency), the engine edge cases,
# the quiescence substrate (grace sharing, parking, limbo reclamation and
# its non-blocking epoch poll), the observability layer (seqlock trace
# ring under concurrent emit/snapshot/reset, per-site counter tables, the
# windowed metrics sampler ticking against live counter bumps), and the contention
# governor (storm-window folding, token gate, drain waits under racing
# serial writers), and the striped commit sequence (per-stripe seqlock
# acquisition/release ordering, lazy subscription), and the bzip codec with
# the pipez pipeline over it (the bit reader and the fused block decoder
# parse untrusted bytes; the fuzz suite feeds them corrupt blocks).
#
#   asan  — AddressSanitizer + UBSan: catches use-after-free of limbo'd
#           nodes, i.e. frees released before a covering grace period.
#   tsan  — ThreadSanitizer: catches ordering bugs in the epoch/park
#           protocol and the serial lock's Dekker edges.
#
# Usage: run_sanitizers.sh [asan|tsan|all]   (default: all)
# Wired to the build as `cmake --build build --target check-sanitizers`.
set -euo pipefail
cd "$(dirname "$0")/.."

PRESET=${1:-all}
CXX=${CXX:-g++}
TM_SRCS="src/tm/engine.cpp src/tm/registry.cpp src/tm/runtime.cpp src/tm/audit.cpp src/tm/trace.cpp src/tm/fault/fault.cpp src/tm/governor/governor.cpp src/tm/obs/site.cpp src/tm/obs/export.cpp src/tm/obs/metrics.cpp src/tm/obs/sampler.cpp src/tm/control/control.cpp"
LIBS="-lgtest -lgtest_main -pthread"
OUT=$(mktemp -d)
trap 'rm -rf "$OUT"' EXIT

BZIP_SRCS="src/bzip/block_codec.cpp src/bzip/bwt.cpp src/bzip/huffman.cpp src/bzip/mtf_rle.cpp"

# suite -> extra sources beyond the TM core.
suite_extra() {
  case "$1" in
    tm_privatization_test|sync_stress_test|fault_injection_test) echo "src/sync/tx_condvar.cpp" ;;
    bzip_fuzz_test) echo "$BZIP_SRCS" ;;
    bzip_test|pipez_test) echo "$BZIP_SRCS src/pipez/pipeline.cpp src/sync/tx_condvar.cpp" ;;
    *) echo "" ;;
  esac
}
SUITES="tm_core_test tm_privatization_test dstruct_test tm_engine_edge_test quiesce_stress_test limbo_poll_test sync_stress_test obs_test metrics_test site_overflow_test fault_injection_test governor_test control_test tm_stripe_test tm_protocol_test bzip_test bzip_fuzz_test pipez_test"
# Single-threaded suites give TSan nothing to check, and bzip_test's
# brute-force rotation sort takes minutes under it: ASan only.
ASAN_ONLY_SUITES="bzip_test bzip_fuzz_test"

# Seeded fault matrix: rerun the suites most sensitive to the perturbed
# windows with the env-armed chaos plan, so the sanitizers watch the Dekker
# handshakes while injection drives aborts and delays through them.
FAULT_SUITES="tm_core_test sync_stress_test quiesce_stress_test limbo_poll_test"
FAULT_SEED=20260806
# tm_core_test also runs at small seeds: its exact-count tests must pause the
# plan, and a pinned seed alone lets a missing pause pass by luck.
CORE_FAULT_SEEDS="1 2 3 4 5"

# Privatization suite (hard-gating): the mode-aware reclamation routing is
# additionally driven through five seeded reruns with perturbation parked
# directly inside the simulated-HTM zombie window (delay/yield@htm_zombie),
# so ASan catches any privatizing free that escapes the limbo routing and
# TSan checks the epoch/limbo edges under the stretched window. The plan is
# perturbation-only: aborts would retry the rendezvous tests' pinned
# interleavings out of existence.
PRIV_SEEDS="1 2 3 4 5"
PRIV_PLAN="delay@htm_zombie=0.3/20000,yield@htm_zombie=0.3"

# Controller chaos matrix (hard-gating): the phase-shift chaos suite
# (capacity -> conflict -> spurious fault plans against the live engine)
# reruns across >= 3 seeds with perturbation parked on the controller's own
# evaluation tick (delay/yield@ctl_tick), so ASan+TSan watch the plan-word
# publication, the drained mode switch, and the probe admission counters
# while evaluations land at stretched, shifted instants. Perturbation-only
# for the same reason as the privatization plan: injected aborts would
# change the decision sequence the byte-identity test pins.
CTL_SEEDS="11 12 13"
CTL_PLAN="delay@ctl_tick=0.5/20000,yield@ctl_tick=0.3"

run_preset() {
  local name=$1 flags=$2
  for test in $SUITES; do
    if [ "$name" = tsan ] && [[ " $ASAN_ONLY_SUITES " == *" $test "* ]]; then
      continue
    fi
    echo "== $test ($name)"
    # shellcheck disable=SC2086
    $CXX $flags -fno-omit-frame-pointer -g -std=c++20 -Isrc -Itests \
      "tests/$test.cpp" $TM_SRCS $(suite_extra "$test") $LIBS \
      -o "$OUT/$test-$name"
    "$OUT/$test-$name"
  done
  for test in $FAULT_SUITES; do
    echo "== $test ($name, TLE_FAULT_SEED=$FAULT_SEED)"
    TLE_FAULT_SEED=$FAULT_SEED "$OUT/$test-$name"
  done
  for seed in $CORE_FAULT_SEEDS; do
    echo "== tm_core_test ($name, TLE_FAULT_SEED=$seed)"
    TLE_FAULT_SEED=$seed "$OUT/tm_core_test-$name"
  done
  for seed in $PRIV_SEEDS; do
    echo "== tm_privatization_test ($name, htm_zombie plan, seed $seed)"
    TLE_FAULT_SEED=$((FAULT_SEED + seed)) TLE_FAULT_PLAN="$PRIV_PLAN" \
      "$OUT/tm_privatization_test-$name"
  done
  for seed in $CTL_SEEDS; do
    echo "== control_test ($name, ctl_tick plan, seed $seed)"
    TLE_FAULT_SEED=$((FAULT_SEED + seed)) TLE_FAULT_PLAN="$CTL_PLAN" \
      "$OUT/control_test-$name" --gtest_filter='ControlChaos.*:ControlDegraded.*'
  done
}

case "$PRESET" in
  asan) run_preset asan "-fsanitize=address,undefined -O1" ;;
  tsan) run_preset tsan "-fsanitize=thread -O1" ;;
  all)
    run_preset asan "-fsanitize=address,undefined -O1"
    run_preset tsan "-fsanitize=thread -O1"
    ;;
  *) echo "unknown preset '$PRESET' (want asan|tsan|all)" >&2; exit 2 ;;
esac
echo "all sanitizer runs clean"
