#!/usr/bin/env bash
# Tier-1 gate: configure, build and run the full test suite.
#
# Usage:
#   scripts/tier1.sh                 # plain RelWithDebInfo build
#   scripts/tier1.sh thread          # under ThreadSanitizer
#   scripts/tier1.sh address         # under AddressSanitizer
#   scripts/tier1.sh undefined       # under UndefinedBehaviorSanitizer
#
# Environment:
#   P2G_WERROR=ON       promote -Wall -Wextra to -Werror
#   P2G_CLANG_TIDY=ON   run clang-tidy over every target (needs the binary
#                       on PATH; the build warns and continues without it)
#   P2G_FLAKE_REPEAT=N  opt-in flake gate: after the suite passes, rerun the
#                       timing-sensitive tests up to N times each
#                       (ctest --repeat until-fail:N); any failure fails
#                       the gate
#
# Sanitized builds go to build-tsan/, build-asan/ or build-ubsan/ so they
# never pollute the regular build/ tree.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
sanitize="${1:-}"

case "$sanitize" in
  "")        build_dir="$repo/build" ;;
  thread)    build_dir="$repo/build-tsan" ;;
  address)   build_dir="$repo/build-asan" ;;
  undefined) build_dir="$repo/build-ubsan" ;;
  *)
    echo "usage: $0 [thread|address|undefined]" >&2
    exit 2
    ;;
esac

t_start=$(date +%s)
cmake -S "$repo" -B "$build_dir" \
  -DP2G_SANITIZE="$sanitize" \
  -DP2G_WERROR="${P2G_WERROR:-OFF}" \
  -DP2G_CLANG_TIDY="${P2G_CLANG_TIDY:-OFF}"
cmake --build "$build_dir" -j"$(nproc)"
t_built=$(date +%s)

# A sanitizer report must fail the test that produced it, and that failure
# must reach our caller. halt_on_error stops at the first report instead of
# limping on; the explicit rc capture keeps the ctest exit code authoritative
# even if this script later grows post-test steps.
export ASAN_OPTIONS="${ASAN_OPTIONS:-exitcode=1:halt_on_error=1:detect_leaks=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-exitcode=66:halt_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1:halt_on_error=1}"

# Benchmarks carry the `bench` ctest label (and configuration) and are not
# part of the gate; run them explicitly via `ctest -C bench -L bench` or
# scripts/bench_report.sh. Chaos sweeps carry the `chaos` label and run via
# scripts/chaos.sh, p2gcheck schedule-exploration sweeps carry `check`, and
# the multi-process soak driver carries `soak` (scripts/soak.sh); the gate
# only runs the fast smoke entries below.
rc=0
ctest --test-dir "$build_dir" --output-on-failure -LE "bench|chaos|check|soak" -j"$(nproc)" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "tier1: ctest failed with exit code $rc" >&2
fi

# Opt-in flake gate: a test that passes once may still fail one run in
# ten. Repeating the timing-sensitive ones until failure turns "passes on
# most runs" into a measured pass rate. The timing-sensitive tests are the
# crash/recovery chaos tests, the field/trace concurrency tests, the
# multi-process cluster tests (thread vs process launcher, shm, crash),
# the granularity tests, whose probe hand-off is quiescence-sensitive, the
# telemetry tests, whose per-thread tallies and flight rings are read by
# the analyzer and the heartbeat thread while workers write them, and the
# transport-counter test, whose node transport runs a hub reader thread,
# the age-reclamation tests, whose releases race workers' views, the
# range-dispatch tests, whose box splitting meets the same probe hand-off,
# the in-process distributed runs and traces, whose stores cross nodes
# on worker threads (direct delivery) and so race the termination probe,
# and the lossy chaos smoke, whose counters must repeat run to run.
flake_repeat="${P2G_FLAKE_REPEAT:-0}"
if [ "$rc" -eq 0 ] && [ "$flake_repeat" -gt 0 ]; then
  flake_tests="ChaosFlightRecorder|ChaosCrashRecovery|ChaosSmoke\\."
  flake_tests="$flake_tests|FieldStorageConcurrency"
  flake_tests="$flake_tests|FieldStorageStress|TraceCollector.Concurrent"
  flake_tests="$flake_tests|Cluster\\.|AdaptiveChunking\\.|DeterminismSweep"
  flake_tests="$flake_tests|RuntimeMetrics\\.|FlightTrace\\.|RuntimeTally\\."
  flake_tests="$flake_tests|Socket\\.NodeDeadLetterCountersMatchBusStats"
  flake_tests="$flake_tests|AgeReclaim|RangeDispatch\\."
  flake_tests="$flake_tests|DistributedRun\\.|DistributedTrace\\."
  ctest --test-dir "$build_dir" --output-on-failure -R "$flake_tests" \
    --repeat until-fail:"$flake_repeat" -j"$(nproc)" || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "tier1: flake gate failed with exit code $rc" >&2
  fi
fi

# One fast chaos smoke seed keeps the fault-tolerance path on the gate
# without paying for the full sweep.
if [ "$rc" -eq 0 ]; then
  ctest --test-dir "$build_dir" --output-on-failure -L chaos -R chaos_sweep_seed1 || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "tier1: chaos smoke failed with exit code $rc" >&2
  fi
fi

# A short p2gcheck sweep keeps the concurrency checker (and the seeded-bug
# fixtures it must keep finding) on the gate; scripts/check.sh or
# `ctest -L check` run the wider exploration.
if [ "$rc" -eq 0 ]; then
  "$build_dir/tools/p2gcheck" --seeds 25 || rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "tier1: p2gcheck smoke failed with exit code $rc" >&2
  fi
fi

# Two real 3-process runs, over sockets and over the shared-memory data
# plane, keep the out-of-process cluster path (fork/exec, hub routing,
# termination detection) on the gate. Both must print the same checksum
# and a nonzero frame count (the transports' shipped counters). The two
# counts need not agree: a forwarded frame is one committed store of a
# work item, and how the runtime cuts items follows measured body times.
# scripts/soak.sh runs the longer transport sweeps.
smoke_field() {  # smoke_field <key> <p2gnode output>
  printf '%s\n' "$2" | tr ' ' '\n' | sed -n "s/^$1=//p"
}
if [ "$rc" -eq 0 ]; then
  smoke_out=()
  for transport in "" --shm; do
    out="$("$build_dir/tools/p2gnode" --master \
      --program "$repo/examples/programs/mul2plus5.p2g" --max-age 3 \
      --nodes 3 $transport)" || rc=$?
    printf '%s\n' "$out"
    smoke_out+=("$out")
  done
  if [ "$rc" -ne 0 ]; then
    echo "tier1: p2gnode multi-process smoke failed with exit code $rc" >&2
  else
    socket_frames="$(smoke_field frames "${smoke_out[0]}")"
    shm_frames="$(smoke_field frames "${smoke_out[1]}")"
    socket_sum="$(smoke_field checksum "${smoke_out[0]}")"
    shm_sum="$(smoke_field checksum "${smoke_out[1]}")"
    if [ -z "$socket_sum" ] || [ "$socket_sum" != "$shm_sum" ] ||
       [ -z "$socket_frames" ] || [ "$socket_frames" = 0 ] ||
       [ -z "$shm_frames" ] || [ "$shm_frames" = 0 ]; then
      echo "tier1: p2gnode smoke mismatch: socket frames=$socket_frames" \
        "checksum=$socket_sum, shm frames=$shm_frames checksum=$shm_sum" >&2
      rc=1
    fi
  fi
fi
t_done=$(date +%s)
echo "tier1: ${sanitize:-plain} build $((t_built - t_start))s," \
  "tests $((t_done - t_built))s, total $((t_done - t_start))s," \
  "modes [sanitize=${sanitize:-none} werror=${P2G_WERROR:-OFF}" \
  "clang-tidy=${P2G_CLANG_TIDY:-OFF} flake-repeat=${flake_repeat}" \
  "chaos-smoke p2gcheck-smoke" \
  "multiprocess-smoke analysis-gate]," \
  "$([ "$rc" -eq 0 ] && echo OK || echo "FAIL rc=$rc")"
exit "$rc"
