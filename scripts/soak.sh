#!/usr/bin/env bash
# Multi-process soak driver: repeated real-cluster runs of every built-in
# workload over both transports, cross-checking that the captured-output
# checksum is identical for every (workload, node-count, transport)
# combination — the socket path, the shared-memory data plane and the
# in-run supervision must never change the data. One crash-injection round
# per workload proves a crashed node is detected and the master still
# terminates.
#
# Usage:
#   scripts/soak.sh [p2gnode-binary] [rounds]
#
# Defaults: build/tools/p2gnode, 3 rounds. Registered as the `soak`-labeled
# ctest entry (excluded from tier-1); tier1.sh runs a single 3-process
# smoke instead.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
p2gnode="${1:-$repo/build/tools/p2gnode}"
rounds="${2:-3}"

if [ ! -x "$p2gnode" ]; then
  echo "soak: node binary '$p2gnode' not found (build first)" >&2
  exit 2
fi

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

checksum_of() {
  # Pulls "checksum": "..." out of a run's JSON summary.
  sed -n 's/.*"checksum": "\([0-9a-f]*\)".*/\1/p' "$1"
}

fail=0
for workload in mul2 kmeans pipeline; do
  reference=""
  for round in $(seq 1 "$rounds"); do
    for nodes in 2 3; do
      for transport in socket shm; do
        shm_flag=""
        [ "$transport" = shm ] && shm_flag="--shm"
        json="$tmp/${workload}_${nodes}_${transport}_${round}.json"
        if ! "$p2gnode" --master --workload "$workload" --nodes "$nodes" \
            $shm_flag --json "$json" > /dev/null; then
          echo "soak: FAIL $workload nodes=$nodes $transport round=$round" \
               "(non-zero exit)" >&2
          fail=1
          continue
        fi
        sum="$(checksum_of "$json")"
        if [ -z "$reference" ]; then
          reference="$sum"
        elif [ "$sum" != "$reference" ]; then
          echo "soak: MISMATCH $workload nodes=$nodes $transport" \
               "round=$round: $sum != $reference" >&2
          fail=1
        fi
      done
    done
  done
  echo "soak: $workload x$rounds rounds (2/3 nodes, socket+shm):" \
       "checksum $reference"

  # Crash round: node0 (the busier node of every 2-node split) exits right
  # after its 3rd committed store, mid-run; the master must fence it and
  # exit on its own (non-zero, since a node died — but promptly).
  if "$p2gnode" --master --workload "$workload" --nodes 2 \
      --crash node0:3 --watchdog-ms 20000 > "$tmp/crash.out"; then
    echo "soak: $workload crash round reported success despite a dead node" >&2
    fail=1
  fi
  if ! grep -q "dead: node0" "$tmp/crash.out"; then
    echo "soak: $workload crash round did not report node0 dead" >&2
    cat "$tmp/crash.out" >&2
    fail=1
  fi
  if grep -q "TIMED OUT" "$tmp/crash.out"; then
    echo "soak: $workload crash round tripped the watchdog" >&2
    fail=1
  fi
  echo "soak: $workload crash round: node0 fenced, master terminated"
done

if [ "$fail" -ne 0 ]; then
  echo "soak: FAILED" >&2
  exit 1
fi
echo "soak: OK"
