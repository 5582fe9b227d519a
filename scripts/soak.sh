#!/usr/bin/env bash
# Multi-process soak driver: repeated real-cluster runs of every shipped
# kernel-language program (examples/programs/*.p2g) over both transports,
# cross-checking that the captured-output checksum is identical for every
# (program, node-count, transport) combination — the socket path, the
# shared-memory data plane and the in-run supervision must never change
# the data. One crash-injection round per program proves a crashed node is
# detected and the master still terminates.
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

# The age cap a program runs under (`p2gc run <file> N`); none for a
# program that ends by itself.
max_age_of() {
  case "$1" in
    mul2plus5) echo 3 ;;
    kmeans) echo 6 ;;
    mjpeg) echo 4 ;;
    pipeline) echo 8 ;;
    *) echo "" ;;
  esac
}

checksum_of() {
  # Pulls "checksum": "..." out of a run's JSON summary.
  sed -n 's/.*"checksum": "\([0-9a-f]*\)".*/\1/p' "$1"
}

fail=0
for program in "$repo"/examples/programs/*.p2g; do
  name="$(basename "$program" .p2g)"
  max_age="$(max_age_of "$name")"
  reference=""
  for round in $(seq 1 "$rounds"); do
    for nodes in 2 3; do
      for transport in socket shm; do
        shm_flag=""
        [ "$transport" = shm ] && shm_flag="--shm"
        json="$tmp/${name}_${nodes}_${transport}_${round}.json"
        if ! "$p2gnode" --master --program "$program" \
            ${max_age:+--max-age "$max_age"} --nodes "$nodes" \
            $shm_flag --json "$json" > /dev/null; then
          echo "soak: FAIL $name nodes=$nodes $transport round=$round" \
               "(non-zero exit)" >&2
          fail=1
          continue
        fi
        sum="$(checksum_of "$json")"
        if [ -z "$reference" ]; then
          reference="$sum"
        elif [ "$sum" != "$reference" ]; then
          echo "soak: MISMATCH $name nodes=$nodes $transport" \
               "round=$round: $sum != $reference" >&2
          fail=1
        fi
      done
    done
  done
  echo "soak: $name x$rounds rounds (2/3 nodes, socket+shm):" \
       "checksum $reference"

  # Crash round: node0 (the busier node of every 2-node split, with well
  # over 3 committed stores in each program) exits right after its 3rd
  # committed store, mid-run; the master must fence it and exit on its own
  # (non-zero, since a node died — but promptly).
  if "$p2gnode" --master --program "$program" \
      ${max_age:+--max-age "$max_age"} --nodes 2 \
      --crash node0:3 --watchdog-ms 20000 > "$tmp/crash.out"; then
    echo "soak: $name crash round reported success despite a dead node" >&2
    fail=1
  fi
  if ! grep -q "dead: node0" "$tmp/crash.out"; then
    echo "soak: $name crash round did not report node0 dead" >&2
    cat "$tmp/crash.out" >&2
    fail=1
  fi
  if grep -q "TIMED OUT" "$tmp/crash.out"; then
    echo "soak: $name crash round tripped the watchdog" >&2
    fail=1
  fi
  echo "soak: $name crash round: node0 fenced, master terminated"
done

if [ "$fail" -ne 0 ]; then
  echo "soak: FAILED" >&2
  exit 1
fi
echo "soak: OK"
