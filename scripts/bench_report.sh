#!/usr/bin/env bash
# Runs the dispatch/fetch micro-bench suite and records the numbers in
# BENCH_<issue>.json at the repo root so future PRs have a perf trajectory
# to compare against.
#
# Baseline and new numbers land in the SAME file. The fetch baseline is
# the pre-PR code path, reconstructed via an ablation compiled into the
# current binaries (deep-copy fetch_whole/fetch vs zero-copy views); the
# dispatch rows record wall time per instance through the whole runtime
# (BM_DispatchPerInstance runs with UseRealTime).
#
# Usage:
#   scripts/bench_report.sh            # writes BENCH_4.json from build/
#   BUILD_DIR=... ISSUE=5 scripts/bench_report.sh
#   ISSUE=6 scripts/bench_report.sh    # tracing-overhead report
#
# ISSUE=6 records the causal-tracing overhead instead: dispatch and MJPEG
# with collect_trace on vs off vs flight-only (flight_dir alone; the
# baseline is tracing disabled, i.e. the pre-PR hot path plus one null
# check).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${BUILD_DIR:-$repo/build}"
issue="${ISSUE:-4}"
out="$repo/BENCH_${issue}.json"

if [ "$issue" = 6 ]; then
  cmake --build "$build_dir" -j"$(nproc)" --target bench_trace_overhead

  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT

  "$build_dir/bench/bench_trace_overhead" \
    --benchmark_out="$tmp/trace.json" --benchmark_out_format=json \
    --benchmark_min_time="${P2G_BENCH_MIN_TIME:-0.2}" \
    --benchmark_repetitions="${P2G_BENCH_REPS:-3}" \
    --benchmark_report_aggregates_only=true

  python3 - "$tmp/trace.json" "$out" <<'PY'
import json, sys

trace_path, out_path = sys.argv[1:3]
doc = json.load(open(trace_path))
by_name = {b["name"]: b for b in doc["benchmarks"]}


def median(name):
    return by_name[f"{name}_median"]


def overhead(base, new):
    return round((new - base) / base, 4) if base else None


dispatch = {}
for width in (16, 256, 1024):
    off = median(f"BM_DispatchTraceOff/{width}")["sec_per_instance"] * 1e9
    on = median(f"BM_DispatchTraceOn/{width}")["sec_per_instance"] * 1e9
    flight = (
        median(f"BM_DispatchFlightOnly/{width}")["sec_per_instance"] * 1e9
    )
    dispatch[str(width)] = {
        "off": off,
        "trace": on,
        "flight_only": flight,
        "trace_overhead": overhead(off, on),
        "flight_overhead": overhead(off, flight),
        "unit": "ns/instance",
    }

mjpeg = {}
off = median("BM_MjpegTraceOff")["real_time"]
on = median("BM_MjpegTraceOn")["real_time"]
flight = median("BM_MjpegFlightOnly")["real_time"]
mjpeg = {
    "off": off,
    "trace": on,
    "flight_only": flight,
    "trace_overhead": overhead(off, on),
    "flight_overhead": overhead(off, flight),
    "unit": "ms/clip (QCIF x4, median)",
}

report = {
    "issue": 6,
    "generated_by": "scripts/bench_report.sh",
    "context": doc.get("context", {}),
    "baseline_definition": {
        "trace": "RunOptions::collect_trace=false, no flight_dir "
                 "(hot path: one null check); flight_only sets only a "
                 "temporary flight_dir (per-thread ring of the newest 256 "
                 "spans)",
    },
    "acceptance": "mjpeg trace_overhead < 0.05 (real kernel work); "
                  "dispatch rows bound the worst case (empty bodies, "
                  "one span per item) and are noise-dominated on small "
                  "VMs; disabled paths unchanged within noise",
    "dispatch_per_instance_ns": dispatch,
    "mjpeg_clip_ms": mjpeg,
}
with open(out_path, "w") as fh:
    json.dump(report, fh, indent=2)
    fh.write("\n")
print(f"wrote {out_path}")
PY
  exit 0
fi

# ISSUE=10: out-of-process transport + shared-memory data plane. The
# metric is data-plane economics, not time: bytes_copied_per_frame for the
# same multi-process pipeline run over the socket transport (baseline:
# every frame serialized onto the wire) vs the shm data plane (frames
# travel as arena offsets; the target is ~0). Checksums prove the two
# transports computed identical data.
if [ "$issue" = 10 ]; then
  cmake --build "$build_dir" -j"$(nproc)" --target p2gnode

  tmp="$(mktemp -d)"
  trap 'rm -rf "$tmp"' EXIT

  nodes="${P2G_BENCH_NODES:-3}"
  cd "$repo"  # the report names the program by its repo-relative path
  pipeline="examples/programs/pipeline.p2g"
  "$build_dir/tools/p2gnode" --master --program "$pipeline" --max-age 8 \
    --nodes "$nodes" --json "$tmp/socket.json" > /dev/null
  "$build_dir/tools/p2gnode" --master --program "$pipeline" --max-age 8 \
    --nodes "$nodes" --shm --json "$tmp/shm.json" > /dev/null

  python3 - "$tmp/socket.json" "$tmp/shm.json" "$out" <<'PY'
import json, sys

socket_path, shm_path, out_path = sys.argv[1:4]
socket = json.load(open(socket_path))
shm = json.load(open(shm_path))

assert socket["checksum"] == shm["checksum"], (
    "transports disagree on the data: "
    f"{socket['checksum']} != {shm['checksum']}"
)

report = {
    "issue": 10,
    "generated_by": "scripts/bench_report.sh",
    "program": socket["program"],
    "nodes": socket["nodes"],
    "baseline_definition": {
        "socket": "real multi-process run over the TCP socket transport: "
                  "every cross-node store serializes its payload into a "
                  "length-prefixed frame (the pre-shm data plane)",
    },
    "acceptance": "bytes_copied_per_frame ~0 on the shm data plane for "
                  "the whole-frame pipeline program (frames ship as "
                  "arena offsets, receivers adopt mapped pages); "
                  "checksums bit-exact across transports",
    "checksum": socket["checksum"],
    "bytes_copied_per_frame": {
        "socket": socket["bytes_copied_per_frame"],
        "shm": shm["bytes_copied_per_frame"],
    },
    "data_frames": {
        "socket": socket["frames"],
        "shm": shm["frames"],
    },
    "copied_bytes": {
        "socket": socket["copied_bytes"],
        "shm": shm["copied_bytes"],
    },
    "wall_s": {
        "socket": socket["wall_s"],
        "shm": shm["wall_s"],
    },
}
with open(out_path, "w") as fh:
    json.dump(report, fh, indent=2)
    fh.write("\n")
print(f"wrote {out_path}")
PY
  exit 0
fi

cmake --build "$build_dir" -j"$(nproc)" \
  --target bench_field_ops bench_dispatch_overhead

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$build_dir/bench/bench_field_ops" \
  --benchmark_out="$tmp/field.json" --benchmark_out_format=json \
  --benchmark_min_time="${P2G_BENCH_MIN_TIME:-0.2}"
"$build_dir/bench/bench_dispatch_overhead" \
  --benchmark_out="$tmp/dispatch.json" --benchmark_out_format=json \
  --benchmark_filter='BM_DispatchPerInstance/'

python3 - "$tmp/field.json" "$tmp/dispatch.json" "$out" "$issue" <<'PY'
import json, sys

field_path, dispatch_path, out_path, issue = sys.argv[1:5]
field = json.load(open(field_path))
dispatch = json.load(open(dispatch_path))


def by_name(report):
    return {b["name"]: b for b in report["benchmarks"]}


f, d = by_name(field), by_name(dispatch)


def pair(baseline, new, value):
    return {
        "baseline": baseline,
        "new": new,
        "speedup": round(baseline / new, 3) if new else None,
        **value,
    }


fetch_whole = {}
for size in (64, 4096, 262144):
    copy = f[f"BM_FetchWholeCopy/{size}"]["real_time"]
    view = f[f"BM_FetchWholeView/{size}"]["real_time"]
    fetch_whole[str(size)] = pair(copy, view, {"unit": "ns/op"})

fetch_row = pair(
    f["BM_FetchRowCopy"]["real_time"],
    f["BM_FetchRowView"]["real_time"],
    {"unit": "ns/op"},
)

dispatch_per_instance = {
    str(width): round(
        d[f"BM_DispatchPerInstance/{width}/real_time"]["sec_per_instance"]
        * 1e9,
        2,
    )
    for width in (16, 256, 1024)
}

report = {
    "issue": int(issue),
    "generated_by": "scripts/bench_report.sh",
    "context": field.get("context", {}),
    "baseline_definition": {
        "fetch": "deep-copy FieldStorage::fetch_whole/fetch (pre-PR path)",
    },
    "fetch_whole_ns": fetch_whole,
    "fetch_row_ns": fetch_row,
    "strided_column_view_ns": round(
        f["BM_FetchColumnStridedView"]["real_time"], 2
    ),
    "dispatch_wall_ns_per_instance": dispatch_per_instance,
}
with open(out_path, "w") as fh:
    json.dump(report, fh, indent=2)
    fh.write("\n")
print(f"wrote {out_path}")
PY
