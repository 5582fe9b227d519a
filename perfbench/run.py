#!/usr/bin/env python3
"""P2G benchmark entry point.

Builds the benchmark driver (perfbench/p2gbench.cpp plus the P2G libraries
it calls, from this checkout's src/) and runs one workload:

    python3 perfbench/run.py --workload mjpeg_cif --seed 1 --seconds 30 --trace 0

The driver's human-readable table goes to stdout; the last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer metrics
(--trace 1). The full report (run metadata, sample counts, layer sum check)
and the driver's own spans are written to <build dir>/results/.

    python3 perfbench/run.py --selftest

checks the benchmark itself: a corrupted reference must be reported as
failures, and every traced run must pass the layer sum check and print
every per-layer metric.

The build directory is $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset, relative to the checkout root.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = ("mjpeg_cif", "kmeans_fine", "stream_3node")
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def subprocess_env(build):
    # Keep compiler and runtime temporaries inside the checkout.
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["TMPDIR"] = str(tmp)
    return env


def build_driver():
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "src" / "core" / "runtime.h").is_file():
        fail(f"P2G sources not found under {ROOT / 'src'}")
    build = build_dir()
    build.mkdir(parents=True, exist_ok=True)
    env = subprocess_env(build)
    log_path = build / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (build / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(build),
                      f"-j{os.cpu_count() or 1}"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail("build failed (see " + str(log_path) + ")", 1)
    return build / "p2gbench"


def source_digest():
    """sha256 over the sources the driver is built from."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_driver(binary, workload, seed, seconds, trace, extra=()):
    """Runs the driver; returns (table lines, full result dict)."""
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(results), "--commit", git_commit(),
           "--source-digest", source_digest(), *extra]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S,
                              env=subprocess_env(build_dir()))
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        fail(f"{workload} driver exited with code {proc.returncode}", 1)
    return lines[:-1], json.loads(lines[-1][len("RESULT "):])


def report_path(workload, seed, trace):
    return build_dir() / "results" / f"{workload}_seed{seed}_trace{trace}.json"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def select(result, names):
    """The result restricted to the metrics BENCHMARK.json declares."""
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        fail("driver did not report " + ", ".join(missing), 1)
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: result["metrics"][n] for n in names},
    }


def selftest(binary):
    ok = True

    def check(condition, what):
        nonlocal ok
        print(("PASS " if condition else "FAIL ") + what)
        ok = ok and condition

    for workload in WORKLOADS:
        _, bad = run_driver(binary, workload, 1, 0.1, 0,
                            ["--corrupt-reference"])
        check(not bad["correct"] and bad["failed"] > 0 and
              bad["metrics"]["failed_frac"]["value"] > 0,
              f"{workload}: corrupted reference gives failed_frac > 0 "
              f"({bad['failed']}/{bad['attempted']})")
        _, good = run_driver(binary, workload, 1, 0.1, 1)
        check(good["correct"] and good["failed"] == 0,
              f"{workload}: outputs match the reference")
        missing = [n for n in declared_metrics(1) + declared_metrics(0)
                   if n not in good["metrics"]]
        check(not missing, f"{workload}: every declared metric reported"
              + (f", missing {missing}" if missing else ""))
        layer = json.loads(report_path(workload, 1, 1).read_text())
        layer = layer["layer_check"]
        worst = max(max(r["accounted_err"], r["span_err"])
                    for r in layer["reps"])
        check(layer["ok"], f"{workload}: layer sum check within "
              f"{layer['tolerance']:.0%} (worst {worst:.2%})")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json not found at the checkout root")

    started = time.monotonic()
    binary = build_driver()
    print(f"perfbench: driver ready in {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    if args.selftest:
        return selftest(binary)

    table, result = run_driver(binary, args.workload, args.seed, args.seconds,
                               args.trace)
    print("\n".join(table))
    print(json.dumps(select(result, declared_metrics(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
