#!/usr/bin/env python3
"""Runs one benchmark workload and prints its result as the last line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the harness from the
checkout's own sources (perfbench/CMakeLists.txt compiles ../src) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs it, checks
its result against BENCHMARK.json and prints:

    ... the harness's own report (CHECK lines, notes, the traced ledger) ...
    ENV {"nproc": ..., "cpu": ..., "compiler": ..., "build_type": ..., ...}
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, where a metric of a layer the workload does not run
reads 0. Exits non-zero, without a result line, when the build fails, the
sources are missing, the harness fails or its output does not match
BENCHMARK.json.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 165


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "src" / "eval" / "robustness.h").is_file():
        fail(f"no repository sources under {ROOT / 'src'}")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_build_step(cmd, out, deadline)
    jobs = str(min(4, os.cpu_count() or 1))
    run_build_step(["cmake", "--build", str(out), "-j", jobs], out, deadline)
    exe = out / "perfbench_harness"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def run_build_step(cmd, out, deadline):
    # The compiler's temporary files stay inside the build tree too.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              env=dict(os.environ, TMPDIR=str(tmp)),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"build step timed out: {' '.join(cmd)}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-20000:])
        fail(f"build step failed ({done.returncode}): {' '.join(cmd)}")


def cmake_cache(out, key):
    cache = out / "CMakeCache.txt"
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def environment(out):
    """Machine and build fingerprint printed with every result."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache(out, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, timeout=10).stdout.splitlines()
        compiler = version[0] if version else compiler
    except (OSError, subprocess.SubprocessError):
        pass
    sha = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    # An exported checkout has no .git, so the sources are also identified
    # by content.
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.suffix in (".h", ".cpp") and path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "compiler": compiler,
        "build_type": cmake_cache(out, "CMAKE_BUILD_TYPE"),
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
    }


def check_result(result, spec, trace):
    """Validates the harness's JSON against BENCHMARK.json; fills per-layer
    metrics the workload does not exercise with 0."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys {sorted(result)}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number >= 1")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    for name, metric in metrics.items():
        if name not in expected:
            fail(f"metric {name} is not declared in BENCHMARK.json")
        if metric.get("unit") != expected[name]:
            fail(f"metric {name} has unit {metric.get('unit')}, "
                 f"BENCHMARK.json says {expected[name]}")
    missing = [n for n in expected if n not in metrics]
    if missing and not trace:
        fail(f"end-to-end metrics missing: {missing}")
    result["metrics"] = {
        n: metrics.get(n, {"value": 0, "unit": expected[n]}) for n in expected}
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    out = build_dir()
    exe = build(out)
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out_dir", str(out)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness timed out after {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-20000:] + done.stderr[-20000:])
        fail(f"harness exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").splitlines()
    if not lines:
        fail("harness printed nothing")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"last harness line is not JSON: {lines[-1][:200]}")
    result = check_result(result, spec, args.trace == 1)

    for line in lines[:-1]:
        print(line)
    print("ENV " + json.dumps(environment(out)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
