#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the program's libraries from ../src and
the perfbench binary at Release into .bench_build/perfbench (a no-op when up
to date), runs one workload, and prints the host record followed, as the last
line of stdout, by the binary's JSON result. The exit code is the binary's:
0 only when every output matched its reference.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("day_wide_pearson", "day_robust_maronna", "svc_sweep")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources (src/CMakeLists.txt) next to perfbench/")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def cpu_record():
    model, flags = "", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name":
                    model = value.strip()
                elif key.strip() == "flags":
                    flags = set(value.split())
                if model and flags:
                    break
    except OSError:
        pass
    return model, flags


def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unavailable"
    except (OSError, subprocess.SubprocessError):
        return "unavailable"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    if not build():
        return 1

    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        spans_dir = os.path.join(ROOT, ".bench_build", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(spans_dir, f"{args.workload}-seed{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
        return 1

    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        log("perfbench printed no result")
        return proc.returncode or 1
    try:
        keys = set(json.loads(lines[-1]))
    except ValueError:
        keys = set()
    if keys != {"correct", "attempted", "failed", "metrics"}:
        log("perfbench's last line is not a result")
        return proc.returncode or 1

    model, flags = cpu_record()
    host = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "avx2": "avx2" in flags,
        "avx512f": "avx512f" in flags,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    for line in lines[:-1]:
        if line.startswith("build: "):
            host.update(json.loads(line[len("build: "):]))
        else:
            print(line)
    print("host: " + json.dumps(host, sort_keys=True))
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
