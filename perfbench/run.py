#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark from the repository root.

    python3 perfbench/run.py --workload serving-day --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

The benchmark is compiled from the library sources in this checkout into
$CARGO_TARGET_DIR (default .bench_build). OpenMP shot loops get
min(4, nproc) threads, so that no phase runs more threads than there are
CPUs; the benchmark sizes its ingest threads and compile farm the same way.
Build output goes to stderr. For one workload the benchmark's stdout, whose
last line is the JSON result, is passed through unchanged. `--workload all`
runs every workload in its own process, so that each one's peak resident
set is its own, and ends with one JSON result whose metrics are prefixed
with the workload name.
"""

import json
import os
import shutil
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
MAX_THREADS = 4


def build(build_dir):
    def step(command):
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(command))

    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"] + generator)
    jobs = min(MAX_THREADS, len(os.sched_getaffinity(0)))
    step(["cmake", "--build", build_dir, "--target", "perfbench",
          "-j", str(jobs)])
    return os.path.join(build_dir, "perfbench")


def commit():
    # Only this checkout's own repository: git would otherwise search the
    # parent directories.
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True)
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    return "unknown"


def run_all(binary, args, env):
    names = subprocess.run([binary, "--list"], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        command = [binary, "--workload", name] + args
        done = subprocess.run(command, env=env, capture_output=True, text=True)
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit("perfbench: %s printed no result (exit %d)"
                     % (name, done.returncode))
        total["correct"] = (total["correct"] and result["correct"]
                            and done.returncode == 0)
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][name + "/" + metric] = value
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main():
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    binary = build(build_dir)
    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(
        min(MAX_THREADS, len(os.sched_getaffinity(0))))
    env["PERFBENCH_COMMIT"] = commit()
    args = sys.argv[1:]
    if "--workload" in args[:-1]:
        at = args.index("--workload")
        if args[at + 1] == "all":
            sys.exit(run_all(binary, args[:at] + args[at + 2:], env))
    sys.exit(subprocess.run([binary] + args, env=env).returncode)


if __name__ == "__main__":
    main()
