#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload seq-leaves --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) built against the repository's crates; the
build goes to $CARGO_TARGET_DIR (default .bench_build). A run prints a
summary and, as its last stdout line, the JSON result. The exit code is
nonzero when the build fails, a correctness gate fails, or the run
overstays its wall budget (the process group is then killed).

--self-test runs all four workloads at tiny sizes, traced and untraced,
and checks that every metric BENCHMARK.json lists is printed with its
unit and that every gate passes.
"""

import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BUILD_TIMEOUT_S = 870
RUN_TIMEOUT_S = 172


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return False
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return False
    return True


def binary():
    return os.path.join(target_dir(), "release", "oat-perfbench")


def run(args, echo=True):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.Popen([binary()] + args, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        out += "# GATE FAILED: killed after %d s\n" % RUN_TIMEOUT_S
        out += json.dumps({"correct": False, "attempted": 1, "failed": 1,
                           "metrics": {}}) + "\n"
        code = 3
    else:
        code = proc.returncode
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return code, out.splitlines()


def self_test():
    spec = json.load(open(os.path.join(HERE, os.pardir, "BENCHMARK.json")))
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for w in spec["workloads"]:
        for trace in (0, 1):
            name = "%s trace=%d" % (w["name"], trace)
            code, lines = run(["--workload", w["name"], "--seed", "1",
                               "--seconds", "1", "--trace", str(trace),
                               "--tiny"], echo=False)
            try:
                res = json.loads(lines[-1])
            except (IndexError, ValueError):
                problems.append("%s: no result line" % name)
                continue
            if set(res) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (name, sorted(res)))
            if code != 0 or not res.get("correct") or res.get("failed"):
                gates = [l for l in lines if "GATE FAILED" in l]
                problems.append("%s: exit %d, %s" % (name, code, gates))
            got = {k: v.get("unit") for k, v in res.get("metrics", {}).items()}
            if got != want[trace]:
                problems.append("%s: metrics differ from BENCHMARK.json: %s"
                                % (name, sorted(set(got.items())
                                                ^ set(want[trace].items()))))
            print("self-test %-24s exit %d, %d metrics" % (name, code, len(got)))
    for p in problems:
        print("self-test FAILED: " + p)
    print("self-test: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv):
    if not build():
        return 2
    if argv == ["--self-test"]:
        return self_test()
    code, _ = run(argv)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
