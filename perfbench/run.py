#!/usr/bin/env python3
"""Build the benchmark driver from this checkout and run one workload.

    python3 perfbench/run.py --workload classA-round --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --quick

Run from the root of a checkout.  The driver is configured together with the
repository's own CMake project (perfbench/gather_hook.cmake) in .bench_build/
and built with the program's default build type.  GATHER_* environment
variables are recorded in the stamp line and removed from the driver's
environment, so the program runs with its defaults.

Output: a stamp line, a digests line and, last, one JSON object
{"correct", "attempted", "failed", "metrics"}.  The exit code is 0 only when
every op passed its correctness checks.  `--workload all` runs every workload
in turn, prints a table of their end-to-end metrics to stderr and reports
them prefixed with the workload name.  `--quick` runs one op per workload at
the pinned seed and checks the pinned digests.
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
DRIVER = os.path.join(BUILD, "perfbench_driver")
WORKLOADS = ["classA-round", "m-gather", "campaign-mixed", "check-exhaustive"]
RUN_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure (once) and build the driver; the build log goes to stderr."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources next to perfbench/ (CMakeLists.txt, src/)")
    os.makedirs(BUILD, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", BUILD,
                      "-DGATHER_BUILD_TESTS=OFF", "-DGATHER_BUILD_BENCH=OFF",
                      "-DGATHER_BUILD_EXAMPLES=OFF",
                      "-DCMAKE_PROJECT_gather_INCLUDE="
                      + os.path.join(HERE, "gather_hook.cmake")])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_driver",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), 1)


def source_digest():
    """SHA-256 over the program's sources: identifies the code measured when
    the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ["CMakeLists.txt", "cmake", "src", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    return proc.stdout.strip() or "unknown"


def load_pins():
    with open(os.path.join(HERE, "pins.json")) as fh:
        return json.load(fh)


def run_driver(workload, seed, seconds, trace, extra, env):
    """Run the driver once; return (exit code, stamp, digests, result)."""
    pins = load_pins()
    cmd = [DRIVER, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + extra
    if seed == pins["seed"]:
        for name, digest in sorted(pins["digests"].items()):
            cmd += ["--pin", f"{name}={digest}"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode not in (0, 1) or len(lines) < 3:
        fail(f"driver exited with code {proc.returncode}", 1)
    stamp, digests, result = (json.loads(l) for l in lines[-3:])
    return proc.returncode, stamp["stamp"], digests["digests"], result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one op per workload at the pinned seed")
    args = ap.parse_args()
    if args.quick:
        args.workload = "all"
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed is None:
        args.seed = load_pins()["seed"]

    build()
    overrides = {k: v for k, v in os.environ.items() if k.startswith("GATHER_")}
    env = {k: v for k, v in os.environ.items() if not k.startswith("GATHER_")}
    extra = ["--ops", "1", "--setups", "1"] if args.quick else []
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if args.trace:
        names = names[:1]  # one traced run reports every workload's layers

    worst = 0
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    all_digests = {}
    for name in names:
        code, stamp, digests, result = run_driver(
            name, args.seed, args.seconds, args.trace, extra, env)
        worst = max(worst, code)
        stamp.update(commit=commit(), source=source_digest(),
                     gather_env=overrides)
        print(json.dumps({"stamp": stamp}))
        all_digests.update(digests)
        if len(names) == 1:
            total = result
            break
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
        print(f"{name:18s} " + "  ".join(
            f"{m} {v['value']:.4g} {v['unit']}"
            for m, v in sorted(result["metrics"].items()))
            + f"  attempted {result['attempted']} failed {result['failed']}",
            file=sys.stderr)
    print(json.dumps({"digests": all_digests}))
    print(json.dumps(total), flush=True)
    sys.exit(1 if worst or not total["correct"] else 0)


if __name__ == "__main__":
    main()
