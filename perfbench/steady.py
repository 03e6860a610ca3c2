#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py                   # every workload, 2 x 10 runs
    python3 perfbench/steady.py --workloads m-gather --runs 5

For each workload it runs two interleaved sets (A, B) of untraced runs
through perfbench/run.py, each run with its own seed and the run length of
BENCHMARK.json, alternating which set goes first.  For every end-to-end
metric it prints each set's median and quartiles, the spread (quartile
distance over median, as statistics.quantiles(values, n=4) gives them), and
whether B's median is within the metric's bound of A's and each spread within
the bound (setup_s's spread is reported but not gated).  Exit code 1 when a
check fails or a run was not correct.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        return None
    return json.loads(lines[-1])


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()

    ok = True
    print(f"# {args.runs} runs per set, {args.seconds} s each; "
          "spread = (q3 - q1) / median")
    for workload in args.workloads.split(","):
        values = {"A": {}, "B": {}}
        for i in range(args.runs):
            order = ["A", "B"] if i % 2 == 0 else ["B", "A"]
            for side in order:
                seed = (1 if side == "A" else 101) + i
                result = run(workload, seed, args.seconds)
                if result is None or not result["correct"]:
                    print(f"{workload} seed {seed}: run not correct: {result}")
                    ok = False
                    continue
                for name, m in result["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
        print(f"\n## {workload}")
        print(f"{'metric':9s} {'set':3s} {'q1':>10s} {'median':>10s} {'q3':>10s}"
              f" {'spread':>7s}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = values["A"].get(name, []), values["B"].get(name, [])
            if len(a) < 2 or len(b) < 2:
                print(f"{name:9s} missing values")
                ok = False
                continue
            sa, sb = summary(a), summary(b)
            for side, s in (("A", sa), ("B", sb)):
                print(f"{name:9s} {side:3s} {s[0]:10.4f} {s[1]:10.4f}"
                      f" {s[2]:10.4f} {s[3]:7.3f}")
            shift = sb[1] / sa[1] - 1.0
            if metric["better"] == "higher":
                shift = -shift
            checks = [shift <= bound]
            if name != "setup_s":
                checks += [sa[3] <= bound, sb[3] <= bound]
            verdict = "agree" if all(checks) else "DISAGREE"
            ok = ok and all(checks)
            third = max(sa[3], sb[3]) < bound / 3
            print(f"{name:9s} B vs A median {shift:+.3f} (bound {bound}); "
                  f"spreads {'below' if third else 'NOT below'} bound/3: {verdict}")
        sys.stdout.flush()
    print("\nsteady" if ok else "\nNOT steady")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
