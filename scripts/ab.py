#!/usr/bin/env python3
"""Interleaved A/B of one perfbench workload between two revisions.

    python3 scripts/ab.py <parent-rev> <change-rev> --workload W \
        [--pairs N] [--seconds S] [--first-seed K]

Checks out both revisions with `git worktree` under a new temporary
directory, then runs
`python3 perfbench/run.py --workload W --seed SEED --seconds S` in each,
N times. Pair i uses seed K + i for both sides and alternates which side
runs first, so slow drift of a shared machine hits both sides alike. Each
side builds itself with perfbench's own build step, in an unmeasured
one-second warm-up run before the first pair.

Prints the seeds, then for every end-to-end metric of BENCHMARK.json:
each side's median and quartiles, the median of the per-pair
change/parent ratios with its distribution-free (sign-test) interval of
at least 95 % coverage when N >= 6, and "change better k/N" (pairs where
the change read better in the metric's direction; ties do not count).
Every run must read "correct": true with failed 0, or the script exits 1.
The worktrees and the temporary directory are removed at the end.
"""
import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def git(*args, cwd):
    return subprocess.run(["git", *args], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def run_perfbench(tree, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"ab: no result from {tree} (exit {proc.returncode}):\n"
                 + proc.stderr[-2000:])
    result = json.loads(lines[-1])
    if proc.returncode != 0 or not result.get("correct") or result.get(
            "failed", 1) != 0:
        sys.exit(f"ab: run in {tree} (seed {seed}) is not correct: "
                 + lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def sign_test_interval(ratios):
    """Order statistics [r_(k), r_(n+1-k)] bracketing the median with at
    least 95 % coverage (the largest k with P(Bin(n, 1/2) < k) <= 2.5 %),
    or None when n is too small for any such k."""
    n = len(ratios)
    k, tail = 0, 0.0
    while tail + math.comb(n, k) / 2 ** n <= 0.025:
        tail += math.comb(n, k) / 2 ** n
        k += 1
    if k == 0:
        return None
    ordered = sorted(ratios)
    return ordered[k - 1], ordered[n - k]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0],
                                     allow_abbrev=False)
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1 or args.first_seed < 0:
        parser.error("--pairs and --seconds must be >= 1, --first-seed >= 0")

    repo = Path(git("rev-parse", "--show-toplevel", cwd=Path.cwd()))
    scratch = Path(tempfile.mkdtemp(prefix="leo-ab-"))
    trees = {}
    try:
        for side, rev in zip(SIDES, (args.parent, args.change)):
            sha = git("rev-parse", "--verify", rev + "^{commit}", cwd=repo)
            git("worktree", "add", "--detach", str(scratch / side), sha,
                cwd=repo)
            trees[side] = scratch / side
            print(f"{side}: {rev} = {sha[:12]} in {trees[side]}")
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        better = {m["name"]: m["better"] for m in spec["end_to_end"]}
        seeds = [args.first_seed + i for i in range(args.pairs)]
        print(f"workload {args.workload}, {args.pairs} pairs of "
              f"{args.seconds} s runs, seeds {seeds}")
        for side in SIDES:  # builds each side; not measured
            run_perfbench(trees[side], args.workload, seeds[0], 1)
        values = {side: {name: [] for name in better} for side in SIDES}
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            row = {}
            for side in order:
                row[side] = run_perfbench(trees[side], args.workload, seed,
                                          args.seconds)
                for name in better:
                    values[side][name].append(row[side][name])
            print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} "
                  "first): " + ", ".join(
                      f"{name} {row['parent'][name]:.4g} -> "
                      f"{row['change'][name]:.4g}" for name in better),
                  flush=True)
    finally:
        for tree in trees.values():
            git("worktree", "remove", "--force", str(tree), cwd=repo)
        scratch.rmdir()

    print(f"\n| metric | parent median [q1, q3] | change median [q1, q3] "
          f"| median change/parent [95 % interval] | change better |")
    print("|---|---|---|---|---|")
    for name, direction in better.items():
        parent, change = values["parent"][name], values["change"][name]
        ratios = [c / p for p, c in zip(parent, change) if p != 0]
        wins = sum((c < p) if direction == "lower" else (c > p)
                   for p, c in zip(parent, change))
        cells = []
        for side_values in (parent, change):
            median, q1, q3 = quartiles(side_values)
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "n/a"
        interval = sign_test_interval(ratios) if ratios else None
        if interval is not None:
            ratio += f" [{interval[0]:.3f}, {interval[1]:.3f}]"
        print(f"| {name} | {cells[0]} | {cells[1]} | {ratio} "
              f"| {wins}/{len(parent)} |")


if __name__ == "__main__":
    main()
