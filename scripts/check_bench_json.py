#!/usr/bin/env python3
"""Schema and regression-floor check for the BENCH_*.json bench reports.

Usage: check_bench_json.py [--floor DIR] [--floor-tolerance PCT] FILE...

Validates, per file:
  * a top-level object with exactly the keys "bench" (non-empty string),
    "schema" (int == 2), "iters" (non-negative int), "exact" and
    "measured";
  * "exact" and "measured" are objects of finite numbers, and not both
    empty (an empty report means the bench recorded nothing: a wiring
    regression, not a tiny run);
  * benches with a known headline contract (REQUIRED) recorded every key
    that contract promises, each in its own section.

Whether the exact values are right is ctest's <bench>.ExactMatchesBaseline
(bench/expect_exact.cmake), which requires them to equal the committed
baseline's.

With --floor DIR, each file is additionally compared against the committed
baseline DIR/<basename> (e.g. bench/baselines/BENCH_rtl.json): every
higher-is-better measured value in FLOOR must reach the baseline value
minus the tolerance (default 20%, to absorb shared-runner noise). Floor
misses are WARNINGS — they print prominently but never change the exit
code, because absolute throughput on anonymous CI hardware is not a
commitment. Schema failures always fail.

Exit code 0 iff every file passes the schema check. No dependencies
beyond the stdlib.
"""
import json
import math
import os
import sys

SECTIONS = ("exact", "measured")

# Headline keys a bench's report must contain, keyed by its "bench" id and
# then by section. Benches not listed are only schema-checked.
REQUIRED = {
    "ga": {
        "exact": ("leo_bench_ga_sw_generations_mean",
                  "leo_bench_ga_hw_generations_mean"),
        "measured": ("leo_bench_ga_sw_generations_per_sec",),
    },
    "rtl": {
        "exact": ("leo_bench_rtl_level_evals_per_cycle",
                  "leo_bench_rtl_dense_evals_per_cycle",
                  "leo_bench_rtl_level_commits_per_cycle"),
        "measured": ("leo_bench_rtl_level_cycles_per_sec",
                     "leo_bench_rtl_dense_cycles_per_sec",
                     "leo_bench_rtl_level_speedup_vs_dense"),
    },
    "serve": {
        "exact": ("leo_bench_serve_coalesced_hit_ratio",),
        "measured": ("leo_bench_serve_jobs_per_sec",),
    },
    "resources": {
        "exact": ("leo_bench_resources_clbs",
                  "leo_bench_resources_fitness_lut4"),
    },
    "landscape": {"exact": ("leo_bench_landscape_max_fitness_genomes",)},
    "ca_rng": {"exact": ("leo_bench_ca_rng_period",)},
}

# Higher-is-better measured values compared against the committed baseline
# in --floor mode. Exact values are not floors: ctest requires them to
# equal the baseline's.
FLOOR = {
    "ga": ("leo_bench_ga_sw_generations_per_sec",),
    "rtl": (
        "leo_bench_rtl_level_cycles_per_sec",
        "leo_bench_rtl_dense_cycles_per_sec",
        "leo_bench_rtl_level_speedup_vs_dense",
    ),
    "serve": ("leo_bench_serve_jobs_per_sec",),
}


def fail(path, message):
    print(f"{path}: FAIL: {message}")
    return False


def is_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def check_floor(path, bench, measured, floor_dir, tolerance_pct):
    """Warn-only comparison against the committed baseline report."""
    baseline_path = os.path.join(floor_dir, os.path.basename(path))
    if not os.path.exists(baseline_path):
        print(f"{path}: floor: no baseline at {baseline_path}, skipping")
        return
    try:
        with open(baseline_path, encoding="utf-8") as f:
            baseline = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"{path}: floor: unreadable baseline {baseline_path}: {e}")
        return
    base = baseline.get("measured", {})
    scale = 1.0 - tolerance_pct / 100.0
    for name in FLOOR.get(bench, ()):
        if name not in base:
            continue
        floor = base[name] * scale
        current = measured.get(name)
        if current is None or current < floor:
            print(f"{path}: FLOOR WARN: {name} = {current} below "
                  f"{floor:.6g} (baseline {base[name]:.6g} "
                  f"- {tolerance_pct:.0f}%)")
        else:
            print(f"{path}: floor ok: {name} = {current:.6g} "
                  f">= {floor:.6g}")


def check_file(path, floor_dir=None, tolerance_pct=20.0):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return fail(path, str(e))

    if not isinstance(doc, dict):
        return fail(path, "top level is not an object")
    if type(doc.get("schema")) is not int or doc["schema"] != 2:
        return fail(path, f"unsupported schema {doc.get('schema')!r}")
    keys = set(doc)
    expected = {"bench", "schema", "iters", *SECTIONS}
    if keys != expected:
        return fail(path, f"top-level keys {sorted(keys)}, expected "
                          f"{sorted(expected)}")
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        return fail(path, "'bench' is not a non-empty string")
    if type(doc["iters"]) is not int or doc["iters"] < 0:
        return fail(path, "'iters' is not a non-negative int")
    for section in SECTIONS:
        values = doc[section]
        if not isinstance(values, dict):
            return fail(path, f"'{section}' is not an object")
        for name, value in values.items():
            if not is_number(value):
                return fail(path, f"{section} value {name} = {value!r} is "
                                  f"not a finite number")
    if not doc["exact"] and not doc["measured"]:
        return fail(path, "both 'exact' and 'measured' are empty")
    for section, names in REQUIRED.get(doc["bench"], {}).items():
        for name in names:
            if name not in doc[section]:
                return fail(path, f"required {section} value {name} not "
                                  f"recorded")

    print(f"{path}: ok ({len(doc['exact'])} exact, "
          f"{len(doc['measured'])} measured)")
    if floor_dir is not None:
        check_floor(path, doc["bench"], doc["measured"], floor_dir,
                    tolerance_pct)
    return True


def main(argv):
    floor_dir = None
    tolerance_pct = 20.0
    paths = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--floor":
            i += 1
            if i >= len(argv):
                print("--floor requires a directory argument")
                return 2
            floor_dir = argv[i]
        elif arg == "--floor-tolerance":
            i += 1
            if i >= len(argv):
                print("--floor-tolerance requires a percentage argument")
                return 2
            tolerance_pct = float(argv[i])
        else:
            paths.append(arg)
        i += 1
    if not paths:
        print(__doc__.strip())
        return 2
    return 0 if all([check_file(p, floor_dir, tolerance_pct)
                     for p in paths]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
