#!/usr/bin/env python3
"""Schema and regression-floor check for the BENCH_*.json bench reports.

Usage: check_bench_json.py [--floor DIR] [--floor-tolerance PCT] FILE...

Validates, per file:
  * top-level object with string "bench", int "schema" == 1, int "iters",
    and object "metrics";
  * metrics has counters/gauges/histograms maps of the right value types;
  * every histogram is internally consistent: len(counts) == len(bounds)+1,
    ascending bounds, sum(counts) == count;
  * at least one metric was recorded (an empty report means the bench
    never touched the registry — a wiring regression, not a tiny run);
  * benches with a known headline contract (REQUIRED_GAUGES) recorded
    every gauge that contract promises.

With --floor DIR, each file is additionally compared against the committed
baseline DIR/<basename> (e.g. bench/baselines/BENCH_rtl.json): every
higher-is-better gauge in FLOOR_GAUGES must reach the baseline value minus
the tolerance (default 20%, to absorb shared-runner noise). Floor misses
are WARNINGS — they print prominently but never change the exit code,
because absolute throughput on anonymous CI hardware is not a commitment.
Schema failures always fail.

Exit code 0 iff every file passes the schema check. No dependencies
beyond the stdlib.
"""
import json
import os
import sys

# Headline gauges a bench's JSON must contain, keyed by its "bench" id.
# Benches not listed are only schema-checked.
REQUIRED_GAUGES = {
    "ga": (
        "leo_bench_ga_sw_generations_mean",
        "leo_bench_ga_hw_generations_mean",
        "leo_bench_ga_sw_generations_per_sec",
    ),
    "rtl": (
        "leo_bench_rtl_level_cycles_per_sec",
        "leo_bench_rtl_dense_cycles_per_sec",
        "leo_bench_rtl_level_evals_per_cycle",
        "leo_bench_rtl_dense_evals_per_cycle",
        "leo_bench_rtl_level_commits_per_cycle",
        "leo_bench_rtl_level_speedup_vs_dense",
    ),
    "serve": (
        "leo_bench_serve_jobs_per_sec",
        "leo_bench_serve_coalesced_hit_ratio",
    ),
    "resources": (
        "leo_bench_resources_clbs",
        "leo_bench_resources_fitness_lut4",
    ),
    "landscape": ("leo_bench_landscape_max_fitness_genomes",),
    "ca_rng": ("leo_bench_ca_rng_period",),
}

# Higher-is-better gauges compared against the committed baseline in
# --floor mode. Only wall-clock throughputs and deterministic speedup
# ratios belong here; deterministic count metrics (generations, cycles)
# are exact-equality material for the equivalence tests, not floors.
FLOOR_GAUGES = {
    "ga": ("leo_bench_ga_sw_generations_per_sec",),
    "rtl": (
        "leo_bench_rtl_level_cycles_per_sec",
        "leo_bench_rtl_dense_cycles_per_sec",
        "leo_bench_rtl_level_speedup_vs_dense",
    ),
    "serve": ("leo_bench_serve_jobs_per_sec",),
    "pipeline": ("leo_bench_pipeline_speedup",),
}


def fail(path, message):
    print(f"{path}: FAIL: {message}")
    return False


def check_histogram(path, name, hist):
    if not isinstance(hist, dict):
        return fail(path, f"histogram {name} is not an object")
    for key in ("bounds", "counts", "count", "sum"):
        if key not in hist:
            return fail(path, f"histogram {name} missing '{key}'")
    bounds, counts = hist["bounds"], hist["counts"]
    if not all(isinstance(b, (int, float)) for b in bounds):
        return fail(path, f"histogram {name} has non-numeric bounds")
    if sorted(bounds) != bounds or len(set(bounds)) != len(bounds):
        return fail(path, f"histogram {name} bounds not strictly ascending")
    if not all(isinstance(c, int) and c >= 0 for c in counts):
        return fail(path, f"histogram {name} has bad bucket counts")
    if len(counts) != len(bounds) + 1:
        return fail(path, f"histogram {name}: len(counts) != len(bounds)+1")
    if sum(counts) != hist["count"]:
        return fail(path, f"histogram {name}: buckets sum {sum(counts)} "
                          f"!= count {hist['count']}")
    if not isinstance(hist["sum"], (int, float)):
        return fail(path, f"histogram {name} has non-numeric sum")
    return True


def check_floor(path, bench, gauges, floor_dir, tolerance_pct):
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
    base_gauges = baseline.get("metrics", {}).get("gauges", {})
    scale = 1.0 - tolerance_pct / 100.0
    for name in FLOOR_GAUGES.get(bench, ()):
        if name not in base_gauges:
            continue
        floor = base_gauges[name] * scale
        current = gauges.get(name)
        if current is None or current < floor:
            print(f"{path}: FLOOR WARN: {name} = {current} below "
                  f"{floor:.6g} (baseline {base_gauges[name]:.6g} "
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
    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        return fail(path, "'bench' missing or not a non-empty string")
    if doc.get("schema") != 1:
        return fail(path, f"unsupported schema {doc.get('schema')!r}")
    if not isinstance(doc.get("iters"), int) or doc["iters"] < 0:
        return fail(path, "'iters' missing or not a non-negative int")
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return fail(path, "'metrics' missing or not an object")

    counters = metrics.get("counters", {})
    gauges = metrics.get("gauges", {})
    histograms = metrics.get("histograms", {})
    for name, value in counters.items():
        if not isinstance(value, int) or value < 0:
            return fail(path, f"counter {name} is not a non-negative int")
    for name, value in gauges.items():
        if not isinstance(value, (int, float)):
            return fail(path, f"gauge {name} is not numeric")
    for name, hist in histograms.items():
        if not check_histogram(path, name, hist):
            return False
    if not counters and not gauges and not histograms:
        return fail(path, "no metrics recorded at all")
    for required in REQUIRED_GAUGES.get(doc["bench"], ()):
        if required not in gauges:
            return fail(path, f"required gauge {required} not recorded")

    print(f"{path}: ok ({len(counters)} counters, {len(gauges)} gauges, "
          f"{len(histograms)} histograms)")
    if floor_dir is not None:
        check_floor(path, doc["bench"], gauges, floor_dir, tolerance_pct)
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
