#!/usr/bin/env python3
"""Evolution-job benchmark: builds perfbench and runs one workload.

    python3 perfbench/run.py --workload sw_fleet|hw_fleet|sweep_reuse \
        --seed N --seconds S [--trace 0|1] [--jobs N]

Builds the repository's libraries and the perfbench program into
.bench_build/ (CMake, Release), then runs the program from the repository
root. With --trace 0 it reports the end-to-end metrics plus setup_s: the
process CPU time from exec to the first timed submission, the median over
several process starts. With --trace 1 it reports the per-layer
metrics of the traced run. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The exit code is 0
when every output check passed, 1 otherwise, 2 for a bad command line.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
WORKLOADS = ("sw_fleet", "hw_fleet", "sweep_reuse")
# Process starts measured for setup_s: this many set-up-only probes plus
# the measured run itself.
SETUP_PROBES = 14
# Every run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170.0


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def parse_args():
    parser = argparse.ArgumentParser(
        description="Evolution-job benchmark", allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--jobs", type=int, default=None,
                        help="minimum work per run (sweep_reuse: rounds)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be in 1..3600")
    if args.jobs is not None and args.jobs < 1:
        parser.error("--jobs must be >= 1")
    return args


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no program sources under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", "3"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def launch(argv, on_line):
    """Runs the program; returns ((set-up CPU s, set-up wall s), exit code).

    `on_line` gets every line after READY. The program is killed if it
    outlives RUN_TIMEOUT_S.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([str(BINARY)] + argv, cwd=ROOT,
                            stdout=subprocess.PIPE, text=True, bufsize=1)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    ready = None
    try:
        for line in proc.stdout:
            if ready is None and line.startswith("READY "):
                ready = (float(line.split()[1]), time.perf_counter() - start)
            else:
                on_line(line.rstrip("\n"))
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready is None:
        fail(f"program exited with code {code} before set-up finished")
    return ready, code


def main():
    args = parse_args()
    build()
    base = ["--workload", args.workload, "--seed", str(args.seed)]

    setups = []  # (CPU s since exec, wall s since spawn) at the first timed submission
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setup, code = launch(base + ["--setup-only"], print)
            if code != 0:
                fail(f"set-up probe exited with code {code}")
            setups.append(setup)

    result = None

    def on_line(line):
        nonlocal result
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line, flush=True)

    argv = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.jobs is not None:
        argv += ["--jobs", str(args.jobs)]
    setup, code = launch(argv, on_line)
    if result is None or code not in (0, 1):
        fail(f"program exited with code {code} without a result")
    if not args.trace:
        setups.append(setup)
        setup_s = statistics.median(cpu for cpu, _ in setups)
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
        print(f"  setup_s              {setup_s:12.6f} s     (process CPU, "
              f"median of {len(setups)} starts: "
              + ", ".join(f"{cpu:.4f}" for cpu, _ in setups)
              + "; wall " + ", ".join(f"{wall:.4f}" for _, wall in setups)
              + ")")
    print(json.dumps(result), flush=True)
    sys.exit(0 if result["correct"] and code == 0 else 1)


if __name__ == "__main__":
    main()
