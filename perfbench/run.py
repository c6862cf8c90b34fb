#!/usr/bin/env python3
"""The repo's benchmark: end-to-end Find() on one workload, one seed.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the engine and the measuring program from source (Release, into
.bench_build/perfbench), runs the workload for --seconds in a process of its
own, checks every answer against a cold reference, and prints a table of
every metric followed, as the last stdout line, by one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--trace 0 reports BENCHMARK.json's end_to_end metrics; --trace 1 reports its
per_layer metrics and writes a Chrome trace to
.bench_build/perfbench/traces/<workload>-seed<n>.json. Exits non-zero, with
no result line, when the sources are missing or a step fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
sys.path.insert(0, str(HERE))

import reduction  # noqa: E402  (sibling module)

ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
PROGRAM = BUILD_DIR / "perfbench_measure"
WORKLOADS = ("cold_large", "warm_session", "serving_mixed")
BUILD_TIMEOUT_S = 600
RUN_TIMEOUT_S = 160


class BenchError(Exception):
    pass


def run_checked(cmd, timeout):
    """Runs `cmd` with its stdout sent to our stderr (stdout is reserved for
    the result); raises BenchError on failure or timeout."""
    try:
        subprocess.run([str(c) for c in cmd], cwd=ROOT, stdout=sys.stderr,
                       check=True, timeout=timeout)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        raise BenchError(f"{cmd[0]} failed: {e}") from e


def build():
    """Configures and builds the measuring program (incrementally)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"engine sources not found under {ROOT}")
    run_checked(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                BUILD_TIMEOUT_S)
    run_checked(["cmake", "--build", BUILD_DIR, "--target", "perfbench_measure",
                 "-j", "4"], BUILD_TIMEOUT_S)


def measure(workload, seed, seconds, trace, scale=1.0, corrupt_reference=False,
            trace_out=None):
    """Runs the measuring process once and returns its raw report."""
    cmd = [PROGRAM, "--workload", workload, "--seed", seed, "--seconds", seconds,
           "--trace", trace, "--scale", scale]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    if corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        done = subprocess.run([str(c) for c in cmd], cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (subprocess.TimeoutExpired, OSError) as e:
        raise BenchError(f"measuring process failed: {e}") from e
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"measuring process exited {done.returncode}")
    return json.loads(lines[-1])


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def result_line(raw, trace, spec):
    """The final JSON object: every metric BENCHMARK.json names for this
    mode, with its unit; raises BenchError if one was not measured."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = reduction.per_layer(raw) if trace else reduction.end_to_end(raw)[0]
    metrics = {}
    for metric in declared:
        name = metric["name"]
        if name not in values or not math.isfinite(values[name]):
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": metric["unit"]}
    correct = raw["failed"] == 0 and raw["attempted"] > 0
    return {"correct": correct, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def print_table(raw, trace, result):
    """Human-readable lines ahead of the result line."""
    print(f"# {raw['workload']} seed {raw['seed']}: {raw['clients']} closed-loop "
          f"client(s), {raw['threads']} engine threads")
    pairs = ", ".join(f"{p['name']} {p['rows']}" for p in raw["pairs"])
    steps = ", ".join(f"{k} {v:.3f} s" for k, v in raw["setup_steps"].items())
    print(f"#   pairs (rows): {pairs}")
    print(f"#   set-up: {steps}")
    print(f"#   peak RSS (MiB): set-up {raw['setup_peak_rss_kb'] / 1024:.1f}, "
          f"measured phase {raw['peak_rss_kb'] / 1024:.1f}")
    print(f"# attempted {raw['attempted']}, failed {raw['failed']}")
    beside = {}
    if not trace:
        values, extras = reduction.end_to_end(raw)
        beside["find_p50_s"] = f"  (n={extras['find_samples']})"
        if "find_p90_s" in values:
            print(f"{'find_p90_s':40s} {values['find_p90_s']:.6g} s")
        for name in ("recovery_f1", "failed_frac"):
            print(f"{name:40s} {values[name]:.6g} ratio")
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}{beside.get(name, '')}")
    if trace:
        m = {name: metric["value"] for name, metric in result["metrics"].items()}
        print(f"# stage spans leave {reduction.stage_gap_frac(m):.4f} of trace.find_s "
              f"uncovered; tracing overhead {m['trace.overhead_frac']:.4f}")
        print("# span self time (s), total over the traced run:")
        for name, span in sorted(raw["spans"].items()):
            print(f"#   {name:38s} n={span['count']:<4d} self {span['self_s']:.4f}"
                  f"  total {span['total_s']:.4f}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Reduced-size runs for the benchmark's own tests.
    parser.add_argument("--scale", type=float, default=1.0, help=argparse.SUPPRESS)
    parser.add_argument("--corrupt-reference", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        build()
        trace_out = None
        if args.trace:
            traces = BUILD_DIR / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            trace_out = traces / f"{args.workload}-seed{args.seed}.json"
        raw = measure(args.workload, args.seed, args.seconds, args.trace,
                      scale=args.scale, corrupt_reference=args.corrupt_reference,
                      trace_out=trace_out)
        result = result_line(raw, args.trace, spec)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print_table(raw, args.trace, result)
    if trace_out is not None:
        print(f"# chrome trace: {os.path.relpath(trace_out, ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
