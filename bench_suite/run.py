#!/usr/bin/env python3
"""Builds and runs the replication benchmark, checks its outputs.

One workload (the form BENCHMARK.json's command runs):

    python3 bench_suite/run.py --workload NAME --seed N --seconds S --trace 0|1

prints a line per metric, then as its last line one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer metrics.

Every workload (one result file, the unit compare.py works on):

    python3 bench_suite/run.py [--seed N] [--seconds S] [--trace] [--out FILE]

runs each workload untraced and, with --trace, traced as well (spans go to
FILE.<workload>.spans.json), and writes one JSON result with the host
details, every metric with its sample count, and every gate.

Smoke test: one traced run of every workload at 5% scale. It checks that
each BENCHMARK.json metric is present, finite and has its unit, that every
end-to-end metric is non-zero, and that every output gate passes:

    python3 bench_suite/run.py --smoke

The program is built from source with CMake into $CARGO_TARGET_DIR, or
.bench_build when that is unset. A failing output gate (a wrong replica or
read result) sets correct to false and makes the exit code non-zero. A
failing validity gate (say, the generator fell behind its schedule on a
contended host) is reported; it fails the all-workload mode.
"""

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

SUITE = Path(__file__).resolve().parent
ROOT = SUITE.parent
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build():
    """Configures and builds txrep_bench (both no-ops when up to date);
    returns its path."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    generator = []
    if shutil.which("ninja") and not (build_dir / "Makefile").exists():
        generator = ["-G", "Ninja"]
    subprocess.run(
        ["cmake", "-S", str(SUITE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release", *generator],
        check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "txrep_bench"


def run_bench(binary, workload, seed, seconds, trace, scale=None, spans=None):
    """Runs one workload in its own process; returns its parsed report."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}"]
    if trace:
        cmd.append("--trace")
    if scale is not None:
        cmd.append(f"--scale={scale}")
    if spans:
        cmd.append(f"--spans={spans}")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: txrep_bench printed nothing "
                           f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def check_metrics(report, specs, section, allow_zero=False):
    """Problems with the metrics `specs` names in `report[section]`."""
    problems = []
    got = report[section]
    for spec in specs:
        metric = got.get(spec["name"])
        if metric is None:
            problems.append(f"{spec['name']}: missing")
        elif metric["value"] is None or not math.isfinite(metric["value"]):
            problems.append(f"{spec['name']}: not finite")
        elif metric["value"] == 0 and not allow_zero:
            problems.append(f"{spec['name']}: zero")
        elif metric["unit"] != spec["unit"]:
            problems.append(f"{spec['name']}: unit {metric['unit']}, "
                            f"BENCHMARK.json says {spec['unit']}")
    return problems


def failed_gates(report):
    return [g for g in report["gates"] if not g["ok"]]


def print_report(report, specs, section):
    for spec in specs:
        m = report[section].get(spec["name"])
        if m is not None:
            log(f"{report['workload']:>16} {spec['name']:<34} "
                f"{m['value']:>14.6g} {m['unit']:<6} n={m['samples']}")
    for gate in failed_gates(report):
        log(f"{report['workload']:>16} GATE FAILED {gate['name']}: "
            f"{gate['detail']}")


def host_details(binary_report):
    sha = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "compiler": binary_report["build"]["compiler"],
        "build_type": binary_report["build"]["type"],
        "ndebug": binary_report["build"]["ndebug"],
        "date": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_one(args, spec):
    binary = build()
    trace = args.trace == 1
    report = run_bench(binary, args.workload, args.seed, args.seconds, trace)
    section = "per_layer" if trace else "end_to_end"
    specs = spec[section]
    print_report(report, specs, section)
    problems = check_metrics(report, specs, section)
    for p in problems:
        log(f"METRIC PROBLEM {p}")
    correct = report["correct"] and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {s["name"]: {"value": report[section][s["name"]]["value"],
                                "unit": s["unit"]}
                    for s in specs if s["name"] in report[section]},
    }))
    return 0 if correct else 1


def run_all(args, spec):
    binary = build()
    workloads = {}
    ok = True
    meta = None
    for name in [w["name"] for w in spec["workloads"]]:
        entry = {}
        modes = [False, True] if args.trace else [False]
        for trace in modes:
            spans = f"{args.out}.{name}.spans.json" if trace and args.out else None
            report = run_bench(binary, name, args.seed, args.seconds, trace,
                                spans=spans)
            meta = meta or host_details(report)
            section = "per_layer" if trace else "end_to_end"
            print_report(report, spec[section], section)
            problems = check_metrics(report, spec[section], section)
            for p in problems:
                log(f"METRIC PROBLEM {name} {p}")
            ok = ok and report["correct"] and report["valid"] and not problems
            entry["traced" if trace else "untraced"] = report
        if args.trace:
            # Tracing overhead: CPU per replica transaction, traced vs not.
            base = entry["untraced"]["validity"]["cpu_us_per_tx"]["value"]
            traced = entry["traced"]["validity"]["cpu_us_per_tx"]["value"]
            entry["trace_overhead_frac"] = traced / base - 1 if base else None
        workloads[name] = entry
    result = {"meta": meta, "seed": args.seed, "seconds": args.seconds,
              "ok": ok, "workloads": workloads}
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n")
        log(f"wrote {args.out}")
    else:
        print(text)
    return 0 if ok else 1


def run_smoke(args, spec):
    binary = Path(args.binary) if args.binary else build()
    ok = True
    for w in spec["workloads"]:
        start = time.monotonic()
        # A traced run reports the end-to-end metrics too.
        report = run_bench(binary, w["name"], 1, 0.5, True, scale=0.05)
        problems = check_metrics(report, spec["end_to_end"], "end_to_end")
        # Rare events (conflicts, read restarts) may not occur at all in a
        # half-second run, so per-layer counts may be zero here.
        problems += check_metrics(report, spec["per_layer"], "per_layer",
                                  allow_zero=True)
        # Validity gates (generator slip, ...) are not checked: a half-second
        # run is too short to hold a schedule to 1 ms at p99.
        problems += [f"gate {g['name']}: {g['detail']}"
                     for g in failed_gates(report) if g["kind"] == "output"]
        status = "ok" if not problems else "FAIL"
        log(f"smoke {w['name']} {status} ({time.monotonic() - start:.1f}s)")
        for p in problems:
            log(f"  {p}")
        ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1])
    parser.add_argument("--out", help="result file (all-workload mode)")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", help="prebuilt txrep_bench (smoke test)")
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.smoke:
            return run_smoke(args, spec)
        if args.workload:
            return run_one(args, spec)
        return run_all(args, spec)
    except (OSError, ValueError, KeyError, RuntimeError,
            subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
