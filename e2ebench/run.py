#!/usr/bin/env python3
"""End-to-end benchmark of fedtiny: builds bench_e2e from this checkout and runs it.

  python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1
      One run of one workload. Prints bench_e2e's metric rows, then as the
      last line {"correct", "attempted", "failed", "metrics"}: the end-to-end
      metrics of BENCHMARK.json with --trace 0, its per-layer metrics with
      --trace 1. Exits 1 when an output check fails.

  python3 e2ebench/run.py suite [--seed N] [--trace] [--smoke]
      Every workload, each in its own process; prints a metric table and
      exits 1 if any check fails. --smoke runs one episode per workload.

  python3 e2ebench/run.py calibrate [--runs N] [--out DIR]
      N untraced runs of every workload on seeds 1..N, seed by seed. Prints
      each end-to-end metric's median, quartiles and spreads beside its
      bound; --out keeps every run's rows for compare.py.

The first call configures and builds into .bench_build/e2ebench (Release).
Every run pins FEDTINY_THREAD_BUDGET=2: at most three compute threads.
"""
import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD / "bench_e2e"
THREAD_BUDGET = "2"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def build():
    """Configures (once) and builds bench_e2e; exits 1 if either step fails."""
    steps = []
    if not (BUILD / "Makefile").exists():  # not configured, or configuring failed
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build failed: {err}")
            sys.exit(1)
        if done.returncode != 0:
            log(f"build failed: {' '.join(cmd)} exited {done.returncode}")
            sys.exit(1)


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def run_workload(workload, seed, seconds, trace):
    """One bench_e2e process. Returns (rows, failed checks, summary, exit code)."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, FEDTINY_THREAD_BUDGET=THREAD_BUDGET, FEDTINY_GIT_SHA=git_sha())
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [], [{"check": "timeout", "detail": f"over {RUN_TIMEOUT_S} s"}], None, -1
    sys.stderr.write(done.stderr)
    rows, checks, summary = [], [], None
    for line in done.stdout.splitlines():
        try:
            obj = json.loads(line)
        except ValueError:
            checks.append({"check": "output", "detail": f"not JSON: {line[:120]}"})
            continue
        if "metric" in obj:
            rows.append(obj)
        elif "check" in obj:
            checks.append(obj)
        elif "summary" in obj:
            summary = obj["summary"]
    return rows, checks, summary, done.returncode


def result(rows, checks, summary, code, expected):
    """The final result object for `expected` ([{name, unit}] of BENCHMARK.json)."""
    checks = list(checks)
    by_name = {row["metric"]: row for row in rows}
    metrics = {}
    for m in expected:
        row = by_name.get(m["name"])
        if row is None:
            checks.append({"check": "reported", "detail": f"{m['name']} missing"})
            continue
        if row["unit"] != m["unit"]:
            checks.append({"check": "unit", "detail": f"{m['name']} in {row['unit']}, not {m['unit']}"})
        metrics[m["name"]] = {"value": row["value"], "unit": m["unit"]}
    if summary is None:
        checks.append({"check": "summary", "detail": f"bench_e2e exited {code} without a summary"})
        summary = {"correct": False, "attempted": 1, "failed": 0}
    correct = code == 0 and summary["correct"]
    return {"correct": bool(correct), "attempted": max(1, int(summary["attempted"])),
            "failed": int(summary["failed"]), "metrics": metrics}, checks


def end_to_end_checks(res):
    """End-to-end metrics are never 0: a 0 means a phase measured nothing."""
    return [{"check": "positive", "detail": f"{name} = {m['value']}"}
            for name, m in res["metrics"].items()
            if not (math.isfinite(m["value"]) and m["value"] > 0)]


def measure(spec, workload, seed, seconds, trace):
    """Runs one workload; returns (rows, result object, failed checks)."""
    rows, checks, summary, code = run_workload(workload, seed, seconds, trace)
    res, checks = result(rows, checks, summary, code, spec["per_layer" if trace else "end_to_end"])
    if not trace:
        checks += end_to_end_checks(res)
    res["correct"] = res["correct"] and not checks
    return rows, res, checks


def cmd_single(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    build()
    rows, res, checks = measure(spec, args.workload, args.seed, args.seconds, args.trace == 1)
    for row in rows:
        print(json.dumps(row))
    for c in checks:
        log(f"check failed: {c.get('check')}: {c.get('detail')}")
    print(json.dumps(res), flush=True)
    return 0 if res["correct"] else 1


def cmd_suite(args):
    spec = load_spec()
    build()
    seconds = 1 if args.smoke else spec["run_seconds"]
    ok = True
    for w in spec["workloads"]:
        _, res, checks = measure(spec, w["name"], args.seed, seconds, args.trace)
        ok = ok and res["correct"]
        print(f"{w['name']}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']}")
        for name, m in res["metrics"].items():
            print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")
        for c in checks:
            print(f"  CHECK FAILED {c.get('check')}: {c.get('detail')}")
    return 0 if ok else 1


def spreads(values):
    """(median, q1, q3, IQR / median, (max - min) / median) of a sample."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    scale = abs(med) if med else 1.0
    return med, q1, q3, (q3 - q1) / scale, (max(values) - min(values)) / scale


def cmd_calibrate(args):
    spec = load_spec()
    build()
    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    ok = True
    values = {w["name"]: {m["name"]: [] for m in spec["end_to_end"]} for w in spec["workloads"]}
    # Seed-major order: a slow stretch of the host that outlasts a few runs
    # lands on every workload, not on all runs of one.
    for seed in range(1, args.runs + 1):
        for w in spec["workloads"]:
            rows, res, checks = measure(spec, w["name"], seed, spec["run_seconds"], False)
            ok = ok and res["correct"]
            for c in checks:
                print(f"{w['name']} seed {seed}: CHECK FAILED {c.get('check')}: {c.get('detail')}")
            for name, m in res["metrics"].items():
                values[w["name"]][name].append(m["value"])
            if out:
                (out / f"{w['name']}.{seed}.jsonl").write_text(
                    "".join(json.dumps(r) + "\n" for r in rows))
    for w in spec["workloads"]:
        print(f"{w['name']} ({args.runs} runs of {spec['run_seconds']} s)")
        print(f"  {'metric':18s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
              f"{'iqr/med':>8s} {'range/med':>9s} {'bound':>6s}")
        for m in spec["end_to_end"]:
            vals = values[w["name"]][m["name"]]
            if not vals:
                continue
            med, q1, q3, iqr, rng = spreads(vals)
            print(f"  {m['name']:18s} {med:10.4g} {q1:10.4g} {q3:10.4g} "
                  f"{iqr:8.3f} {rng:9.3f} {m['bound']:6.2f}")
    return 0 if ok else 1


def main():
    argv = sys.argv[1:]
    if argv and argv[0] in ("suite", "calibrate"):
        p = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        if argv[0] == "suite":
            p.add_argument("--seed", type=int, default=1)
            p.add_argument("--trace", action="store_true")
            p.add_argument("--smoke", action="store_true")
            return cmd_suite(p.parse_args(argv[1:]))
        p.add_argument("--runs", type=int, default=10)
        p.add_argument("--out")
        return cmd_calibrate(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return cmd_single(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
