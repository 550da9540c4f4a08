#!/usr/bin/env python3
"""Run one workload of the concavebp benchmark and print its metrics.

    python3 perfbench/run.py --workload scheme-default --seed 1 --seconds 24 --trace 0

Run it from anywhere in a source checkout; it imports the package from the
checkout's ``src/`` and nowhere else.  With ``--trace 0`` the last line of
standard output is a JSON object with every end-to-end metric named in
BENCHMARK.json; with ``--trace 1`` it alternates untraced and traced passes
and reports every per-layer metric instead, after one line per layer giving
its share of self time.  Any failed check makes the exit code 1; a broken
set-up (no package, ``python -O``, a benchmark defect) exits with 2 and
prints no result.
"""
from __future__ import annotations

import os

# one compute thread: BLAS must not start its own pool (nproc is 2)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
MODULES = ("core", "heuristics", "fractional", "exact", "structures", "pricing",
           "simplex", "lp", "afptas", "serialize", "generators", "cli")
# set-ups per run; setup_s is their median
SETUP_REPEATS = 7

sys.path.insert(0, str(HERE))
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


class SetupError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_package():
    """Import concavebp from this checkout afresh (numpy stays loaded)."""
    if not (SRC / "concavebp" / "__init__.py").is_file():
        raise SetupError(f"no concavebp package under {SRC}")
    for name in [m for m in sys.modules if m == "concavebp" or m.startswith("concavebp.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("concavebp")
    for name in MODULES:
        importlib.import_module(f"concavebp.{name}")
    if not Path(pkg.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"imported concavebp from {pkg.__file__}, not from {SRC}")
    return pkg


def set_up(name: str, params: dict, seed: int):
    start = time.perf_counter()
    pkg = load_package()
    wl = workloads.KINDS[params["kind"]](pkg, params, seed, OUT / name)
    return time.perf_counter() - start, pkg, wl


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least 10 samples
    beyond it, but never below the median.  Below 20 samples no percentile
    above the median has 10 samples beyond it, so the median stands in."""
    xs = sorted(samples)
    if len(xs) < 20:
        return statistics.median(xs), 50.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def per_op_medians(passes: list[list[float]]) -> list[float]:
    """Each operation's median time over the passes; every pass runs the
    same operations in the same order."""
    if len({len(ops) for ops in passes}) != 1:
        raise SetupError("passes ran different numbers of operations")
    return [statistics.median(times) for times in zip(*passes)]


def layer_values(names, summary, counts, maxima) -> dict[str, float]:
    """Per-layer metrics of one traced pass; a layer that did not run reads 0."""
    out = {}
    for name in names:
        if name == "trace_overhead_frac":
            continue
        if name == "pricing.useful_ratio":
            found = counts.get("pricing.columns_found", 0)
            out[name] = counts.get("lp.columns_added", 0) / found if found else 0.0
            continue
        fn, _, field = name.rpartition(".")
        if field in ("s", "self_s", "calls") and fn in tracing.SPAN_NAMES:
            out[name] = summary.get(fn, {}).get(field, 0)
        elif name in tracing.COUNT_NAMES:
            out[name] = counts.get(name, maxima.get(name, 0))
        else:
            raise SetupError(f"per-layer metric {name} is measured nowhere")
    return out


def print_shares(workload: str, summary: dict, wall: float, top_level: float) -> None:
    rows = [(row["self_s"], name) for name, row in summary.items()]
    rows.append((wall - top_level, "benchmark.checks_and_glue"))
    for own, name in sorted(rows, reverse=True):
        print(f"share {workload} {name} {own / wall:.4f} self_s={own:.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if sys.flags.optimize:
        raise SetupError("run under plain python: -O strips the scheme's invariant checks")
    plan = json.loads((HERE / "plan.json").read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if set(plan["per_layer"]) != {m["name"] for m in bench["per_layer"]}:
        raise SetupError("plan.json and BENCHMARK.json list different per-layer metrics")
    if args.workload not in plan["workloads"]:
        raise SetupError(f"unknown workload {args.workload}; choose from {sorted(plan['workloads'])}")
    params = plan["workloads"][args.workload]

    runner = workloads.Runner()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        before = runner.probe()
        took, pkg, wl = set_up(args.workload, params, args.seed)
        setup_times.append(workloads.calibrated(took, before, runner.probe()))

    for problem in workloads.self_test(pkg):
        runner.messages.append(f"checker self-test: {problem}")
        runner.failed += 1
        runner.attempted += 1
    if hasattr(wl, "reference"):
        ref = workloads.Runner()
        started = time.perf_counter()
        wl.reference(ref)
        print(f"reference bounds: {ref.attempted} instances in {time.perf_counter() - started:.3f} s")
        runner.attempted += ref.attempted
        runner.failed += ref.failed
        runner.messages += ref.messages

    tracer = tracing.Tracer(pkg)
    runner.tracer = tracer
    # plain: (calibrated wall, raw wall, calibrated op times)
    # traced: (calibrated wall, raw wall, spans, counts, maxima)
    plain, traced, results = [], [], []
    started = time.perf_counter()
    while True:
        trace_this = args.trace == 1 and len(plain) > len(traced)
        if trace_this:
            tracer.install()
        first_op = len(runner.op_times)
        probed = runner.probe_s
        t0 = time.perf_counter()
        try:
            results.append(wl.run_pass(runner))
        finally:
            raw = time.perf_counter() - t0 - (runner.probe_s - probed)
            if trace_this:
                tracer.remove()
        # the pass is scaled as its operations were, weighted by their time
        ops_raw = sum(runner.raw_op_times[first_op:])
        wall = raw * sum(runner.op_times[first_op:]) / ops_raw if ops_raw else raw
        if trace_this:
            traced.append((wall, raw, *tracer.take()))
        else:
            plain.append((wall, raw, runner.op_times[first_op:]))
        raws = [p[1] for p in plain] + [t[1] for t in traced]
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(raws) > args.seconds and (args.trace == 0 or traced):
            break

    print(f"speed probe: median {statistics.median(runner.probes):.5f} s over {len(runner.probes)} probes "
          f"(calibrated times assume {workloads.CAL_REF} s)")
    print(f"pass walls as measured: {' '.join(f'{p[1]:.3f}' for p in plain + traced)}")

    def same(key):
        return all(r[key] == results[0][key] for r in results)

    for key in ("best_gap", "scheme_gap", "outputs"):
        runner.check(same(key), f"{key} differs between passes of one run")

    if args.trace == 0:
        op_times = per_op_medians([ops for _, _, ops in plain])
        tail_value, tail_pct = tail(op_times)
        print(f"pass walls calibrated: {' '.join(f'{p[0]:.3f}' for p in plain)}")
        print(f"op_tail_s: p{tail_pct:.1f} of {len(op_times)} operations, each the median of {len(plain)} passes")
        values = {
            "wall_s": statistics.median(p[0] for p in plain),
            "op_p50_s": statistics.median(op_times),
            "op_tail_s": tail_value,
            "best_gap": results[-1]["best_gap"],
            "scheme_gap": results[-1]["scheme_gap"],
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        declared = bench["end_to_end"]
    else:
        names = [m["name"] for m in bench["per_layer"]]
        per_pass = []
        for _, raw, spans, counts, maxima in traced:
            summary, problems = tracing.summarize(spans)
            for problem in problems:
                runner.fail(f"tracer self-check: {problem}")
            want = params.get("enumerations_per_run")
            if want is not None:
                got = tracing.enumerations_per_run(spans)
                runner.check(all(g == want for g in got),
                             f"tracer self-check: enumerations per run {got}, expected {want}")
            per_pass.append(layer_values(names, summary, counts, maxima))
        # shares of the last traced pass
        top_level = sum(end - start for _, _, start, end, parent, _ in spans if parent < 0)
        print_shares(args.workload, summary, raw, top_level)
        tracing.write_jsonl(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl", [t[2] for t in traced])
        values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
        values["trace_overhead_frac"] = (
            statistics.median(t[0] for t in traced) / statistics.median(p[0] for p in plain) - 1
        )
        declared = bench["per_layer"]

    for name, value in values.items():
        if not math.isfinite(value):
            runner.fail(f"{name} is {value}")
            values[name] = 0.0
    if set(values) != {m["name"] for m in declared}:
        raise SetupError(f"metrics computed {sorted(values)} differ from BENCHMARK.json")
    for msg in runner.messages[:20]:
        print(msg, file=sys.stderr)
    correct = runner.failed == 0
    print(f"failed_frac: {runner.failed / runner.attempted:.6f} ({runner.failed} of {runner.attempted})")
    result = {
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
