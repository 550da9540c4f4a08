#!/usr/bin/env python3
"""Run one workload once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload heur-scale --seeds 1-10 [--trace 0] [--out runs.jsonl]

Runs are sequential, one process at a time.  For each metric it prints the
median over the runs and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of that median; an end-to-end metric
is marked steady when that share is below a third of its bound in
BENCHMARK.json.  With --out, every run's result line is appended to a file
as {"workload", "seed", "trace", "exit", "result", "shares", "notes"}:
"shares" holds each layer's share of self time from a traced run, "notes"
the run's other diagnostic lines.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {}
    bad = 0
    for seed in args.seeds:
        cmd = [*bench["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if args.out:
            shares = {parts[2]: float(parts[3]) for parts in (line.split() for line in lines)
                      if len(parts) >= 4 and parts[0] == "share"}
            with open(args.out, "a") as fh:
                row = {"workload": args.workload, "seed": seed, "trace": args.trace,
                       "exit": proc.returncode, "result": result, "shares": shares,
                       "notes": [line for line in lines[:-1] if not line.startswith("share ")]}
                fh.write(json.dumps(row) + "\n")
        if proc.returncode != 0 or result is None or not result["correct"]:
            bad += 1
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                                            if k in bounds or args.trace), flush=True)
    for name, xs in values.items():
        med = statistics.median(xs)
        if len(xs) >= 2 and med:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            share = (q3 - q1) / med
        else:
            share = float("nan")
        bound = bounds.get(name)
        verdict = "" if bound is None else ("steady" if share < bound / 3 else f"NOT steady (bound {bound})")
        print(f"{args.workload} {name}: median {med:.6g} iqr/median {share:.4f} {verdict}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
