#!/usr/bin/env python3
"""Compare one benchmark workload between a parent revision and this checkout.

    python3 tools/ab_pairs.py --workload scheme-default --seeds 11-20 --seconds 20

Runs ``perfbench/run.py --trace 0`` in alternating pairs, one pair per seed:
the parent runs first in even pairs and the change first in odd ones, so
that drift of the host falls on both sides alike.  Both sides run from
fresh copies in a temporary directory, as a benchmark of committed files
would: the parent is a revision of this repository (``--parent``, default
``HEAD``, the parent while the change is uncommitted) extracted with ``git
archive``, which needs no network and leaves no worktree behind in
``.git``; the change is every file of this working tree that git does not
ignore.

Both sides run with ``PYTHONDONTWRITEBYTECODE=1``, so neither writes a
bytecode cache that a later run of its own would read.  For each metric
asked for (``--metric``, repeatable; by default every ``end_to_end``
metric of ``BENCHMARK.json``) it prints every pair, each side's median and
quartiles, and in how many pairs the change was better, by the metric's
direction in ``BENCHMARK.json``.  A metric whose change median is worse
than the parent's by more than its ``bound`` (a share of the parent's
median) is marked ``WORSE``, and the tool then exits with status 1.  It
needs at least two seeds, for the quartiles.  SIGTERM stops it as an
exception would: the running benchmark child is killed and the temporary
copies are removed.  It imports nothing from the package.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    """``11-20`` or ``1,3,5``."""
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def git(*args: str, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True, capture_output=True,
                          **kwargs)


def extract(rev: str, dest: Path) -> Path:
    """The files of ``rev`` under ``dest``, by ``git archive``."""
    dest.mkdir()
    subprocess.run(["tar", "-x", "-C", str(dest)], input=git("archive", rev).stdout, check=True)
    return dest


def copy_worktree(dest: Path) -> Path:
    """Every file of the working tree that git does not ignore, under ``dest``."""
    listed = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").stdout
    for name in sorted(set(listed.decode().split("\0")) - {""}):
        src = REPO / name
        if src.is_file():  # a tracked file deleted in the tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    return dest


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """One benchmark run; its end-to-end metrics by name."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{checkout}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{checkout}: seed {seed}: {result['failed']} failed checks")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(
    old: list[dict[str, float]],
    new: list[dict[str, float]],
    end_to_end: list[dict],
    metrics: list[str],
) -> tuple[list[str], list[str]]:
    """The report of paired runs, parent ``old[i]`` against change
    ``new[i]``: three lines per metric, and the metrics whose change median
    is worse than the parent's by more than the metric's bound, a share of
    the parent's median.  Direction and bound come from ``end_to_end``
    (BENCHMARK.json's list); a metric not in it counts lower as better and
    has no bound."""
    spec = {m["name"]: m for m in end_to_end}
    lines: list[str] = []
    worse: list[str] = []
    for m in metrics:
        before, after = [r[m] for r in old], [r[m] for r in new]
        sign = 1 if spec.get(m, {}).get("better", "lower") == "lower" else -1
        bound = spec.get(m, {}).get("bound")
        wins = sum(sign * (b - a) < 0 for a, b in zip(before, after))
        (o1, o2, o3), (n1, n2, n3) = quartiles(before), quartiles(after)
        over = bound is not None and sign * (n2 - o2) > bound * abs(o2)
        if over:
            worse.append(m)
        mark = f"  WORSE beyond bound {bound}" if over else ""
        lines.append(f"{m}: parent median {o2:.6g} [q1 {o1:.6g}, q3 {o3:.6g}, iqr {o3 - o1:.3g}]")
        lines.append(f"{m}: change median {n2:.6g} [q1 {n1:.6g}, q3 {n3:.6g}, iqr {n3 - n1:.3g}]")
        lines.append(f"{m}: change better in {wins} of {len(before)} pairs; median moved "
                     f"{n2 - o2:+.6g} ({(n2 / o2 - 1) * 100 if o2 else float('nan'):+.2f}%){mark}")
    return lines, worse


def stop(signum, frame):
    """SIGTERM as an exception, so that ``subprocess.run`` kills its child and
    ``TemporaryDirectory`` removes the copies on the way out."""
    raise SystemExit(128 + signum)


def main() -> int:
    signal.signal(signal.SIGTERM, stop)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="11-20", help="a range lo-hi or a comma list")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    ap.add_argument("--metric", action="append", help="metric to report (repeatable)")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        print(f"error: --seeds {args.seeds}: at least two seeds are needed for quartiles",
              file=sys.stderr)
        return 2
    bench = json.loads((REPO / "BENCHMARK.json").read_text())
    metrics = args.metric or [m["name"] for m in bench["end_to_end"]]

    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        sides = {"parent": extract(args.parent, Path(tmp) / "parent"),
                 "change": copy_worktree(Path(tmp) / "change")}
        runs: dict[str, list[dict[str, float]]] = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(sides[side], args.workload, seed, args.seconds))
            cells = "  ".join(
                f"{m} {runs['parent'][-1][m]:.6g} -> {runs['change'][-1][m]:.6g}" for m in metrics
            )
            print(f"pair {i + 1} seed {seed} ({order[0]} first): {cells}", flush=True)

    lines, worse = summarize(runs["parent"], runs["change"], bench["end_to_end"], metrics)
    print("\n".join(lines))
    if worse:
        print(f"worse beyond their bounds: {', '.join(worse)}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
