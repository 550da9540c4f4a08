"""The benchmark's workloads: instance set-up, one pass of operations, and
independent checks of every output.

Each workload is a closed loop with one caller: an operation starts only
after the previous one has finished and been checked.  Inputs come from the
run's seed and the parameters in ``plan.json``; the program under test only
sees the generated instances.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
import traceback
from fractions import Fraction
from pathlib import Path

import numpy as np

# relative slack for comparing float costs and ratios
TOL = 1e-9


# The host's speed drifts by up to 1.7x within seconds.  Every timed interval
# is scaled by CAL_REF over the mean time of a fixed probe taken just before
# and just after it, so that runs taken at different speeds stay comparable.
CAL_REF = 0.003
_PROBE_FRACTIONS = [Fraction(i % 97 + 1, 1000) for i in range(150)]
_PROBE_SMALL = np.arange(64, dtype=np.int64)
_PROBE_LARGE = np.arange(1 << 18, dtype=np.int64)


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreter loops, Fraction sums, small
    numpy calls and memory-bound numpy work; it runs no concavebp code."""
    start = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    load = Fraction(0)
    for s in _PROBE_FRACTIONS:
        load = load + s if load + s <= 1 else s
    for i in range(150):
        acc += int(np.argmin(_PROBE_SMALL[(_PROBE_SMALL & i) == 0] + i))
    for _ in range(2):
        acc += int((_PROBE_LARGE[1:] > _PROBE_LARGE[:-1]).sum())
    return time.perf_counter() - start


def calibrated(seconds: float, before: float, after: float) -> float:
    return seconds * 2 * CAL_REF / (before + after)


class Runner:
    """Times operations and counts the ones whose outputs fail a check.

    ``op_times`` are calibrated and ``raw_op_times`` as measured;
    ``probe_s`` is the time spent in speed probes, which no pass time includes.
    ``tracer``, when set, is told which operation is running.
    """

    def __init__(self):
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.op_times: list[float] = []
        self.raw_op_times: list[float] = []
        self.probes: list[float] = []
        self.probe_s = 0.0
        self._current: list[str] | None = None
        self._last_failed = False

    def probe(self) -> float:
        took = speed_probe()
        self.probes.append(took)
        self.probe_s += took
        return took

    def op(self, label: str, fn) -> None:
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = self.attempted - 1
        before = self.probes[-1] if self.probes else self.probe()
        self._current = []
        start = time.perf_counter()
        try:
            fn(self)
        except Exception:  # a solver that raises fails this operation only
            self._current.append(f"{label}: raised\n{traceback.format_exc()}")
        took = time.perf_counter() - start
        self.raw_op_times.append(took)
        self.op_times.append(calibrated(took, before, self.probe()))
        self._last_failed = bool(self._current)
        if self._current:
            self.failed += 1
            self.messages.extend(self._current)
        self._current = None

    def fail(self, msg: str) -> None:
        """Mark the running operation, or else the last one, as failed."""
        if self._current is not None:
            self._current.append(msg)
            return
        self.messages.append(msg)
        if not self._last_failed:
            self.failed += 1
            self._last_failed = True

    def check(self, cond: bool, msg: str) -> None:
        if not cond:
            self.fail(msg)


# -- inputs -------------------------------------------------------------------
def mixed(instance_cls, n: int, seed: int):
    """The mixed family: exactly n // 5 sizes from U{400..1000}/1000, the rest
    from U{1..200}/1000.  A fixed share of large items keeps the work per
    instance steady from seed to seed."""
    rng = random.Random(seed)
    n_large = n // 5
    sizes = [Fraction(rng.randint(400, 1000), 1000) for _ in range(n_large)]
    sizes += [Fraction(rng.randint(1, 200), 1000) for _ in range(n - n_large)]
    return instance_cls.from_values(sizes)


def make_instances(pkg, groups: list[dict], seed: int) -> list[tuple[str, object]]:
    """(label, instance) per instance; instance j of group g gets seed
    1009 * seed + 101 * g + j, so no two instances of a run share a seed."""
    out = []
    for g_no, g in enumerate(groups):
        for j in range(g["count"]):
            s = 1009 * seed + 101 * g_no + j
            if g["family"] == "mixed":
                inst = mixed(pkg.core.Instance, g["n"], s)
            else:
                inst = pkg.generators.generate(g["family"], {"n": g["n"]}, s)
            out.append((f"{g['family']}-n{g['n']}-s{s}", inst))
    return out


# -- independent checks --------------------------------------------------------
def table_cost(f, bins) -> float:
    """Sum of f(bin cardinality), read straight from the cost table."""
    top = len(f.values) - 1
    return math.fsum(f.values[min(len(b), top)] for b in bins)


def table_fractional_cost(f, bins) -> float:
    """Piecewise-linear cost of fractional bins, read from the cost table."""
    top = len(f.values) - 1
    total = []
    for b in bins:
        q = sum((fr for _, fr in b), Fraction(0))
        if q >= top:
            total.append(f.values[top])
            continue
        lo = math.floor(q)
        frac = float(q - lo)
        total.append(f.values[lo] if frac == 0 else (1 - frac) * f.values[lo] + frac * f.values[lo + 1])
    return math.fsum(total)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


def check_packing(run: Runner, pkg, inst, packing, label: str) -> None:
    """Re-verify against the full item set, so dropped items show as missing."""
    core = pkg.core
    anchored = core.Packing(packing.bins, frozenset(range(inst.n)))
    verdict = core.verify_packing(inst, anchored)
    run.check(verdict.ok, f"{label}: invalid packing {verdict.violations[:3]}")
    run.check(packing.items == anchored.items, f"{label}: packing declares a partial item set")


def check_cost(run: Runner, pkg, f, packing, reported: float | None, label: str) -> float:
    """Cost by eval_cost, matched against the cost table and the reported cost."""
    cost = pkg.core.eval_cost(f, packing)
    run.check(close(cost, table_cost(f, packing.bins)), f"{label}: eval_cost {cost} disagrees with the table")
    if reported is not None:
        run.check(close(cost, reported), f"{label}: reported cost {reported}, recomputed {cost}")
    return cost


def check_gap(run: Runner, cost: float, bound: float, label: str) -> float:
    """cost / bound; below 1 means the bound or the cost is wrong."""
    gap = cost / bound
    run.check(bound > 0 and gap >= 1 - TOL, f"{label}: cost {cost} below certified bound {bound}")
    return gap


def lower_bound(run: Runner, pkg, inst, specs: dict, label: str) -> dict[str, float]:
    """max(fnfi cost, overflowed-partition cost for fq: specs) per spec."""
    frac = pkg.fractional.fnfi(inst)
    anchored = pkg.core.FractionalPacking(frac.bins, frozenset(range(inst.n)))
    verdict = pkg.core.verify_packing(inst, anchored)
    run.check(verdict.ok, f"{label}: invalid fnfi packing {verdict.violations[:3]}")
    part = pkg.heuristics.overflowed_packing(inst)
    check_overflowed(run, inst, part.bins, label)
    bounds = {}
    for spec, f in specs.items():
        fc = pkg.core.eval_fractional_cost(f, frac)
        run.check(close(fc, table_fractional_cost(f, frac.bins)), f"{label}: fnfi cost {fc} disagrees with the table")
        bounds[spec] = max(fc, table_cost(f, part.bins)) if spec.startswith("fq:") else fc
    return bounds


def check_overflowed(run: Runner, inst, bins, label: str) -> None:
    """Smallest-first consecutive partition; every bin but the last overflows."""
    order = [i for b in bins for i in b]
    run.check(order == list(range(inst.n - 1, -1, -1)), f"{label}: overflowed partition is not consecutive")
    for b in bins[:-1]:
        run.check(sum((inst.sizes[i] for i in b), Fraction(0)) > 1, f"{label}: overflowed bin fits")


def geomean(xs: list[float]) -> float:
    return math.exp(math.fsum(math.log(x) for x in xs) / len(xs))


# -- workloads --------------------------------------------------------------------
def packer(spec: str) -> tuple[str, str | None]:
    """"first_fit:decreasing" -> ("first_fit", "decreasing"); "match_half" -> ("match_half", None)."""
    name, _, order = spec.partition(":")
    return name, order or None


class HeurScale:
    """Every cost-oblivious packer on each instance, priced under every spec."""

    def __init__(self, pkg, params: dict, seed: int, outdir: Path):
        self.pkg = pkg
        self.instances = [
            (label, inst, {s: pkg.serialize.parse_cost_spec(s, inst.n) for s in params["cost_specs"]})
            for label, inst in make_instances(pkg, params["instances"], seed)
        ]
        self.linear = [packer(p) for p in params["linear_packers"]]
        self.scans = [packer(p) for p in params["scan_packers"]]

    def run_pass(self, run: Runner) -> dict:
        """Per instance: one operation for the millisecond work (the bounds
        and the linear packers), then one operation per scan packer."""
        pkg = self.pkg
        best_terms, bins = [], {}
        for label, inst, specs in self.instances:
            bounds: dict[str, float] = {}
            best = {s: math.inf for s in specs}

            # run.op calls its function at once, so the closures see this iteration's names
            def pack(r, name, order):
                fn = getattr(pkg.heuristics, name)
                packing = fn(inst, order) if order else fn(inst)
                tag = f"{label} {name}:{order}"
                check_packing(r, pkg, inst, packing, tag)
                bins[tag] = packing.num_bins
                for spec, f in specs.items():
                    cost = check_cost(r, pkg, f, packing, None, f"{tag} {spec}")
                    if spec in bounds:  # else the bounds operation has failed
                        check_gap(r, cost, bounds[spec], f"{tag} {spec}")
                    best[spec] = min(best[spec], cost)

            def linear(r):
                bounds.update(lower_bound(r, pkg, inst, specs, label))
                for name, order in self.linear:
                    pack(r, name, order)

            run.op(f"{label} bounds and linear packers", linear)
            for name, order in self.scans:
                run.op(f"{label} {name}:{order}", lambda r: pack(r, name, order))
            if len(bounds) == len(specs):  # else the bounds operation failed and is counted
                best_terms += [best[s] / bounds[s] for s in specs]
        # no scheme runs here: the geometric mean of no terms is the empty product
        gap = geomean(best_terms) if best_terms else math.nan
        return {"best_gap": gap, "scheme_gap": 1.0, "outputs": bins}


class Scheme:
    """run_afptas on a fixed instance set, one operation per instance."""

    def __init__(self, pkg, params: dict, seed: int, outdir: Path):
        self.pkg = pkg
        self.eps = Fraction(params["eps"])
        self.h_eps = params.get("h_eps")
        self.spec = params["cost_spec"]
        self.instances = make_instances(pkg, params["instances"], seed)
        self.costs = {label: pkg.serialize.parse_cost_spec(self.spec, inst.n) for label, inst in self.instances}
        self.bounds: dict[str, float] = {}

    def reference(self, run: Runner) -> None:
        """Certified lower bounds, computed once per run, outside the timed passes."""
        for label, inst in self.instances:
            specs = {self.spec: self.costs[label]}
            run.op(f"{label} bounds", lambda r: self.bounds.update({label: lower_bound(r, self.pkg, inst, specs, label)[self.spec]}))

    def run_pass(self, run: Runner) -> dict:
        pkg = self.pkg
        terms, bins = [], {}
        for label, inst in self.instances:
            def op(r, label=label, inst=inst):
                f = self.costs[label]
                kwargs = {} if self.h_eps is None else {"h_eps": self.h_eps}
                res = pkg.afptas.run_afptas(inst, f, self.eps, **kwargs)
                check_packing(r, pkg, inst, res.packing, label)
                cost = check_cost(r, pkg, f, res.packing, res.provenance.total_cost, label)
                terms.append(check_gap(r, cost, self.bounds[label], label))
                bins[label] = res.packing.num_bins
            run.op(label, op)
        gap = geomean(terms) if terms else math.nan
        return {"best_gap": gap, "scheme_gap": gap, "outputs": bins}


class CompareSmall:
    """``concavebp compare`` in-process, one call per instance file."""

    def __init__(self, pkg, params: dict, seed: int, outdir: Path):
        self.pkg = pkg
        self.params = params
        outdir.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for label, inst in make_instances(pkg, params["instances"], seed):
            path = outdir / f"{label}.instance"
            with open(path, "w") as fh:
                pkg.serialize.write_instance(inst, fh)
            self.paths.append(str(path))

    def run_pass(self, run: Runner) -> dict:
        p = self.params
        best_terms, scheme_terms, costs = [], [], {}
        for path in self.paths:
            argv = ["compare", "--instances", path, "--algs", ",".join(p["algorithms"]),
                    "--costs", ",".join(p["cost_specs"]), "--eps", p["eps"], "--format", "json"]

            def op(r, path=path, argv=argv):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = self.pkg.cli.main(argv)
                r.check(code == 0, f"compare returned {code}")
                rows = [row for row in json.loads(out.getvalue()) if row["instance"] == path]
                b, s = self.check_rows(r, rows, path)
                best_terms.extend(b)
                scheme_terms.extend(s)
                costs[path] = sorted((row["algorithm"], row["cost_spec"], row.get("cost")) for row in rows)
            run.op(Path(path).name, op)
        return {"best_gap": geomean(best_terms) if best_terms else math.nan,
                "scheme_gap": geomean(scheme_terms) if scheme_terms else math.nan, "outputs": costs}

    def check_rows(self, run: Runner, rows: list[dict], path: str):
        """Reads only cost, ratio, baseline and error of each row."""
        p = self.params
        expect = {(a, s) for a in p["algorithms"] for s in p["cost_specs"]}
        got = {(row["algorithm"], row["cost_spec"]): row for row in rows}
        run.check(set(got) == expect and len(rows) == len(expect), f"{path}: rows {sorted(got)} != algorithms x specs")
        best_terms, scheme_terms = [], []
        for spec in p["cost_specs"]:
            best = math.inf
            for alg in p["algorithms"]:
                row = got.get((alg, spec), {})
                tag = f"{path} {alg} {spec}"
                if "error" in row or "ratio" not in row or "cost" not in row:
                    run.fail(f"{tag}: no ratio ({row.get('error', 'missing row or field')})")
                    continue
                ratio, cost = row["ratio"], row["cost"]
                run.check(row.get("baseline") == "exact", f"{tag}: baseline {row.get('baseline')!r}")
                if alg == "fnfi":
                    run.check(ratio <= 1 + TOL, f"{tag}: fractional ratio {ratio} above 1")
                    continue
                run.check(ratio >= 1 - TOL, f"{tag}: ratio {ratio} below 1")
                if alg == "exact":
                    run.check(close(ratio, 1.0), f"{tag}: exact ratio {ratio}")
                best = min(best, ratio)
                if alg == "afptas":
                    scheme_terms.append(ratio)
            if best < math.inf:
                best_terms.append(best)
        return best_terms, scheme_terms


KINDS = {"heur-scale": HeurScale, "scheme": Scheme, "compare": CompareSmall}


def self_test(pkg) -> list[str]:
    """The checks must catch a packing with one item dropped, a wrong
    reported cost and a cost below its bound; returns what they missed."""
    inst = pkg.core.Instance.from_values(["1/2", "1/3", "1/4", "1/5"])
    f = pkg.core.make_fq(3, inst.n)
    good = pkg.core.Packing.from_bins([[0], [1, 2], [3]], range(inst.n))
    dropped = pkg.core.Packing.from_bins([[0], [1, 2]])
    missed = []
    cases = [
        ("valid packing", lambda r: check_packing(r, pkg, inst, good, "valid"), 0),
        ("dropped item", lambda r: check_packing(r, pkg, inst, dropped, "dropped"), 1),
        ("wrong reported cost", lambda r: check_cost(r, pkg, f, good, 4.5, "cost"), 1),
        ("cost below bound", lambda r: check_gap(r, 3.0, 3.5, "gap"), 1),
    ]
    for name, fn, want in cases:
        run = Runner()
        run.op(name, fn)
        if (run.attempted, run.failed) != (1, want):
            missed.append(f"{name}: counted {run.failed} failed of {run.attempted}, expected {want}")
    return missed
