"""End-to-end approximation scheme: size rounding, tail pre-packing, the
window/configuration program solved by column generation, and the multi-stage
rounding that turns the basic solution into a feasible packing.

The scheme's accuracy parameter is a reciprocal 1/k with integer k >= 3.
Very small inputs (n <= k) are packed one item per bin.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Any

from .core import (
    CostFunction,
    Instance,
    Packing,
    eval_cost,
    verify_packing,
    violation_lines,
)
from .errors import InvariantError
from .fractional import fnfi_with_split_repair
from .lp import (
    LpModel,
    LpSolution,
    column_generation,
    extract_basic,
    project_to_main_windows,
    small_types,
)
from .structures import (
    GeneralizedConfiguration,
    GroupingResult,
    SmallSplit,
    Staircase,
    Window,
    build_staircase,
    build_windows,
    check_eps,
    enumerate_configurations,
    linear_grouping,
    main_windows,
    power_index,
    split_small,
)

DEFAULT_CONFIG_BUDGET = 200_000


@dataclass
class StageReport:
    name: str
    bins: int
    cost: float


@dataclass
class Provenance:
    """Per-stage record of what the scheme did and the counts its guarantees
    depend on."""

    n: int
    eps: str
    base_case: bool = False
    n_large: int = 0
    l1_size: int = 0
    h_set_size: int = 0
    n_windows: int = 0
    n_main_windows: int = 0
    ell: int = 0
    h_eps: int | None = None
    p_delta: int = 0
    delta: str = ""
    lp_skipped: bool = True
    lp_iterations: int = 0
    lp_objective: float = 0.0
    lp_basic_objective: float = 0.0
    lp_max_ratio: float = 0.0
    lp_certified_ratio: float = 0.0
    lp_columns: int = 0
    fractional_x: int = 0
    fractional_y: int = 0
    fractional_bound: int = 0
    dedicated_small_bins: int = 0
    removed_bins: int = 0
    special_bins: int = 0
    excess_bins: int = 0
    i2_sizes: list[str] = field(default_factory=list)
    stages: list[StageReport] = field(default_factory=list)
    config_bins: list[dict[str, Any]] = field(default_factory=list)
    total_cost: float = 0.0
    total_bins: int = 0

    def to_dict(self) -> dict[str, Any]:
        out = dict(self.__dict__)
        out["stages"] = [s.__dict__ for s in self.stages]
        return out


@dataclass
class AfptasResult:
    packing: Packing
    provenance: Provenance


def _singleton_result(inst: Instance, f: CostFunction, eps: Fraction) -> AfptasResult:
    bins = [[i] for i in range(inst.n)]
    packing = Packing.from_bins(bins, range(inst.n))
    prov = Provenance(inst.n, str(eps), base_case=True)
    prov.total_cost = eval_cost(f, packing)
    prov.stages.append(StageReport("singletons", inst.n, prov.total_cost))
    prov.total_bins = inst.n
    return AfptasResult(packing, prov)


def _compute_h(
    inst: Instance,
    eps: Fraction,
    sizes: tuple[int, ...],
    mult: tuple[int, ...],
    staircase: Staircase,
    small: tuple[int, ...],
    budget: int,
) -> int:
    """Tail-size threshold: k * (|H| + 2 * bound on |W'| + 1).

    The window-count bound uses the smallest positive small size over all of
    S, breaking the circular dependence of the kept-small set on the
    threshold itself.
    """
    k = check_eps(eps)
    sizes_int = inst.int_sizes
    smallest = min((sizes_int[i] for i in small if sizes_int[i] > 0), default=0)
    if not smallest:
        return k
    t_star = power_index(k, smallest, inst.scale)
    configs = enumerate_configurations(sizes, mult, k, inst.scale, budget)
    mains = main_windows(configs, staircase.ell, eps, t_star + 1, staircase, inst.scale)
    return k * (len(sizes) + 2 * len(mains) + 1)


def _place_large(bin_counts: list[tuple[int, ...]], grouping: GroupingResult) -> list[list[int]]:
    """Original large items per bin.

    A bin whose configuration counts ``c`` copies of size type j takes the
    next ``c`` items of that type, so the originals replace their rounded
    stand-ins.  Every item must be placed.
    """
    bounds = list(accumulate(grouping.demands, initial=len(grouping.l1)))
    heads, ends = bounds[:-1], bounds[1:]
    nonzero: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    out: list[list[int]] = []
    for counts in bin_counts:
        if counts not in nonzero:
            nonzero[counts] = [(j, c) for j, c in enumerate(counts) if c]
        larges: list[int] = []
        for j, c in nonzero[counts]:
            head = heads[j]
            larges.extend(range(head, min(head + c, ends[j])))
            heads[j] = head + c
        out.append(larges)
    leftover = {v: list(range(h, e)) for v, h, e in zip(grouping.sizes, heads, ends) if h < e}
    if leftover:
        raise InvariantError(f"unplaced large items: {leftover}")
    return out


class _Bin:
    """A configuration bin during rounding: its large items and the small
    items dealt to its window."""

    __slots__ = ("gc", "larges", "smalls")

    def __init__(self, gc: GeneralizedConfiguration, larges: list[int]):
        self.gc = gc
        self.larges = larges
        self.smalls: list[int] = []


@dataclass
class RoundingOutcome:
    bins: list[list[int]]
    config_records: list[dict[str, Any]]
    dedicated_small: int
    removed_bins: int
    special_bins: int
    excess_bins: int


def round_solution(
    basic: LpSolution, model: LpModel, grouping: GroupingResult, inst: Instance
) -> RoundingOutcome:
    """Turn a basic solution over canonical windows into feasible bins.

    Steps: dedicate bins to fractionally assigned small items; round
    configuration counts up; place large items into configuration slots
    (originals replace their rounded stand-ins); deal each window's small
    items round-robin over its bins largest-first; remove the largest small
    item per bin (regrouped 1/eps per new bin); refill each bin greedily
    smallest-first, splitting off one special item and the excess; regroup
    specials 1/eps per bin and excess subsets 1/eps subsets per bin.
    """
    k = model.eps.denominator
    one_plus = 1.0 + 1.0 / k
    f_vals = model.f.values
    top = len(f_vals) - 1
    sizes, scale = inst.int_sizes, inst.scale

    x_hat: list[tuple[GeneralizedConfiguration, int]] = []
    for gc in sorted(basic.x):
        val = basic.x[gc]
        if val > 1e-7:
            x_hat.append((gc, math.ceil(val - 1e-7)))

    bin_gcs = [gc for gc, copies in x_hat for _ in range(copies)]
    placed = _place_large([gc.ext.config.counts for gc in bin_gcs], grouping)
    bins = [_Bin(gc, larges) for gc, larges in zip(bin_gcs, placed)]

    # small items: integral window assignment or a dedicated bin
    unit = {i: w for (i, w), val in basic.assignment.items() if abs(val - 1.0) <= 1e-6}
    extra_bins: list[list[int]] = []
    assigned: dict[Window, list[int]] = {}
    for st in model.smalls:
        for item in st.items:
            if item in unit:
                assigned.setdefault(unit[item], []).append(item)
            else:
                extra_bins.append([item])
    dedicated_small = len(extra_bins)

    by_window: dict[Window, list[_Bin]] = {}
    for b in bins:
        by_window.setdefault(b.gc.window, []).append(b)

    removed: list[int] = []
    specials: list[int] = []
    excess_subsets: list[tuple[int, list[int]]] = []  # (window kappa, items)

    for w in sorted(assigned):
        items = assigned[w]
        if w.t >= model.t_max:
            raise InvariantError("small items assigned to a degenerate window")
        target_bins = by_window.get(w, [])
        x_w = len(target_bins)
        if x_w < 1:
            raise InvariantError(f"window {w} has assigned items but no bins")
        if len(items) > w.kappa * x_w:
            raise InvariantError("window count row violated after rounding")
        # largest-first round-robin deal
        order = sorted(items, key=lambda i: (-sizes[i], i))
        for pos, item in enumerate(order):
            target_bins[pos % x_w].smalls.append(item)
        # per bin: remove the largest, then refill greedily, splitting off
        # the special and excess items
        for b in target_bins:
            if len(b.smalls) > w.kappa:
                raise InvariantError(f"window {w} dealt more than kappa items to a bin")
            if not b.smalls:
                continue
            removed.append(b.smalls.pop(0))  # largest: first dealt
            room = scale - sum(sizes[i] for i in b.larges)
            keep: list[int] = []
            special: int | None = None
            excess: list[int] = []
            load = 0
            for i in sorted(b.smalls, key=lambda i: (sizes[i], i)):
                if special is None and load + sizes[i] <= room:
                    keep.append(i)
                    load += sizes[i]
                elif special is None:
                    special = i
                else:
                    excess.append(i)
            b.smalls = keep
            if special is not None:
                specials.append(special)
            if excess:
                if not len(excess) * k <= w.kappa:
                    raise InvariantError("excess items exceed eps * kappa")
                excess_subsets.append((w.kappa, excess))

    for chunk_src in (removed, specials):
        for i in range(0, len(chunk_src), k):
            extra_bins.append(chunk_src[i : i + k])

    excess_subsets.sort(key=lambda t: -t[0])
    for i in range(0, len(excess_subsets), k):
        merged: list[int] = []
        for _, items in excess_subsets[i : i + k]:
            merged.extend(items)
        extra_bins.append(merged)

    config_records = []
    out_bins: list[list[int]] = []
    for b in bins:
        content = b.larges + b.smalls
        if not content:
            continue
        if sum(sizes[i] for i in content) > scale:
            raise InvariantError("configuration bin exceeds capacity")
        k_p = b.gc.ext.k_p
        f_kp = f_vals[min(k_p, top)]
        cost = f_vals[min(len(content), top)]
        if not cost <= one_plus * f_kp + 1e-9:
            raise InvariantError("bin real cost exceeds (1+eps) * level cost")
        config_records.append({"k_p": k_p, "f_k_p": f_kp, "items": len(content), "cost": cost})
        out_bins.append(content)
    n_removed_bins = (len(removed) + k - 1) // k
    n_special_bins = (len(specials) + k - 1) // k
    n_excess_bins = (len(excess_subsets) + k - 1) // k
    for eb in extra_bins:
        if sum(sizes[i] for i in eb) > scale:
            raise InvariantError("repair bin exceeds capacity")
    out_bins.extend(eb for eb in extra_bins if eb)
    return RoundingOutcome(
        out_bins,
        config_records,
        dedicated_small,
        n_removed_bins,
        n_special_bins,
        n_excess_bins,
    )


def run_afptas(
    inst: Instance,
    f: CostFunction,
    eps: Fraction,
    h_eps: int | None = None,
    config_budget: int = DEFAULT_CONFIG_BUDGET,
) -> AfptasResult:
    """Full scheme; returns a feasible packing and a provenance report.

    ``h_eps`` overrides the computed tail threshold (it must stay >= 1/eps);
    useful to exercise the window machinery on small fixtures.  Raises
    ``InvariantError`` when one of the scheme's invariant checks fails; the
    checks run under ``python -O`` too.
    """
    eps = Fraction(eps)
    k = check_eps(eps)
    if f.value(1) != 1.0:
        raise ValueError("cost table must be normalized (f(1) = 1)")
    if h_eps is not None and (h_eps < k or h_eps != int(h_eps)):
        raise ValueError("h_eps must be an integer >= 1/eps")
    n = inst.n
    if n == 0:
        prov = Provenance(0, str(eps), base_case=True)
        return AfptasResult(Packing.from_bins([], ()), prov)
    if n <= k:
        return _singleton_result(inst, f, eps)

    prov = Provenance(n, str(eps))
    grouping = linear_grouping(inst, eps)
    n_large = len(grouping.large)
    small = tuple(range(n_large, n))
    prov.n_large = n_large
    prov.l1_size = len(grouping.l1)
    if 2 * len(grouping.large) < k**3 * len(grouping.l1):
        raise InvariantError("largest class exceeds 2 eps^3 of the large items")

    staircase = build_staircase(f, eps, n)
    prov.ell = staircase.ell
    sizes, mult = grouping.sizes, grouping.demands

    if small:
        if h_eps is None:
            h_eps = _compute_h(inst, eps, sizes, mult, staircase, small, config_budget)
        split = split_small(inst, eps, h_eps, small)
        prov.h_eps = h_eps
    else:
        split = SmallSplit((), (), k)

    bins_out: list[list[int]] = []
    f_vals = f.values
    top = len(f_vals) - 1
    stage_cost = lambda bs: math.fsum(f_vals[min(len(b), top)] for b in bs)

    l1_bins = [[i] for i in grouping.l1]
    bins_out.extend(l1_bins)
    prov.stages.append(StageReport("largest-class singletons", len(l1_bins), stage_cost(l1_bins)))

    if split.tail:
        tail_packed = fnfi_with_split_repair(inst.subset(split.tail))
        tail_bins = [[split.tail[j] for j in b] for b in tail_packed.bins]
        bins_out.extend(tail_bins)
        prov.stages.append(StageReport("smallest-tail prepack", len(tail_bins), stage_cost(tail_bins)))

    kept = split.kept
    prov.h_set_size = len(sizes)
    for v, d in zip(sizes, mult):
        prov.i2_sizes += [str(Fraction(v, inst.scale))] * d
    prov.i2_sizes += [str(inst.sizes[i]) for i in kept]

    if sizes or kept:
        # delta = 1 / (smallest kept size), or 1/eps when none is kept, as
        # the fraction num / den
        if kept:
            s_min = min(inst.int_sizes[i] for i in kept)
            num, den = inst.scale, s_min
            t_star = power_index(k, s_min, inst.scale)
        else:
            num, den = k, 1
            t_star = 0
        t_max = t_star + 1
        prov.delta = str(Fraction(num, den))
        p_delta = next(
            (p for p, kp in enumerate(staircase.ks) if kp * den >= num), staircase.ell
        )
        prov.p_delta = p_delta

        windows = build_windows(eps, t_max, staircase)
        prov.n_windows = len(windows)

        configs = enumerate_configurations(sizes, mult, k, inst.scale, config_budget)
        w_prime = main_windows(configs, p_delta, eps, t_max, staircase, inst.scale)
        prov.n_main_windows = len(w_prime)

        model = LpModel(
            sizes=sizes,
            demands=mult,
            scale=inst.scale,
            smalls=small_types(inst.int_sizes, kept),
            windows=tuple(windows),
            staircase=staircase,
            p_max=p_delta,
            eps=eps,
            t_max=t_max,
            f=f,
            main_windows=w_prime,
        )
        sol, info = column_generation(model)
        prov.lp_skipped = False
        prov.lp_iterations = info.iterations
        prov.lp_objective = sol.objective
        prov.lp_max_ratio = info.final_max_ratio
        prov.lp_certified_ratio = info.final_certified_ratio
        prov.lp_columns = len(model.columns)

        projected = project_to_main_windows(sol, model)
        for gc, val in projected.x.items():
            if not (val <= 0 or gc.window in w_prime):
                raise InvariantError(f"projection left mass on window {gc.window}")
        basic = extract_basic(projected, model)
        prov.lp_basic_objective = basic.objective
        fx, fy = basic.fractional_counts()
        bound = len(sizes) + 2 * len(w_prime)
        if fx + fy > bound:
            raise InvariantError(f"fractional components {fx}+{fy} exceed {bound}")
        prov.fractional_x = fx
        prov.fractional_y = fy
        prov.fractional_bound = bound

        outcome = round_solution(basic, model, grouping, inst)
        bins_out.extend(outcome.bins)
        prov.config_bins = outcome.config_records
        prov.dedicated_small_bins = outcome.dedicated_small
        prov.removed_bins = outcome.removed_bins
        prov.special_bins = outcome.special_bins
        prov.excess_bins = outcome.excess_bins
        prov.stages.append(
            StageReport(
                "program bins",
                len(outcome.bins),
                stage_cost(outcome.bins),
            )
        )

    packing = Packing.from_bins(bins_out, range(n))
    verdict = verify_packing(inst, packing)
    if not verdict.ok:
        lines = "; ".join(violation_lines(verdict)[:3])
        raise InvariantError(f"scheme produced an invalid packing: {lines}")
    prov.total_bins = packing.num_bins
    prov.total_cost = eval_cost(f, packing)
    return AfptasResult(packing, prov)
