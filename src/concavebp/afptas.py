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
from typing import Any

from .core import (
    CostFunction,
    Instance,
    Packing,
    eval_cost,
    verify_packing,
)
from .fractional import fnfi_with_split_repair
from .lp import (
    LpModel,
    LpSolution,
    SmallItem,
    column_generation,
    extract_basic,
    project_to_main_windows,
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
    round_size_to_power,
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
    prov.stages.append(StageReport("singletons", inst.n, eval_cost(f, packing)))
    prov.total_cost = eval_cost(f, packing)
    prov.total_bins = inst.n
    return AfptasResult(packing, prov)


def _compute_h(
    inst: Instance,
    eps: Fraction,
    sizes: list[Fraction],
    mult: list[int],
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
    positives = [inst.sizes[i] for i in small if inst.sizes[i] > 0]
    if not positives:
        return k
    _, t_star = round_size_to_power(eps, min(positives))
    configs = enumerate_configurations(sizes, mult, k, budget)
    mains = main_windows(configs, staircase.ell, eps, t_star + 1, staircase)
    return k * (len(sizes) + 2 * len(mains) + 1)


def _h_set(inst: Instance, grouping: GroupingResult) -> tuple[list[Fraction], list[int]]:
    """Distinct rounded large sizes (descending) with multiplicities."""
    by_size: dict[Fraction, int] = {}
    for i in grouping.l_rest:
        v = grouping.rounded_size[i]
        by_size[v] = by_size.get(v, 0) + 1
    sizes = sorted(by_size, reverse=True)
    return sizes, [by_size[v] for v in sizes]


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
    f = model.f

    x_hat: list[tuple[GeneralizedConfiguration, int]] = []
    for gc in sorted(basic.x, key=model.column_key):
        val = basic.x[gc]
        if val > 1e-7:
            x_hat.append((gc, math.ceil(val - 1e-7)))

    class _Bin:
        __slots__ = ("gc", "larges", "smalls")

        def __init__(self, gc):
            self.gc = gc
            self.larges: list[int] = []
            self.smalls: list[int] = []

    bins: list[_Bin] = []
    for gc, copies in x_hat:
        bins.extend(_Bin(gc) for _ in range(copies))

    # fill large slots with original items, per rounded size
    queues: dict[Fraction, list[int]] = {v: [] for v in model.sizes}
    for i in grouping.l_rest:
        queues[grouping.rounded_size[i]].append(i)
    for b in bins:
        for v, cnt in zip(model.sizes, b.gc.ext.config.counts):
            take = queues[v][:cnt]
            del queues[v][:cnt]
            b.larges.extend(take)
    leftover = {v: q for v, q in queues.items() if q}
    assert not leftover, f"unplaced large items: {leftover}"

    # small items: integral window assignment or a dedicated bin
    extra_bins: list[list[int]] = []
    assigned: dict[Window, list[int]] = {}
    for si, item in enumerate(model.smalls):
        unit_w = None
        for w in model.windows:
            if abs(basic.y.get((si, w), 0.0) - 1.0) <= 1e-6:
                unit_w = w
                break
        if unit_w is None:
            extra_bins.append([item.index])
        else:
            assigned.setdefault(unit_w, []).append(item.index)
    dedicated_small = len(extra_bins)

    by_window: dict[Window, list[_Bin]] = {}
    for b in bins:
        by_window.setdefault(b.gc.window, []).append(b)

    removed: list[int] = []
    specials: list[int] = []
    excess_subsets: list[tuple[int, list[int]]] = []  # (window kappa, items)

    for w in sorted(assigned):
        items = assigned[w]
        assert w.w >= model.s_min_small, "small items assigned to a degenerate window"
        target_bins = by_window.get(w, [])
        x_w = len(target_bins)
        assert x_w >= 1, f"window {w} has assigned items but no bins"
        assert len(items) <= w.kappa * x_w, "window count row violated after rounding"
        # largest-first round-robin deal
        order = sorted(items, key=lambda i: (-inst.sizes[i], i))
        for pos, item in enumerate(order):
            target_bins[pos % x_w].smalls.append(item)
        for b in target_bins:
            assert len(b.smalls) <= w.kappa
            if b.smalls:
                removed.append(b.smalls.pop(0))  # largest: first dealt

    # greedy refill, splitting special and excess items per bin
    for w in sorted(assigned):
        for b in by_window.get(w, []):
            if not b.smalls:
                continue
            room = Fraction(1) - sum(
                (inst.sizes[i] for i in b.larges), Fraction(0)
            )
            keep: list[int] = []
            special: int | None = None
            excess: list[int] = []
            load = Fraction(0)
            for i in sorted(b.smalls, key=lambda i: (inst.sizes[i], i)):
                if special is None and load + inst.sizes[i] <= room:
                    keep.append(i)
                    load += inst.sizes[i]
                elif special is None:
                    special = i
                else:
                    excess.append(i)
            b.smalls = keep
            if special is not None:
                specials.append(special)
            if excess:
                assert len(excess) * k <= w.kappa + 1e-9 * k, "excess items exceed eps * kappa"
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
        total = sum((inst.sizes[i] for i in content), Fraction(0))
        assert total <= 1, "configuration bin exceeds capacity"
        k_p = b.gc.ext.k_p
        f_kp = f.value(k_p)
        assert f.value(len(content)) <= one_plus * f_kp + 1e-9, (
            "bin real cost exceeds (1+eps) * level cost"
        )
        config_records.append(
            {"k_p": k_p, "f_k_p": f_kp, "items": len(content), "cost": f.value(len(content))}
        )
        out_bins.append(content)
    n_removed_bins = (len(removed) + k - 1) // k
    n_special_bins = (len(specials) + k - 1) // k
    n_excess_bins = (len(excess_subsets) + k - 1) // k
    for eb in extra_bins:
        total = sum((inst.sizes[i] for i in eb), Fraction(0))
        assert total <= 1, "repair bin exceeds capacity"
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
    useful to exercise the window machinery on small fixtures.
    """
    eps = Fraction(eps)
    k = check_eps(eps)
    if f.value(1) != 1.0:
        raise ValueError("cost table must be normalized (f(1) = 1)")
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
    assert 2 * len(grouping.large) * Fraction(1, k**3) >= len(grouping.l1)

    staircase = build_staircase(f, eps, n)
    prov.ell = staircase.ell
    sizes, mult = _h_set(inst, grouping)

    if small:
        if h_eps is None:
            h_eps = _compute_h(inst, eps, sizes, mult, staircase, small, config_budget)
        if h_eps < k:
            raise ValueError("h_eps must be at least 1/eps")
        split = split_small(inst, eps, h_eps, small)
        prov.h_eps = h_eps
    else:
        split = SmallSplit((), (), k)

    bins_out: list[list[int]] = []
    stage_cost = lambda bs: math.fsum(f.value(len(b)) for b in bs)

    l1_bins = [[i] for i in grouping.l1]
    bins_out.extend(l1_bins)
    prov.stages.append(StageReport("largest-class singletons", len(l1_bins), stage_cost(l1_bins)))

    if split.tail:
        tail_inst = Instance(tuple(inst.sizes[i] for i in split.tail))
        tail_packed = fnfi_with_split_repair(tail_inst)
        tail_bins = [[split.tail[j] for j in b] for b in tail_packed.bins]
        bins_out.extend(tail_bins)
        prov.stages.append(StageReport("smallest-tail prepack", len(tail_bins), stage_cost(tail_bins)))

    kept = split.kept
    prov.h_set_size = len(sizes)
    prov.i2_sizes = [str(grouping.rounded_size[i]) for i in grouping.l_rest] + [
        str(inst.sizes[i]) for i in kept
    ]

    if not sizes and not kept:
        prov.lp_skipped = True
    else:
        if kept:
            s_min = min(inst.sizes[i] for i in kept)
            delta = 1 / s_min
            s_min_small, t_star = round_size_to_power(eps, s_min)
        else:
            delta = Fraction(k)
            s_min_small, t_star = Fraction(1), 0
        t_max = t_star + 1
        prov.delta = str(delta)
        p_delta = next(
            (p for p, kp in enumerate(staircase.ks) if kp >= delta), staircase.ell
        )
        prov.p_delta = p_delta

        windows = build_windows(eps, s_min_small, staircase)
        prov.n_windows = len(windows)

        configs = enumerate_configurations(sizes, mult, k, config_budget)
        w_prime = main_windows(configs, p_delta, eps, t_max, staircase)
        prov.n_main_windows = len(w_prime)

        model = LpModel(
            sizes=tuple(sizes),
            demands=tuple(mult),
            smalls=tuple(SmallItem(i, inst.sizes[i]) for i in kept),
            windows=tuple(windows),
            staircase=staircase,
            p_max=p_delta,
            eps=eps,
            s_min_small=s_min_small,
            t_max=t_max,
            f=f,
        )
        model.main_windows = set(w_prime)
        sol, info = column_generation(model)
        prov.lp_skipped = False
        prov.lp_iterations = info.iterations
        prov.lp_objective = sol.objective
        prov.lp_max_ratio = info.final_max_ratio
        prov.lp_certified_ratio = info.final_certified_ratio
        prov.lp_columns = len(model.columns)

        projected, w_prime_set = project_to_main_windows(sol, model)
        for gc, val in projected.x.items():
            assert val <= 0 or gc.window in w_prime_set
        basic = extract_basic(projected, model, w_prime_set)
        prov.lp_basic_objective = basic.objective
        fx, fy = basic.fractional_counts()
        bound = len(sizes) + 2 * len(w_prime_set)
        assert fx + fy <= bound, f"fractional components {fx}+{fy} exceed {bound}"
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
    assert verdict.ok, f"scheme produced an invalid packing: {verdict.violations[:3]}"
    prov.total_bins = packing.num_bins
    prov.total_cost = eval_cost(f, packing)
    return AfptasResult(packing, prov)
