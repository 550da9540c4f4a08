"""End-to-end approximation scheme: size rounding, tail pre-packing, the
window/configuration program solved by column generation, and the multi-stage
rounding that turns the basic solution into a feasible packing.

The scheme's accuracy parameter is a reciprocal 1/k with integer k >= 3.
Very small inputs (n <= k) are packed one item per bin.

Past the master the work goes by runs, as the paper rounds per
configuration and per (small type, window): a configuration rounded up to
c copies places its large items as consecutive slices of each size type,
and a small type's stretch in a window (``LpSolution.assignment``) is a
slice of its items.  Only the items that straddle two windows, and the
bins dealt a small item, are handled one by one.

Each bin of the result is built once, in ``Packing``'s normal form (a
sorted tuple), priced once, by one map of f over the bins' sizes that
gives both the stage costs and the total, and verified once.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, compress, islice, repeat
from operator import sub
from typing import Any

from .core import (
    CostFunction,
    Instance,
    Packing,
    bin_costs,
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
    DEFAULT_CONFIG_BUDGET,
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
    # the sizes are non-increasing: the smallest positive one is the last
    smallest = next((sizes_int[i] for i in reversed(small) if sizes_int[i] > 0), 0)
    if not smallest:
        return k
    t_star = power_index(k, smallest, inst.scale)
    configs = enumerate_configurations(sizes, mult, k, inst.scale, budget)
    mains = main_windows(configs, staircase.ell, eps, t_star + 1, staircase, inst.scale)
    return k * (len(sizes) + 2 * len(mains) + 1)


def _place_large(
    runs: list[tuple[tuple[int, ...], int]], grouping: GroupingResult, sizes: Sequence[int]
) -> tuple[list[list[int]], list[int]]:
    """Original large items per bin, for runs of (configuration counts,
    copies) in bin order, and each bin's load: the sum of its items' sizes
    in ``sizes``.

    A run of ``copies`` bins whose configuration counts ``c`` copies of size
    type j takes the type's next ``copies * c`` items as consecutive slices
    of ``c``, so the originals replace their rounded stand-ins; the last
    slices of a type run short, or empty, when the copies outnumber its
    items.  A slice's load is a difference of prefix sums.  Every item must
    be placed.
    """
    bounds = list(accumulate(grouping.demands, initial=len(grouping.l1)))
    heads, ends = bounds[:-1], bounds[1:]
    prefix = list(accumulate(sizes[: bounds[-1]], initial=0))
    bins: list[list[int]] = []
    loads: list[int] = []
    for counts, copies in runs:
        slices, slice_loads = [], []
        for j, c in compress(enumerate(counts), counts):
            head, end = heads[j], ends[j]
            heads[j] = stop = head + c * copies
            cuts: Sequence[int]  # the copies + 1 slice ends
            if stop <= end:
                cuts = range(head, stop + 1, c)
                marks = prefix[head : stop + 1 : c]
            else:  # the copies outnumber the type's items: clip the ends
                inside = max(0, (end - head) // c + 1)
                short = copies + 1 - inside
                cuts = [*range(head, head + inside * c, c), *repeat(end, short)]
                marks = prefix[head : head + inside * c : c] + [prefix[end]] * short
            slices.append(map(range, cuts, cuts[1:]))
            slice_loads.append(map(sub, marks[1:], marks))
        if len(slices) == 1:
            bins.extend(map(list, slices[0]))
            loads.extend(slice_loads[0])
        elif slices:
            bins.extend([*chain.from_iterable(parts)] for parts in zip(*slices))
            loads.extend(map(sum, zip(*slice_loads)))
        else:
            bins.extend([] for _ in range(copies))
            loads.extend(repeat(0, copies))
    leftover = {v: list(range(h, e)) for v, h, e in zip(grouping.sizes, heads, ends) if h < e}
    if leftover:
        raise InvariantError(f"unplaced large items: {leftover}")
    return bins, loads


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

    The work goes by runs, not items.  A configuration with ``copies``
    rounded-up bins is one run: its large items are consecutive slices of
    each type, and its level cost and its (1 + eps) f(k_p) bound are worked
    out once.  A (small type, window) stretch of
    ``basic.assignment`` is one run of the type's items: the whole items
    are a slice of ``SmallType.items``, and the straddling ones get the
    dedicated bins.  A window's pool is its runs, types largest first, each
    type's items in index order (``split_small`` keeps them so), which is
    the largest-first order; bin ``pos`` of the window is dealt
    ``pool[pos::x_w]``.  Only bins dealt a small item are refilled.
    """
    k = model.eps.denominator
    one_plus = 1.0 + 1.0 / k
    f_vals = model.f.values
    top = len(f_vals) - 1
    sizes, scale = inst.int_sizes, inst.scale
    smalls = model.smalls

    x_hat: list[tuple[GeneralizedConfiguration, int]] = []
    for gc in sorted(basic.x):
        val = basic.x[gc]
        if val > 1e-7:
            x_hat.append((gc, math.ceil(val - 1e-7)))

    runs = [(gc.config.counts, copies) for gc, copies in x_hat]
    contents, loads = _place_large(runs, grouping, sizes)
    by_window: dict[Window, list[range]] = {}  # a window's bins, as runs of bin positions
    start = 0
    for gc, copies in x_hat:
        by_window.setdefault(gc.window, []).append(range(start, start + copies))
        start += copies

    # small items: the whole items of each stretch go to its window, every
    # other item to a dedicated bin, by type and then by index
    stretches: dict[int, list[tuple[int, int, Window]]] = {}
    for (s, w), (lo, hi) in basic.assignment.items():
        q0, q1 = math.ceil(lo), math.floor(hi)
        if q0 < q1:
            stretches.setdefault(s, []).append((q0, q1, w))
    extra_bins: list[list[int]] = []
    assigned: dict[Window, list[tuple[int, int, int]]] = {}  # (type, q0, q1) runs
    for s, st in enumerate(smalls):
        q = 0
        for q0, q1, w in sorted(stretches.get(s, ())):
            if q0 < q:
                raise InvariantError(f"small type {s} has an item whole in two windows")
            if q < q0:
                extra_bins += [[i] for i in st.items[q:q0]]
            assigned.setdefault(w, []).append((s, q0, q1))
            q = q1
        if q < len(st.items):
            extra_bins += [[i] for i in st.items[q:]]
    dedicated_small = len(extra_bins)

    removed: list[int] = []
    specials: list[int] = []
    excess_subsets: list[tuple[int, list[int]]] = []  # (window kappa, items)

    for w in sorted(assigned):
        if w.t >= model.t_max:
            raise InvariantError("small items assigned to a degenerate window")
        target = [b for bins in by_window.get(w, ()) for b in bins]
        x_w = len(target)
        if x_w < 1:
            raise InvariantError(f"window {w} has assigned items but no bins")
        pool: list[int] = []
        for s, q0, q1 in sorted(assigned[w], key=lambda run: -smalls[run[0]].size):
            pool += smalls[s].items[q0:q1]
        if len(pool) > w.kappa * x_w:
            raise InvariantError("window count row violated after rounding")
        if -(-len(pool) // x_w) > w.kappa:
            raise InvariantError(f"window {w} dealt more than kappa items to a bin")
        # per bin dealt an item: remove the largest (dealt first), then
        # refill smallest-first, splitting off the special and excess items
        for pos in range(min(x_w, len(pool))):
            dealt = pool[pos::x_w]
            removed.append(dealt[0])
            rest = sorted(dealt[1:], key=sizes.__getitem__)  # stable: (size, index)
            if not rest:
                continue
            b = target[pos]
            fill = list(accumulate(map(sizes.__getitem__, rest)))
            cut = bisect_right(fill, scale - loads[b])
            if cut:
                contents[b] += rest[:cut]
                loads[b] += fill[cut - 1]
            if cut < len(rest):
                specials.append(rest[cut])
                excess = rest[cut + 1 :]
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

    if max(loads, default=0) > scale:
        raise InvariantError("configuration bin exceeds capacity")
    config_records: list[dict[str, Any]] = []
    out_bins: list[list[int]] = []
    start = 0
    for gc, copies in x_hat:
        k_p = model.staircase.ks[gc.p]
        f_kp = f_vals[min(k_p, top)]
        bound = one_plus * f_kp + 1e-9
        for content in contents[start : start + copies]:
            m = len(content)
            if not m:
                continue
            cost = f_vals[min(m, top)]
            if not cost <= bound:
                raise InvariantError("bin real cost exceeds (1+eps) * level cost")
            config_records.append({"k_p": k_p, "f_k_p": f_kp, "items": m, "cost": cost})
            out_bins.append(content)
        start += copies
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
    if h_eps is not None:
        if h_eps < k or h_eps != int(h_eps):
            raise ValueError("h_eps must be an integer >= 1/eps")
        h_eps = int(h_eps)  # 3.0 would make the tail bound a float
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

    # every bin once, as a sorted tuple, and each stage's (name, bin count)
    bins_out: list[tuple[int, ...]] = [(i,) for i in grouping.l1]
    stages = [("largest-class singletons", len(bins_out))]

    if split.tail:
        # the tail is a contiguous suffix of the items: cut it out by a slice
        # and map its bins back by an offset
        first = split.tail[0]
        if split.tail[-1] != n - 1 or len(split.tail) != n - first:
            raise InvariantError("the pre-packed tail is not a suffix of the items")
        tail_packed = fnfi_with_split_repair(inst.subset(range(first, n)))
        bins_out.extend(tuple(map(first.__add__, b)) for b in tail_packed.bins)
        stages.append(("smallest-tail prepack", tail_packed.num_bins))

    kept = split.kept
    smalls = small_types(inst.int_sizes, kept)
    prov.h_set_size = len(sizes)
    for v, d in zip(sizes, mult):
        prov.i2_sizes += [str(Fraction(v, inst.scale))] * d
    # kept is in non-increasing size order, so each type's items are
    # contiguous in it and one string per type and item repeats kept's order
    for st in smalls:
        prov.i2_sizes += [str(Fraction(st.size, inst.scale))] * len(st.items)

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
            smalls=smalls,
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
        bins_out.extend(tuple(sorted(b)) for b in outcome.bins)
        prov.config_bins = outcome.config_records
        prov.dedicated_small_bins = outcome.dedicated_small
        prov.removed_bins = outcome.removed_bins
        prov.special_bins = outcome.special_bins
        prov.excess_bins = outcome.excess_bins
        stages.append(("program bins", len(outcome.bins)))

    packing = Packing(tuple(bins_out), frozenset(range(n)))
    verdict = verify_packing(inst, packing)
    if not verdict.ok:
        lines = "; ".join(violation_lines(verdict)[:3])
        raise InvariantError(f"scheme produced an invalid packing: {lines}")
    # fsum rounds once, so a stage's cost and the total are the sums
    # eval_cost would give over the stage's bins and over all of them
    costs = bin_costs(f, packing.bins)
    in_order = iter(costs)  # each stage takes its bins' costs off the front
    for name, count in stages:
        prov.stages.append(StageReport(name, count, math.fsum(islice(in_order, count))))
    prov.total_bins = packing.num_bins
    prov.total_cost = math.fsum(costs)
    return AfptasResult(packing, prov)
