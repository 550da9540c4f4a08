"""Exact optimum for small instances via dynamic programming over item subsets.

The DP fixes the lowest-index item of the remaining set into the next bin
(the standard canonicalization), so each state is expanded once per feasible
bin containing that item.  Feasibility is decided in exact integer arithmetic
over a common denominator of the sizes.
"""
from __future__ import annotations

import numpy as np

from .core import CostFunction, Instance, Packing, eval_cost
from .errors import SolverLimitError

DEFAULT_LIMIT_N = 15
HARD_LIMIT_N = 22  # memory guard: several arrays of size 2**n


class _SubsetSolver:
    """Shared precomputation for one instance, reusable across cost tables."""

    def __init__(self, inst: Instance):
        n = inst.n
        self.n = n
        denom = inst.scale
        # keep subset sums exact even when the common denominator is enormous
        dtype = np.int64 if denom < 2**58 else object
        ints = np.array(inst.int_sizes, dtype=dtype)
        size = np.zeros(1 << n, dtype=dtype)
        pc = np.zeros(1 << n, dtype=np.int64)
        for b in range(n):
            lo, hi = 1 << b, 1 << (b + 1)
            size[lo:hi] = size[:lo] + ints[b]
            pc[lo:hi] = pc[:lo] + 1
        self.popcount = pc
        feasible = np.nonzero(size <= denom)[0]
        # feasible bins grouped by their lowest set bit
        self.by_low = [
            feasible[(feasible & -feasible) == (1 << b)] for b in range(n)
        ]
        self._low_index = np.zeros(1 << n, dtype=np.int64)
        for b in range(n):
            self._low_index[(1 << b) :: (1 << (b + 1))] = b

    def solve_many(self, tables: list[list[float]]) -> list[tuple[float, list[int]]]:
        """Optimal cost and bin choice per cost table, sharing the subset scan."""
        n = self.n
        nk = len(tables)
        fcs = [np.asarray(t, dtype=np.float64) for t in tables]
        best = [np.zeros(1 << n, dtype=np.float64) for _ in range(nk)]
        choice = [np.zeros(1 << n, dtype=np.int64) for _ in range(nk)]
        pc = self.popcount
        low_index = self._low_index
        by_low = self.by_low
        for m in range(1, 1 << n):
            cands = by_low[low_index[m]]
            sub = cands[(cands & ~m) == 0]
            rest = m ^ sub
            card = pc[sub]
            for k in range(nk):
                vals = fcs[k][card] + best[k][rest]
                j = int(np.argmin(vals))
                best[k][m] = vals[j]
                choice[k][m] = sub[j]
        full = (1 << n) - 1
        out = []
        for k in range(nk):
            bins: list[int] = []
            m = full
            while m:
                b = int(choice[k][m])
                bins.append(b)
                m ^= b
            out.append((float(best[k][full]), bins))
        return out


def _mask_to_items(mask: int) -> list[int]:
    items = []
    i = 0
    while mask:
        if mask & 1:
            items.append(i)
        mask >>= 1
        i += 1
    return items


def exact_opt(
    inst: Instance, f: CostFunction, limit_n: int = DEFAULT_LIMIT_N
) -> tuple[Packing, float]:
    """Minimum-cost feasible packing, for instances with at most limit_n items."""
    _check_limit(inst, limit_n)
    if inst.n == 0:
        return Packing.from_bins([], ()), 0.0
    solver = _SubsetSolver(inst)
    table = [f.value(q) for q in range(inst.n + 1)]
    ((_, bin_masks),) = solver.solve_many([table])
    packing = Packing.from_bins(
        [_mask_to_items(m) for m in bin_masks], range(inst.n)
    )
    return packing, eval_cost(f, packing)


def exact_opt_fk_all(
    inst: Instance, k_list: list[int], limit_n: int = DEFAULT_LIMIT_N
) -> list[float]:
    """Exact optima under the capped-linear costs for every cap in k_list."""
    _check_limit(inst, limit_n)
    if inst.n == 0:
        return [0.0 for _ in k_list]
    solver = _SubsetSolver(inst)
    tables = [
        [float(min(q, k)) for q in range(inst.n + 1)] for k in k_list
    ]
    return [cost for cost, _ in solver.solve_many(tables)]


def _check_limit(inst: Instance, limit_n: int) -> None:
    if inst.n > min(limit_n, HARD_LIMIT_N):
        raise SolverLimitError(
            f"exact solver limited to {min(limit_n, HARD_LIMIT_N)} items, got {inst.n}"
        )
