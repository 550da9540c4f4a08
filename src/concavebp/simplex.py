"""Dense revised simplex for small linear programs.

Solves   min c.x  subject to  A x >= b,  x >= 0   with b >= 0.

Surplus variables turn the rows into equalities and phase 1 starts from an
artificial identity basis.  The basis inverse is kept explicitly, refreshed
periodically, and pricing is vectorized over all columns.  Dantzig's rule
switches to Bland's rule after a run of degenerate pivots to rule out
cycling.  Master programs here have at most a few hundred rows, so dense
algebra is appropriate.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
_REFRESH_EVERY = 64
_DEGENERATE_RUN = 40

# stable basis labels across column additions:
#   ("x", j) structural column j, ("s", i) surplus variable of row i
Label = tuple[str, int]


@dataclass
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration-limit"
    x: np.ndarray
    objective: float
    duals: np.ndarray
    basis: list[Label]
    iterations: int


def solve_lp(
    c: np.ndarray,
    A: np.ndarray,
    b: np.ndarray,
    basis: list[Label] | None = None,
) -> LpResult:
    """Solve min c.x, A x >= b, x >= 0, optionally warm-starting from a basis."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    m, n = A.shape
    if m == 0:
        return LpResult("optimal", np.zeros(n), 0.0, np.zeros(0), [], 0)
    if np.any(b < 0):
        raise ValueError("right-hand sides must be non-negative")

    # column layout: [structural | surplus | artificial]
    M = np.hstack([A, -np.eye(m), np.eye(m)])
    n_art_start = n + m
    cost2 = np.concatenate([c, np.zeros(2 * m)])

    state = _State(M, b, n, m)
    iterations = 0

    start = _labels_to_indices(basis, n, m) if basis is not None else None
    if start is not None and not state.load_basis(start):
        start = None
    if start is None:
        cost1 = np.zeros(n + 2 * m)
        cost1[n_art_start:] = 1.0
        state.load_basis(list(range(n_art_start, n_art_start + m)))
        status, it = state.iterate(cost1, allow_artificial=True)
        iterations += it
        if status != "optimal":
            raise NumericalFailureError(f"phase 1 ended with status {status}")
        if state.xb() @ cost1[state.basis] > FEAS_TOL:
            return LpResult(
                "infeasible", np.zeros(n), float("nan"), np.zeros(m), [], iterations
            )
        state.expel_artificials()

    status, it = state.iterate(cost2, allow_artificial=False)
    iterations += it
    if status != "optimal":
        return LpResult(status, np.zeros(n), float("nan"), np.zeros(m), [], iterations)

    xb = state.xb()
    x = np.zeros(n)
    for value, j in zip(xb, state.basis):
        if j < n:
            x[j] = max(float(value), 0.0)
    duals = cost2[state.basis] @ state.binv
    labels = _indices_to_labels(state.basis, n)
    return LpResult("optimal", x, float(c @ x), duals, labels, iterations)


def _labels_to_indices(labels: list[Label], n: int, m: int) -> list[int] | None:
    out = []
    for kind, idx in labels:
        if kind == "x":
            if idx >= n:
                return None
            out.append(idx)
        elif kind == "s":
            if idx >= m:
                return None
            out.append(n + idx)
        else:
            return None
    return out if len(out) == m else None


def _indices_to_labels(indices: np.ndarray | list[int], n: int) -> list[Label]:
    return [("x", int(j)) if j < n else ("s", int(j) - n) for j in indices]


class _State:
    """Basis, its inverse, and the pivoting loop."""

    def __init__(self, M: np.ndarray, b: np.ndarray, n: int, m: int):
        self.M = M
        self.b = b
        self.n = n
        self.m = m
        self.basis: np.ndarray = np.zeros(m, dtype=np.int64)
        self.binv = np.eye(m)
        self._pivots_since_refresh = 0

    def load_basis(self, indices: list[int]) -> bool:
        if len(indices) != self.m:
            return False
        B = self.M[:, indices]
        try:
            binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return False
        if not np.all(np.isfinite(binv)):
            return False
        if np.any(binv @ self.b < -FEAS_TOL):
            return False
        self.basis = np.array(indices, dtype=np.int64)
        self.binv = binv
        return True

    def xb(self) -> np.ndarray:
        return self.binv @ self.b

    def refresh(self) -> None:
        try:
            self.binv = np.linalg.inv(self.M[:, self.basis])
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError("basis matrix became singular") from exc
        self._pivots_since_refresh = 0

    def expel_artificials(self) -> None:
        """Pivot artificial variables (at level 0) out of the basis when possible."""
        n_art_start = self.n + self.m
        for pos in range(self.m):
            if self.basis[pos] < n_art_start:
                continue
            row = self.binv[pos] @ self.M[:, :n_art_start]
            in_basis = set(self.basis.tolist())
            candidates = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
            for j in candidates:
                if int(j) in in_basis:
                    continue
                d = self.binv @ self.M[:, j]
                self._pivot(d, pos, int(j))
                break
            # if no candidate exists the row is redundant; the artificial
            # stays basic at level zero, which is harmless

    def iterate(self, cost: np.ndarray, allow_artificial: bool) -> tuple[str, int]:
        limit = 200 * (self.m + self.n + 1)
        n_cols = self.M.shape[1] if allow_artificial else self.n + self.m
        M = self.M[:, :n_cols]
        it = 0
        degenerate_run = 0
        while True:
            if it >= limit:
                return "iteration-limit", it
            y = cost[self.basis] @ self.binv
            reduced = cost[:n_cols] - y @ M
            reduced[self.basis[self.basis < n_cols]] = 0.0
            if degenerate_run >= _DEGENERATE_RUN:
                viol = np.nonzero(reduced < -PIVOT_TOL)[0]
                entering = int(viol[0]) if viol.size else -1
            else:
                j = int(np.argmin(reduced))
                entering = j if reduced[j] < -PIVOT_TOL else -1
            if entering < 0:
                return "optimal", it
            d = self.binv @ self.M[:, entering]
            xb = self.xb()
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(d > PIVOT_TOL, xb / d, np.inf)
            leave = int(np.argmin(ratios))
            if not np.isfinite(ratios[leave]):
                return "unbounded", it
            if degenerate_run >= _DEGENERATE_RUN:
                # Bland: among ratio ties, leave with the smallest basis index
                near = np.nonzero(ratios <= ratios[leave] + 1e-12)[0]
                leave = int(near[np.argmin(self.basis[near])])
            degenerate_run = degenerate_run + 1 if ratios[leave] <= 1e-12 else 0
            self._pivot(d, leave, entering)
            it += 1

    def _pivot(self, d: np.ndarray, row: int, entering: int) -> None:
        piv = d[row]
        if abs(piv) <= PIVOT_TOL:
            raise NumericalFailureError("pivot element below tolerance")
        self.binv[row] /= piv
        others = np.arange(self.m) != row
        self.binv[others] -= np.outer(d[others], self.binv[row])
        self.basis[row] = entering
        self._pivots_since_refresh += 1
        if self._pivots_since_refresh >= _REFRESH_EVERY:
            self.refresh()
