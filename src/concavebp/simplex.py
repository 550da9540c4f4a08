"""Revised simplex with sparse pricing for small linear programs, and an
optimality certificate that needs no simplex at all.

Solves   min c.x  subject to  A x >= b,  x >= 0   with b >= 0.

``certify`` checks a primal-dual pair (x, y) worked out in closed form by
the caller: x primal feasible, y dual feasible and c.x = b.y.  Such a pair
is optimal by weak duality (Chvatal 1983, ch. 5), so a caller whose crash
basis is already optimal returns its vertex without forming a basis
inverse.  ``solve_lp`` is the fallback when the certificate fails.

Surplus variables turn the rows into equalities.  A cold start is a slack
basis: a row with b_i = 0 starts on its surplus column, feasible at level 0,
and only a row with b_i > 0 starts on an artificial, so phase 1 begins from
the inverse diag(+-1) and drives only the positive rows.  Both phases price
only the structural and surplus columns: an artificial that has left the
basis never has to return (Chvatal 1983, ch. 8).  An artificial +e_r still
basic after phase 1 is swapped for its own row's surplus -e_r, which takes
its level (within FEAS_TOL of zero) negated.  A's nonzeros are kept once per
call as column-major (row, value) runs, and pricing and entering columns run
over those nonzeros; a surplus column is -e_i and an artificial column +e_i,
so neither is stored.  The basis inverse stays a dense m x m matrix, updated in
place by a rank-one product after each pivot and refreshed periodically.
Dantzig's rule switches to Bland's rule after a run of degenerate pivots to
rule out cycling.  The ratio test is Harris's, with threshold pivoting
among the rows it admits, so a basic value rounded just below zero never
pivots on a tiny element.  A warm-start basis (the previous round's, or the
master's seed basis when its certificate fails) skips phase 1.  It is used
only when its computed inverse reproduces the identity and
B^-1 b >= -FEAS_TOL; a singular or infeasible one falls back to the slack
start.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
_REFRESH_EVERY = 64
_DEGENERATE_RUN = 40
_INVERSE_TOL = 1e-9
_TIE_PIVOT = 0.1
_HARRIS_TOL = 1e-9
_GAP_TOL = 1e-9  # relative duality gap a certificate may leave

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
    certified: bool = False  # optimal by ``certify``, without a simplex run


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
        if np.any(c < -PIVOT_TOL):
            return LpResult("unbounded", np.zeros(n), float("nan"), np.zeros(0), [], 0)
        return LpResult("optimal", np.zeros(n), 0.0, np.zeros(0), [], 0)
    if np.any(b < 0):
        raise ValueError("right-hand sides must be non-negative")

    # column layout: [structural | surplus | artificial]; no artificial is
    # basic in phase 2, so its costs stop at the surplus columns
    cost2 = np.concatenate([c, np.zeros(m)])

    state = _State(A, b)
    iterations = 0

    start = _labels_to_indices(basis, n, m) if basis is not None else None
    if start is not None and not state.load_basis(start):
        start = None
    if start is None:
        cost1 = np.zeros(n + 2 * m)
        cost1[n + m:] = 1.0
        status, it = state.iterate(cost1)
        iterations += it
        if status != "optimal":
            raise NumericalFailureError(f"phase 1 ended with status {status}")
        if state.xb() @ cost1[state.basis] > FEAS_TOL:
            return LpResult(
                "infeasible", np.zeros(n), float("nan"), np.zeros(m), [], iterations
            )
        state.expel_artificials()

    status, it = state.iterate(cost2)
    iterations += it
    if status != "optimal":
        return LpResult(status, np.zeros(n), float("nan"), np.zeros(m), [], iterations)

    structural = state.basis < n
    xb = state.xb()[structural]
    x = np.zeros(n)
    x[state.basis[structural]] = np.where(xb < 0.0, 0.0, xb)
    duals = cost2[state.basis] @ state.binv
    labels = _indices_to_labels(state.basis, n)
    return LpResult("optimal", x, float(c @ x), duals, labels, iterations)


def certify(
    c: np.ndarray, A: np.ndarray, b: np.ndarray, x: np.ndarray, y: np.ndarray
) -> bool:
    """True when x and y are optimal for min c.x, A x >= b, x >= 0 and its
    dual, within the simplex's own tolerances: x >= 0, A x >= b - FEAS_TOL,
    y >= -PIVOT_TOL (a surplus column's reduced cost), c - A^T y >=
    -PIVOT_TOL over every column, and c.x = b.y within a relative 1e-9.
    A NaN anywhere fails every test."""
    if not (np.all(x >= 0.0) and np.all(A @ x >= b - FEAS_TOL)):
        return False
    if not (np.all(y >= -PIVOT_TOL) and np.all(c - y @ A >= -PIVOT_TOL)):
        return False
    primal, dual = float(c @ x), float(b @ y)
    return abs(primal - dual) <= _GAP_TOL * max(abs(primal), abs(dual))


def _labels_to_indices(labels: list[Label], n: int, m: int) -> list[int] | None:
    out = []
    for kind, idx in labels:
        if kind == "x" and 0 <= idx < n:
            out.append(idx)
        elif kind == "s" and 0 <= idx < m:
            out.append(n + idx)
        else:
            return None
    return out


def _indices_to_labels(indices: np.ndarray | list[int], n: int) -> list[Label]:
    return [("x", int(j)) if j < n else ("s", int(j) - n) for j in indices]


class _State:
    """Basis, its inverse, and the pivoting loop.

    Column j < n is A's column j, column n + i is -e_i (surplus) and column
    n + m + i is +e_i (artificial).  Only the first n + m columns are priced:
    an artificial leaves the slack start's basis and never returns."""

    def __init__(self, A: np.ndarray, b: np.ndarray):
        self.A = A
        self.b = b
        self.m, self.n = A.shape
        # column-major runs: column j's nonzeros sit in [starts[j], starts[j+1])
        self.cols, self.rows = np.nonzero(A.T)
        self.vals = A[self.rows, self.cols]
        self.starts = np.searchsorted(self.cols, np.arange(self.n + 1))
        # slack start: surplus -e_i on rows with b_i = 0, artificial +e_i on
        # the rest; B is diag(+-1), its own inverse
        positive = b > 0
        self.basis: np.ndarray = self.n + np.arange(self.m) + np.where(positive, self.m, 0)
        self.binv = np.diag(np.where(positive, 1.0, -1.0))
        self._pivots_since_refresh = 0

    def _basis_matrix(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        B = np.zeros((self.m, self.m))
        structural = idx < self.n
        B[:, structural] = self.A[:, idx[structural]]
        pos = np.nonzero(~structural)[0]
        unit = idx[pos] - self.n  # surplus i is i, artificial i is m + i
        B[unit % self.m, pos] = np.where(unit < self.m, -1.0, 1.0)
        return B

    def _row_times(self, y: np.ndarray) -> np.ndarray:
        """y @ [A | -I], over the priced columns."""
        ya = np.bincount(self.cols, weights=y[self.rows] * self.vals, minlength=self.n)
        return np.concatenate([ya, -y])

    def _column(self, j: int) -> np.ndarray:
        """binv @ (column j) for a structural or surplus j, a fresh array."""
        if j < self.n:
            lo, hi = self.starts[j], self.starts[j + 1]
            return self.binv[:, self.rows[lo:hi]] @ self.vals[lo:hi]
        return -self.binv[:, j - self.n]

    def _invert(self, indices) -> np.ndarray | None:
        """Inverse of the basis matrix of ``indices``, or None when B is
        singular.  A singular B (a repeated label, two equal rows) can invert
        without an error into huge entries; such an inverse does not
        reproduce I."""
        B = self._basis_matrix(indices)
        try:
            binv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(binv)):
            return None
        if np.abs(B @ binv - np.eye(self.m)).max() > _INVERSE_TOL:
            return None
        return binv

    def load_basis(self, indices: list[int]) -> bool:
        if len(indices) != self.m:
            return False
        binv = self._invert(indices)
        if binv is None or np.any(binv @ self.b < -FEAS_TOL):
            return False
        self.basis = np.array(indices, dtype=np.int64)
        self.binv = binv
        return True

    def xb(self) -> np.ndarray:
        return self.binv @ self.b

    def refresh(self) -> None:
        binv = self._invert(self.basis)
        if binv is None:
            raise NumericalFailureError("basis matrix became singular")
        self.binv = binv
        self._pivots_since_refresh = 0

    def expel_artificials(self) -> None:
        """Swap each artificial +e_r still basic for its row's surplus -e_r.
        The basis column changes sign, so its row of binv does, and the
        surplus takes the artificial's level negated.  Surplus r cannot be
        basic beside artificial r, so the basis stays nonsingular."""
        art = self.basis >= self.n + self.m
        self.basis[art] -= self.m
        self.binv[art] *= -1.0

    def iterate(self, cost: np.ndarray) -> tuple[str, int]:
        limit = 200 * (self.m + self.n + 1)
        n_cols = self.n + self.m
        it = 0
        degenerate_run = 0
        while True:
            if it >= limit:
                return "iteration-limit", it
            y = cost[self.basis] @ self.binv
            reduced = cost[:n_cols] - self._row_times(y)
            reduced[self.basis[self.basis < n_cols]] = 0.0
            if degenerate_run >= _DEGENERATE_RUN:
                viol = np.nonzero(reduced < -PIVOT_TOL)[0]
                entering = int(viol[0]) if viol.size else -1
            else:
                j = int(np.argmin(reduced))
                entering = j if reduced[j] < -PIVOT_TOL else -1
            if entering < 0:
                return "optimal", it
            d = self._column(entering)
            # a basic value rounded below zero counts as zero: its negative
            # ratio would otherwise win and pivot on any tiny element
            xb = np.maximum(self.xb(), 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = np.where(d > PIVOT_TOL, xb / d, np.inf)
                # Harris: a row may leave when its ratio is within the step
                # that keeps every basic value above -_HARRIS_TOL
                bound = np.where(d > PIVOT_TOL, (xb + _HARRIS_TOL) / d, np.inf).min()
            if not np.isfinite(bound):
                return "unbounded", it
            near = np.nonzero(ratios <= bound)[0]
            if degenerate_run >= _DEGENERATE_RUN:
                # Bland: among ratio ties, leave with the smallest basis index
                leave = int(near[np.argmin(self.basis[near])])
            else:
                # threshold pivoting among those rows: the first whose pivot
                # element reaches _TIE_PIVOT of the largest, so no tiny
                # element spoils the updated inverse
                stable = near[d[near] >= _TIE_PIVOT * d[near].max()]
                leave = int(stable[0])
            degenerate_run = degenerate_run + 1 if ratios[leave] <= 1e-12 else 0
            self._pivot(d, leave, entering)
            it += 1

    def _pivot(self, d: np.ndarray, row: int, entering: int) -> None:
        piv = d[row]
        if abs(piv) <= PIVOT_TOL:
            raise NumericalFailureError("pivot element below tolerance")
        r = self.binv[row] / piv
        self.binv -= np.outer(d, r)
        self.binv[row] = r
        self.basis[row] = entering
        self._pivots_since_refresh += 1
        if self._pivots_since_refresh >= _REFRESH_EVERY:
            self.refresh()
