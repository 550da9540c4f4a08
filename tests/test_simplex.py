import random
import tracemalloc

import numpy as np
import pytest

from concavebp.errors import NumericalFailureError
from concavebp.simplex import (
    _DEGENERATE_RUN,
    _INVERSE_TOL,
    _REFRESH_EVERY,
    FEAS_TOL,
    PIVOT_TOL,
    LpResult,
    _indices_to_labels,
    _labels_to_indices,
    _State,
    certify,
    solve_lp,
)

try:
    import scipy.optimize as scipy_opt
except ImportError:  # scipy is a test extra; only the comparison with it needs it
    scipy_opt = None


# -- the dense solver that concavebp.simplex replaced, kept as the differential
# reference: it prices every column with y @ [A | -I | I], pivots with a masked
# update and accepts any warm basis whose inverse comes out finite
def _dense_solve_lp(c, A, b, basis=None) -> LpResult:
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

    state = _DenseState(M, b, n, m)
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


class _DenseState:
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


def _random_lp(rng: random.Random):
    m = rng.randint(1, 8)
    n = rng.randint(1, 8)
    density = rng.uniform(0.4, 1.0)
    A = np.array(
        [
            [rng.uniform(0.0, 3.0) if rng.random() < density else 0.0 for _ in range(n)]
            for _ in range(m)
        ]
    )
    b = np.array([rng.uniform(0.0, 4.0) for _ in range(m)])
    c = np.array([rng.uniform(0.1, 5.0) for _ in range(n)])
    return c, A, b


@pytest.mark.skipif(scipy_opt is None, reason="needs scipy")
class TestAgainstScipy:
    def test_random_covering_lps(self):
        rng = random.Random(2024)
        solved = 0
        for _ in range(80):
            c, A, b = _random_lp(rng)
            mine = solve_lp(c, A, b)
            ref = scipy_opt.linprog(c, A_ub=-A, b_ub=-b, bounds=(0, None), method="highs")
            if ref.status == 2:
                assert mine.status == "infeasible"
                continue
            assert ref.status == 0 and mine.status == "optimal"
            assert mine.objective == pytest.approx(ref.fun, abs=1e-6, rel=1e-6)
            assert np.all(A @ mine.x >= b - 1e-7)
            solved += 1
        assert solved >= 40

    def test_duals_match_scipy_marginals(self):
        rng = random.Random(77)
        for _ in range(30):
            c, A, b = _random_lp(rng)
            mine = solve_lp(c, A, b)
            if mine.status != "optimal":
                continue
            ref = scipy_opt.linprog(
                c, A_ub=-A, b_ub=-b, bounds=(0, None), method="highs"
            )
            if ref.status != 0:
                continue
            # dual objective equals primal at the optimum for both solvers
            assert mine.duals @ b == pytest.approx(mine.objective, abs=1e-6)
            assert np.all(mine.duals >= -1e-9)

    def test_zero_row_with_tiny_rhs_swaps_its_artificial(self, monkeypatch):
        # 0 x >= 1e-9 holds within FEAS_TOL, but no priced column can drive
        # row 1's artificial out, so phase 1 ends with it basic
        A = np.array([[1.0, 1.0], [0.0, 0.0], [2.0, 1.0]])
        b = np.array([1.0, 1e-9, 1.5])
        c = np.array([1.0, 2.0])
        m, n = A.shape
        after_phase_1 = []
        swap = _State.expel_artificials

        def spy(state):
            after_phase_1.append(state.basis.tolist())
            swap(state)

        monkeypatch.setattr(_State, "expel_artificials", spy)
        mine = solve_lp(c, A, b)
        assert after_phase_1 and n + m + 1 in after_phase_1[0]
        ref = scipy_opt.linprog(c, A_ub=-A, b_ub=-b, bounds=(0, None), method="highs")
        assert ref.status == 0 and mine.status == "optimal"
        assert mine.objective == pytest.approx(ref.fun, abs=1e-9)
        assert np.all(A @ mine.x >= b - FEAS_TOL)
        assert all(0 <= idx < (n if kind == "x" else m) for kind, idx in mine.basis)
        assert ("s", 1) in mine.basis
        warm = solve_lp(c, A, b, basis=mine.basis)
        assert warm.status == "optimal" and warm.iterations == 0
        assert warm.objective == pytest.approx(mine.objective, abs=1e-12)

    def test_warm_start_agrees_after_column_append(self):
        rng = random.Random(99)
        for _ in range(20):
            c, A, b = _random_lp(rng)
            first = solve_lp(c, A, b)
            if first.status != "optimal":
                continue
            extra = rng.randint(1, 3)
            A2 = np.hstack([A, np.array([[rng.uniform(0, 3) for _ in range(extra)] for _ in range(A.shape[0])])])
            c2 = np.concatenate([c, [rng.uniform(0.1, 5.0) for _ in range(extra)]])
            warm = solve_lp(c2, A2, b, basis=first.basis)
            cold = solve_lp(c2, A2, b)
            assert warm.status == cold.status == "optimal"
            assert warm.objective == pytest.approx(cold.objective, abs=1e-7)


def _differential_lp(rng: random.Random):
    """A small covering LP: integer or real coefficients, some zero right-hand
    sides, a duplicated row in about 30% of them, a negative cost now and then."""
    m = rng.randint(1, 12)
    n = rng.randint(1, 15)
    density = rng.uniform(0.2, 1.0)
    if rng.random() < 0.5:
        coef = lambda: float(rng.randint(1, 4))  # noqa: E731
    else:
        coef = lambda: rng.uniform(0.01, 3.0)  # noqa: E731
    A = np.array([[coef() if rng.random() < density else 0.0 for _ in range(n)] for _ in range(m)])
    b = np.array([0.0 if rng.random() < 0.2 else float(rng.randint(1, 5)) for _ in range(m)])
    if m > 1 and rng.random() < 0.3:
        i, k = rng.sample(range(m), 2)
        A[k], b[k] = A[i], b[i]
    c = np.array([rng.uniform(0.1, 5.0) for _ in range(n)])
    if rng.random() < 0.05:
        c[rng.randrange(n)] = -1.0
    return c, A, b


def _assert_same_solution(got: LpResult, ref: LpResult, c, A, b):
    assert got.status == ref.status
    if got.status != "optimal":
        return
    assert got.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-12)
    assert np.all(A @ got.x >= b - 1e-7)
    assert np.all(got.x >= 0)
    assert got.duals @ b == pytest.approx(got.objective, rel=1e-9, abs=1e-12)


class TestAgainstDenseSolver:
    """The sparse solver against the dense one it replaced.  Bases may differ
    where ties are broken by sums taken in another float order."""

    def test_seeded_cold_and_warm_starts(self):
        rng = random.Random(12)
        warm_from_surplus = 0
        statuses = set()
        for _ in range(2000):
            c, A, b = _differential_lp(rng)
            m, n = A.shape
            ref = _dense_solve_lp(c, A, b)
            got = solve_lp(c, A, b)
            _assert_same_solution(got, ref, c, A, b)
            statuses.add(got.status)
            # warm start from m distinct labels, a random mix of structural and surplus
            pool = [("x", j) for j in range(n)] + [("s", i) for i in range(m)]
            basis = rng.sample(pool, m)
            # and, after appending columns, from the optimal basis
            if got.status == "optimal":
                extra = np.array([[float(rng.randint(0, 3)) for _ in range(2)] for _ in range(m)])
                A2 = np.hstack([A, extra])
                c2 = np.concatenate([c, [rng.uniform(0.1, 5.0) for _ in range(2)]])
                starts = [(c, A, basis), (c2, A2, got.basis)]
            else:
                starts = [(c, A, basis)]
            for cw, Aw, start in starts:
                warm_from_surplus += any(kind == "s" for kind, _ in start)
                # against the cold reference: the dense solver accepted a
                # numerically singular warm basis and returned an infeasible x
                _assert_same_solution(
                    solve_lp(cw, Aw, b, basis=start), _dense_solve_lp(cw, Aw, b), cw, Aw, b
                )
        assert statuses == {"optimal", "infeasible", "unbounded"}
        assert warm_from_surplus >= 1000

class TestMemory:
    def test_peak_allocation_stays_below_half_of_dense_matrix(self):
        # 3 nonzeros per column: the dense [A | -I | I] or a copy of A.T
        # would each allocate more than A.nbytes / 2
        rng = np.random.default_rng(3)
        m, n = 200, 4000
        A = np.zeros((m, n))
        for j in range(n):
            rows = rng.choice(m, size=3, replace=False)
            rows[0] = j % m if j % m not in rows[1:] else rows[0]
            A[rows, j] = rng.uniform(1.0, 3.0, size=3)
        b = np.ones(m)
        c = rng.uniform(1.0, 2.0, size=n)
        tracemalloc.start()
        try:
            res = solve_lp(c, A, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.status == "optimal"
        assert np.all(A @ res.x >= b - 1e-7)
        assert peak < A.nbytes / 2


class TestSingularWarmBasis:
    """A singular warm basis used to be accepted when its inverse came out
    finite, and the solve returned an x violating A x >= b."""

    @pytest.mark.parametrize("row, c, rhs, basis", [
        # a repeated label
        ([2.2847759480075145], [4.6998696333158545], 3.0, [("x", 0), ("x", 0)]),
        # two equal rows make every all-structural basis singular
        ([2.6754862738805043, 0.2103906931156425], [4.581163710062117, 1.5723911461450504],
         2.0, [("x", 1), ("x", 0)]),
        # labels that do not fit: a structural index n, a surplus index m,
        # an unknown kind, and one label for two rows
        ([1.0, 2.0], [1.0, 1.0], 1.0, [("x", 2), ("x", 0)]),
        ([1.0, 2.0], [1.0, 1.0], 1.0, [("s", 2), ("x", 0)]),
        ([1.0, 2.0], [1.0, 1.0], 1.0, [("a", 0), ("x", 0)]),
        ([1.0, 2.0], [1.0, 1.0], 1.0, [("x", 0)]),
        # an exactly singular basis, which np.linalg.inv refuses
        ([1.0, 2.0], [1.0, 1.0], 1.0, [("x", 0), ("x", 0)]),
        # a subnormal pivot: the inverse overflows to inf
        ([1e-310, 2.0], [1.0, 1.0], 1.0, [("x", 0), ("s", 0)]),
    ])
    def test_falls_back_to_a_cold_start(self, row, c, rhs, basis):
        A = np.array([row, row])
        b = np.array([rhs, rhs])
        res = solve_lp(c, A, b, basis=basis)
        assert res.status == "optimal"
        assert np.all(A @ res.x >= b - 1e-7)
        assert res.objective == pytest.approx(solve_lp(c, A, b).objective, rel=1e-12)


class TestInputChecks:
    @pytest.mark.parametrize("basis", [[("x", -1), ("x", 1)], [("s", -1), ("x", 1)]])
    def test_negative_label_falls_back_to_a_cold_start(self, basis):
        # ("x", -1) would load A's last column and ("s", -1) would become
        # ("x", n - 1); both are refused like any label out of range
        A = np.array([[1.0, 2.0, 1.0], [3.0, 1.0, 1.0]])
        b = np.ones(2)
        c = np.array([1.0, 1.0, 5.0])
        res = solve_lp(c, A, b, basis=basis)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(solve_lp(c, A, b).objective, rel=1e-12)
        assert all(0 <= idx < (3 if kind == "x" else 2) for kind, idx in res.basis)

    def test_negative_rhs_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            solve_lp(np.ones(2), np.ones((1, 2)), np.array([-1.0]))

    @pytest.mark.parametrize("c, status", [([-1.0, 2.0], "unbounded"), ([1.0, 2.0], "optimal")])
    def test_no_rows_agrees_with_a_redundant_row(self, c, status):
        res = solve_lp(c, np.zeros((0, 2)), np.zeros(0))
        assert res.status == solve_lp(c, np.zeros((1, 2)), np.zeros(1)).status == status
        if status == "optimal":
            assert res.objective == 0.0


class TestSlackStart:
    def test_cold_basis_is_surplus_on_zero_rows(self):
        A = np.array([[1.0, 0.0], [2.0, 1.0], [0.0, 3.0], [1.0, 1.0]])
        b = np.array([0.0, 2.0, 0.0, 1.0])
        n, m = 2, 4
        state = _State(A, b)
        # surplus -e_i where b_i = 0, artificial +e_i where b_i > 0
        assert state.basis.tolist() == [n + 0, n + m + 1, n + 2, n + m + 3]
        assert np.array_equal(state.binv, np.diag([-1.0, 1.0, -1.0, 1.0]))
        assert np.array_equal(state.xb(), [0.0, 2.0, 0.0, 1.0])

    def test_zero_rhs_is_optimal_without_a_pivot(self):
        rng = random.Random(5)
        for _ in range(50):
            m, n = rng.randint(1, 10), rng.randint(1, 12)
            A = np.array(
                [[rng.choice([0.0, 0.0, 1.0, 2.5, -1.0]) for _ in range(n)] for _ in range(m)]
            )
            c = np.array([rng.choice([0.0, rng.uniform(0.1, 3.0)]) for _ in range(n)])
            res = solve_lp(c, A, np.zeros(m))
            assert res.status == "optimal"
            assert res.iterations == 0
            assert res.objective == 0.0
            assert res.basis == [("s", i) for i in range(m)]


class TestRefresh:
    def test_near_singular_basis_raises(self):
        # the two columns are parallel up to 3e-15: np.linalg.inv returns a
        # finite inverse that does not reproduce the identity
        B = np.array([[2.2847759480075145, 3 * 2.2847759480075145], [1.0, 3.0 + 3e-15]])
        binv = np.linalg.inv(B)
        assert np.all(np.isfinite(binv))
        assert np.abs(B @ binv - np.eye(2)).max() > _INVERSE_TOL
        state = _State(B, np.ones(2))
        state.basis = np.array([0, 1])
        with pytest.raises(NumericalFailureError, match="singular"):
            state.refresh()

    def test_sound_basis_refreshes(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        state = _State(A, np.ones(2))
        state.basis = np.array([0, 1])
        state._pivots_since_refresh = 5
        state.refresh()
        assert np.allclose(state.binv @ A, np.eye(2))
        assert state._pivots_since_refresh == 0


class TestRatioTest:
    """A basic value rounded just below zero must not make the ratio test
    pivot on a tiny element: a warm master once ended "optimal" with a row
    short by 0.0117 that way."""

    class _Stop(Exception):
        pass

    def _first_pivot(self, b):
        A = np.array([[1.0, 0.0, 1e-7], [0.0, 1.0, 500.0]])
        state = _State(A, np.array(b))
        assert state.load_basis([0, 1])
        taken = []

        def spy(d, row, entering):
            taken.append((row, entering, float(d[row])))
            raise self._Stop

        state._pivot = spy
        with pytest.raises(self._Stop):
            state.iterate(np.array([0.0, 0.0, -1.0, 0.0, 0.0]))
        return taken

    def test_tie_at_zero_takes_the_large_pivot(self):
        assert self._first_pivot([-1e-11, 0.0]) == [(1, 2, 500.0)]

    def test_near_tie_takes_the_large_pivot(self):
        # row 1 blocks at 2e-9, row 0 at 0: within Harris's tolerance
        assert self._first_pivot([-1e-11, 1e-6]) == [(1, 2, 500.0)]

    def test_lone_blocking_row_still_leaves(self):
        # row 1 blocks only at 2000: the tiny element is the only choice
        assert self._first_pivot([0.0, 1e6]) == [(0, 2, 1e-7)]


class TestCertify:
    """``certify`` accepts an optimal primal-dual pair and rejects each way a
    pair can fail: every fault below breaks exactly one of its tests."""

    # min x1 + x2 + 2 x3, x1 + x3 >= 1, x2 + x3 >= 1: x = (1, 1, 0) and
    # y = (1, 1) are optimal, with every reduced cost 0
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    b = np.array([1.0, 1.0])
    c = np.array([1.0, 1.0, 2.0])
    x = np.array([1.0, 1.0, 0.0])
    y = np.array([1.0, 1.0])

    def test_optimal_pair_accepted(self):
        assert certify(self.c, self.A, self.b, self.x, self.y)

    def test_accepted_within_the_simplex_tolerances(self):
        # row 1 short by half FEAS_TOL, column 3 priced half PIVOT_TOL below cost
        x = self.x + np.array([-0.5, 0.5, 0.0]) * FEAS_TOL
        c = self.c - np.array([0.0, 0.0, 0.5]) * PIVOT_TOL
        assert certify(c, self.A, self.b, x, self.y)
        # a dual half PIVOT_TOL below zero, complementary slack with x
        tiny = 0.5 * PIVOT_TOL
        c = np.array([-tiny, 1.0, 1.0])
        assert certify(c, self.A, self.b, self.x, np.array([-tiny, 1.0]))

    @pytest.mark.parametrize(
        "c, x, y",
        [
            # a negative level: rows, duals and objectives still agree
            ([1.0, 1.0, 2.0], [2.0, 2.0, -1.0], [1.0, 1.0]),
            # a violated row at the same objective
            ([1.0, 1.0, 2.0], [0.5, 1.5, 0.0], [1.0, 1.0]),
            # a negative dual, complementary slack with x
            ([-1.0, 3.0, 2.0], [1.0, 1.0, 0.0], [-1.0, 3.0]),
            # a negative reduced cost: column 3 prices below its cost
            ([1.0, 1.0, 1.5], [1.0, 1.0, 0.0], [1.0, 1.0]),
            # a duality gap: both feasible, objectives 2 and 1
            ([1.0, 1.0, 2.0], [1.0, 1.0, 0.0], [0.5, 0.5]),
            # NaN fails every test
            ([1.0, 1.0, 2.0], [1.0, 1.0, np.nan], [1.0, 1.0]),
        ],
        ids=["negative-level", "violated-row", "negative-dual", "negative-reduced-cost",
             "duality-gap", "nan"],
    )
    def test_fault_rejected(self, c, x, y):
        assert not certify(np.array(c), self.A, self.b, np.array(x), np.array(y))

    def test_agrees_with_the_simplex_on_random_lps(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m, n = rng.integers(2, 8), rng.integers(2, 10)
            A = rng.integers(0, 3, size=(m, n)).astype(float)
            A[:, 0] = 1.0  # a column covering every row keeps it feasible
            b = rng.integers(0, 4, size=m).astype(float)
            c = rng.integers(1, 6, size=n).astype(float)
            res = solve_lp(c, A, b)
            assert certify(c, A, b, res.x, res.duals)
            assert not certify(c, A, b, res.x, res.duals * 0.5 - 1.0)
