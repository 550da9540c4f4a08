"""Scale regression: the master grows with the number of distinct sizes, not
with n, and its assignment columns with the pairs the optimum uses, not
with every (small type, window) pair.

The runs use the mixed family of ``generators.mixed``, ``fq:3`` and
eps = 1/3.  A master with one row per kept small item needs a dense
774 x 29,753 matrix (184 MB) for the windowed run at n = 1000, and a
10,395 x 410,426 one (31.8 GiB) at the default threshold at n = 24000.

The fine family draws the same shape of sizes over 10**6, so almost every
kept small size is distinct.  Its windowed run at n = 1000 has 661 small
types and 29,472 candidate assignment pairs on a master of 736 rows.  With
every pair a column, the dense 736 x 29,546 A alone took 174 MB; with the
pairs sifted, 661 of them enter, 0.90 times the rows.  Its seed basis is
optimal, so the first master solve is certified in closed form and the
basic extraction reads basicness off the master's basis: the run forms no
basis inverse and runs no rank test.

Past the master, the scheme rounds by runs: at the default threshold on
the mixed family at n = 200,000, the basic solution's assignment holds one
stretch per positive (small type, window) pair, not one value per kept
small item.

Before any of that, an instance holds one Fraction and one int per
distinct size: ``mixed(200_000, 7)`` has 801 distinct sizes, and one
object per item retained 17.8 MiB.
"""
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from concavebp import Instance, afptas, make_fq, run_afptas, verify_packing
from concavebp.generators import mixed
from concavebp.lp import LpModel

PEAK_BOUND = 100 * 2**20  # bytes traced by tracemalloc


def _record_masters(monkeypatch):
    """(model, A's shape, assignment columns) of every master solve."""
    masters = []
    arrays = LpModel.arrays

    def recorded(model, window_filter=None):
        out = arrays(model, window_filter)
        if window_filter is None:
            masters.append((model, out[1].shape, sum(isinstance(key, tuple) for key in out[3])))
        return out

    monkeypatch.setattr(LpModel, "arrays", recorded)
    return masters


def _traced_run(inst, **kwargs):
    """run_afptas under fq:3, eps 1/3; the result and tracemalloc's peak."""
    tracemalloc.start()
    try:
        res = run_afptas(inst, make_fq(3, inst.n), Fraction(1, 3), **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return res, peak


@pytest.mark.parametrize("n, h_eps", [(1000, 3), (24000, None)], ids=["windowed-n1000", "default-n24000"])
def test_master_scales_with_distinct_sizes(monkeypatch, n, h_eps):
    masters = _record_masters(monkeypatch)
    inst = mixed(n, 7)
    kwargs = {} if h_eps is None else {"h_eps": h_eps}
    res, peak = _traced_run(inst, **kwargs)
    assert verify_packing(inst, res.packing).ok
    assert peak < PEAK_BOUND
    assert masters
    for model, (rows, _cols), _pairs in masters:
        kept = [i for st in model.smalls for i in st.items]
        assert len(kept) > len(model.smalls) > 0
        assert len(model.smalls) == len({inst.sizes[i] for i in kept})
        usable = sum(model.usable(w) for w in model.windows)
        assert usable < len(model.windows)
        assert rows == len(model.sizes) + len(model.smalls) + 2 * usable


def _count_calls(monkeypatch, owner, name):
    """Calls made to ``owner.name`` while the test runs."""
    calls = []
    plain = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return plain(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_fine_master_sifts_assignment_columns(monkeypatch):
    masters = _record_masters(monkeypatch)
    inverses = _count_calls(monkeypatch, np.linalg, "inv")
    ranks = _count_calls(monkeypatch, np.linalg, "matrix_rank")
    inst = mixed(1000, 7, 10**6)
    res, peak = _traced_run(inst, h_eps=3)
    assert verify_packing(inst, res.packing).ok
    assert peak < PEAK_BOUND
    assert inverses == ranks == []
    assert masters
    for model, (rows, _cols), pairs in masters:
        # the candidates outnumber the rows many times over
        assert len(model._y_type) > 20 * rows
        assert pairs <= 2 * rows


def test_default_assignment_goes_by_runs(monkeypatch):
    rounded = []
    plain = afptas.round_solution

    def recording(basic, model, *args):
        rounded.append((basic, model))
        return plain(basic, model, *args)

    monkeypatch.setattr(afptas, "round_solution", recording)
    inst = mixed(200_000, 7)
    res = run_afptas(inst, make_fq(3, inst.n), Fraction(1, 3))
    ((basic, model),) = rounded
    pairs = sum(val > 0 for val in basic.y.values())
    kept = sum(len(st.items) for st in model.smalls)
    assert kept > 100 * pairs > 0
    # one entry per positive pair, with room for the straddling items
    assert len(basic.assignment) <= pairs + res.provenance.fractional_y


def test_instance_holds_one_object_per_distinct_size():
    tracemalloc.start()
    try:
        inst = mixed(200_000, 7)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len({id(s) for s in inst.sizes}) == len(set(inst.sizes)) == 801
    assert len({id(v) for v in inst.int_sizes}) == 801
    assert retained <= 4 * 2**20


def test_all_distinct_sizes_add_no_transient():
    # one object per distinct size must not cost an n-entry structure more
    # than the index sort did: its traced peak here was 30.5 MiB
    rng = random.Random(3)
    values = [Fraction(k, 10**9) for k in rng.sample(range(1, 10**9), 300_000)]
    tracemalloc.start()
    try:
        inst = Instance.from_values(values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.n == len(set(inst.int_sizes)) == 300_000
    assert peak <= 30.5 * 2**20
