"""Scale regression: the master grows with the number of distinct sizes, not
with n.

Both runs use the mixed family (see tests/test_golden.py), ``fq:3`` and
eps = 1/3.  A master with one row per kept small item needs a dense
774 x 29,753 matrix (184 MB) for the windowed run at n = 1000, and a
10,395 x 410,426 one (31.8 GiB) at the default threshold at n = 24000.
"""
import tracemalloc
from fractions import Fraction

import pytest

from concavebp import make_fq, run_afptas, verify_packing
from concavebp.lp import LpModel
from test_golden import mixed

PEAK_BOUND = 100 * 2**20  # bytes traced by tracemalloc


@pytest.mark.parametrize("n, h_eps", [(1000, 3), (24000, None)], ids=["windowed-n1000", "default-n24000"])
def test_master_scales_with_distinct_sizes(monkeypatch, n, h_eps):
    masters = []
    arrays = LpModel.arrays

    def recorded(model, window_filter=None):
        out = arrays(model, window_filter)
        if window_filter is None:
            masters.append((model, out[1].shape))
        return out

    monkeypatch.setattr(LpModel, "arrays", recorded)
    inst = mixed(n, 7)
    kwargs = {} if h_eps is None else {"h_eps": h_eps}
    tracemalloc.start()
    try:
        res = run_afptas(inst, make_fq(3, n), Fraction(1, 3), **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verify_packing(inst, res.packing).ok
    assert peak < PEAK_BOUND
    assert masters
    for model, (rows, _cols) in masters:
        kept = [i for st in model.smalls for i in st.items]
        assert len(kept) > len(model.smalls) > 0
        assert len(model.smalls) == len({inst.sizes[i] for i in kept})
        usable = sum(model.usable(w) for w in model.windows)
        assert usable < len(model.windows)
        assert rows == len(model.sizes) + len(model.smalls) + 2 * usable
