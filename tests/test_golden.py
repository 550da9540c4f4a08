"""Golden digests of the scheme's bins on fixed instances.

A change meant to leave every packing bit-identical (a speed-up, a
refactor) must keep these digests, of the bins and of the provenance record.
A change that alters the packing on purpose updates them and says why.

The instances follow the benchmark's mixed family: exactly n // 5 sizes from
U{400..1000}/1000 and the rest from U{1..200}/1000.  The n = 100 runs force
``h_eps = 3``, so the windowed program is solved and rounded with small
items; the n = 400 runs take the default threshold.
"""
import hashlib
import json
import random
from fractions import Fraction
from functools import lru_cache

import pytest

from concavebp import Instance, make_fq, run_afptas


def mixed(n: int, seed: int) -> Instance:
    rng = random.Random(seed)
    n_large = n // 5
    sizes = [Fraction(rng.randint(400, 1000), 1000) for _ in range(n_large)]
    sizes += [Fraction(rng.randint(1, 200), 1000) for _ in range(n - n_large)]
    return Instance.from_values(sizes)


GOLDEN = [
    (100, 1, 3, "5b34a62103a07ea53de368df2c8d9bc9acf1f65f9e88e8074d61e0634b75f55d",
     "cddc555a70a398860ea1b01aa2aeb5e216608fdb025b0491c53f1da8c824124a"),
    (100, 2, 3, "299d6f8358e1bc95067e69069af66dd02b7e8071aaefba32b26d0a6d99dcce0f",
     "e7fc095e3730406b22dce3a32eb0db81ef47bbcf66a0efbd9bd498845c9ee1b5"),
    (100, 3, 3, "dc7a0b3d9fd6f295efa3a83410a6c0879c381368caac59fb624d2330063130e5",
     "5811655d8737b8f2515855e6b1fb1c9cb231645c77946dc5dc1a76d27a01cfde"),
    (100, 4, 3, "80e9a75bf7a89dce3b30f09417475e2791065861ed50300c72917487f1871132",
     "1d765df2663e7ba5dd4d05a7212c344b21020f86c4184b0e333a00ea46e9d0bf"),
    (400, 1, None, "58a13e1e5f58c4eb6478e9264a7e6b6a4a47af3d01f92aa1cbab5d9c29566ffb",
     "2da76826ea4481251af9d63959c3b653e18b54e8f928f68c7e7b6e57d678945e"),
    (400, 2, None, "afcc9e42e1459e3e74cc220eb21bb5cbee3b5678c9ba31a8fe06381cb81f8fb0",
     "eb98bcc606ad020e40c9d7ae0a1cc225a32b4eedc73fe80813185a2813ce86dc"),
]


IDS = [f"n{n}-seed{seed}" for n, seed, *_ in GOLDEN]


@lru_cache(maxsize=None)
def golden_run(n: int, seed: int, h_eps: int | None):
    kwargs = {} if h_eps is None else {"h_eps": h_eps}
    return run_afptas(mixed(n, seed), make_fq(3, n), Fraction(1, 3), **kwargs)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("n,seed,h_eps,digest,_prov", GOLDEN, ids=IDS)
def test_scheme_bins_match_golden_digest(n, seed, h_eps, digest, _prov):
    res = golden_run(n, seed, h_eps)
    assert not res.provenance.lp_skipped
    # small items are dealt into windows exactly when h_eps is forced
    assert (res.provenance.removed_bins > 0) == (h_eps is not None)
    assert sha256(json.dumps(res.packing.bins)) == digest


@pytest.mark.parametrize("n,seed,h_eps,_bins,digest", GOLDEN, ids=IDS)
def test_scheme_provenance_matches_golden_digest(n, seed, h_eps, _bins, digest):
    prov = golden_run(n, seed, h_eps).provenance.to_dict()
    assert sha256(json.dumps(prov, sort_keys=True, default=str)) == digest
