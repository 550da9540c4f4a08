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
    (100, 1, 3, "c7037e5298df1cfe329011483902576d6cb82166d82617a36e7965197b2c6054",
     "0a59b70ef45972ca505f3b254adc2d0fdb89984cef708c175fdea24e214645bf"),
    (100, 2, 3, "119c197956304cede89d3d008aa9c8ed57b25f8b5e45b01ff62b15b2a022ca16",
     "7ec7d612e49da791b5f6656d0a869a1fd15fc48df8a0bb54f4d0746d3f8dae11"),
    (100, 3, 3, "90c6ea468f8ee173851ec0d21c253cd3c4f91439776f4642d1313edeff323972",
     "eb03a7f2e4a1ad97689748fc2de682ff722e38d1a9a369a15f196c881393f34f"),
    (100, 4, 3, "b492490e18820ebb4fa03767a51e5ee7f45a6af08018be49b3b8d36e04659bab",
     "a2cc21b95a9a3fd25696bfca72b1d25b3a973ecabe20fb81b86d1f7defe739b6"),
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
