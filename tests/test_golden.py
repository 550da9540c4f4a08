"""Golden digests of the scheme's bins on fixed instances.

A change meant to leave every packing bit-identical (a speed-up, a
refactor) must keep these digests, of the bins and of the provenance record.
A change that alters the packing on purpose updates them and says why.

The instances come from ``generators.mixed``, the benchmark's mixed
family: exactly n // 5 sizes from U{400..1000}/1000 and the rest from
U{1..200}/1000.  The n = 100 runs force ``h_eps = 3``, so the windowed
program is solved and rounded with small items; the n = 400 runs take the
default threshold.  At eps 1/3 every window
size (3/4)**t is dyadic, so ``GOLDEN_QUARTER`` adds windowed runs at eps
1/4, whose sizes (4/5)**t are not: a change in how a size rounds to a float
shows there.
"""
import hashlib
import json
from fractions import Fraction
from functools import lru_cache

import pytest

from concavebp import afptas, lp, make_fq, run_afptas
from concavebp.generators import mixed
from concavebp.serialize import parse_cost_spec


# n = 100 costs 59, 59, 55, 51: column generation starts from the seed basis
GOLDEN = [
    (100, 1, 3, "c1b04e4642405288525223d9bd844ad9f547276f4ff04f88d0a8291a369b29e4",
     "06e80f0da3fdd7213dde877b2a7ade02b4770ef7463bfa277454e94669bfbdf7"),
    (100, 2, 3, "d6eb84b0ac3ebc9050c89b6faeae981852a5b33c5cf67e02190f50ec5d29f6ce",
     "d0532f65a5a4206e016f4a8f110ee22646ab47c8c2b5ce577bae37d648676a0f"),
    (100, 3, 3, "37009ceb41a39b667b34d9b6c945fc0a18755eb1df170118eda1e97556bc3849",
     "c08c7eb74a103a0f18f5d53b0ae9f62f63f4eadf50d372f9cf6d3d0c7aa402ee"),
    (100, 4, 3, "b157b5deefca99b79405c2372761d9c315b012a6e021e2559b844a19aa2cf85b",
     "61115feea73c783eeb9e5baf47a324feaee9d17faf4898739b4bcb36c31d0d67"),
    (400, 1, None, "58a13e1e5f58c4eb6478e9264a7e6b6a4a47af3d01f92aa1cbab5d9c29566ffb",
     "2da76826ea4481251af9d63959c3b653e18b54e8f928f68c7e7b6e57d678945e"),
    (400, 2, None, "afcc9e42e1459e3e74cc220eb21bb5cbee3b5678c9ba31a8fe06381cb81f8fb0",
     "eb98bcc606ad020e40c9d7ae0a1cc225a32b4eedc73fe80813185a2813ce86dc"),
]


IDS = [f"n{n}-seed{seed}" for n, seed, *_ in GOLDEN]

TABLE = "table:0,1,1.6,2.0,2.3,2.5"

# eps 1/4, h_eps 4, n = 100: (seed, cost spec, bins digest, provenance digest);
# costs 54, 48, 58, 50.7
GOLDEN_QUARTER = [
    (1, "fq:3", "ec28a6463dad17f332232891d0c0be84b3edac5cacf5d7c18db77e85d4cae92d",
     "69c2fe5fc1c8755aeba1713a4c80b277db40e30759d542e17e45df9c06fd6ada"),
    (1, TABLE, "5853ebac9db69d425b5ece6c0abaf134acaf315e752992118a081f6ece086eb0",
     "36690ce9fd4a986c47b66cbd8798d8515cbfb1396cbd18f8b0c954c6385bf25f"),
    (2, "fq:3", "7bb60ffdb8874cca82840e0852ddff33c8a68fc948d46923ba0080eb7e76a5b7",
     "b59476c7038e6db31c7fd25115fa44a4a480b7aecaa8b86bc295049685c5321a"),
    (2, TABLE, "40df4bb1060314df81238f8377d8f0cf00ca4d440967f97264d149a411d05716",
     "80b026087f625a6286f6652792ccc107556f6284a3ebabf50fa269d4e0fc037f"),
]

QUARTER_IDS = [f"seed{seed}-{spec.split(':')[0]}" for seed, spec, *_ in GOLDEN_QUARTER]


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


WINDOWED = [(n, seed, h_eps) for n, seed, h_eps, *_ in GOLDEN if h_eps is not None]


@pytest.mark.parametrize("n,seed,h_eps", WINDOWED, ids=[f"n{n}-seed{s}" for n, s, _ in WINDOWED])
def test_seed_basis_takes_no_pivot(n, seed, h_eps, monkeypatch):
    # the seed basis prices out every assignment column, so on these masters
    # it is already optimal: its closed-form vertex is certified and column
    # generation never pivots
    infos = []
    plain = afptas.column_generation

    def recording(model, *args, **kwargs):
        sol, info = plain(model, *args, **kwargs)
        infos.append(info)
        return sol, info

    monkeypatch.setattr(afptas, "column_generation", recording)
    run_afptas(mixed(n, seed), make_fq(3, n), Fraction(1, 3), h_eps=h_eps)
    assert [(info.pivots, info.seed_certified) for info in infos] == [(0, True)]


@lru_cache(maxsize=None)
def quarter_run(seed: int, spec: str):
    return run_afptas(mixed(100, seed), parse_cost_spec(spec, 100), Fraction(1, 4), h_eps=4)


@pytest.mark.parametrize("seed,spec,digest,_prov", GOLDEN_QUARTER, ids=QUARTER_IDS)
def test_quarter_bins_match_golden_digest(seed, spec, digest, _prov):
    res = quarter_run(seed, spec)
    assert res.provenance.removed_bins > 0  # small items were dealt into windows
    assert sha256(json.dumps(res.packing.bins)) == digest


@pytest.mark.parametrize("seed,spec,_bins,digest", GOLDEN_QUARTER, ids=QUARTER_IDS)
def test_quarter_provenance_matches_golden_digest(seed, spec, _bins, digest):
    prov = quarter_run(seed, spec).provenance.to_dict()
    assert sha256(json.dumps(prov, sort_keys=True, default=str)) == digest


# one digest per windowed run over every LpModel.arrays() result, in call
# order: the bytes of c, A and b, then repr(cols).  They pin the master
# programs themselves, row and column order included, not only what the
# scheme makes of them
MASTER_DIGESTS = {
    "n100-seed1":
        "ae97a6d9b245914148cb3d5878ec62f1f45340ad71736d25457b4203fada0d5c",
    "n100-seed2":
        "9bfff3eb3bb281753af1caa62b6428e4df96f7778a9f6e8072b1cb4a1f24e41b",
    "n100-seed3":
        "e69f12c0161cb8647e7aa7a4b9be425f89ee4517b0be5e314c6b5dc7106d9967",
    "n100-seed4":
        "70a6377a819a3c4e64b03ea615f56ce9343eb4a2c8395c90a44c90de77d9733b",
    "seed1-fq":
        "c854601a4a314794d66076690a5ad8a8af5628ba46d8f91a39cfa7bc5b49326c",
    "seed1-table":
        "e9bee81717fbf4e6dbe67e9d15a838e0d922724c24265fa23c8d7c0a4fd7805f",
    "seed2-fq":
        "df4d837b6b7de56b1181963d3fb4dbee957d42e161207dcf0c9aed34c94dc5bd",
    "seed2-table":
        "0f32b3d26471a602d28412a839078be663195e6afa7f9a66d9be48d335de8742",
}

MASTER_RUNS = [
    (f"n{n}-seed{seed}", mixed(n, seed), "fq:3", Fraction(1, 3), h_eps)
    for n, seed, h_eps in WINDOWED
] + [
    (run_id, mixed(100, seed), spec, Fraction(1, 4), 4)
    for run_id, (seed, spec, *_) in zip(QUARTER_IDS, GOLDEN_QUARTER)
]


@pytest.mark.parametrize(
    "run_id,inst,spec,eps,h_eps", MASTER_RUNS, ids=[run[0] for run in MASTER_RUNS]
)
def test_master_programs_match_golden_digest(run_id, inst, spec, eps, h_eps, monkeypatch):
    digest = hashlib.sha256()
    plain = lp.LpModel.arrays

    def recording(self, window_filter=None):
        out = plain(self, window_filter)
        c, A, b, cols = out[:4]
        for arr in (c, A, b):
            digest.update(arr.tobytes())
        digest.update(repr(cols).encode())
        return out

    monkeypatch.setattr(lp.LpModel, "arrays", recording)
    run_afptas(inst, parse_cost_spec(spec, inst.n), eps, h_eps=h_eps)
    assert digest.hexdigest() == MASTER_DIGESTS[run_id]
