"""One digest over the scheme's output on 368 runs.

The sweep runs the benchmark's two scheme instance sets, rebuilt here from
the generators:

- the windowed set of seeds 1-3 (24 ``generators.mixed`` instances of
  n = 100 per seed) at eps 1/3 and 1/4, with ``h_eps`` = 1/eps, so small
  items are kept and dealt into windows;
- the default-threshold set of seed 1 (30 mixed instances of n = 1500 and
  10 ``uniform_random`` instances of n = 400) at eps 1/3.

Every instance runs under ``fq:3`` and under ``table:0,1,1.6,2.0,2.3,2.5``.
Instance j of group g in seed r has generator seed 1009 r + 101 g + j.

A change meant to keep every packing and every ``Provenance`` bit-identical
must keep ``DIGEST``.  A change that alters them on purpose updates it and
says why.
"""
import hashlib
import json
from fractions import Fraction

from concavebp import run_afptas
from concavebp.generators import generate, mixed
from concavebp.serialize import parse_cost_spec

SPECS = ("fq:3", "table:0,1,1.6,2.0,2.3,2.5")

DIGEST = "a1dd5672b7cfb0f3b6e42d67cc3af9d5ecdb6cfd489facbef265fd4632f5f62b"


def sweep_instances():
    """(label, instance, eps, h_eps) of the 184 sweep instances."""
    for seed in (1, 2, 3):
        for k in (3, 4):
            for j in range(24):
                s = 1009 * seed + j
                yield f"windowed-k{k}-s{s}", mixed(100, s), Fraction(1, k), k
    for j in range(30):
        s = 1009 + j
        yield f"default-mixed-s{s}", mixed(1500, s), Fraction(1, 3), None
    for j in range(10):
        s = 1009 + 101 + j
        yield f"default-uniform-s{s}", generate("uniform_random", {"n": 400}, s), Fraction(1, 3), None


def sweep_digest() -> tuple[str, int]:
    """sha256 over every run's label, bins and ``Provenance``; and the run count."""
    h = hashlib.sha256()
    runs = 0
    for label, inst, eps, h_eps in sweep_instances():
        kwargs = {} if h_eps is None else {"h_eps": h_eps}
        for spec in SPECS:
            res = run_afptas(inst, parse_cost_spec(spec, inst.n), eps, **kwargs)
            record = [label, spec, res.packing.bins, res.provenance.to_dict()]
            h.update(json.dumps(record, sort_keys=True, default=str).encode())
            h.update(b"\n")
            runs += 1
    return h.hexdigest(), runs


def test_sweep_digest():
    digest, runs = sweep_digest()
    assert runs == 368
    assert digest == DIGEST
