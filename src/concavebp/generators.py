"""Deterministic instance generators: adversarial families for the
heuristics, plus random families for the benchmark harness."""
from __future__ import annotations

import random
from fractions import Fraction

from .core import Instance

# the parameter names each family takes, required ones first
PARAMS = {
    "sec2_single_large": ("K",),
    "sec2_many_large": ("K",),
    "mh_tight": ("N", "K"),
    "uniform_random": ("n", "denominator"),
    "clustered_random": ("n", "clusters", "denominator"),
    "mixed": ("n", "denominator"),
}
FAMILIES = tuple(PARAMS)


def sec2_single_large(K: int) -> Instance:
    """One item of size 1 - 1/K plus 2K items of size 1/K^2."""
    if K <= 2:
        raise ValueError("K must be > 2")
    sizes = [Fraction(K - 1, K)] + [Fraction(1, K * K)] * (2 * K)
    return Instance.from_values(sizes)


def sec2_many_large(K: int) -> Instance:
    """K items of size 1 - 1/K plus K^2 items of size 1/K^2."""
    if K <= 2:
        raise ValueError("K must be > 2")
    sizes = [Fraction(K - 1, K)] * K + [Fraction(1, K * K)] * (K * K)
    return Instance.from_values(sizes)


def mh_tight(N: int, K: int) -> Instance:
    """N items of size 1/2 + 1/(2K) plus N(K-1) items of size 1/(2K).

    N should be divisible by 4K for the match-and-pack cost to hit its
    closed form exactly.
    """
    if K < 2 or N < 1:
        raise ValueError("need K >= 2 and N >= 1")
    large = [Fraction(1, 2) + Fraction(1, 2 * K)] * N
    small = [Fraction(1, 2 * K)] * (N * (K - 1))
    return Instance.from_values(large + small)


def _from_numerators(numerators: list[int], denominator: int) -> Instance:
    """The instance of sizes k / ``denominator``, one Fraction per distinct k."""
    fraction_of = {k: Fraction(k, denominator) for k in set(numerators)}
    return Instance.from_values(map(fraction_of.__getitem__, numerators))


def uniform_random(n: int, seed: int, denominator: int = 1000) -> Instance:
    """n sizes drawn uniformly from {1/D, ..., D/D}."""
    if n < 0 or denominator < 1:
        raise ValueError("need n >= 0 and denominator >= 1")
    rng = random.Random(seed)
    return _from_numerators([rng.randint(1, denominator) for _ in range(n)], denominator)


def clustered_random(n: int, seed: int, clusters: int = 3, denominator: int = 1000) -> Instance:
    """Sizes jittered around a few random cluster centers."""
    if n < 0 or clusters < 1 or denominator < 1:
        raise ValueError("need n >= 0, clusters >= 1 and denominator >= 1")
    rng = random.Random(seed)
    centers = [rng.randint(1, denominator) for _ in range(clusters)]
    draws = []
    for _ in range(n):
        c = rng.choice(centers)
        jitter = rng.randint(-denominator // 20, denominator // 20)
        draws.append(min(max(c + jitter, 1), denominator))
    return _from_numerators(draws, denominator)


def mixed(n: int, seed: int, denominator: int = 1000) -> Instance:
    """The mixed family: exactly n // 5 sizes from U{0.4D..D}/D, drawn
    first, and the rest from U{1..0.2D}/D, for D = ``denominator`` (bounds
    rounded down).  A fixed share of large items keeps the work per
    instance steady from seed to seed.  D = 1000 is the benchmark's family;
    D = 10**6 makes almost every small size distinct."""
    if n < 0 or denominator < 5:
        raise ValueError("need n >= 0 and denominator >= 5")
    rng = random.Random(seed)
    n_large = n // 5
    lo, hi = 2 * denominator // 5, denominator // 5
    draws = [rng.randint(lo, denominator) for _ in range(n_large)]
    draws += [rng.randint(1, hi) for _ in range(n - n_large)]
    return _from_numerators(draws, denominator)


def generate(family: str, params: dict[str, int], seed: int = 0) -> Instance:
    """Dispatch by family name; ``seed`` only matters for random families.
    A parameter name the family does not take is a ValueError."""
    if family not in PARAMS:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    unknown = [key for key in params if key not in PARAMS[family]]
    if unknown:
        raise ValueError(
            f"family {family!r} takes no parameter {unknown[0]!r}; "
            f"it takes {', '.join(PARAMS[family])}"
        )
    if family == "sec2_single_large":
        return sec2_single_large(params["K"])
    if family == "sec2_many_large":
        return sec2_many_large(params["K"])
    if family == "mh_tight":
        return mh_tight(params["N"], params["K"])
    if family == "uniform_random":
        return uniform_random(params["n"], seed, params.get("denominator", 1000))
    if family == "clustered_random":
        return clustered_random(
            params["n"], seed, params.get("clusters", 3), params.get("denominator", 1000)
        )
    return mixed(params["n"], seed, params.get("denominator", 1000))
