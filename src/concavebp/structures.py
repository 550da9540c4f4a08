"""Structures for the approximation scheme: size rounding, the breakpoint
staircase of the cost table, windows, and bin configurations.  Sizes are
integers over the scheme's one denominator, ``Instance.scale``.

``Window``, ``Configuration`` and ``GeneralizedConfiguration`` key the
master program, so they are named tuples: hash, equality and order are the
tuple's, computed in C.  Within one window grid, a window's size and count
bound are fixed by (t, a), and a configuration's total size and item count
by its counts, so every comparison the scheme makes reads as one on (t, a)
and on (counts, p, t, a)."""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice
from operator import ge, neg
from typing import NamedTuple

from .core import CostFunction, Instance
from .errors import SolverLimitError


# most configurations one enumeration may produce before it gives up
DEFAULT_CONFIG_BUDGET = 200_000


def check_eps(eps: Fraction) -> int:
    """The scheme accepts accuracies 1/k for integer k >= 3; returns k."""
    eps = Fraction(eps)
    if eps.numerator != 1 or eps.denominator < 3:
        raise ValueError("eps must be 1/k for an integer k >= 3")
    return eps.denominator


@dataclass(frozen=True)
class GroupingResult:
    """Outcome of size rounding on the large items (indices into the instance).

    ``l1`` is the class of largest items, packed one per bin and never
    rounded.  Every other large item is rounded up to the maximum of its
    class; the distinct rounded sizes are the size types, ``sizes``
    (descending, integers over ``Instance.scale``) with ``demands`` items
    each.  The instance is sorted, so type j is the next ``demands[j]`` item
    indices after ``l1``.  ``classes`` lists the groups largest-first.
    """

    large: tuple[int, ...]
    l1: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]
    demands: tuple[int, ...]

    @property
    def l_rest(self) -> tuple[int, ...]:
        return self.large[len(self.l1) :]


def linear_grouping(inst: Instance, eps: Fraction) -> GroupingResult:
    """Group the items of size >= eps into 1/eps^3 classes and round each
    class (except the first) up to its maximum size.

    Below 1/eps^3 large items, every item forms its own class and no rounding
    happens.  The sizes must be non-increasing, as ``Instance.from_values``
    sorts them.
    """
    k = check_eps(eps)
    ints = inst.int_sizes
    if not all(map(ge, ints, islice(ints, 1, None))):
        raise ValueError("instance sizes must be non-increasing; use Instance.from_values")
    # s >= 1/k means s >= ceil(scale / k): a prefix of the sorted sizes
    threshold = -(-inst.scale // k)
    large = tuple(range(bisect_right(ints, -threshold, key=neg)))
    m = k**3
    if len(large) < m:
        l1, classes = (), tuple((i,) for i in large)
    else:
        base, extra = divmod(len(large), m)
        # first `extra` classes get the larger size; class sizes are non-increasing
        grouped: list[tuple[int, ...]] = []
        pos = 0
        for j in range(m):
            width = base + (1 if j < extra else 0)
            grouped.append(large[pos : pos + width])
            pos += width
        l1, classes = grouped[0], tuple(grouped)
    # every class but l1 rounds to its first (largest) item; classes with the
    # same maximum share a type
    demand: dict[int, int] = {}
    for cls in classes[len(l1) > 0 :]:
        top = ints[cls[0]]
        demand[top] = demand.get(top, 0) + len(cls)
    return GroupingResult(large, l1, classes, tuple(demand), tuple(demand.values()))


@dataclass(frozen=True)
class SmallSplit:
    """Partition of the small items into the LP part and the tail packed apart.

    ``tail`` is the maximal suffix of smallest items whose total size stays
    at most 1 + h_eps; ``kept`` are the remaining (larger) small items.
    """

    kept: tuple[int, ...]
    tail: tuple[int, ...]
    h_eps: int


def split_small(inst: Instance, eps: Fraction, h_eps: int, small: tuple[int, ...]) -> SmallSplit:
    """Split ``small`` (indices sorted by non-increasing size) at the maximal
    suffix of total size <= 1 + h_eps."""
    k = check_eps(eps)
    if h_eps < k or h_eps != int(h_eps):
        raise ValueError("h_eps must be an integer >= 1/eps")
    h_eps = int(h_eps)  # a float h_eps would make the integer bound inexact
    sizes = inst.int_sizes
    bound = (1 + h_eps) * inst.scale
    total = 0
    cut = 0  # number of suffix items taken
    for pos in range(len(small) - 1, -1, -1):
        total += sizes[small[pos]]
        if total > bound:
            break
        cut += 1
    tail = small[len(small) - cut :]
    kept = small[: len(small) - cut]
    return SmallSplit(kept, tail, h_eps)


@dataclass(frozen=True)
class Staircase:
    """Breakpoints 0 = k_0 < ... < k_len = n with slowly growing cost.

    The first 1/eps breakpoints are 0, 1, ..., 1/eps; afterwards each
    breakpoint is the largest integer whose cost is within a (1 + eps)
    factor of the previous one.
    """

    ks: tuple[int, ...]
    f_at: tuple[float, ...]

    @property
    def ell(self) -> int:
        return len(self.ks) - 1


def build_staircase(f: CostFunction, eps: Fraction, n: int) -> Staircase:
    k = check_eps(eps)
    if n < 1:
        raise ValueError("n must be >= 1")
    vals = f.values
    last = len(vals) - 1  # f(q) = vals[min(q, last)]: flat beyond the table
    # a final run of entries equal to the last one is flat too: find it with
    # tuple methods, in C, and walk the table only up to its start
    first = vals.index(vals[last])
    if vals.count(vals[last]) == len(vals) - first:
        last = first
    stop = min(n, last)
    ks = list(range(min(n, k) + 1))
    grow = 1.0 + 1.0 / k
    while ks[-1] < n:
        cur = ks[-1]
        bound = grow * vals[min(cur, last)] + 1e-12
        # cur + 1 always qualifies (concavity); extend as far as possible
        t = cur + 1
        while t < stop and vals[t + 1] <= bound:
            t += 1
        if last <= t < n and vals[last] <= bound:
            t = n  # every later value is vals[last]
        ks.append(t)
    return Staircase(tuple(ks), tuple(vals[min(q, last)] for q in ks))


class Window(NamedTuple):
    """Reserved room for small items in a bin: a size bound that is a power
    of 1/(1+eps), and a count bound that is a staircase breakpoint.  A plain
    tuple (t, a, w, kappa): equality, order and hash are the tuple's, in C.
    On one grid the size w and the count bound kappa are fixed by (t, a), so
    two windows of a grid are equal exactly when their (t, a) are, and sort
    by (t, a)."""

    t: int  # size = (1+eps) ** -t
    a: int  # count bound = staircase ks[a]
    w: float  # k**t / (k+1)**t, rounded once
    kappa: int

    def dominates(self, other: "Window") -> bool:
        # on one grid, the size falls as t grows and the count grows with a
        return self.t <= other.t and self.a >= other.a


def power_index(k: int, size: int, scale: int) -> int:
    """Smallest t with (k/(k+1))**t <= size/scale: the grid index of the
    largest window size at most ``size``, for 0 < size <= scale.  The test
    reads k**t * scale <= size * (k+1)**t, in integers."""
    if not 0 < size <= scale:
        raise ValueError("size must be in (0, 1]")
    t, lhs, rhs = 0, scale, size
    while lhs > rhs:
        lhs *= k
        rhs *= k + 1
        t += 1
    return t


def build_windows(eps: Fraction, t_max: int, staircase: Staircase) -> list[Window]:
    """Full grid of windows, t = 0..t_max and a = 0..ell; t_max is one past
    the power index of the smallest kept small item (1 when none is kept)."""
    k = check_eps(eps)
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    return [
        Window(t, a, w, staircase.ks[a])
        for t, w in enumerate(_powers(k, t_max))
        for a in range(staircase.ell + 1)
    ]


class Configuration(NamedTuple):
    """Multiset of rounded large sizes fitting one bin; counts align with the
    (descending) size list of the enumeration, and fix the other fields, so
    configurations over one size list are equal and ordered as their
    counts."""

    counts: tuple[int, ...]
    total_size: int  # over Instance.scale
    n_items: int


class GeneralizedConfiguration(NamedTuple):
    """A column of the master: a configuration, the staircase index p of the
    cost level it pays, f(ks[p]), and its window.  A tuple; within one
    model's grid, equal, ordered and hashed as (counts, p, t, a)."""

    config: Configuration
    p: int
    window: Window


@lru_cache(maxsize=64)
def _powers(k: int, t_max: int) -> tuple[float, ...]:
    """The window sizes (k/(k+1))**t for t = 0..t_max; int / int rounds once,
    exactly as float(Fraction(k**t, (k+1)**t)) does."""
    return tuple(k**t / (k + 1) ** t for t in range(max(t_max, 0) + 1))


@lru_cache(maxsize=64)
def scaled_powers(k: int, t_max: int, scale: int) -> tuple[int, ...]:
    """floor(scale * (k/(k+1))**t) for t = 0..t_max.  A window size is at
    least m/scale, for an integer m, exactly when its entry is at least m."""
    return tuple(scale * k**t // (k + 1) ** t for t in range(max(t_max, 0) + 1))


def _size_index(total: int, floors: tuple[int, ...]) -> int:
    """Largest t with floors[t] >= floors[0] - total, on the floors of
    ``scaled_powers`` (floors[0] is the scale): the power of the smallest
    window that covers the free space beside a total of ``total``."""
    # floors descend, so their negations ascend
    return bisect_right(floors, total - floors[0], key=neg) - 1


def _window(t: int, need: int, powers: tuple[float, ...], ks: tuple[int, ...]) -> Window:
    """Window of power t whose count bound is the smallest breakpoint at
    least ``need``."""
    a = bisect_left(ks, need)
    return Window(t, a, powers[t], ks[a])


def main_window(
    config: Configuration,
    p: int,
    eps: Fraction,
    t_max: int,
    staircase: Staircase,
    scale: int,
) -> Window:
    """Canonical window of the configuration at cost level p.

    Size part: the smallest grid power of 1/(1+eps) that still covers the
    free space left by the configuration: the largest t with
    floor(scale * (k/(k+1))**t) >= scale - total.  Count part: the smallest
    breakpoint at least ks[p] minus the number of large items.
    """
    k, ks = eps.denominator, staircase.ks
    t = _size_index(config.total_size, scaled_powers(k, t_max, scale))
    return _window(t, ks[p] - config.n_items, _powers(k, t_max), ks)


def main_windows(
    configs: list[Configuration],
    p_max: int,
    eps: Fraction,
    t_max: int,
    staircase: Staircase,
    scale: int,
) -> set[Window]:
    """Main windows of every (cfg, p) with 1 <= p <= p_max and
    cfg.n_items <= ks[p], through main_window's two lookups: the power t
    once per distinct (total size, item count), the only fields a main
    window reads, and the window once per (t, count need)."""
    k, ks = eps.denominator, staircase.ks
    floors, powers = scaled_powers(k, t_max, scale), _powers(k, t_max)
    by_key: dict[tuple[int, int], Window] = {}
    for total, n_items in dict.fromkeys((cfg.total_size, cfg.n_items) for cfg in configs):
        t = _size_index(total, floors)
        for p in range(1, p_max + 1):
            need = ks[p] - n_items
            if need >= 0 and (t, need) not in by_key:
                by_key[t, need] = _window(t, need, powers, ks)
    return set(by_key.values())


def enumerate_configurations(
    sizes: list[int],
    multiplicity: list[int],
    max_items: int,
    capacity: int,
    budget: int = DEFAULT_CONFIG_BUDGET,
) -> list[Configuration]:
    """All multisets over the given integer sizes with total size at most
    ``capacity`` and at most ``max_items`` items, respecting multiplicities.
    Sizes must be positive.  Configurations come in depth-first order: the
    count of the first size varies slowest, each count ascending.

    Raises SolverLimitError when the enumeration exceeds ``budget``.
    """
    out: list[Configuration] = []
    m = len(sizes)
    # smallest size at or after each position, to cut dead branches early
    min_suffix = list(accumulate(reversed(sizes), min))[::-1]
    # the search path: counts[j] of sizes[j] taken out of at most tops[j],
    # leaving rooms[j + 1] and lefts[j + 1] to the sizes after j
    counts = [0] * m
    tops = [0] * m
    rooms = [capacity] + [0] * m
    lefts = [max_items] + [0] * m
    idx = 0
    while True:
        if len(out) > budget:
            raise SolverLimitError("configuration enumeration budget exceeded")
        room, left = rooms[idx], lefts[idx]
        if idx < m and left and room >= min_suffix[idx]:
            tops[idx] = min(multiplicity[idx], left, room // sizes[idx])
            rooms[idx + 1], lefts[idx + 1] = room, left  # take none first
            idx += 1
            continue
        out.append(Configuration(tuple(counts), capacity - room, max_items - left))
        # back up to the deepest size that can take one more
        idx -= 1
        while idx >= 0 and counts[idx] == tops[idx]:
            counts[idx] = 0
            idx -= 1
        if idx < 0:
            return out
        counts[idx] += 1
        rooms[idx + 1] -= sizes[idx]
        lefts[idx + 1] -= 1
        idx += 1
