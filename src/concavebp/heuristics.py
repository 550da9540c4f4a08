"""Cost-oblivious packing heuristics and combinatorial lower bounds.

All heuristics here place items without looking at the cost function, so a
single packing can be priced under any concave bin-cost table afterwards.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction

from .core import Instance, Packing, SizeLike, make_fq, to_size

_PI_MAX_COUNT = 32


def pi_sequence(count: int) -> list[int]:
    """First ``count`` terms of the sequence 2, 3, 7, 43, ... (p' = p(p-1)+1)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if count > _PI_MAX_COUNT:
        raise ValueError(
            f"refusing to expand {count} terms; growth is doubly exponential"
        )
    terms = [2]
    while len(terms) < count:
        p = terms[-1]
        terms.append(p * (p - 1) + 1)
    return terms


_pi_cache = [2]


def _is_pi_minus_one(k: int) -> bool:
    # k is of the form pi_i - 1 for some i (1, 2, 6, 42, 1806, ...)
    while _pi_cache[-1] - 1 < k:
        p = _pi_cache[-1]
        _pi_cache.append(p * (p - 1) + 1)
    return any(p - 1 == k for p in _pi_cache)


def weight(p: SizeLike) -> Fraction:
    """Size-based item weight used in bin-count accounting.

    With k the unique integer such that p is in (1/(k+1), 1/k]: returns 1/k
    when k+1 is a term of the pi sequence, otherwise ((k+1)/k) * p.
    """
    p = to_size(p)
    if p < 0 or p > 1:
        raise ValueError("weight argument must be in [0, 1]")
    if p == 0:
        return Fraction(0)
    k = (1 / p).__floor__()
    if _is_pi_minus_one(k):
        return Fraction(1, k)
    return Fraction(k + 1, k) * p


def _ordered_indices(inst: Instance, order: str) -> list[int]:
    # Stored order is non-increasing; equal sizes keep lowest index first, so
    # reversing treats the lowest index as the larger item.
    if order == "decreasing":
        return list(range(inst.n))
    if order == "increasing":
        return list(range(inst.n - 1, -1, -1))
    raise ValueError(f"unknown order {order!r}")


def next_fit(inst: Instance, order: str = "increasing") -> Packing:
    """Next-fit: keep a single open bin, close it when an item does not fit."""
    sizes, cap = inst.int_sizes, inst.scale
    bins: list[list[int]] = []
    load = cap + 1  # force a fresh bin on the first item
    for i in _ordered_indices(inst, order):
        s = sizes[i]
        if load + s <= cap:
            bins[-1].append(i)
            load += s
        else:
            bins.append([i])
            load = s
    return Packing.from_bins(bins, range(inst.n))


def first_fit(inst: Instance, order: str = "increasing") -> Packing:
    """First-fit: place each item in the lowest-indexed bin it fits in.

    A max tree over the bins' residual capacities finds that bin in
    O(log n), so the whole packing takes O(n log n).
    """
    sizes, cap = inst.int_sizes, inst.scale
    leaves = 1 << max(inst.n - 1, 0).bit_length()
    # residual capacity per bin; -1 marks a bin not opened yet, so that even a
    # size-0 item only lands in an open bin
    tree = [-1] * (2 * leaves)
    bins: list[list[int]] = []
    for i in _ordered_indices(inst, order):
        s = sizes[i]
        if tree[1] >= s:
            node = 1
            while node < leaves:
                node *= 2
                if tree[node] < s:
                    node += 1
            bins[node - leaves].append(i)
            tree[node] -= s
        else:
            node = leaves + len(bins)
            bins.append([i])
            tree[node] = cap - s
        node //= 2
        while node:
            left, right = tree[2 * node], tree[2 * node + 1]
            top = left if left > right else right
            if tree[node] == top:
                break
            tree[node] = top
            node //= 2
    return Packing.from_bins(bins, range(inst.n))


def best_fit(inst: Instance, order: str = "increasing") -> Packing:
    """Best-fit: place each item in a fullest bin that still has room; among
    equally full bins, the lowest-indexed one.

    The open bins are kept sorted by (residual capacity, index), so a bisect
    finds that bin with O(log n) comparisons.
    """
    sizes, cap = inst.int_sizes, inst.scale
    bins: list[list[int]] = []
    open_: list[tuple[int, int]] = []
    for i in _ordered_indices(inst, order):
        s = sizes[i]
        k = bisect_left(open_, (s, -1))
        if k < len(open_):
            residual, b = open_.pop(k)
            bins[b].append(i)
        else:
            residual, b = cap, len(bins)
            bins.append([i])
        insort(open_, (residual - s, b))
    return Packing.from_bins(bins, range(inst.n))


def nfi(inst: Instance) -> Packing:
    return next_fit(inst, "increasing")


def nfd(inst: Instance) -> Packing:
    return next_fit(inst, "decreasing")


def greedy_half_matching(inst: Instance) -> list[tuple[int, int]]:
    """Greedy maximum-weight matching between the smallest half of the
    above-1/2 items and the small items.

    Both queues run largest-first on the small side and smallest-first on the
    large side; an unmatched head small item fits no remaining large item and
    is dropped.  Returns (large index, small index) pairs.
    """
    n = inst.n
    sizes, cap = inst.int_sizes, inst.scale
    t = sum(1 for s in sizes if 2 * s > cap)
    m0 = list(range(t - (t + 1) // 2, t))
    smalls = list(range(t, n))
    pairs: list[tuple[int, int]] = []
    qi = len(m0) - 1  # head = smallest item of m0 (highest index)
    qj = 0  # head = largest small item (lowest index)
    while qi >= 0 and qj < len(smalls):
        i, j = m0[qi], smalls[qj]
        if sizes[i] + sizes[j] <= cap:
            pairs.append((i, j))
            qi -= 1
            qj += 1
        else:
            qj += 1
    return pairs


def match_half(inst: Instance) -> Packing:
    """Pre-match up to half of the items larger than 1/2 with one small item
    each, then pack the rest with next-fit increasing."""
    n = inst.n
    pairs = greedy_half_matching(inst)
    matched = {i for pair in pairs for i in pair}
    rest_index = [i for i in range(n) if i not in matched]
    sub = inst.subset(rest_index)  # positional: rest_index maps its items back
    sub_packing = next_fit(sub, "increasing")
    bins = [list(p) for p in pairs]
    bins += [[rest_index[i] for i in b] for b in sub_packing.bins]
    return Packing.from_bins(bins, range(n))


@dataclass(frozen=True)
class OverflowedPartition:
    """Consecutive partition whose closed bins all exceed capacity.

    Not a feasible packing (``feasible`` is always False); used only to price
    lower bounds.
    """

    bins: tuple[tuple[int, ...], ...]
    feasible: bool = False


def overflowed_packing(inst: Instance) -> OverflowedPartition:
    """Partition items (smallest first) into minimal prefixes of total > 1.

    The last bin holds whatever remains and may be feasible.
    """
    sizes, cap = inst.int_sizes, inst.scale
    bins: list[tuple[int, ...]] = []
    cur: list[int] = []
    load = 0
    for i in range(inst.n - 1, -1, -1):  # non-decreasing size order
        cur.append(i)
        load += sizes[i]
        if load > cap:
            bins.append(tuple(cur))
            cur = []
            load = 0
    if cur:
        bins.append(tuple(cur))
    return OverflowedPartition(tuple(bins))


def lower_bound_fk(inst: Instance, k: int) -> float:
    """Lower bound on the optimum under the capped-linear cost with cap k:
    the cost of the overflowed partition."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if inst.n == 0:
        return 0.0
    f = make_fq(k, inst.n)
    part = overflowed_packing(inst)
    return sum(f.value(len(b)) for b in part.bins)
