"""Fractional next-fit-increasing: the optimal fractional packer.

Items are processed from smallest to largest and every bin is filled to a
total size of exactly 1 (the boundary item is split), so the packing it
produces costs no more than any other fractional packing, simultaneously for
every valid concave cost table.  The packers therefore take no cost table.
"""
from __future__ import annotations

from fractions import Fraction

from .core import FractionalPacking, Instance, Packing


def fnfi(inst: Instance) -> FractionalPacking:
    """Pack items smallest-first, filling each bin to exactly total size 1.

    Zero-size items take no space and land in the first bin.  At most two
    split items per bin, at most (bins - 1) split items overall, and bins come
    out sorted by non-increasing fraction count.
    """
    n = inst.n
    bins: list[list[tuple[int, Fraction]]] = []
    if n == 0:
        return FractionalPacking.from_bins(bins, ())
    # sizes, room and the unplaced part of an item are integers over the
    # instance's scale; only split parts need a Fraction of their own
    sizes, scale = inst.int_sizes, inst.scale
    whole = Fraction(1)
    cur: list[tuple[int, Fraction]] = []
    room = scale
    for i in range(n - 1, -1, -1):  # non-decreasing size order
        size = sizes[i]
        left = size
        while left > room:  # size > 0 here, as room > 0
            cur.append((i, Fraction(room, size)))
            left -= room
            bins.append(cur)
            cur = []
            room = scale
        cur.append((i, whole if left == size else Fraction(left, size)))
        room -= left
        if room == 0:
            bins.append(cur)
            cur = []
            room = scale
    if cur:
        bins.append(cur)
    return FractionalPacking.from_bins(bins, range(n))


def split_items(p: FractionalPacking) -> list[int]:
    """Items that have parts in more than one bin."""
    count: dict[int, int] = {}
    for b in p.bins:
        for i, _ in b:
            count[i] = count.get(i, 0) + 1
    return sorted(i for i, c in count.items() if c > 1)


def fnfi_with_split_repair(inst: Instance) -> Packing:
    """Integral packing: fnfi, with every split item moved to its own bin.

    Walks the integer sizes as ``fnfi`` does without building its fractions:
    an item that overflows the open bin is split, so it goes to a bin of its
    own while its parts still take their room, and a bin left empty by the
    move is dropped.  Items are taken in descending index order, so each
    bin is closed as its reversed list: ``Packing``'s normal form without
    a re-sort.
    """
    sizes, scale = inst.int_sizes, inst.scale
    bins: list[tuple[int, ...]] = []
    split: list[int] = []
    cur: list[int] = []
    room = scale
    for i in range(inst.n - 1, -1, -1):  # non-decreasing size order
        left = sizes[i]
        if left > room:
            split.append(i)
            left -= room
            while left > scale:  # a bin holding a part of item i alone
                left -= scale
            if cur:
                bins.append(tuple(reversed(cur)))
                cur = []
            room = scale
        else:
            cur.append(i)
        room -= left
        if room == 0:
            if cur:
                bins.append(tuple(reversed(cur)))
                cur = []
            room = scale
    if cur:
        bins.append(tuple(reversed(cur)))
    bins.extend((i,) for i in reversed(split))  # ascending
    return Packing(tuple(bins), frozenset(range(inst.n)))
