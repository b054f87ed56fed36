"""Compositions (ordered partitions) of an integer, in bitmask order.

The 2**(n-1) compositions of n are indexed by the (n-1)-bit integers: bit j
of the index means "cut after position j+1" of the row 1..n, and the parts
are the gaps between consecutive cuts.  Index 0 is the one-part composition
(n,); the all-ones index is (1,)*n.  The order gives O(1) random access
(decode, encode) and one streaming loop over every index (iter_parts).
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .errors import _Frozen


class Composition(_Frozen):
    """An ordered tuple of positive parts."""

    __match_args__ = ("parts",)

    def __init__(self, parts: Iterable[int]) -> None:
        parts = tuple(parts)
        for part in parts:
            if not isinstance(part, int) or isinstance(part, bool) or part < 1:
                raise ValueError(f"parts must be positive integers, got {parts!r}")
        self.__dict__["parts"] = parts

    @property
    def n(self) -> int:
        """The composed integer: the sum of the parts."""
        return sum(self.parts)

    @property
    def r(self) -> int:
        """The number of parts."""
        return len(self.parts)

    def prefix_sums(self) -> tuple[int, ...]:
        """Running totals N_1, ..., N_r of the parts."""
        sums = []
        total = 0
        for part in self.parts:
            total += part
            sums.append(total)
        return tuple(sums)


def count(n: int) -> int:
    """Number of compositions of n: 2**(n-1) for n >= 1, and 1 for n = 0."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n == 0:
        return 1
    return 1 << (n - 1)


def _parts_at(n: int, index: int) -> tuple[int, ...]:
    parts = []
    previous = 0
    bits = index
    while bits:
        low = bits & -bits
        position = low.bit_length()
        parts.append(position - previous)
        previous = position
        bits ^= low
    parts.append(n - previous)
    return tuple(parts)


def decode(n: int, index: int) -> Composition:
    """The composition of n at the given bitmask index."""
    total = count(n)
    if not 0 <= index < total:
        raise ValueError(f"index must be in [0, {total}), got {index}")
    if n == 0:
        return Composition(())
    return Composition(_parts_at(n, index))


def encode(composition: Composition) -> int:
    """The bitmask index of a composition; inverse of decode."""
    index = 0
    total = 0
    for part in composition.parts[:-1]:
        total += part
        index |= 1 << (total - 1)
    return index


def iter_parts(n: int) -> Iterator[tuple[int, ...]]:
    """Raw part tuples of every composition of n, in bitmask index order.

    No object wrapping or per-item validation, for loops that only need
    the parts.
    """
    if n == 0:
        yield ()
        return
    for index in range(count(n)):
        yield _parts_at(n, index)


def enumerate_compositions(n: int) -> Iterator[Composition]:
    """All compositions of n in bitmask index order, streamed one at a time."""
    return map(Composition, iter_parts(n))
