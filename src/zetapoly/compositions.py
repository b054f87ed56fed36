"""Compositions (ordered partitions) of an integer, in bitmask order.

The 2**(n-1) compositions of n are indexed by the (n-1)-bit integers: bit j
of the index means "cut after position j+1" of the row 1..n, and the parts
are the gaps between consecutive cuts.  Index 0 is the one-part composition
(n,); the all-ones index is (1,)*n.  The order gives O(1) random access and
lets any index range [lo, hi) be walked independently of the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence


@dataclass(frozen=True)
class Composition:
    """An ordered tuple of positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "parts", tuple(self.parts))
        for part in self.parts:
            if not isinstance(part, int) or isinstance(part, bool) or part < 1:
                raise ValueError(f"parts must be positive integers, got {self.parts!r}")

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

    def to_key_tuple(self) -> tuple[tuple[int, int], ...]:
        """Index pairs (N_s, N_{s-1}+1) addressing one entry per part.

        These are the positions whose factorial products a triangular-table
        composition sum multiplies together, one per part.
        """
        pairs = []
        previous = 0
        for part in self.parts:
            current = previous + part
            pairs.append((current, previous + 1))
            previous = current
        return tuple(pairs)


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


def enumerate_compositions(n: int) -> Iterator[Composition]:
    """All compositions of n in bitmask index order, streamed one at a time."""
    total = count(n)
    if n == 0:
        yield Composition(())
        return
    for index in range(total):
        yield Composition(_parts_at(n, index))


def iter_index_range(n: int, lo: int, hi: int) -> Iterator[Composition]:
    """Compositions of n with bitmask indices in [lo, hi), streamed."""
    total = count(n)
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"range [{lo}, {hi}) not within [0, {total})")
    if n == 0:
        if lo == 0 and hi == 1:
            yield Composition(())
        return
    for index in range(lo, hi):
        yield Composition(_parts_at(n, index))


def parts_in_range(n: int, lo: int, hi: int) -> Iterator[Sequence[int]]:
    """Raw part tuples for indices in [lo, hi); no object wrapping.

    Hot loops that only need the parts use this to skip per-item validation.
    """
    total = count(n)
    if not 0 <= lo <= hi <= total:
        raise ValueError(f"range [{lo}, {hi}) not within [0, {total})")
    if n == 0:
        if lo == 0 and hi == 1:
            yield ()
        return
    for index in range(lo, hi):
        yield _parts_at(n, index)
