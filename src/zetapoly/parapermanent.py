"""Parapermanents of triangular tables of exact scalars.

The factorial product of the entry (i, j) of a lower-triangular table is
the product of the entries from (i, j) rightwards through the diagonal,
prod_{k=j..i} b[i][k].  The parapermanent of an order-n table is the sum
over all compositions (m_1, ..., m_r) of n of the products of the factorial
products at the key entries (N_s, N_{s-1}+1), where N_s are the prefix sums.

Two evaluators are kept and must agree: pper_composition_sums follows the
definition, one depth-first walk over the compositions of every order <= n
that forms and adds each term on its own, and pper_prefixes unrolls the
sum along the last row into an O(n^2)-multiplication recurrence over prefix
parapermanents.  The recurrence is one loop, _last_row, that takes row
i's factorial products fp(i, 1..i) as a sequence: pper_prefixes builds
the rows from fp, pper_by_last_row hands it its factorial-product table,
and a caller whose fp(i, j) depends only on i - j (lpoly's route, defect2's
sign tallies) hands it slices of one sequence.  _last_row and
pper_composition_sums take an optional denominator d(i) for each row's
diagonal entry, which keeps lpoly's prefixes at the size of its
coefficients.  pper_by_compositions needs one order only: its walk forms
the same 2**n - 1 nodes, each from its parent's product, and folds the
same last three levels, but adds only the 2**(n-1) terms of order n.  It
shares pper_composition_sums' child records and nothing with the recurrence.

Entries may be any exact scalar supporting + and * (Fraction, QuadExt, or
similar) that also adds to the int 0 and multiplies with the int 1: every
sum starts from 0 and every product from 1, the order-0 parapermanent.
A rational table (every entry an int or a Fraction) is evaluated in plain
integers, and the rule for that lives here alone: scale_columns multiplies
entry (i, k) by c_k, the lcm of the denominators of column k, once.  A
composition of N uses every column k <= N exactly once, in the factorial
product of the part that covers it, so the product at its keys carries
exactly prod_{k<=N} c_k.  Both evaluators walk the resulting ScaledTable's
integer factorial products, and its read_out divides their sum by
prod_{k<=n} c_k.  A table of any other scalar (QuadExt, or a wrapper that
counts its multiplications) takes the generic path over its own entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from .errors import _Frozen

FactorialProduct = Callable[[int, int], Any]


class TriangularMatrix(_Frozen):
    """A lower-triangular table; row i holds entries (i, 1) .. (i, i)."""

    __match_args__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Any]]) -> None:
        rows = tuple([tuple(row) for row in rows])
        for i, row in enumerate(rows, start=1):
            if len(row) != i:
                raise ValueError(f"row {i} must have {i} entries, got {len(row)}")
        self.__dict__["rows"] = rows

    @property
    def order(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> Any:
        """The entry at 1-based position (i, j) with 1 <= j <= i <= order."""
        if not 1 <= j <= i <= self.order:
            raise ValueError(f"position ({i}, {j}) outside triangle of order {self.order}")
        return self.rows[i - 1][j - 1]


def factorial_product(matrix: TriangularMatrix, i: int, j: int) -> Any:
    """prod_{k=j..i} of the entries (i, k)."""
    if not 1 <= j <= i <= matrix.order:
        raise ValueError(f"position ({i}, {j}) outside triangle of order {matrix.order}")
    row = matrix.rows[i - 1]
    product = row[j - 1]
    for k in range(j, i):
        product = product * row[k]
    return product


def _factorial_product_table(matrix: TriangularMatrix) -> list[list[Any]]:
    # table[i][j] (1-based) via suffix products along each row
    table: list[list[Any]] = [[]]
    for i in range(1, matrix.order + 1):
        row = matrix.rows[i - 1]
        suffix: list[Any] = [None] * (i + 1)
        suffix[i] = row[i - 1]
        for j in range(i - 1, 0, -1):
            suffix[j] = row[j - 1] * suffix[j + 1]
        table.append(suffix)
    return table


def pper_prefixes(n: int, fp: FactorialProduct) -> list[Any]:
    """Parapermanents of all prefix tables of orders 0..n.

    Uses the last-row recurrence pper(n) = sum_s fp(n, s) * pper(s-1) with
    pper(0) = 1; O(n^2) multiplications total.
    """
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    rows = ([fp(i, s) for s in range(1, i + 1)] for i in range(1, n + 1))
    return list(_last_row(rows))


def _last_row(
    rows: Iterable[Sequence[Any]], denominator: Optional[Callable[[int], Any]] = None
) -> Iterator[Any]:
    # the prefixes pper(0) = 1, pper(1), ... for rows 1, 2, ..., row i
    # holding the factorial products fp(i, 1..i): pper(i) = sum_s fp(i, s)
    # * pper(s-1), divided once by denominator(i), row i's diagonal divisor,
    # when given (an int while the division is exact).  Each prefix is
    # yielded as it is found, and row i is taken only when pper(i) is asked
    # for, so lpoly's integer route can stop at its first Fraction.
    prefixes = [1]
    yield 1
    for i, row in enumerate(rows, start=1):
        total = sum(map(mul, row, prefixes))
        if denominator is not None:
            total = _divide(total, denominator(i))
        prefixes.append(total)
        yield total


def _divide(value: Any, divisor: Any) -> Any:
    if isinstance(value, int) and isinstance(divisor, int):
        quotient, remainder = divmod(value, divisor)
        return Fraction(value, divisor) if remainder else quotient
    return value / divisor


def pper_composition_sums(
    n: int, fp: FactorialProduct, denominator: Optional[Callable[[int], Any]] = None
) -> list[Any]:
    """Parapermanents of orders 0..n straight from the definition.

    One walk over every composition of every order <= n: a node is a
    composition of its prefix sum N and carries the product of the factorial
    products at its keys; appending a part m multiplies it by fp(N+m, N+1).
    Each node is one term of order N, so the 2**n - 1 terms cost one
    multiplication each, plus O(n^2) calls to fp.

    Every order's sum starts from the int 0, and the root, whose product is
    the int 1, is popped like any other node.  Only nodes with four or more
    children are pushed; the last three levels are expanded where their
    parent forms them.  A node at prefix n-1 has one node below it, the leaf
    fp(n, n) away, a node at prefix n-2 has three (order n-1, its leaf, and
    order n), and a node at prefix n-3 has seven.  So a popped node forms
    its children of orders n-3, n-2, n-1 and n and the 7, 3 and 1 nodes
    under the first three, 15 in all, and adds each to a running total for
    its order.  Orders below 4 are too short to fold and are walked plainly.

    denominator d(i) divides row i's diagonal entry: the key fp(i, j) / d(i)
    is taken times prod_{k=j..i} d(k), i.e. as fp(i, j) * prod_{k=j..i-1}
    d(k), so every term of order N carries prod_{k<=N} d(k) and each order's
    sum is divided by it once, an int while that division is exact.
    """
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    # keys[N][m-1] = fp(N+m, N+1): the factor for appending part m at prefix N
    keys = [
        [fp(i, prefix + 1) for i in range(prefix + 1, n + 1)] for prefix in range(n + 1)
    ]
    if denominator is None:
        return _walk(n, keys)
    divisors = [denominator(i) for i in range(1, n + 1)]
    for prefix, row in enumerate(keys):
        scale = 1
        for m, i in enumerate(range(prefix + 1, n + 1)):
            row[m] *= scale
            scale *= divisors[i - 1]
    sums = _walk(n, keys)
    scale = 1
    for order in range(1, n + 1):
        scale *= divisors[order - 1]
        sums[order] = _divide(sums[order], scale)
    return sums


def _walk(n: int, keys: list[list[Any]]) -> list[Any]:
    # the sums of orders 0..n over keys[N][m-1], the factor for appending
    # part m at prefix N
    sums = [1] + [0] * n
    stack = [(0, 1)]
    if n < 4:
        # too short to fold: every node is pushed
        while stack:
            prefix, product = stack.pop()
            for order, key in enumerate(keys[prefix], start=prefix + 1):
                term = product * key
                sums[order] += term
                stack.append((order, term))
        return sums
    leaf = keys[n - 1][0]
    inner, outer = keys[n - 2]
    near, mid, far = keys[n - 3]
    children = _child_records(n, keys)
    # the running sums of orders n-3, n-2, n-1 and n
    deep = low = middle = top = 0
    while stack:
        prefix, product = stack.pop()
        pushed, deep_key, low_key, middle_key, top_key = children[prefix]
        for order, key in pushed:
            term = product * key
            sums[order] += term
            stack.append((order, term))
        term = product * deep_key
        child = term * near
        grand = child * inner
        side = term * mid
        deep += term
        low += child
        middle += grand + side
        top += grand * leaf + child * outer + side * leaf + term * far
        term = product * low_key
        child = term * inner
        low += term
        middle += child
        top += child * leaf + term * outer
        term = product * middle_key
        middle += term
        top += term * leaf + product * top_key
    sums[n - 3] = deep
    sums[n - 2] = low
    sums[n - 1] = middle
    sums[n] = top
    return sums


def _child_records(n: int, keys: list[list[Any]]) -> list[Any]:
    # children[N] for N <= n-4: the (order, key) pairs of the children that
    # are pushed, then the keys of the order-(n-3), order-(n-2), order-(n-1)
    # and order-n children
    return [
        (list(enumerate(row[:-4], start=prefix + 1)), row[-4], row[-3], row[-2], row[-1])
        for prefix, row in enumerate(keys[: n - 3])
    ]


def _walk_top(n: int, keys: list[list[Any]]) -> Any:
    # _walk's sum of order n alone: the same nodes, each formed from its
    # parent's product, but only the order-n terms are added
    if n < 4:
        return _walk(n, keys)[n]
    leaf = keys[n - 1][0]
    inner, outer = keys[n - 2]
    near, mid, far = keys[n - 3]
    children = _child_records(n, keys)
    # top adds a node's order-n terms under its children deep (order n-3),
    # low (n-2) and of order n-1, and its own order-n child
    top = 0
    stack = [(0, 1)]
    while stack:
        prefix, product = stack.pop()
        pushed, deep_key, low_key, middle_key, top_key = children[prefix]
        for order, key in pushed:
            stack.append((order, product * key))
        deep = product * deep_key
        child = deep * near
        low = product * low_key
        top += child * inner * leaf + child * outer + deep * mid * leaf + deep * far
        top += low * inner * leaf + low * outer + product * middle_key * leaf
        top += product * top_key
    return top


class ScaledTable(TriangularMatrix):
    """A rational table with entry (i, k) times c_k, and its factorial products.

    Its parapermanent is readout = prod_k c_k times the rational table's.
    """

    __match_args__ = ("rows", "readout")

    def __init__(self, rows: Iterable[Iterable[int]], readout: int) -> None:
        super().__init__(rows)
        self.__dict__["readout"] = readout
        self.__dict__["products"] = _factorial_product_table(self)

    def read_out(self, value: Any) -> Fraction:
        """The rational table's parapermanent from this table's, value."""
        return Fraction(value, self.readout)


def scale_columns(
    matrix: TriangularMatrix, check: Callable[[int], None] = lambda bits: None
) -> Optional[ScaledTable]:
    """The matrix with entry (i, k) times c_k, the lcm of column k's denominators.

    None unless every entry is an int or a Fraction.  With n the bits of the
    largest numerator, the walk over the scaled table forms products of at
    most sum_k bits(c_k) + order * n bits.  check is handed that bound, and
    may raise: first with each column's largest denominator for c_k, a lower
    reading taken before any lcm is formed (those of an order-15 table of
    distinct 14,000-bit denominators take 0.3 s), then exactly, before the
    table is built.
    """
    rows = matrix.rows
    if not all(isinstance(entry, (int, Fraction)) for row in rows for entry in row):
        return None
    numerator_bits = matrix.order * max(
        (abs(entry.numerator).bit_length() for row in rows for entry in row), default=0
    )
    largest = [max(row[k].denominator for row in rows[k:]) for k in range(matrix.order)]
    check(sum(d.bit_length() for d in largest) + numerator_bits)
    scales = [math.lcm(*(row[k].denominator for row in rows[k:])) for k in range(matrix.order)]
    check(sum(c.bit_length() for c in scales) + numerator_bits)
    return ScaledTable(
        [
            [entry.numerator * (c // entry.denominator) for entry, c in zip(row, scales)]
            for row in rows
        ],
        math.prod(scales),
    )


def _evaluate(evaluator: Callable[[list[list[Any]]], Any], matrix: TriangularMatrix) -> Any:
    # a rational table is walked once scaled and its sum read out, a
    # ScaledTable as it stands, and a table of other scalars over its
    # entries; evaluator takes the 1-based factorial-product table
    scaled = matrix if isinstance(matrix, ScaledTable) else scale_columns(matrix)
    if scaled is None:
        return evaluator(_factorial_product_table(matrix))
    value = evaluator(scaled.products)
    return value if scaled is matrix else scaled.read_out(value)


def _by_last_row(table: list[list[Any]]) -> Any:
    *_, value = _last_row(row[1:] for row in table[1:])
    return value


def _by_compositions(table: list[list[Any]]) -> Any:
    order = len(table) - 1
    keys = [[row[prefix + 1] for row in table[prefix + 1 :]] for prefix in range(order + 1)]
    return _walk_top(order, keys)


def pper_by_last_row(matrix: TriangularMatrix) -> Any:
    """Parapermanent of the table by the last-row recurrence."""
    return _evaluate(_by_last_row, matrix)


def pper_by_compositions(matrix: TriangularMatrix) -> Any:
    """Parapermanent of the table by direct composition enumeration.

    One walk over the compositions of every order <= n, each node formed
    from its parent's product (2**n - 1 multiplications), that adds only
    the 2**(n-1) terms of order n.
    """
    return _evaluate(_by_compositions, matrix)
