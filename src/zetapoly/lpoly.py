"""L-polynomials of function fields over finite fields, exactly.

The numerator L(t) = sum a_i t^i of the zeta function of a genus-g function
field over F_q is determined by the point counts N_1..N_g of the first g
constant-field extensions.  With S_r = N_r - (q^r + 1), the first half of
the coefficients satisfies the recurrence i*a_i = sum_{j<=i} S_j a_{i-j};
the same numbers arise as parapermanents of an order-i triangular table
whose factorial products are S_{i+1-j}/i, either by the last-row recurrence
or directly as a sum over compositions.  All three evaluators are kept
separate so they can arbitrate each other.  The second half of the
coefficients follows from the functional equation a_{2g-i} = q^{g-i} a_i,
and the class number is h = L(1).

Everything is exact and runs in plain integers.  The recurrence divides by
i at each step and keeps a_i an int while every division is exact (a
Fraction from the first one that is not, where the integer route stops).
The last-row parapermanent takes the factorial products S_{i+1-j} with
row i's diagonal denominator i (_last_row's denominator): every
factorial product of row i carries that one 1/i, so the row's sum is
divided once and prefix i is a_i itself, an int while the division is
exact.  It does the recurrence's arithmetic in parapermanent.py's generic
last-row loop, row i being the slice S_i..S_1, so a fault in either loop
shows as a disagreement.  The composition
route walks the same table with the same row denominators: the walk takes
each key S_{i+1-j}/i times i!/(j-1)!, i.e. S_{i+1-j} (i-1)!/(j-1)!, so the
product at the keys of a composition of N carries N! and each order's sum
is divided by N! once, an int while that division is exact.  The three
routes share only the S-values.  The _exact
functions return Fractions; the integer functions raise ConsistencyError
at the first a_i that is not an integer.

From trace data the S-values are power sums, S_r = -sum_i p_r(t_i), with
p_r = t p_{r-1} - q p_{r-2}; since p_r(-t) = (-1)^r p_r(t), one
recurrence per distinct |t| serves t and -t (_s_values, the one loop
that s_from_traces and the defect2 module read).  The trace oracle
multiplies out prod (1 - t_i x + q x^2) only through x^g, the part the
routes compute; like them it takes the upper half from the functional
equation (complete), which holds for any such product.

The defect2 module sums a defect-2 branch with two of these routes over
q = 2: the parapermanent route over S-values from the paper's per-part
weights, and the recurrence over the power sums of the branch's traces.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator, Mapping, Sequence, Union

from .errors import ConsistencyError, _Frozen, describe
from .parapermanent import TriangularMatrix, _last_row, pper_composition_sums

COMPOSITION_CAP = 30


def _check_q(q: object) -> None:
    if not isinstance(q, int) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")


class SSequence(_Frozen):
    """The numbers S_1..S_g for a field with q elements; g = len(s)."""

    __match_args__ = ("q", "s")

    def __init__(self, q: int, s: Iterable[int]) -> None:
        s = tuple(s)
        _check_q(q)
        # values of type int itself pass in one C-level scan; only another
        # type (an int subclass, a bool, a non-integer) takes the loop
        if not {int}.issuperset(map(type, s)):
            for r, value in enumerate(s, start=1):
                if not isinstance(value, int) or isinstance(value, bool):
                    raise ValueError(f"S_{r} must be an integer, got {value!r}")
        fields = self.__dict__
        fields["q"] = q
        fields["s"] = s

    @property
    def g(self) -> int:
        return len(self.s)

    def weil_violations(self) -> tuple[int, ...]:
        """Indices r where |S_r| exceeds the Weil bound 2g sqrt(q)^r."""
        bound, power, violations = 4 * self.g * self.g, 1, []
        for r, value in enumerate(self.s, start=1):
            power *= self.q
            if value * value > bound * power:
                violations.append(r)
        return tuple(violations)


class TraceData(_Frozen):
    """Reciprocal-root pair traces t_1..t_g, each with t^2 <= 4q."""

    __match_args__ = ("q", "traces")

    def __init__(self, q: int, traces: Iterable[int]) -> None:
        traces = tuple(traces)
        _check_q(q)
        for i, t in enumerate(traces, start=1):
            if not isinstance(t, int) or isinstance(t, bool):
                raise ValueError(f"trace {i} must be an integer, got {t!r}")
            if t * t > 4 * q:
                raise ValueError(f"trace {i} violates t^2 <= 4q: t={t}, q={q}")
        fields = self.__dict__
        fields["q"] = q
        fields["traces"] = traces

    @property
    def g(self) -> int:
        return len(self.traces)


class LPolynomial(_Frozen):
    """Coefficients a_0..a_2g of L(t), validated against the functional equation."""

    __match_args__ = ("q", "coeffs")

    def __init__(self, q: int, coeffs: Iterable[int]) -> None:
        coeffs = tuple(coeffs)
        _check_q(q)
        if len(coeffs) % 2 == 0:
            raise ValueError(f"need 2g + 1 coefficients a_0..a_2g, got {len(coeffs)}")
        g = len(coeffs) // 2
        for i, a in enumerate(coeffs):
            if not isinstance(a, int) or isinstance(a, bool):
                raise ValueError(f"a_{i} must be an integer, got {a!r}")
        if coeffs[0] != 1:
            raise ValueError(f"a_0 must be 1, got {coeffs[0]}")
        # q^(g-i) stepped from i = g-1 down; the lowest broken i is reported
        broken, power = None, 1
        for i in range(g - 1, -1, -1):
            power *= q
            expected = power * coeffs[i]
            actual = coeffs[2 * g - i]
            if actual != expected:
                broken = i, actual, expected
        if broken is not None:
            i, actual, expected = broken
            raise ValueError(
                f"functional equation broken at i={i}: "
                f"a_{2 * g - i}={actual}, q^(g-i)*a_{i}={expected}"
            )
        fields = self.__dict__
        fields["q"] = q
        fields["coeffs"] = coeffs

    @property
    def g(self) -> int:
        return len(self.coeffs) // 2

    def evaluate(self, t: Union[int, Fraction]) -> Union[int, Fraction]:
        value: Union[int, Fraction] = 0
        for a in reversed(self.coeffs):
            value = value * t + a
        return value


def s_from_counts(q: int, counts: Sequence[int]) -> SSequence:
    """S_r = N_r - (q^r + 1) from the point counts N_1..N_g.

    Warns (does not fail) when a value lands outside the Weil bound, since
    arbitrary count vectors need not come from an actual function field.
    """
    _check_q(q)
    counts = list(counts)
    if not counts:
        raise ValueError("need at least one point count")
    for r, n_r in enumerate(counts, start=1):
        if not isinstance(n_r, int) or isinstance(n_r, bool) or n_r < 0:
            raise ValueError(f"N_{r} must be a nonnegative integer, got {n_r!r}")
    s = SSequence(q, tuple(n_r - (q**r + 1) for r, n_r in enumerate(counts, start=1)))
    bad = s.weil_violations()
    if bad:
        warnings.warn(
            f"S_r outside the Weil bound at r={list(bad)}; "
            "the counts cannot all come from a genus-" + str(s.g) + " field",
            stacklevel=2,
        )
    return s


def _pair_power_sum(t: int, q: int, r: int) -> int:
    # p_r = alpha^r + conj(alpha)^r for the root pair with trace t: the
    # two-term linear recurrence p_r = t p_{r-1} - q p_{r-2}
    previous, current = 2, t
    if r == 0:
        return previous
    for _ in range(r - 1):
        previous, current = current, t * current - q * previous
    return current


def n_from_traces(data: TraceData, r: int) -> int:
    """Point count N_r of the degree-r constant-field extension."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return data.q**r + 1 - sum(_pair_power_sum(t, data.q, r) for t in data.traces)


def _s_values(traces: Mapping[int, int], q: int, n: int) -> tuple[int, ...]:
    # S_1..S_n = -sum count * p_r(t) over the distinct traces t and their
    # multiplicities.  p_r(-t) = (-1)^r p_r(t), so t and -t share one
    # power-sum recurrence per distinct |t|, weighted by c_t + c_-t at even
    # r and c_t - c_-t at odd r; t = 0 counts once
    totals = [0] * (n + 1)
    for t in {abs(t) for t in traces}:
        plus, minus = traces.get(t, 0), traces.get(-t, 0) if t else 0
        weights = (plus + minus, plus - minus)
        previous, current = 2, t
        for r in range(1, n + 1):
            totals[r] -= weights[r & 1] * current
            previous, current = current, t * current - q * previous
    return tuple(totals[1:])


def s_from_traces(data: TraceData) -> SSequence:
    """S_1..S_g from trace data: S_r = -sum_i p_r(t_i), once per distinct t_i."""
    return SSequence(data.q, _s_values(Counter(data.traces), data.q, data.g))


def _recurrence(s: SSequence) -> Iterator[Union[int, Fraction]]:
    # i * a_i = S_1 a_(i-1) + ... + S_i a_0; a_i stays an int while every
    # division by i is exact; each a_i is yielded as it is found, so a
    # caller can stop at the first Fraction
    values = s.s
    coeffs: list[Union[int, Fraction]] = [1]
    yield 1
    for i in range(1, s.g + 1):
        total = sum(map(mul, values[:i], reversed(coeffs)))
        quotient, remainder = divmod(total, i)
        coeffs.append(Fraction(total, i) if remainder else quotient)
        yield coeffs[i]


def _parapermanent(s: SSequence) -> Iterator[Union[int, Fraction]]:
    # factorial products S_{i+1-j} with row i over i: the telescoped
    # S_{i+1-j}/i, divided once per row, so prefix i is a_i itself.  Row i
    # is S_i..S_1, one slice; lazy, like _recurrence, so the integer route
    # stops at the first Fraction
    values = s.s
    return _last_row((values[i - 1::-1] for i in range(1, s.g + 1)), lambda i: i)


def _compositions(s: SSequence) -> list[Union[int, Fraction]]:
    # the same table and row denominators, walked: every term of order N
    # carries N!, divided out of the order's sum once
    if s.g > COMPOSITION_CAP:
        raise ValueError(
            f"composition enumeration capped at g <= {COMPOSITION_CAP}, got g={s.g}"
        )
    values = s.s
    return pper_composition_sums(s.g, lambda i, j: values[i - j], lambda i: i)


def _composition_walk_bits(s: SSequence) -> int:
    # the walk takes the keys S_{i+1-j} (i-1)!/(j-1)!, so the product at the
    # keys of a composition of N <= g is at most N! times the parts' S_m:
    # bits(g!) + g * max_m ceil(bits(S_m) / m) bits
    per_unit = max(
        (-(-abs(value).bit_length() // m) for m, value in enumerate(s.s, start=1)), default=0
    )
    return math.factorial(s.g).bit_length() + s.g * per_unit


def coeffs_by_recurrence_exact(s: SSequence) -> list[Fraction]:
    """a_0..a_g as Fractions via i*a_i = sum_{j<=i} S_j a_{i-j}."""
    return [Fraction(value) for value in _recurrence(s)]


def coeffs_by_parapermanent_exact(s: SSequence) -> list[Fraction]:
    """a_0..a_g as Fractions via the last-row parapermanent recurrence."""
    return [Fraction(value) for value in _parapermanent(s)]


def coeffs_by_compositions_exact(s: SSequence) -> list[Fraction]:
    """a_0..a_g as Fractions via full composition sums; g <= COMPOSITION_CAP."""
    return [Fraction(value) for value in _compositions(s)]


def _as_integers(
    values: Iterable[Union[int, Fraction]], s: SSequence, method: str
) -> list[int]:
    integers = []
    for i, value in enumerate(values):
        if not isinstance(value, int):
            raise ConsistencyError(
                f"a_{i} is not an integer ({describe(value)}) for q={s.q}, "
                f"S={describe(list(s.s))} "
                f"[method: {method}]"
            )
        integers.append(value)
    return integers


def coeffs_by_recurrence(s: SSequence) -> list[int]:
    """a_0..a_g via the power-sum recurrence; fails if any a_i is fractional."""
    return _as_integers(_recurrence(s), s, "recurrence")


def coeffs_by_parapermanent(s: SSequence) -> list[int]:
    """a_0..a_g via the last-row parapermanent; fails if fractional."""
    return _as_integers(_parapermanent(s), s, "parapermanent")


def coeffs_by_compositions(s: SSequence) -> list[int]:
    """a_0..a_g via composition sums; fails if fractional; g <= COMPOSITION_CAP."""
    return _as_integers(_compositions(s), s, "compositions")


def literal_matrix(s: SSequence, n: int) -> TriangularMatrix:
    """The order-n triangular table whose parapermanent is a_n.

    Entries are S_{i-j+1}/S_{i-j} off the diagonal and S_1/i on it, so the
    factorial products telescope to S_{i+1-j}/i.  Requires S_1..S_{n-1}
    nonzero; use the telescoped evaluators when they are not.
    """
    if not 0 <= n <= s.g:
        raise ValueError(f"order must be in [0, {s.g}], got {n}")
    for r in range(1, n):
        if s.s[r - 1] == 0:
            raise ValueError(
                f"literal table needs S_1..S_{n - 1} nonzero, but S_{r} = 0"
            )
    rows = []
    for i in range(1, n + 1):
        row = [
            Fraction(s.s[i - j], s.s[i - j - 1]) for j in range(1, i)
        ]
        row.append(Fraction(s.s[0], i))
        rows.append(tuple(row))
    return TriangularMatrix(tuple(rows))


def complete(coeffs: Sequence[int], q: int) -> LPolynomial:
    """Extend a_0..a_g to the full L-polynomial via a_{2g-i} = q^(g-i) a_i."""
    half = list(coeffs)
    upper, power = [], 1
    for a in reversed(half[:-1]):
        power *= q
        upper.append(power * a)
    return LPolynomial(q, half + upper)


def class_number(lpoly: LPolynomial) -> int:
    """The class number h = L(1); positive for any actual function field."""
    h = sum(lpoly.coeffs)
    if h <= 0:
        raise ConsistencyError(
            f"class number must be positive, got L(1) = {describe(h)} for "
            f"coeffs={describe(list(lpoly.coeffs))}"
        )
    return h


def class_number_formula(data: Union[SSequence, TraceData]) -> int:
    """h = 1 + q^g + sum_{i<g} (1 + q^(g-i)) a_i + a_g, from half coefficients.

    Reads the parapermanent route, so it checks L(1) of the recurrence.
    """
    s = s_from_traces(data) if isinstance(data, TraceData) else data
    if s.g < 1:
        raise ValueError("need g >= 1")
    a = coeffs_by_parapermanent(s)
    q, g = s.q, s.g
    return 1 + q**g + sum((1 + q ** (g - i)) * a[i] for i in range(1, g)) + a[g]


def class_number_from_traces(data: TraceData) -> int:
    """h = L(1) = prod (q + 1 - t_i), read straight off the trace data.

    Shares no code with the S-value routes; used to arbitrate them.
    """
    h = 1
    for t in data.traces:
        h *= data.q + 1 - t
    return h


def coeffs_from_traces(data: TraceData) -> LPolynomial:
    """The full L-polynomial from trace data via S-values and the recurrence."""
    return complete(coeffs_by_recurrence(s_from_traces(data)), data.q)


def oracle_expand(data: TraceData) -> LPolynomial:
    """The L-polynomial as the expanded product of (1 - t_i x + q x^2).

    Only a_0..a_g are multiplied out: the upper half of any such product
    obeys the functional equation, so it comes from complete, as it does
    for the S-value routes.  Independent of the S-value routes for the
    a_0..a_g they compute; used to arbitrate them.
    """
    q, g = data.q, data.g
    half = [1] + [0] * g
    for k, t in enumerate(data.traces, start=1):
        # times (1 - t x + q x^2) in place, top down; after k factors the
        # product has degree 2k
        for i in range(min(2 * k, g), 1, -1):
            half[i] += q * half[i - 2] - t * half[i - 1]
        half[1] -= t
    return complete(half, q)
