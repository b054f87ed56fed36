"""Coefficient analysis for defect-2 function fields over F_2.

For a genus-g defect-2 field over F_2 whose reciprocal roots are integral,
the trace vector collapses to g-1 copies of +2 or of -2 plus a single 0;
the two branches are labelled by the angle theta in {pi/4, 3pi/4} of the
repeated root pair sqrt(2)e^(i*theta).  Each coefficient a_n (n <= g) is a
sum over the compositions (m_1, ..., m_r) of n of

    CR_theta(m) = (-1)^r * 2^r * 2^(n/2) * prod_s C_theta(m_s) / N_s

where N_s are the prefix sums and the weight C_theta(m) depends only on
m mod 8 (and g).  For odd m the weight is a rational multiple of sqrt(2),
for even m it is an integer, and a composition of n has as many odd parts
as n has parity, so every term is rational.  This module evaluates the sum
three ways: exact Q(sqrt 2) term-by-term (cr_theta), an integer core
(a_n_theta), and a length-n linear recurrence with integer weights
(a_n_theta_recurrence, the lpoly S-value recurrence over q = 2 with the
weights as S-values).  All three read the weights from c_theta; the
integer core checks the weight shape in _cnum_table.  A fourth route reads
neither c_theta nor the pass: the branch's trace product in closed form,
[t^n] (1 -+ 2t + 2t^2)^(g-1) (1 + 2t^2), a binomial sum of O(n^2) steps
that stands in for the trace-data L-polynomial in verify_symmetry and
analyze.

The integer core sums one branch's child table by prefix sum.  A
composition of N carries the integer N! * CR_theta, and appending a part m
multiplies it by a factor that depends only on N and m, never on the parts
before.  So the compositions of N are never listed one by one: a forward
pass over N = 0..max_n-1 carries their sum s[N] = N! * a_N and their sign
tallies (P+, P-) into every N + m, in O(max_n^2) integer steps for every
n <= max_n at once.  A term is the product of its parts' factors, so the
tables decide both claims about terms: the parity-class sign rule holds for
every term when it holds for every part, and the branches agree termwise,
v_pi/4 == (-1)^N v_3pi/4, up to n when every step into a prefix sum <= n
has f_pi/4 == (-1)^m f_3pi/4.  A call for one branch sums its own table;
a call for both sums pi/4 and reads 3pi/4 off it (n! * a_n flips by
(-1)^n, P+ and P- swap for odd n), still checked against the 3pi/4 closed
form.  cr_theta stays the paper's term formula and the tests' check on
the pass; it never feeds it.  The entry points' threads= is validated
(>= 1) and otherwise unused: the pass runs in the calling process.

The pass computes n! * a_n = sum_m s[n-m] * F(m) * (n-1)!/(n-m)!, which is
the recurrence n * a_n = sum_m F(m) * a_(n-m) scaled by (n-1)!.  The two
stay separate routes in code and in input: the pass reads _cnum_table, the
recurrence reads _recurrence_weight through lpoly.coeffs_by_recurrence.
The closed form is the check that is algebraically independent of both.

On top of it sit the sign bookkeeping (classify, count_signs,
sign_tallies), the pi/4 <-> 3pi/4 symmetry check, the sign/growth
verdicts, and a combined report generator that cross-checks everything
against the closed form and the recurrence.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .arith import QuadExt, pow2_half
from .compositions import Composition
from .errors import ConsistencyError
from .lpoly import SSequence, coeffs_by_recurrence

ENUMERATION_CAP = 24

# a child step: (prefix sum after the part, factor)
_Step = tuple[int, int]
# per n: n! * a_n, then P+ and P-
_Sums = tuple[list[int], list[int], list[int]]


class _Walk(NamedTuple):
    """What one pass to max_n found, per n <= max_n."""

    sums: dict[Theta, _Sums]
    # every term of a_n has v_pi4 == (-1)^n * v_3pi4; None for a one-branch pass
    symmetric: Optional[list[bool]]


class Theta(enum.Enum):
    """The angle of the repeated reciprocal-root pair."""

    PI_4 = "pi4"
    THREE_PI_4 = "3pi4"

    @property
    def trace_value(self) -> int:
        """Trace 2*sqrt(2)*cos(theta) of the repeated pair: +2 or -2."""
        return 2 if self is Theta.PI_4 else -2


_THETAS = (Theta.PI_4, Theta.THREE_PI_4)

# residue classes mod 8 where C_theta is positive among odd arguments
_ODD_PLUS = {Theta.PI_4: (1, 7), Theta.THREE_PI_4: (3, 5)}

# residue classes mod 8 where C_theta is positive (g > 2); the sign of a
# term is + exactly when it has an even number of parts in these classes
_PARITY_CLASSES = {Theta.PI_4: (1, 7, 8), Theta.THREE_PI_4: (3, 5, 8)}


def residue_class(m: int) -> int:
    """The class index in 1..8 with m in E_k, i.e. m = k mod 8 shifted to 1..8."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    return (m - 1) % 8 + 1


def c_theta(m: int, g: int, theta: Theta) -> QuadExt:
    """The per-part weight: one of +-(g-1)sqrt(2)/2, -1, -(g-2), g by m mod 8."""
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    res = residue_class(m)
    if res % 2:
        sign = 1 if res in _ODD_PLUS[theta] else -1
        return QuadExt(0, Fraction(sign * (g - 1), 2))
    if res in (2, 6):
        return QuadExt(-1)
    if res == 4:
        return QuadExt(-(g - 2))
    return QuadExt(g)


def cr_theta(composition: Composition, g: int, theta: Theta) -> QuadExt:
    """The term contributed by one composition of n to a_n, in Q(sqrt 2)."""
    n = composition.n
    if n < 1:
        raise ValueError("composition must have at least one part")
    value = pow2_half(n)
    prefix = 0
    for part in composition.parts:
        prefix += part
        value = value * c_theta(part, g, theta) / prefix
    if composition.r % 2:
        value = -value
    return value * (1 << composition.r)


def classify(composition: Composition, g: int, theta: Theta) -> int:
    """Sign (+1 or -1) of the term: parity of the parts in the positive classes.

    Requires g > 2 so no weight vanishes or flips sign.
    """
    if g <= 2:
        raise ValueError(f"sign classification needs g > 2, got g={g}")
    if composition.n < 1:
        raise ValueError("composition must have at least one part")
    classes = _PARITY_CLASSES[theta]
    parity = 0
    for part in composition.parts:
        if (part - 1) % 8 + 1 in classes:
            parity ^= 1
    return -1 if parity else 1


def _cnum_table(n: int, g: int, theta: Theta) -> list[int]:
    # integer content of C_theta: for odd m the weight is table[m]*sqrt(2)/2,
    # for even m it is table[m] itself.  Any other shape would leave a sqrt(2)
    # or a fraction that the pass's integers cannot hold, so it raises.
    table = [0]
    for m in range(1, n + 1):
        weight = c_theta(m, g, theta)
        if m % 2:
            content, stray, shape = 2 * weight.irr, weight.rat, "an integer times sqrt(2)/2"
        else:
            content, stray, shape = weight.rat, weight.irr, "an integer"
        if stray != 0 or content.denominator != 1:
            raise ConsistencyError(
                f"C_theta({m}) = {weight} for g={g}, theta={theta.value} is not {shape}"
            )
        table.append(content.numerator)
    return table


def _walk_children(max_n: int, g: int, theta: Theta) -> list[list[_Step]]:
    # children[N] lists, for every part m that can follow a prefix summing
    # to N, the step (N + m, factor).  A composition of N carries
    # N! * CR_theta, so appending the part m multiplies it by
    # factor = F(m) (N+1)(N+2)...(N+m-1), where
    # F(m) = -2 * 2^(m/2) * C_theta(m) = -cnum[m] * 2^(m//2 + 1).
    # Parts of weight zero (only for g <= 2) are left out: the compositions
    # that use them add nothing.  The falling factorials are positive, so a
    # term's sign is the product of its parts' signs of F(m), and the
    # parity-class rule (claimed for g > 2) holds for every term exactly
    # when it holds for every one-part term.
    cnum = _cnum_table(max_n, g, theta)
    classes = _PARITY_CLASSES[theta]
    parts = []
    for m in range(1, max_n + 1):
        if cnum[m] == 0:
            continue
        factor = -cnum[m] << (m // 2 + 1)
        if g > 2 and (factor < 0) is not (residue_class(m) in classes):
            raise ConsistencyError(
                f"a term of a_{m} has the sign opposite to the parity-class rule"
            )
        parts.append((m, factor))
    fact = [math.factorial(k) for k in range(max_n + 1)]
    return [
        [
            (prefix + m, factor * (fact[prefix + m - 1] // fact[prefix]))
            for m, factor in parts
            if prefix + m <= max_n
        ]
        for prefix in range(max_n)
    ]


def _symmetry_verdicts(
    children: list[list[_Step]], children3: list[list[_Step]], g: int
) -> list[bool]:
    # entry n: every term of every n' <= n has v_pi4 == (-1)^n' v_3pi4.  The
    # two tables must list the same steps; a term is the product of its
    # steps' factors, none of them zero, so the terms of n' all agree
    # exactly when every step into a prefix sum <= n' has
    # f_pi4 == (-1)^m f_3pi4 for its part m.
    max_n = len(children)
    first_break = max_n + 1
    for prefix, (steps, steps3) in enumerate(zip(children, children3)):
        if [child for child, _ in steps] != [child for child, _ in steps3]:
            raise ConsistencyError(
                f"the two branches' walk steps after prefix sum {prefix} differ for g={g}"
            )
        for (child, factor), (_, factor3) in zip(steps, steps3):
            if factor != (-factor3 if (child - prefix) & 1 else factor3):
                first_break = min(first_break, child)
    return [n < first_break for n in range(max_n + 1)]


def _reflect(sums: _Sums) -> _Sums:
    # the 3pi/4 sums read off the pi/4 ones, exact for every n whose
    # symmetry verdict holds: each term of n flips by (-1)^n, so n! * a_n
    # does and, for odd n, P+ and P- swap
    scaled, plus, minus = sums
    odd = [n & 1 for n in range(len(scaled))]
    return (
        [-value if flip else value for value, flip in zip(scaled, odd)],
        [m if flip else p for p, m, flip in zip(plus, minus, odd)],
        [p if flip else m for p, m, flip in zip(plus, minus, odd)],
    )


def _walk_table(max_n: int, children: list[list[_Step]]) -> _Sums:
    # n! * a_n and (P+, P-) for every n <= max_n, summed by prefix sum: a
    # step's factor depends only on the prefix sum N and the part, not on
    # the path to N, so in order of N each step (child, factor) adds
    # s[N] * factor into s[child] and N's tallies into the child's, swapped
    # when factor < 0.  Entry 0 seeds the empty composition and is cleared
    # again: the term sums have no n = 0.
    scaled, plus, minus = sums = tuple([0] * (max_n + 1) for _ in range(3))
    scaled[0] = plus[0] = 1
    for prefix, steps in enumerate(children):
        value, up, down = scaled[prefix], plus[prefix], minus[prefix]
        for child, factor in steps:
            scaled[child] += value * factor
            same, swapped = (up, down) if factor > 0 else (down, up)
            plus[child] += same
            minus[child] += swapped
    scaled[0] = plus[0] = 0
    return sums


def _walk_sums(max_n: int, g: int, threads: Optional[int], theta: Optional[Theta] = None) -> _Walk:
    # one pass to max_n: over the given branch's own table, or, for both
    # branches (theta None), over the pi/4 table, with 3pi/4 read off it and
    # the termwise symmetry decided on the two tables
    if max_n > ENUMERATION_CAP:
        raise ValueError(
            f"composition enumeration capped at n <= {ENUMERATION_CAP}, got n={max_n}"
        )
    # threads stays in the signatures for their callers; the pass runs in
    # this process, so it changes neither the results nor the processes
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if theta is not None:
        return _Walk({theta: _walk_table(max_n, _walk_children(max_n, g, theta))}, None)
    children = _walk_children(max_n, g, Theta.PI_4)
    symmetric = _symmetry_verdicts(children, _walk_children(max_n, g, Theta.THREE_PI_4), g)
    sums = _walk_table(max_n, children)
    return _Walk({Theta.PI_4: sums, Theta.THREE_PI_4: _reflect(sums)}, symmetric)


def _coefficients(sums: _Sums, g: int, theta: Theta) -> list[int]:
    # a_0..a_max_n from one branch's sums of n! * a_n, each of which
    # n! must divide exactly
    scaled = sums[0]
    values = [1]
    for n in range(1, len(scaled)):
        value, remainder = divmod(scaled[n], math.factorial(n))
        if remainder:
            raise ConsistencyError(
                f"a_{n} is not an integer for g={g}, theta={theta.value}: "
                f"{Fraction(scaled[n], math.factorial(n))}"
            )
        values.append(value)
    return values


def _walk_to(n: int, g: int, threads: Optional[int], theta: Optional[Theta] = None) -> _Walk:
    # the pass for the entry points that read a_1..a_n, 1 <= n <= g
    if not 1 <= n <= g:
        raise ValueError(f"need 1 <= n <= g, got n={n}, g={g}")
    return _walk_sums(n, g, threads, theta)


def a_n_theta_exact(n: int, g: int, theta: Theta, threads: Optional[int] = None) -> QuadExt:
    """a_n as an exact Q(sqrt 2) number via the composition sum; n <= cap."""
    return QuadExt(_coefficients(_walk_to(n, g, threads, theta).sums[theta], g, theta)[n])


def a_list_theta(
    max_n: int, g: int, theta: Theta, threads: Optional[int] = None
) -> list[int]:
    """a_0..a_max_n as integers from one composition sum; max_n <= cap."""
    return _coefficients(_walk_to(max_n, g, threads, theta).sums[theta], g, theta)


def a_n_theta(n: int, g: int, theta: Theta, threads: Optional[int] = None) -> int:
    """a_n as an integer via the composition sum."""
    return a_list_theta(n, g, theta, threads)[n]


def _recurrence_weight(i: int, g: int, theta: Theta) -> int:
    # -2^((i+2)/2) C_theta(i); rational (indeed integral) for every i
    weight = -(pow2_half(i + 2) * c_theta(i, g, theta))
    if weight.irr != 0:
        raise ConsistencyError(
            f"recurrence weight at i={i} kept a sqrt(2) part: {weight}"
        )
    if weight.rat.denominator != 1:
        raise ConsistencyError(
            f"recurrence weight at i={i} is not an integer: {weight}"
        )
    return weight.rat.numerator


def a_list_theta_recurrence(n_max: int, g: int, theta: Theta) -> list[int]:
    """a_0..a_{n_max} via n*a_n = sum_i -2^((i+2)/2) C_theta(i) a_{n-i}.

    The lpoly recurrence over q = 2 with S_i the weights; independent of
    the enumeration core and not capped by it.
    """
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    if not 0 <= n_max <= g:
        raise ValueError(f"need 0 <= n_max <= g, got n_max={n_max}, g={g}")
    weights = tuple(_recurrence_weight(i, g, theta) for i in range(1, n_max + 1))
    return coeffs_by_recurrence(SSequence(2, weights))


def a_n_theta_recurrence(n: int, g: int, theta: Theta) -> int:
    """a_n via the linear recurrence; n <= g, no enumeration cap."""
    return a_list_theta_recurrence(n, g, theta)[n]


def sign_tallies(
    max_n: int, g: int, theta: Theta, threads: Optional[int] = None
) -> list[tuple[int, int]]:
    """(P+, P-) for every n <= max_n from one pass; max_n <= cap.

    Entry n counts the compositions of n whose terms are positive and
    negative; entry 0 is the empty composition, whose term a_0 = 1 is
    positive.  The split depends only on theta once g > 2; g is required
    to guard that.  threads= is validated (>= 1) and otherwise unused.
    """
    if g <= 2:
        raise ValueError(f"sign counting needs g > 2, got g={g}")
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    _, plus, minus = _walk_sums(max_n, g, threads, theta).sums[theta]
    return [(1, 0)] + list(zip(plus[1:], minus[1:]))


def count_signs(
    n: int, g: int, theta: Theta, threads: Optional[int] = None
) -> tuple[int, int]:
    """(P+, P-): how many compositions of n contribute positively/negatively.

    The split depends only on theta once g > 2; g is required to guard that.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return sign_tallies(n, g, theta, threads)[n]


def _branch_coeffs(max_n: int, g: int, theta: Theta) -> list[int]:
    # a_0..a_max_n in closed form: the branch's L-polynomial is the trace
    # product (1 - 2st + 2t^2)^(g-1) (1 + 2t^2) with s = +-1 the sign of
    # its trace.  With u = 2t(t - s), (1 + u)^k = sum_j C(k, j) u^j and
    # [t^n] u^j = 2^j C(j, n-j) (-s)^n.  O(max_n^2) big-integer steps; it
    # reads neither c_theta nor the pass.
    k = g - 1
    flip = theta.trace_value > 0
    power = []
    for n in range(max_n + 1):
        total = sum(
            math.comb(k, j) * math.comb(j, n - j) << j
            for j in range((n + 1) // 2, min(n, k) + 1)
        )
        power.append(-total if flip and n % 2 else total)
    return [power[n] + 2 * power[n - 2] if n >= 2 else power[n] for n in range(max_n + 1)]


def _check_agreement(
    route: str, values: list[int], expected: list[int], g: int, theta: Theta
) -> None:
    # the pass's a_0..a_max_n against another route's; a mismatch raises
    for n, (value, other) in enumerate(zip(values, expected)):
        if value != other:
            raise ConsistencyError(
                f"enumeration disagrees with the {route} at n={n}, g={g}, "
                f"theta={theta.value}: {value} vs {other}"
            )


def verify_symmetry(n: int, g: int) -> bool:
    """Termwise and aggregate check of a_{n,pi/4} = (-1)^n a_{n,3pi/4}.

    The two branches' child tables decide whether the terms of every
    composition of n agree; a pair that differs is the verdict False.
    When every pair agrees, one pass over pi/4 gives both branches'
    a_1..a_n; each must be integers equal to the closed form
    [t^n] (1 -+ 2t + 2t^2)^(g-1) (1 + 2t^2), which reads neither c_theta
    nor the pass; a disagreement there raises ConsistencyError.
    """
    walk = _walk_to(n, g, 1)
    if not walk.symmetric[n]:
        return False
    for theta in _THETAS:
        values = _coefficients(walk.sums[theta], g, theta)
        _check_agreement("closed form", values, _branch_coeffs(n, g, theta), g, theta)
    return True


@dataclass(frozen=True)
class SignReport:
    """Verdicts for the sign/growth claims on a_0..a_g for one genus."""

    g: int
    mode: str  # "vacuous" (g=1), "proven" (2 <= g <= 6) or "conjecture" (g > 6)
    a: dict[Theta, tuple[int, ...]]
    sign_ok: dict[Theta, bool]
    growth_weak: dict[Theta, bool]
    growth_strict: dict[Theta, bool]

    def holds(self, strict: bool = False) -> bool:
        if self.mode == "vacuous":
            return True
        growth = self.growth_strict if strict else self.growth_weak
        return all(self.sign_ok.values()) and all(growth.values())


def _sign_claim_ok(n: int, value: int, theta: Theta) -> bool:
    if theta is Theta.THREE_PI_4:
        return value > 0
    return value > 0 if n % 2 == 0 else value < 0


def _claims(values: Sequence[int], n: int, theta: Theta) -> tuple[bool, bool, bool]:
    # the claims on a_n: its sign, |a_n| >= |a_(n-1)| and |a_n| > |a_(n-1)|
    size, before = abs(values[n]), abs(values[n - 1])
    return _sign_claim_ok(n, values[n], theta), size >= before, size > before


def _theorem_mode(g: int) -> str:
    # g = 1 is vacuous (all coefficients after a_0 vanish); the claims are
    # proven for 2 <= g <= 6 and conjectured beyond
    if g == 1:
        return "vacuous"
    return "proven" if g <= 6 else "conjecture"


def verify_theorem_signs(g: int) -> SignReport:
    """Check the claimed signs and |a_n| growth on a_0..a_g for both thetas.

    Proven territory is 2 <= g <= 6; g = 1 is vacuous (all coefficients
    after a_0 vanish); larger g is reported as conjecture either way.
    """
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    a = {theta: tuple(a_list_theta_recurrence(g, g, theta)) for theta in _THETAS}
    mode = _theorem_mode(g)
    if mode == "vacuous":
        return SignReport(g, mode, a, {}, {}, {})
    sign_ok = {}
    growth_weak = {}
    growth_strict = {}
    for theta in _THETAS:
        claims = [_claims(a[theta], n, theta) for n in range(1, g + 1)]
        sign_ok[theta], growth_weak[theta], growth_strict[theta] = (
            all(column) for column in zip(*claims)
        )
    return SignReport(g, mode, a, sign_ok, growth_weak, growth_strict)


@dataclass(frozen=True)
class ThetaCell:
    """Per-theta numbers for one n: the coefficient and the sign tallies."""

    a: int
    p_plus: Optional[int]
    p_minus: Optional[int]

    @property
    def delta(self) -> Optional[int]:
        if self.p_plus is None or self.p_minus is None:
            return None
        return abs(self.p_plus - self.p_minus)


@dataclass(frozen=True)
class ReportRow:
    n: int
    cells: dict[Theta, ThetaCell]
    symmetry_ok: Optional[bool]
    tally_ok: Optional[bool]
    theorem_ok: Union[bool, str, None]


@dataclass(frozen=True)
class Defect2Report:
    """Everything analyze() established for one genus."""

    g: int
    max_n: int
    thetas: tuple[Theta, ...]
    theorem_mode: str
    rows: tuple[ReportRow, ...]
    oracle_match: dict[Theta, bool]
    recurrence_match: dict[Theta, bool]

    def to_json_dict(self) -> dict:
        rows = []
        for row in self.rows:
            entry: dict[str, object] = {"n": row.n}
            for theta in _THETAS:
                cell = row.cells.get(theta)
                values = (None,) * 4 if cell is None else (
                    cell.a, cell.p_plus, cell.p_minus, cell.delta
                )
                for key, value in zip(("a", "p_plus", "p_minus", "delta"), values):
                    entry[f"{key}_{theta.value}"] = None if value is None else str(value)
            entry["checks"] = {
                "symmetry": row.symmetry_ok,
                "tallies": row.tally_ok,
                "signs": row.theorem_ok,
            }
            rows.append(entry)
        return {
            "g": self.g,
            "max_n": self.max_n,
            "thetas": [theta.value for theta in self.thetas],
            "theorem_mode": self.theorem_mode,
            "rows": rows,
            "oracle_match": {
                theta.value: self.oracle_match[theta] for theta in self.thetas
            },
            "recurrence_match": {
                theta.value: self.recurrence_match[theta] for theta in self.thetas
            },
        }


def _tally_checks(
    n: int, theta: Theta, delta: int, signed: int, prev_delta: Optional[int]
) -> bool:
    # signed = P+ - P- has the sign claimed for a_n; pinned small-n values,
    # then the > n growth regime
    if not _sign_claim_ok(n, signed, theta):
        return False
    if n in (2, 3):
        return delta == 2
    if n in (4, 5):
        return delta == 4
    ok = delta > n
    if n >= 7 and prev_delta is not None:
        ok = ok and delta > prev_delta
    return ok


def analyze(
    g: int,
    max_n: Optional[int] = None,
    thetas: Optional[Sequence[Theta]] = None,
    threads: Optional[int] = None,
) -> Defect2Report:
    """Full defect-2 coefficient report for one genus.

    One pass over every composition's prefix sums gives a_1..a_max_n and
    the term sign tallies (g > 2) of the selected branches: over that
    branch's table for one, over pi/4 with 3pi/4 read off it for both.  Row by row it checks
    the termwise symmetry (both branches only), the sign-tally claims and
    the sign/growth claims, and it cross-checks the coefficients against
    both the branch's trace product in closed form and the linear
    recurrence.
    Any cross-check mismatch raises ConsistencyError; claim verdicts land
    in the report.  threads= is validated (>= 1) and otherwise unused.
    """
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    cap = min(g, ENUMERATION_CAP)
    if max_n is None:
        max_n = cap
    if not 1 <= max_n <= cap:
        raise ValueError(f"need 1 <= max_n <= {cap} for g={g}, got {max_n}")
    if thetas is None:
        selected = _THETAS
    else:
        selected = tuple(theta for theta in _THETAS if theta in tuple(thetas))
        if not selected:
            raise ValueError("no branch selected")

    # both branches: one pass over pi/4 with 3pi/4 read off it; one
    # branch: a pass over its own table
    if len(selected) == 2:
        walk = _walk_sums(max_n, g, threads)
    else:
        walk = _walk_sums(max_n, g, threads, selected[0])
    coefficients: dict[Theta, list[int]] = {}
    for theta in selected:
        values = _coefficients(walk.sums[theta], g, theta)
        _check_agreement("trace route", values, _branch_coeffs(max_n, g, theta), g, theta)
        _check_agreement("recurrence", values, a_list_theta_recurrence(max_n, g, theta), g, theta)
        coefficients[theta] = values

    theorem_mode = _theorem_mode(g)

    rows = []
    for n in range(1, max_n + 1):
        cells: dict[Theta, ThetaCell] = {}
        for theta in selected:
            _, plus, minus = walk.sums[theta]
            tally = (plus[n], minus[n]) if g > 2 else (None, None)
            cells[theta] = ThetaCell(coefficients[theta][n], *tally)

        symmetry_ok = None if walk.symmetric is None else walk.symmetric[n]

        if g > 2 and n >= 2:
            tally_ok: Optional[bool] = True
            for theta in selected:
                cell = cells[theta]
                prev_delta = None
                if n >= 3:
                    prev_delta = rows[-1].cells[theta].delta
                signed = cell.p_plus - cell.p_minus
                if not _tally_checks(n, theta, cell.delta, signed, prev_delta):
                    tally_ok = False
        else:
            tally_ok = None

        if theorem_mode == "vacuous":
            theorem_ok: Union[bool, str, None] = "vacuous"
        else:
            claims = all(
                all(_claims(coefficients[theta], n, theta)[:2]) for theta in selected
            )
            if theorem_mode == "proven":
                theorem_ok = claims
            else:
                theorem_ok = "conjecture" if claims else False

        rows.append(ReportRow(n, cells, symmetry_ok, tally_ok, theorem_ok))

    return Defect2Report(
        g=g,
        max_n=max_n,
        thetas=selected,
        theorem_mode=theorem_mode,
        rows=tuple(rows),
        oracle_match={theta: True for theta in selected},
        recurrence_match={theta: True for theta in selected},
    )
