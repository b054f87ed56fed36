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
as n has parity, so every term is rational.

That sum is the paper's parapermanent formula for a_n over the branch's
S-values S_m = F(m) = -2 * 2^(m/2) * C_theta(m), an integer for every m
(_pass_weights refuses a weight of any other shape).  A term is
CR_theta = prod_s F(m_s) / N_s, and F(m_s) / N_s is lpoly's factorial
product S_{i+1-j}/i at the part's key (i = N_s, j = N_(s-1) + 1).  So one
branch's sums are lpoly.coeffs_by_parapermanent over its S-values, one
last-row pass that divides row i by i once and keeps every prefix at the
size of a_i, O(max_n^2) integer steps for every n <= max_n at once, and
no composition is ever listed.  A term is the product of its parts' F(m)
and positive 1/N_s, so F decides both claims about terms: the
parity-class sign rule holds for every term when it holds for every part,
and the branches agree termwise, v_pi/4 == (-1)^n v_3pi/4, up to n while
F_pi/4(m) == (-1)^m F_3pi/4(m) for every m <= n.  The sign tallies come
from one parapermanent as well: over the table of the parts' signs each
term is its own sign, so the sum is P+ - P-, and as no weight vanishes
for g > 2, P+ + P- is the count 2^(n-1) of compositions of n.  A call
for both branches sums each branch's own S-values.
cr_theta stays the paper's term formula and the tests' check on the pass;
it never feeds it.  Nothing lists compositions, so no entry point caps n
below g.

The recurrence n * a_n = sum_m S_m * a_(n-m) is lpoly's recurrence over
q = 2 (a_list_theta_recurrence).  The two stay the pair of routes that
lpoly cross-checks, sharing no loop, and they derive their S-values
separately: the pass from the per-part weights (_pass_weights), the
recurrence as the power sums of the branch's traces, g - 1 copies of +-2
and one 0, in lpoly's _s_values, the loop behind s_from_traces.  Only the
pass reads c_theta, so a wrong weight splits it from the recurrence.  The
branch's trace product in closed form, [t^n] (1 -+ 2t + 2t^2)^(g-1)
(1 + 2t^2), J. C. P. Miller's power recurrence of O(n) steps, reads
neither c_theta nor the pass nor the S-values: it is the algebraically
independent check, it stands in for the trace-data L-polynomial in
verify_symmetry and analyze, and the command line sizes a report by it.

On top of it sit the sign bookkeeping (classify, count_signs,
sign_tallies), the pi/4 <-> 3pi/4 symmetry check, and the report
generator analyze, whose verdicts are columns over n from one claim
rule (_claims, shared with verify_theorem_signs) and one tally rule.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import cycle, repeat
from operator import eq, ge, gt, mul, sub
from typing import Optional, Sequence, Union

from .arith import _ZERO, QuadExt, pow2_half
from .compositions import Composition
from .errors import ConsistencyError, _Frozen, describe
from .lpoly import SSequence, _s_values, coeffs_by_parapermanent, coeffs_by_recurrence
from .parapermanent import _last_row


class Theta(enum.Enum):
    """The angle of the repeated reciprocal-root pair."""

    PI_4 = "pi4"
    THREE_PI_4 = "3pi4"

    # members are singletons: hash them by identity, in C, not by Enum's Python call
    __hash__ = object.__hash__

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
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    res = m & 7  # residue_class(m), with class 8 read as 0
    if res & 1:
        sign = 1 if res in _ODD_PLUS[theta] else -1
        return QuadExt(_ZERO, Fraction(sign * (g - 1), 2))
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
        if residue_class(part) in classes:
            parity ^= 1
    return -1 if parity else 1


def _pass_weights(max_n: int, g: int, theta: Theta) -> tuple[int, ...]:
    # F(1..max_n), the branch's S-values: appending the part m to a
    # composition of N multiplies its CR_theta by F(m) / (N + m), where
    # F(m) = -2 * 2^(m/2) * C_theta(m).  For odd m the weight is content *
    # sqrt(2)/2, for even m it is content itself, so F(m) = -content *
    # 2^(m//2 + 1); any other shape would leave a sqrt(2) or a fraction that
    # the pass's integers cannot hold, so it raises.  The shape is read off
    # the integers of the component that must vanish and of the one that
    # holds content / halves, halves = 2 for odd m and 1 for even m: the
    # first must have numerator 0, and the second a denominator that divides
    # halves.  The prefix sums are positive, so a term's sign is the product
    # of its parts' signs of F(m), and the parity-class rule (claimed for
    # g > 2) holds for every term exactly when it holds for every part.  A
    # weight vanishes only for g <= 2; for g > 2 a zero weight raises, as
    # the sign tallies count every composition as a term of sign +-1.
    classes = _PARITY_CLASSES[theta]
    weights = []
    for m in range(1, max_n + 1):
        c = c_theta(m, g, theta)
        if m & 1:
            part, stray, halves, shape = c.irr, c.rat, 2, "an integer times sqrt(2)/2"
        else:
            part, stray, halves, shape = c.rat, c.irr, 1, "an integer"
        denominator = part.denominator
        if stray.numerator or halves % denominator:
            raise ConsistencyError(
                f"C_theta({m}) = {c} for g={g}, theta={theta.value} is not {shape}"
            )
        weight = -(part.numerator * (halves // denominator)) << (m // 2 + 1)
        if g > 2 and not weight:
            raise ConsistencyError(
                f"C_theta({m}) = 0 for g={g}, theta={theta.value}; no weight vanishes for g > 2"
            )
        if g > 2 and (weight < 0) is not (residue_class(m) in classes):
            raise ConsistencyError(
                f"a term of a_{m} has the sign opposite to the parity-class rule"
            )
        weights.append(weight)
    return tuple(weights)


def _tallies(weights: Sequence[int]) -> list[tuple[int, int]]:
    # (P+, P-) for n = 0..len(weights), from nonzero weights (g > 2).  A
    # term's sign is the product of its parts' signs, so the parapermanent
    # of the parts' signs sums P+ - P-, and P+ + P- counts the compositions:
    # 2^(n-1), and 1 for the empty one.  fp(i, j) is the sign of part
    # i + 1 - j, so row i is the slice of parts i..1.
    signs = [1 if weight > 0 else -1 for weight in weights]
    signed = _last_row(signs[i - 1::-1] for i in range(1, len(signs) + 1))
    counts = [1] + [1 << (n - 1) for n in range(1, len(signs) + 1)]
    return [((both + net) // 2, (both - net) // 2) for net, both in zip(signed, counts)]


def _symmetry_verdicts(weights: Sequence[int], weights3: Sequence[int]) -> list[bool]:
    # entry n: every term of every n' <= n has v_pi4 == (-1)^n' v_3pi4.  A
    # term is the product of its parts' F(m) / N_s with positive prefix
    # sums N_s, so that holds exactly while every part m <= n has
    # F_pi4(m) == (-1)^m F_3pi4(m); the first m that breaks it is the
    # one-part term of m.
    first_break = next(
        (
            m
            for m, (weight, weight3) in enumerate(zip(weights, weights3), start=1)
            if weight != (-weight3 if m & 1 else weight3)
        ),
        len(weights) + 1,
    )
    return [n < first_break for n in range(len(weights) + 1)]


def _check_threads(threads: Optional[int]) -> None:
    # threads stays on analyze, a_n_theta and count_signs for their
    # callers; everything runs in this process, so it changes neither the
    # results nor the processes
    if threads is not None and threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def _check_range(n: int, g: int) -> None:
    # the entry points that read a_1..a_n need 1 <= n <= g
    if not 1 <= n <= g:
        raise ValueError(f"need 1 <= n <= g, got n={n}, g={g}")


def a_list_theta(max_n: int, g: int, theta: Theta) -> list[int]:
    """a_0..a_max_n as integers from one parapermanent pass; 1 <= max_n <= g.

    The pass is lpoly's last-row parapermanent route over the branch's
    S-values.
    """
    _check_range(max_n, g)
    return coeffs_by_parapermanent(SSequence(2, _pass_weights(max_n, g, theta)))


def a_n_theta(n: int, g: int, theta: Theta, threads: Optional[int] = None) -> int:
    """a_n as an integer via lpoly's last-row parapermanent route."""
    _check_threads(threads)
    return a_list_theta(n, g, theta)[n]


def a_list_theta_recurrence(n_max: int, g: int, theta: Theta) -> list[int]:
    """a_0..a_{n_max} via n*a_n = sum_i S_i a_{n-i}, lpoly's recurrence over q = 2.

    S_1..S_{n_max} are the power sums of the branch's traces, g - 1 copies
    of theta.trace_value and one 0, in plain integers; they read no
    c_theta, so a wrong weight there splits the parapermanent route from
    this one.
    """
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    if not 0 <= n_max <= g:
        raise ValueError(f"need 0 <= n_max <= g, got n_max={n_max}, g={g}")
    traces = {theta.trace_value: g - 1, 0: 1}
    return coeffs_by_recurrence(SSequence(2, _s_values(traces, 2, n_max)))


def sign_tallies(max_n: int, g: int, theta: Theta) -> list[tuple[int, int]]:
    """(P+, P-) for every n <= max_n; max_n >= 1, not bounded by g.

    Entry n counts the compositions of n whose terms are positive and
    negative; entry 0 is the empty composition, whose term a_0 = 1 is
    positive.  P+ - P- is the parapermanent of the branch's part signs,
    and P+ + P- the number of compositions of n, as no weight vanishes.
    The split depends only on theta once g > 2; g is required to guard
    that.
    """
    if g <= 2:
        raise ValueError(f"sign counting needs g > 2, got g={g}")
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    return _tallies(_pass_weights(max_n, g, theta))


def count_signs(
    n: int, g: int, theta: Theta, threads: Optional[int] = None
) -> tuple[int, int]:
    """(P+, P-): how many compositions of n contribute positively/negatively.

    The split depends only on theta once g > 2; g is required to guard that.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_threads(threads)
    return sign_tallies(n, g, theta)[n]


def _branch_coeffs(max_n: int, g: int, theta: Theta) -> list[int]:
    # a_0..a_max_n in closed form: the branch's L-polynomial is the trace
    # product P (1 + 2t^2), P = f^k with f = 1 + f1 t + 2t^2, f1 = -trace
    # and k = g - 1.  f P' = k f' P gives J. C. P. Miller's power recurrence
    # n p_n = (k + 1 - n) f1 p_(n-1) + 2 (2k + 2 - n) p_(n-2), each division
    # exact: O(max_n) big-integer steps.  It reads neither c_theta nor the
    # pass nor the S-values.
    k, f1 = g - 1, -theta.trace_value
    p = [0, 0, 1]  # p_(-2), p_(-1), p_0
    for n in range(1, max_n + 1):
        p.append(((k + 1 - n) * f1 * p[-1] + 2 * (2 * k + 2 - n) * p[-2]) // n)
    return [p[n + 2] + 2 * p[n] for n in range(max_n + 1)]


def _check_agreement(
    route: str, values: list[int], expected: list[int], g: int, theta: Theta
) -> None:
    # the pass's a_0..a_max_n against another route's, compared whole first
    if values == expected:
        return
    for n, (value, other) in enumerate(zip(values, expected)):
        if value != other:
            raise ConsistencyError(
                f"the parapermanent route disagrees with the {route} at n={n}, g={g}, "
                f"theta={theta.value}: {describe(value)} vs {describe(other)}"
            )


def verify_symmetry(n: int, g: int) -> bool:
    """Termwise and aggregate check of a_{n,pi/4} = (-1)^n a_{n,3pi/4}.

    The two branches' S-values decide whether the terms of every
    composition of n agree; a pair that differs is the verdict False.
    When every pair agrees, each branch's parapermanent route gives its
    a_1..a_n, which must be integers equal to the closed form
    [t^n] (1 -+ 2t + 2t^2)^(g-1) (1 + 2t^2), which reads neither c_theta
    nor the pass; a disagreement there raises ConsistencyError.
    """
    _check_range(n, g)
    weights = {theta: _pass_weights(n, g, theta) for theta in _THETAS}
    if not _symmetry_verdicts(weights[Theta.PI_4], weights[Theta.THREE_PI_4])[n]:
        return False
    for theta in _THETAS:
        values = coeffs_by_parapermanent(SSequence(2, weights[theta]))
        _check_agreement("closed form", values, _branch_coeffs(n, g, theta), g, theta)
    return True


class SignReport(_Frozen):
    """Verdicts for the sign/growth claims on a_0..a_g for one genus.

    mode is "vacuous" (g=1), "proven" (2 <= g <= 6) or "conjecture" (g > 6).
    """

    __match_args__ = ("g", "mode", "a", "sign_ok", "growth_weak", "growth_strict")

    def __init__(
        self,
        g: int,
        mode: str,
        a: dict[Theta, tuple[int, ...]],
        sign_ok: dict[Theta, bool],
        growth_weak: dict[Theta, bool],
        growth_strict: dict[Theta, bool],
    ) -> None:
        fields = self.__dict__
        fields["g"] = g
        fields["mode"] = mode
        fields["a"] = a
        fields["sign_ok"] = sign_ok
        fields["growth_weak"] = growth_weak
        fields["growth_strict"] = growth_strict

    def holds(self, strict: bool = False) -> bool:
        if self.mode == "vacuous":
            return True
        growth = self.growth_strict if strict else self.growth_weak
        return all(self.sign_ok.values()) and all(growth.values())


def _sign_column(values: Sequence[int], theta: Theta) -> list[bool]:
    # entry n: values[n] has a_n's claimed sign, + on 3pi/4, (-1)^n on pi/4
    if theta is Theta.PI_4:
        values = map(mul, values, cycle((1, -1)))
    return [value > 0 for value in values]


def _claims(values: Sequence[int], theta: Theta) -> tuple[list[bool], ...]:
    # columns over n = 1..len - 1 on a_n = values[n]: its sign claim,
    # |a_n| >= |a_(n-1)| and |a_n| > |a_(n-1)|
    sizes = list(map(abs, values))
    sign = _sign_column(values, theta)[1:]
    return sign, list(map(ge, sizes[1:], sizes)), list(map(gt, sizes[1:], sizes))


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
        sign_ok[theta], growth_weak[theta], growth_strict[theta] = map(
            all, _claims(a[theta], theta)
        )
    return SignReport(g, mode, a, sign_ok, growth_weak, growth_strict)


class ThetaCell(_Frozen):
    """Per-theta numbers for one n: the coefficient and the sign tallies."""

    __match_args__ = ("a", "p_plus", "p_minus")

    def __init__(self, a: int, p_plus: Optional[int], p_minus: Optional[int]) -> None:
        fields = self.__dict__
        fields["a"] = a
        fields["p_plus"] = p_plus
        fields["p_minus"] = p_minus

    @property
    def delta(self) -> Optional[int]:
        if self.p_plus is None or self.p_minus is None:
            return None
        return abs(self.p_plus - self.p_minus)


class ReportRow(_Frozen):
    """One n of a Defect2Report: the per-theta cells and the checks on them."""

    __match_args__ = ("n", "cells", "symmetry_ok", "tally_ok", "theorem_ok")

    def __init__(
        self,
        n: int,
        cells: dict[Theta, ThetaCell],
        symmetry_ok: Optional[bool],
        tally_ok: Optional[bool],
        theorem_ok: Union[bool, str, None],
    ) -> None:
        fields = self.__dict__
        fields["n"] = n
        fields["cells"] = cells
        fields["symmetry_ok"] = symmetry_ok
        fields["tally_ok"] = tally_ok
        fields["theorem_ok"] = theorem_ok


class Defect2Report(_Frozen):
    """Everything analyze() established for one genus."""

    __match_args__ = (
        "g", "max_n", "thetas", "theorem_mode", "rows", "oracle_match", "recurrence_match"
    )

    def __init__(
        self,
        g: int,
        max_n: int,
        thetas: tuple[Theta, ...],
        theorem_mode: str,
        rows: tuple[ReportRow, ...],
        oracle_match: dict[Theta, bool],
        recurrence_match: dict[Theta, bool],
    ) -> None:
        fields = self.__dict__
        fields["g"] = g
        fields["max_n"] = max_n
        fields["thetas"] = thetas
        fields["theorem_mode"] = theorem_mode
        fields["rows"] = rows
        fields["oracle_match"] = oracle_match
        fields["recurrence_match"] = recurrence_match

    def to_json_dict(self) -> dict:
        """The report as JSON-ready data, its integers as decimal strings."""
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


def _tally_claims(nets: Sequence[int], theta: Theta) -> tuple[list[bool], ...]:
    # columns over n = 2..len - 1 on P+ - P- = nets[n]: the sign claimed for
    # a_n; |P+ - P-| = 2, 2, 4, 4 at n = 2..5, > n from 6, rising from n = 7
    deltas = list(map(abs, nets))
    sizes = list(map(eq, deltas[2:6], (2, 2, 4, 4)))
    sizes += map(gt, deltas[6:], range(6, len(deltas)))
    growth = [True] * 5 + list(map(gt, deltas[7:], deltas[6:]))
    return _sign_column(nets, theta)[2:], sizes, growth


def analyze(
    g: int,
    max_n: Optional[int] = None,
    thetas: Optional[Sequence[Theta]] = None,
    threads: Optional[int] = None,
) -> Defect2Report:
    """Full defect-2 coefficient report for one genus.

    Each selected branch's S-values give its a_1..a_max_n (max_n in
    1..g, g by default) by lpoly's parapermanent route and its term sign
    tallies (g > 2) from the parapermanent of their signs.  Each branch's
    columns (cells, sign-tally verdicts, sign/growth claims) are built once
    and the rows are read across them, with the termwise symmetry verdicts
    (both branches only).  The coefficients are cross-checked against both
    the branch's trace product in closed form and the linear recurrence.
    Any cross-check mismatch raises ConsistencyError; claim verdicts land
    in the report.
    """
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    max_n = g if max_n is None else max_n
    if not 1 <= max_n <= g:
        raise ValueError(f"need 1 <= max_n <= {g} for g={g}, got {max_n}")
    if thetas is None:
        selected = _THETAS
    else:
        wanted = tuple(thetas)
        selected = tuple(theta for theta in _THETAS if theta in wanted)
        if not selected:
            raise ValueError("no branch selected")

    _check_threads(threads)
    weights = [_pass_weights(max_n, g, theta) for theta in selected]
    symmetry_verdicts: list[Optional[bool]] = [None] * max_n
    if len(selected) == 2:
        symmetry_verdicts = _symmetry_verdicts(*weights)[1:]
    theorem_mode = _theorem_mode(g)

    # each branch's columns over n = 1..max_n: (theta, cell) pairs, tally
    # claims, sign and weak growth claims; a row's verdict is all of them
    cells, tally_columns, claim_columns = [], [], []
    for theta, branch in zip(selected, weights):
        values = coeffs_by_parapermanent(SSequence(2, branch))
        _check_agreement("closed form", values, _branch_coeffs(max_n, g, theta), g, theta)
        _check_agreement("recurrence", values, a_list_theta_recurrence(max_n, g, theta), g, theta)
        if g > 2:
            plus, minus = zip(*_tallies(branch))
            tally_columns += _tally_claims(list(map(sub, plus, minus)), theta)
            plus, minus = plus[1:], minus[1:]
        else:
            plus = minus = repeat(None)
        cells.append(zip(repeat(theta), map(ThetaCell, values[1:], plus, minus)))
        claim_columns += _claims(values, theta)[:2]

    tally_verdicts: list[Optional[bool]] = [None] * max_n
    if g > 2:
        tally_verdicts[1:] = map(all, zip(*tally_columns))
    if theorem_mode == "vacuous":
        theorem_verdicts: list[Union[bool, str, None]] = ["vacuous"] * max_n
    else:
        holds = map(all, zip(*claim_columns))
        if theorem_mode == "proven":
            theorem_verdicts = list(holds)
        else:
            theorem_verdicts = ["conjecture" if claims else False for claims in holds]
    # a list: tuple() of an iterator resizes, and the freed tuples fill a free list
    rows = list(map(
        ReportRow, range(1, max_n + 1), map(dict, zip(*cells)),
        symmetry_verdicts, tally_verdicts, theorem_verdicts,
    ))

    return Defect2Report(
        g=g,
        max_n=max_n,
        thetas=selected,
        theorem_mode=theorem_mode,
        rows=tuple(rows),
        oracle_match={theta: True for theta in selected},
        recurrence_match={theta: True for theta in selected},
    )
