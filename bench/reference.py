"""Reference answers and checkers for the benchmark, independent of zetapoly.

Nothing here imports the package under test.  Every expected value comes
from a route the package does not use for the answer being checked:

- L-polynomials and class numbers from the expanded product
  prod_i (1 - t_i x + q x^2) and from h = prod_i (1 - t_i + q);
- defect-2 coefficients from the expansion of
  (1 - tau x + 2 x^2)^(g-1) (1 + 2 x^2) with tau = +2 (pi/4) or -2 (3pi/4);
- defect-2 sign tallies from the signs of the power sums S_m: the term of a
  composition has the sign prod_s sign(S_{m_s}), so the signed count
  D(n) = P+ - P- obeys D(n) = sum_m sign(S_m) D(n - m), and P+ + P- = 2^(n-1);
- parapermanents from a last-row recurrence written here.

Each checker returns a list of problems; an empty list means the answer
matched.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

THETA_TRACES = {"pi4": 2, "3pi4": -2}


def trace_product(q: int, traces: Sequence[int]) -> list[int]:
    """Coefficients of prod_i (1 - t_i x + q x^2), lowest degree first."""
    coeffs = [1]
    for t in traces:
        grown = coeffs + [0, 0]
        for i, c in enumerate(coeffs):
            grown[i + 1] -= t * c
            grown[i + 2] += q * c
        coeffs = grown
    return coeffs


def class_number(q: int, traces: Sequence[int]) -> int:
    """h = L(1) = prod_i (1 - t_i + q)."""
    h = 1
    for t in traces:
        h *= 1 - t + q
    return h


def power_sums(q: int, traces: Sequence[int], count: int) -> list[int]:
    """p_r = sum_i (alpha_i^r + conj(alpha_i)^r) for r = 1..count."""
    sums = [0] * count
    for t in traces:
        before, now = 2, t
        for r in range(count):
            sums[r] += now
            before, now = now, t * now - q * before
    return sums


def point_counts(q: int, traces: Sequence[int]) -> list[int]:
    """N_r = q^r + 1 - p_r for r = 1..g."""
    sums = power_sums(q, traces, len(traces))
    return [q ** r + 1 - p for r, p in enumerate(sums, start=1)]


def defect2_branch(g: int, theta: str) -> list[int]:
    """Trace vector of one defect-2 branch: g-1 copies of +-2 and one 0."""
    return [THETA_TRACES[theta]] * (g - 1) + [0]


def defect2_coeffs(g: int, theta: str, max_n: int) -> list[int]:
    """a_1..a_max_n of the branch's L-polynomial."""
    return trace_product(2, defect2_branch(g, theta))[1 : max_n + 1]


def sign_tallies(g: int, theta: str, max_n: int) -> list[tuple[int, int]]:
    """(P+, P-) for n = 1..max_n from the signs of the power sums."""
    signs = [0] + [
        (s > 0) - (s < 0)
        for s in (-p for p in power_sums(2, defect2_branch(g, theta), max_n))
    ]
    signed = [1]
    for n in range(1, max_n + 1):
        signed.append(sum(signs[m] * signed[n - m] for m in range(1, n + 1)))
    return [
        (((1 << (n - 1)) + signed[n]) // 2, ((1 << (n - 1)) - signed[n]) // 2)
        for n in range(1, max_n + 1)
    ]


def pper_last_row(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Parapermanent by p(i) = sum_s prod_{k=s..i} b[i][k] * p(s-1), p(0) = 1."""
    prefix = [Fraction(1)]
    for i, row in enumerate(rows, start=1):
        total = Fraction(0)
        product = Fraction(1)
        for s in range(i, 0, -1):
            product *= row[s - 1]
            total += product * prefix[s - 1]
        prefix.append(total)
    return prefix[-1]


def render_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


# -- checkers ---------------------------------------------------------------


def check_analyze(report: dict, expect: dict) -> list[str]:
    """A defect2.analyze(...).to_json_dict() report against its reference."""
    problems = []
    max_n = expect["max_n"]
    if report.get("g") != expect["g"] or report.get("max_n") != max_n:
        problems.append(f"report covers g={report.get('g')}, max_n={report.get('max_n')}")
    rows = report.get("rows", [])
    if len(rows) != max_n:
        return problems + [f"{len(rows)} rows, expected {max_n}"]
    for label in ("oracle_match", "recurrence_match"):
        if report.get(label) != {theta: True for theta in expect["a"]}:
            problems.append(f"{label} = {report.get(label)}")
    for n, row in enumerate(rows, start=1):
        for theta, values in expect["a"].items():
            if row.get(f"a_{theta}") != str(values[n - 1]):
                got = row.get(f"a_{theta}")
                problems.append(f"a_{n},{theta} = {got}, expected {values[n - 1]}")
            tally = [row.get(f"p_plus_{theta}"), row.get(f"p_minus_{theta}")]
            expected = [str(v) for v in expect["tallies"][theta][n - 1]]
            if tally != expected:
                problems.append(f"tally n={n},{theta} = {tally}, expected {expected}")
            if sum(int(v or 0) for v in tally) != 1 << (n - 1):
                problems.append(f"tally n={n},{theta} does not sum to 2^(n-1)")
        checks = row.get("checks", {})
        if checks.get("symmetry") is not True:
            problems.append(f"symmetry check at n={n}: {checks.get('symmetry')}")
        if checks.get("tallies") is not (None if n == 1 else True):
            problems.append(f"tally check at n={n}: {checks.get('tallies')}")
        if checks.get("signs") not in (True, "conjecture"):
            problems.append(f"sign check at n={n}: {checks.get('signs')}")
    return problems


def check_lpoly(payload: dict, expect: dict) -> list[str]:
    """An `lpoly from-traces|from-counts` JSON payload against its reference."""
    problems = []
    if payload.get("coeffs") != [str(c) for c in expect["coeffs"]]:
        problems.append("coefficients differ from the trace product")
    if payload.get("h") != str(expect["h"]):
        problems.append(f"h = {payload.get('h')}, expected {expect['h']}")
    if payload.get("methods_run") != expect["methods_run"]:
        problems.append(
            f"methods_run = {payload.get('methods_run')}, expected {expect['methods_run']}"
        )
    if payload.get("methods_agree") is not True:
        problems.append("methods_agree is not true")
    return problems


def check_classnumber(payload: dict, expect: dict) -> list[str]:
    """A `classnumber` JSON payload against h = prod (1 - t_i + q)."""
    h = str(expect["h"])
    if payload.get("h") != h or payload.get("h_formula") != h or payload.get("agree") is not True:
        return [f"h = {payload.get('h')}, h_formula = {payload.get('h_formula')}, expected {h}"]
    return []


def check_pper(payload: dict, expect: dict) -> list[str]:
    """A `pper` JSON payload against the reference last-row value."""
    if payload.get("pper") != expect["pper"] or payload.get("agree") is not True:
        return [f"pper = {payload.get('pper')}, expected {expect['pper']}"]
    return []


def check_symmetry(result: object, expect: dict) -> list[str]:
    """verify_symmetry's verdict against a_{n,pi/4} = (-1)^n a_{n,3pi/4}."""
    if result is not expect["holds"]:
        return [f"verify_symmetry returned {result!r}, expected {expect['holds']}"]
    return []


def symmetry_holds(n: int, g: int) -> bool:
    """Whether a_{n,pi/4} = (-1)^n a_{n,3pi/4} holds for the reference coefficients."""
    pi4 = defect2_coeffs(g, "pi4", n)[n - 1]
    three_pi4 = defect2_coeffs(g, "3pi4", n)[n - 1]
    return pi4 == (-1) ** n * three_pi4
