"""Acceptance suite: twelve end-to-end guarantees, one verdict line each.

Every test prints a single ``[criterion NN] PASS/FAIL`` line (with output
capture suspended, so the verdicts stay visible in piped runs) and then
asserts it.  Random instances are generated with fixed seeds so reruns are
byte-for-byte repeatable.
"""

from __future__ import annotations

import math
import random
import resource
import time
from fractions import Fraction

import pytest

from zetapoly import compositions, defect2, lpoly, parapermanent
from zetapoly.defect2 import Theta
from zetapoly.lpoly import SSequence, TraceData

_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_verdicts(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _emit(number: int, ok: bool, detail: str) -> None:
    line = f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    if _CAPTURE is None:
        print(line, flush=True)
    else:
        with _CAPTURE.disabled():
            print(line, flush=True)
    assert ok, line


def _s_instances(total: int, seed: int, g_max: int, magnitude: int = 40) -> list[SSequence]:
    rng = random.Random(seed)
    instances = []
    for index in range(total):
        g = g_max if index == 0 else rng.randint(1, g_max)
        q = rng.choice((2, 3, 4, 5))
        instances.append(
            SSequence(q, tuple(rng.randint(-magnitude, magnitude) for _ in range(g)))
        )
    return instances


def _trace_instances(total: int, seed: int) -> list[TraceData]:
    rng = random.Random(seed)
    instances = []
    for index in range(total):
        q = rng.choice((2, 3, 4, 5, 7, 9))
        g = 8 if index == 0 else rng.randint(1, 8)
        bound = math.isqrt(4 * q)
        instances.append(
            TraceData(q, tuple(rng.randint(-bound, bound) for _ in range(g)))
        )
    return instances


def _branch_traces(g: int, theta: Theta) -> TraceData:
    return TraceData(2, (theta.trace_value,) * (g - 1) + (0,))


# Shared across criteria: 2 and 6 reuse the same oracle instances.
TRACE_INSTANCES = _trace_instances(200, seed=0xC0FFEE)


def test_criterion_01_three_method_equivalence():
    started = time.perf_counter()
    instances = _s_instances(100, seed=0x51, g_max=12)
    agreed = 0
    for s in instances:
        baseline = lpoly.coeffs_by_recurrence_exact(s)
        if (
            lpoly.coeffs_by_parapermanent_exact(s) == baseline
            and lpoly.coeffs_by_compositions_exact(s) == baseline
        ):
            agreed += 1
    elapsed = time.perf_counter() - started
    _emit(
        1,
        agreed == len(instances) and elapsed < 30.0,
        f"recurrence, parapermanent and composition methods agree on "
        f"{agreed}/{len(instances)} random S-vectors with g <= 12 "
        f"({elapsed:.2f}s < 30s)",
    )


def test_criterion_02_trace_product_oracle():
    started = time.perf_counter()
    agreed = sum(
        1
        for data in TRACE_INSTANCES
        if lpoly.coeffs_from_traces(data) == lpoly.oracle_expand(data)
    )
    elapsed = time.perf_counter() - started
    _emit(
        2,
        agreed == len(TRACE_INSTANCES) and elapsed < 10.0,
        f"functional-equation completion equals the expanded product "
        f"prod(1 - t_i*t + q*t^2) on {agreed}/{len(TRACE_INSTANCES)} random "
        f"trace vectors ({elapsed:.2f}s < 10s)",
    )


def test_criterion_03_fourth_coefficient_closed_form():
    rng = random.Random(0xA4)
    matched = 0
    total = 20
    for _ in range(total):
        g = rng.randint(4, 8)
        s = SSequence(
            rng.choice((2, 3, 4, 5)),
            tuple(rng.randint(-30, 30) for _ in range(g)),
        )
        coeffs = lpoly.coeffs_by_compositions_exact(s)
        s1, s2, s3, s4 = (Fraction(s.s[i]) for i in range(4))
        expected = (
            s4 / 4
            + s1 * s3 / 3
            + s2 ** 2 / 8
            + s1 ** 2 * s2 / 4
            + s1 ** 4 / 24
        )
        if coeffs[4] == expected:
            matched += 1
    _emit(
        3,
        matched == total,
        f"composition-sum a_4 equals its five-term closed form on "
        f"{matched}/{total} random S-vectors",
    )


def test_criterion_04_parapermanent_fixture_and_evaluators():
    rng = random.Random(0xB3)

    def entry() -> Fraction:
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    fixture_ok = True
    for _ in range(25):
        rows = [[entry() for _ in range(i + 1)] for i in range(3)]
        matrix = parapermanent.TriangularMatrix(tuple(rows))
        (b11,), (b21, b22), (b31, b32, b33) = rows
        expected = (
            b31 * b32 * b33
            + b11 * b32 * b33
            + b21 * b22 * b33
            + b11 * b22 * b33
        )
        if parapermanent.pper_by_last_row(matrix) != expected:
            fixture_ok = False
    evaluators_ok = True
    for order in range(11):
        for _ in range(5):
            rows = [[entry() for _ in range(i + 1)] for i in range(order)]
            matrix = parapermanent.TriangularMatrix(tuple(rows))
            if parapermanent.pper_by_last_row(matrix) != parapermanent.pper_by_compositions(matrix):
                evaluators_ok = False
    _emit(
        4,
        fixture_ok and evaluators_ok,
        "order-3 four-term expansion matches on 25 random rational tables; "
        "last-row and composition-sum evaluators agree through order 10",
    )


def test_criterion_05_composition_counts_and_roundtrip():
    started = time.perf_counter()
    counts_ok = True
    for n in range(1, 21):
        expected = 1 << (n - 1)
        if compositions.count(n) != expected:
            counts_ok = False
            continue
        enumerated = sum(1 for _ in compositions.iter_parts(n))
        if enumerated != expected:
            counts_ok = False
    roundtrip_ok = all(
        compositions.encode(compositions.decode(n, index)) == index
        for n in range(1, 13)
        for index in range(compositions.count(n))
    )
    elapsed = time.perf_counter() - started
    _emit(
        5,
        counts_ok and roundtrip_ok and elapsed < 20.0,
        f"exactly 2^(n-1) compositions enumerated for every n <= 20 and "
        f"decode/encode round-trips for n <= 12 ({elapsed:.2f}s < 20s)",
    )


def test_criterion_06_class_numbers():
    five = lpoly.complete(
        lpoly.coeffs_by_recurrence(lpoly.s_from_counts(2, [5])), 2
    )
    three = lpoly.complete(
        lpoly.coeffs_by_recurrence(lpoly.s_from_counts(2, [3])), 2
    )
    pinned_ok = (
        five.coeffs == (1, 2, 2)
        and lpoly.class_number(five) == 5
        and lpoly.class_number(three) == 3
    )
    formula_matches = sum(
        1
        for data in TRACE_INSTANCES
        if lpoly.class_number(lpoly.coeffs_from_traces(data))
        == lpoly.class_number_formula(data)
    )
    _emit(
        6,
        pinned_ok and formula_matches == len(TRACE_INSTANCES),
        f"(q=2, N1=5) gives L = 1+2t+2t^2 with h=5 and (q=2, N1=3) gives h=3; "
        f"direct formula equals L(1) on {formula_matches}/{len(TRACE_INSTANCES)} "
        f"oracle instances",
    )


def test_criterion_07_sign_tally_values_and_growth():
    started = time.perf_counter()
    g = 5
    deltas: dict[tuple[Theta, int], int] = {}
    majority: dict[tuple[Theta, int], bool] = {}
    for theta in (Theta.PI_4, Theta.THREE_PI_4):
        tallies = defect2.sign_tallies(20, g, theta)
        for n in range(2, 21):
            plus, minus = tallies[n]
            deltas[theta, n] = abs(plus - minus)
            majority[theta, n] = plus > minus
    pinned_ok = (
        deltas[Theta.PI_4, 2] == 2
        and deltas[Theta.PI_4, 3] == 2
        and deltas[Theta.PI_4, 4] == 4
        and deltas[Theta.PI_4, 5] == 4
        and deltas[Theta.THREE_PI_4, 6] == 8
        and deltas[Theta.THREE_PI_4, 7] == 10
    )
    majority_ok = all(majority[Theta.THREE_PI_4, n] for n in range(2, 21))
    growth_ok = all(
        deltas[theta, n] > n and deltas[theta, n] > deltas[theta, n - 1]
        for theta in (Theta.PI_4, Theta.THREE_PI_4)
        for n in range(6, 21)
    )
    elapsed = time.perf_counter() - started
    _emit(
        7,
        pinned_ok and majority_ok and growth_ok and elapsed < 120.0,
        f"sign-tally gaps match the pinned table, positives dominate at "
        f"3pi/4, and the gap exceeds n and grows strictly for 6 <= n <= 20 "
        f"({elapsed:.2f}s < 120s, one prefix-sum pass to n=20)",
    )


def test_criterion_08_termwise_symmetry():
    started = time.perf_counter()
    checked = 0
    failures = []
    for g in range(1, 15):
        for n in range(1, g + 1):
            if not defect2.verify_symmetry(n, g):
                failures.append((n, g))
            checked += 1
    elapsed = time.perf_counter() - started
    _emit(
        8,
        not failures,
        f"a_(n, pi/4) = (-1)^n a_(n, 3pi/4) termwise on every composition "
        f"for all {checked} pairs with n <= g <= 14 ({elapsed:.2f}s, "
        f"failures: {failures or 'none'})",
    )


def test_criterion_09_sign_theorem_small_genus():
    vacuous = defect2.verify_theorem_signs(1)
    vacuous_ok = (
        vacuous.mode == "vacuous"
        and vacuous.holds()
        and vacuous.a[Theta.PI_4] == (1, 0)
        and vacuous.a[Theta.THREE_PI_4] == (1, 0)
    )
    proven_ok = True
    for g in range(2, 7):
        report = defect2.verify_theorem_signs(g)
        if report.mode != "proven" or not report.holds(strict=True):
            proven_ok = False
    _emit(
        9,
        vacuous_ok and proven_ok,
        "g=1 is vacuous; alternating signs at pi/4, all-positive at 3pi/4 "
        "and strictly growing |a_n| confirmed for every g in 2..6",
    )


def test_criterion_10_branch_coefficients_match_trace_product():
    started = time.perf_counter()
    recurrence_ok = True
    for g in range(1, 13):
        for theta in (Theta.PI_4, Theta.THREE_PI_4):
            expected = lpoly.coeffs_from_traces(_branch_traces(g, theta))
            computed = defect2.a_list_theta_recurrence(g, g, theta)
            if computed != list(expected.coeffs[: g + 1]):
                recurrence_ok = False
    enumeration_ok = True
    for g in range(1, 15):
        for theta in (Theta.PI_4, Theta.THREE_PI_4):
            expected = lpoly.coeffs_from_traces(_branch_traces(g, theta))
            if defect2.a_list_theta(g, g, theta) != list(expected.coeffs[: g + 1]):
                enumeration_ok = False
    elapsed = time.perf_counter() - started
    _emit(
        10,
        recurrence_ok and enumeration_ok,
        f"branch coefficients from traces (+-2, ..., +-2, 0) match the "
        f"recurrence for g <= 12 and the last-row parapermanent route for g <= 14 "
        f"({elapsed:.2f}s)",
    )


def test_criterion_11_terms_are_rational():
    # the paper's terms CR_theta in Q(sqrt 2), one per composition: each
    # must have no sqrt(2) part, and their sum must be the pass's a_n
    started = time.perf_counter()
    checked = 0
    violations = []
    for g in range(1, 17):
        for theta in (Theta.PI_4, Theta.THREE_PI_4):
            values = defect2.a_list_theta(min(g, 8), g, theta)
            for n in range(1, min(g, 8) + 1):
                total = 0
                for composition in compositions.enumerate_compositions(n):
                    term = defect2.cr_theta(composition, g, theta)
                    if term.irr != 0:
                        violations.append((n, g, theta.value, composition.parts))
                    total += term
                if total != values[n]:
                    violations.append((n, g, theta.value, "sum"))
                checked += 1
    elapsed = time.perf_counter() - started
    _emit(
        11,
        not violations and checked == 200,
        f"every CR_theta term has a vanishing sqrt(2) component and the terms "
        f"sum to a_n for all {checked} (n, g, theta) with n <= min(g, 8), "
        f"g <= 16 ({elapsed:.2f}s, violations: {violations[:5] or 'none'})",
    )


def test_criterion_12_performance_envelope():
    started = time.perf_counter()
    tail_values = {
        theta: defect2.a_list_theta_recurrence(100, 100, theta)
        for theta in (Theta.PI_4, Theta.THREE_PI_4)
    }
    recurrence_elapsed = time.perf_counter() - started
    recurrence_ok = recurrence_elapsed < 1.0 and all(
        len(values) == 101 for values in tail_values.values()
    )
    before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # any child reaped during the call would change the children's totals
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    scan_started = time.perf_counter()
    value = defect2.a_n_theta(24, 24, Theta.THREE_PI_4)
    scan_elapsed = time.perf_counter() - scan_started
    grown_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before_kb
    no_children = resource.getrusage(resource.RUSAGE_CHILDREN) == children_before
    expected = defect2.a_list_theta_recurrence(24, 24, Theta.THREE_PI_4)[24]
    scan_ok = value == expected and scan_elapsed < 0.1
    memory_ok = grown_kb < 256 * 1024 and no_children
    _emit(
        12,
        recurrence_ok and scan_ok and memory_ok,
        f"a_0..a_100 recurrence in {recurrence_elapsed * 1000:.0f}ms (< 1s); "
        f"n=24 last-row parapermanent route in {scan_elapsed * 1000:.2f}ms "
        f"(< 100ms) with peak-memory growth {grown_kb} KB (< 262144 KB) and "
        f"no child process reaped: {no_children}",
    )
