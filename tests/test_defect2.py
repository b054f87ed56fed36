import math
import multiprocessing
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from zetapoly import defect2
from zetapoly.arith import QuadExt
from zetapoly.compositions import Composition, enumerate_compositions
from zetapoly.defect2 import (
    Theta,
    a_list_theta,
    a_list_theta_recurrence,
    a_n_theta,
    analyze,
    c_theta,
    classify,
    count_signs,
    cr_theta,
    residue_class,
    sign_tallies,
    verify_symmetry,
    verify_theorem_signs,
)
from zetapoly.errors import ConsistencyError
from zetapoly.lpoly import (
    SSequence,
    TraceData,
    coeffs_by_parapermanent,
    coeffs_from_traces,
    s_from_traces,
)

BOTH = (Theta.PI_4, Theta.THREE_PI_4)


class TestResidueClass:
    @pytest.mark.parametrize(
        "m,expected", [(1, 1), (2, 2), (7, 7), (8, 8), (9, 1), (15, 7), (16, 8), (17, 1)]
    )
    def test_values(self, m, expected):
        assert residue_class(m) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            residue_class(0)


class TestCTheta:
    @pytest.mark.parametrize(
        "m,theta,expected",
        [
            (1, Theta.PI_4, QuadExt(0, 2)),
            (7, Theta.PI_4, QuadExt(0, 2)),
            (3, Theta.PI_4, QuadExt(0, -2)),
            (5, Theta.PI_4, QuadExt(0, -2)),
            (1, Theta.THREE_PI_4, QuadExt(0, -2)),
            (3, Theta.THREE_PI_4, QuadExt(0, 2)),
            (2, Theta.PI_4, QuadExt(-1)),
            (6, Theta.THREE_PI_4, QuadExt(-1)),
            (4, Theta.PI_4, QuadExt(-3)),
            (8, Theta.PI_4, QuadExt(5)),
            (9, Theta.PI_4, QuadExt(0, 2)),
            (12, Theta.THREE_PI_4, QuadExt(-3)),
            (16, Theta.THREE_PI_4, QuadExt(5)),
        ],
    )
    def test_pinned_g5(self, m, theta, expected):
        assert c_theta(m, 5, theta) == expected

    def test_depends_only_on_residue(self):
        for theta in BOTH:
            for m in range(1, 9):
                assert c_theta(m + 8, 7, theta) == c_theta(m, 7, theta)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            c_theta(0, 5, Theta.PI_4)
        with pytest.raises(ValueError):
            c_theta(1, 0, Theta.PI_4)


class TestCrTheta:
    def test_single_part_one(self):
        for g in (2, 5, 9):
            assert cr_theta(Composition((1,)), g, Theta.PI_4) == QuadExt(-2 * (g - 1))
            assert cr_theta(Composition((1,)), g, Theta.THREE_PI_4) == QuadExt(2 * (g - 1))

    def test_single_part_two(self):
        for theta in BOTH:
            assert cr_theta(Composition((2,)), 5, theta) == QuadExt(2)

    def test_two_unit_parts(self):
        for g in (3, 5):
            for theta in BOTH:
                expected = QuadExt(2 * (g - 1) ** 2)
                assert cr_theta(Composition((1, 1)), g, theta) == expected

    def test_terms_sum_to_coefficient(self):
        for theta in BOTH:
            for n in range(1, 9):
                total = QuadExt(0)
                for composition in enumerate_compositions(n):
                    total = total + cr_theta(composition, 9, theta)
                assert total == a_n_theta(n, 9, theta)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            cr_theta(Composition(()), 5, Theta.PI_4)
        with pytest.raises(ValueError, match="^composition must have at least one part$"):
            classify(Composition(()), 5, Theta.PI_4)


class TestCoefficientRoutes:
    def test_pinned_small_genus(self):
        assert a_list_theta_recurrence(2, 2, Theta.THREE_PI_4) == [1, 2, 4]
        assert a_list_theta_recurrence(3, 3, Theta.THREE_PI_4) == [1, 4, 10, 16]
        assert a_list_theta_recurrence(3, 3, Theta.PI_4) == [1, -4, 10, -16]

    @pytest.mark.parametrize("g", [3, 5, 8])
    def test_enumeration_equals_recurrence(self, g):
        for theta in BOTH:
            recurrence = a_list_theta_recurrence(g, g, theta)
            for n in range(1, g + 1):
                assert a_n_theta(n, g, theta) == recurrence[n]
                assert a_list_theta_recurrence(n, g, theta)[n] == recurrence[n]

    @pytest.mark.parametrize("g", [1, 2, 4, 7, 11])
    def test_routes_match_trace_product(self, g):
        for theta in BOTH:
            traces = TraceData(2, (theta.trace_value,) * (g - 1) + (0,))
            expected = coeffs_from_traces(traces).coeffs
            computed = a_list_theta_recurrence(g, g, theta)
            assert list(expected[: g + 1]) == computed

    def test_sqrt2_component_cancels(self):
        # each term of a_n is rational, not only their sum
        for theta in BOTH:
            for n in range(1, 7):
                for composition in enumerate_compositions(n):
                    assert cr_theta(composition, 13, theta).irr == 0

    def test_parallel_matches_sequential(self):
        value = a_n_theta(18, 20, Theta.THREE_PI_4, threads=1)
        assert a_n_theta(18, 20, Theta.THREE_PI_4, threads=3) == value

    def test_validation(self):
        with pytest.raises(ValueError):
            a_n_theta(0, 5, Theta.PI_4)
        with pytest.raises(ValueError):
            a_n_theta(6, 5, Theta.PI_4)
        with pytest.raises(ValueError):
            a_n_theta(41, 40, Theta.PI_4)
        with pytest.raises(ValueError):
            a_list_theta_recurrence(5, 4, Theta.PI_4)
        with pytest.raises(ValueError, match="^g must be >= 1, got 0$"):
            a_list_theta_recurrence(0, 0, Theta.PI_4)
        with pytest.raises(ValueError):
            a_n_theta(2, 3, Theta.PI_4, threads=0)


class TestSignClassification:
    def test_matches_exact_sign(self):
        for theta in BOTH:
            for n in range(1, 11):
                for composition in enumerate_compositions(n):
                    expected = cr_theta(composition, 5, theta).sign()
                    assert expected != 0
                    assert classify(composition, 5, theta) == expected

    def test_needs_g_above_two(self):
        with pytest.raises(ValueError):
            classify(Composition((1,)), 2, Theta.PI_4)
        with pytest.raises(ValueError):
            count_signs(3, 2, Theta.PI_4)

    def test_counts_match_classification(self):
        for theta in BOTH:
            for n in range(1, 11):
                plus = 0
                minus = 0
                for composition in enumerate_compositions(n):
                    if classify(composition, 7, theta) == 1:
                        plus += 1
                    else:
                        minus += 1
                assert count_signs(n, 7, theta) == (plus, minus)

    def test_tally_totals(self):
        # every composition of every n up to 24 is tallied once, and the
        # coefficients there agree with the closed form and the recurrence
        started = time.perf_counter()
        cap = 24
        for theta in BOTH:
            for g in (3, 5, cap):
                totals = [plus + minus for plus, minus in sign_tallies(cap, g, theta)]
                assert totals[1:] == [1 << (n - 1) for n in range(1, cap + 1)]
            values = a_list_theta(cap, cap, theta)
            assert values == defect2._branch_coeffs(cap, cap, theta)
            assert values == a_list_theta_recurrence(cap, cap, theta)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize(
        "n,theta,delta",
        [
            (2, Theta.PI_4, 2),
            (3, Theta.PI_4, 2),
            (4, Theta.PI_4, 4),
            (5, Theta.PI_4, 4),
            (2, Theta.THREE_PI_4, 2),
            (3, Theta.THREE_PI_4, 2),
            (4, Theta.THREE_PI_4, 4),
            (5, Theta.THREE_PI_4, 4),
            (6, Theta.THREE_PI_4, 8),
            (7, Theta.THREE_PI_4, 10),
        ],
    )
    def test_pinned_deltas(self, n, theta, delta):
        plus, minus = count_signs(n, 5, theta)
        assert abs(plus - minus) == delta

    def test_direction_of_majorities(self):
        tallies = {theta: sign_tallies(11, 6, theta) for theta in BOTH}
        for n in range(2, 12):
            plus, minus = tallies[Theta.THREE_PI_4][n]
            assert plus > minus
            plus, minus = tallies[Theta.PI_4][n]
            if n % 2 == 0:
                assert plus > minus
            else:
                assert minus > plus


class TestSymmetry:
    @pytest.mark.parametrize("g", [1, 3, 6, 9])
    def test_holds(self, g):
        for n in range(1, g + 1):
            assert verify_symmetry(n, g)

    def test_validation(self):
        with pytest.raises(ValueError):
            verify_symmetry(4, 3)

    @given(st.integers(2, 10), st.integers(1, 10))
    @settings(deadline=None, max_examples=25)
    def test_aggregate_relation(self, g, n):
        if n > g:
            return
        flip = -1 if n % 2 else 1
        left = a_n_theta(n, g, Theta.PI_4)
        right = a_n_theta(n, g, Theta.THREE_PI_4)
        assert left == flip * right


class TestTheoremSigns:
    def test_vacuous_genus_one(self):
        report = verify_theorem_signs(1)
        assert report.mode == "vacuous"
        assert report.holds()
        assert report.a[Theta.PI_4] == (1, 0)

    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_proven_range(self, g):
        report = verify_theorem_signs(g)
        assert report.mode == "proven"
        assert report.holds()
        assert report.holds(strict=True)

    def test_rejects_genus_zero(self):
        with pytest.raises(ValueError, match="^g must be >= 1, got 0$"):
            verify_theorem_signs(0)

    def test_conjecture_mode(self):
        report = verify_theorem_signs(9)
        assert report.mode == "conjecture"
        assert report.holds(strict=True)

    def test_signs_alternate(self):
        report = verify_theorem_signs(6)
        values = report.a[Theta.PI_4]
        for n in range(1, 7):
            assert (values[n] < 0) == (n % 2 == 1)
        assert all(v > 0 for v in report.a[Theta.THREE_PI_4][1:])


class TestAnalyze:
    def test_report_genus_four(self):
        report = analyze(4)
        assert report.theorem_mode == "proven"
        assert report.max_n == 4
        assert [row.n for row in report.rows] == [1, 2, 3, 4]
        deltas = [row.cells[Theta.PI_4].delta for row in report.rows]
        assert deltas == [1, 2, 2, 4]
        assert all(row.symmetry_ok for row in report.rows)
        assert all(row.tally_ok for row in report.rows[1:])
        assert all(row.theorem_ok is True for row in report.rows)
        assert report.oracle_match == {Theta.PI_4: True, Theta.THREE_PI_4: True}
        assert report.recurrence_match == {Theta.PI_4: True, Theta.THREE_PI_4: True}

    def test_report_json_shape(self):
        payload = analyze(3).to_json_dict()
        assert payload["g"] == 3
        assert payload["thetas"] == ["pi4", "3pi4"]
        row = payload["rows"][1]
        assert row["n"] == 2
        assert row["a_pi4"] == "10"
        assert row["delta_pi4"] == "2"
        assert row["checks"] == {"symmetry": True, "tallies": True, "signs": True}

    def test_single_theta(self):
        report = analyze(3, thetas=(Theta.THREE_PI_4,))
        assert report.thetas == (Theta.THREE_PI_4,)
        assert all(row.symmetry_ok is None for row in report.rows)
        payload = report.to_json_dict()
        assert payload["rows"][0]["a_pi4"] is None
        assert payload["rows"][0]["a_3pi4"] == "4"

    def test_thetas_read_once(self):
        # a one-shot iterable selects its branches as a tuple does
        report = analyze(5, thetas=iter([Theta.THREE_PI_4]))
        assert report == analyze(5, thetas=(Theta.THREE_PI_4,))

    def test_genus_one_vacuous(self):
        report = analyze(1)
        assert report.theorem_mode == "vacuous"
        assert report.rows[0].theorem_ok == "vacuous"
        assert report.rows[0].cells[Theta.PI_4].a == 0
        assert report.rows[0].tally_ok is None

    def test_genus_two_has_no_tallies(self):
        report = analyze(2)
        assert all(row.tally_ok is None for row in report.rows)
        assert all(row.cells[Theta.PI_4].p_plus is None for row in report.rows)

    def test_conjecture_rows(self):
        report = analyze(8, max_n=4)
        assert report.theorem_mode == "conjecture"
        assert all(row.theorem_ok == "conjecture" for row in report.rows)

    def test_max_n_controls_rows(self):
        report = analyze(10, max_n=3)
        assert report.max_n == 3
        assert len(report.rows) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            analyze(0)
        with pytest.raises(ValueError):
            analyze(5, max_n=6)
        with pytest.raises(ValueError):
            analyze(5, max_n=0)
        with pytest.raises(ValueError):
            analyze(5, thetas=())


def _sign_rule(n, value, theta):
    # the sign claimed for a_n: positive on 3pi/4, (-1)^n on pi/4
    if theta is Theta.THREE_PI_4 or n % 2 == 0:
        return value > 0
    return value < 0


def _claim_rule(values, n, theta):
    # the claims on a_n = values[n]: its sign, |a_n| >= |a_(n-1)| and
    # |a_n| > |a_(n-1)|
    size, before = abs(values[n]), abs(values[n - 1])
    return _sign_rule(n, values[n], theta), size >= before, size > before


def _tally_rule(nets, n, theta):
    # the claims on P+ - P- = nets[n] for n >= 2: the sign claimed for a_n,
    # |P+ - P-| = 2 at n = 2, 3 and 4 at n = 4, 5, then |P+ - P-| > n, and
    # from n = 7 also |P+ - P-| above its value at n - 1
    delta = abs(nets[n])
    if not _sign_rule(n, nets[n], theta):
        return False
    if n in (2, 3):
        return delta == 2
    if n in (4, 5):
        return delta == 4
    return delta > n and (n < 7 or delta > abs(nets[n - 1]))


def _rebuilt_report(g, max_n, selected):
    # analyze's report from the per-n rules above, the recurrence's a_n, the
    # sign tallies and the per-part symmetry of the branches' S-values
    values = {theta: a_list_theta_recurrence(max_n, g, theta) for theta in selected}
    tallies = {theta: sign_tallies(max_n, g, theta) for theta in selected if g > 2}
    nets = {theta: [plus - minus for plus, minus in tallies[theta]] for theta in tallies}
    weights = {theta: defect2._pass_weights(max_n, g, theta) for theta in BOTH}
    mode = "vacuous" if g == 1 else "proven" if g <= 6 else "conjecture"
    rows = []
    for n in range(1, max_n + 1):
        cells = {}
        for theta in selected:
            plus, minus = tallies[theta][n] if g > 2 else (None, None)
            cells[theta] = defect2.ThetaCell(values[theta][n], plus, minus)
        symmetry_ok = None
        if len(selected) == 2:
            symmetry_ok = all(
                weights[Theta.PI_4][m - 1] == (-1) ** m * weights[Theta.THREE_PI_4][m - 1]
                for m in range(1, n + 1)
            )
        tally_ok = None
        if g > 2 and n >= 2:
            tally_ok = all(_tally_rule(nets[theta], n, theta) for theta in selected)
        claims = all(all(_claim_rule(values[theta], n, theta)[:2]) for theta in selected)
        if mode == "vacuous":
            theorem_ok = "vacuous"
        elif mode == "proven":
            theorem_ok = claims
        else:
            theorem_ok = "conjecture" if claims else False
        rows.append(defect2.ReportRow(n, cells, symmetry_ok, tally_ok, theorem_ok))
    every = {theta: True for theta in selected}
    return defect2.Defect2Report(g, max_n, selected, mode, tuple(rows), every, dict(every))


# integers whose magnitudes tie, fall and rise, small enough to meet the
# pinned deltas 2 and 4 and large enough to pass n
_NETS = st.lists(st.one_of(st.integers(-6, 6), st.integers(-40, 40)), min_size=1, max_size=30)


class TestVerdictColumns:
    @given(_NETS)
    @settings(deadline=None, max_examples=300)
    @example([1, -1, 1, 3, -3, 2, 0])  # ties, falls and rises
    @example([1, -1, 2, -2, 4, -4, 12, 9, 10])  # pinned deltas; |n = 7| < |n = 6|
    @example([1, 2, 2, 4, 4, 5, 9, 12])  # 3pi/4 holds throughout
    def test_columns_follow_the_per_n_rules(self, values):
        for theta in BOTH:
            sign, weak, strict = defect2._claims(values, theta)
            expected = [_claim_rule(values, n, theta) for n in range(1, len(values))]
            assert list(zip(sign, weak, strict)) == expected
            verdicts = list(map(all, zip(*defect2._tally_claims(values, theta))))
            assert verdicts == [_tally_rule(values, n, theta) for n in range(2, len(values))]

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize("selected", [BOTH, (Theta.PI_4,), (Theta.THREE_PI_4,)])
    @pytest.mark.parametrize("g", [8, 12, 20])
    def test_tally_fault_fails_its_rows(self, monkeypatch, g, selected, swap):
        # one (P+, P-) pair shifted at n.  Swapped, P+ - P- has the wrong
        # sign at n; moved 2^n further apart each, |P+ - P-| leaves its
        # pinned value at n <= 5 and outgrows n + 1's from n = 6.  tally_ok
        # is False on the rows the per-n rule names, n or n + 1, and True
        # elsewhere
        real = defect2._tallies
        for fault in sorted({2, 3, 5, 6, 7, g - 1} | ({g} if swap else set())):

            def shifted(weights):
                tallies = real(weights)
                plus, minus = tallies[fault]
                step = 1 << fault if plus >= minus else -(1 << fault)
                tallies[fault] = (minus, plus) if swap else (plus + step, minus - step)
                return tallies

            monkeypatch.setattr(defect2, "_tallies", shifted)
            report = analyze(g, thetas=selected)
            nets = {}
            for theta in selected:
                tallies = shifted(defect2._pass_weights(g, g, theta))
                nets[theta] = [plus - minus for plus, minus in tallies]
                cell = report.rows[fault - 1].cells[theta]
                assert (cell.p_plus, cell.p_minus) == tallies[fault]
            expected = [
                all(_tally_rule(nets[theta], n, theta) for theta in selected)
                for n in range(2, g + 1)
            ]
            assert [row.tally_ok for row in report.rows] == [None] + expected
            failed = {n for n, ok in enumerate(expected, start=2) if not ok}
            if swap:
                assert fault in failed
                assert failed <= {fault, fault + 1}
            else:
                assert failed == ({fault} if fault <= 5 else {fault + 1})

    def test_report_equals_the_per_n_rules(self):
        selections = (BOTH, (Theta.PI_4,), (Theta.THREE_PI_4,))
        for g in range(1, 41):
            for max_n in range(1, g + 1):
                for selected in selections:
                    assert analyze(g, max_n, selected) == _rebuilt_report(g, max_n, selected)
            report = verify_theorem_signs(g)
            if g == 1:
                assert report.sign_ok == report.growth_weak == report.growth_strict == {}
                continue
            for theta in BOTH:
                values = report.a[theta]
                columns = list(zip(*(_claim_rule(values, n, theta) for n in range(1, g + 1))))
                assert columns == [tuple(column) for column in defect2._claims(values, theta)]
                assert report.sign_ok[theta] is all(columns[0])
                assert report.growth_weak[theta] is all(columns[1])
                assert report.growth_strict[theta] is all(columns[2])

    def test_disagreement_at_the_last_n_raises(self, monkeypatch):
        # a class-6 weight of the same sign on both branches moves a_6 alone
        # (its one-part term), so the routes differ at the last n only
        patched = _with_weight(defect2.c_theta, (6,), BOTH, lambda g: QuadExt(-4))
        monkeypatch.setattr(defect2, "c_theta", patched)
        assert analyze(6, max_n=5).max_n == 5
        with pytest.raises(ConsistencyError, match="closed form at n=6, g=6, theta=pi4"):
            analyze(6)
        with pytest.raises(ConsistencyError, match="closed form at n=6, g=6"):
            verify_symmetry(6, 6)
        with pytest.raises(ConsistencyError, match=r"recurrence at n=2, g=5, theta=3pi4: 3 vs 4$"):
            defect2._check_agreement("recurrence", [1, 2, 3], [1, 2, 4], 5, Theta.THREE_PI_4)
        defect2._check_agreement("recurrence", [1, 2, 3], [1, 2, 3], 5, Theta.THREE_PI_4)


class TestConsistencyGuards:
    def test_integer_result_guard(self):
        assert type(a_n_theta(3, 4, Theta.PI_4)) is int

    def test_recurrence_weights_are_integers(self):
        for theta in BOTH:
            for g in (1, 2, 5, 9):
                values = a_list_theta_recurrence(g, g, theta)
                assert all(isinstance(v, int) for v in values)

    def test_non_integral_recurrence_raises(self, monkeypatch):
        # S_1 = 1 and no other S-value: 2 a_2 = a_1 = 1
        monkeypatch.setattr(
            defect2, "_s_values", lambda traces, q, n: tuple(int(r == 1) for r in range(1, n + 1))
        )
        for theta in BOTH:
            with pytest.raises(ConsistencyError, match="a_2 is not an integer"):
                a_list_theta_recurrence(2, 6, theta)


class TestPrefixWalk:
    @pytest.mark.parametrize("g", [1, 2, 3, 5, 9])
    def test_sums_equal_term_sums(self, g):
        # g = 1 and 2 have zero-weight parts; n runs past g, which
        # a_list_theta refuses, so the pass is run on its S-values directly
        for theta in BOTH:
            values = coeffs_by_parapermanent(SSequence(2, defect2._pass_weights(10, g, theta)))
            for n in range(1, 11):
                total = QuadExt(0)
                for composition in enumerate_compositions(n):
                    total = total + cr_theta(composition, g, theta)
                assert QuadExt(values[n]) == total

    @pytest.mark.parametrize("g", [3, 7])
    def test_tallies_equal_classification(self, g):
        for theta in BOTH:
            tallies = sign_tallies(10, g, theta)
            for n in range(1, 11):
                signs = [classify(c, g, theta) for c in enumerate_compositions(n)]
                assert tallies[n] == (signs.count(1), signs.count(-1))

    def test_weights_are_the_branch_s_values(self, monkeypatch):
        # the pass's S-values from the per-part weights equal the ones the
        # recurrence reads and S_1.. of the branch's trace vector
        real = defect2.coeffs_by_recurrence
        read = []
        monkeypatch.setattr(defect2, "coeffs_by_recurrence", lambda s: read.append(s.s) or real(s))
        for g in range(1, 41):
            for theta in BOTH:
                traces = TraceData(2, (theta.trace_value,) * (g - 1) + (0,))
                s_values = s_from_traces(traces).s
                a_list_theta_recurrence(g, g, theta)
                assert read.pop() == s_values
                assert defect2._pass_weights(g, g, theta) == s_values

    @pytest.mark.parametrize("g,max_n", [(1, 1), (2, 2), (3, 1), (7, 4), (20, 20), (30, 26)])
    def test_pass_reads_every_weight_once(self, monkeypatch, g, max_n):
        # the pass calls c_theta once for each m = 1..max_n on each branch
        # it sums, and for no other m
        real = defect2.c_theta
        calls = []
        monkeypatch.setattr(
            defect2, "c_theta", lambda m, g, theta: calls.append((m, theta)) or real(m, g, theta)
        )
        every_m = sorted((m, theta.value) for m in range(1, max_n + 1) for theta in BOTH)
        analyze(g, max_n)
        assert sorted((m, theta.value) for m, theta in calls) == every_m
        for theta in BOTH:
            calls.clear()
            analyze(g, max_n, (theta,))
            assert calls == [(m, theta) for m in range(1, max_n + 1)]
            calls.clear()
            a_list_theta(max_n, g, theta)
            assert calls == [(m, theta) for m in range(1, max_n + 1)]

    def test_analyze_independent_of_workers(self):
        sequential = analyze(18, threads=1).to_json_dict()
        assert analyze(18, threads=2).to_json_dict() == sequential

    def test_wrong_parity_rule_raises(self, monkeypatch):
        wrong = {Theta.PI_4: (3, 5, 8), Theta.THREE_PI_4: (1, 7, 8)}
        monkeypatch.setattr(defect2, "_PARITY_CLASSES", wrong)
        with pytest.raises(ConsistencyError):
            count_signs(5, 5, Theta.PI_4)
        with pytest.raises(ConsistencyError):
            analyze(5)

    def test_rule_checked_on_every_part(self, monkeypatch):
        # class 8 dropped from the 3pi/4 rule: only parts of 8 break it
        below_eight = count_signs(7, 5, Theta.THREE_PI_4)
        monkeypatch.setitem(defect2._PARITY_CLASSES, Theta.THREE_PI_4, (3, 5))
        assert count_signs(7, 5, Theta.THREE_PI_4) == below_eight
        with pytest.raises(ConsistencyError, match="a term of a_8 has the sign opposite"):
            count_signs(9, 5, Theta.THREE_PI_4)

    def test_zero_weight_raises_for_g_above_two(self, monkeypatch):
        # P+ + P- is read as the 2^(n-1) compositions of n, so every term
        # must have a sign: a vanishing weight for g > 2 is refused, not
        # tallied
        patched = _with_weight(defect2.c_theta, (4,), BOTH, lambda g: QuadExt(0))
        monkeypatch.setattr(defect2, "c_theta", patched)
        for theta in BOTH:
            with pytest.raises(ConsistencyError, match=r"C_theta\(4\) = 0 for g=5"):
                sign_tallies(6, 5, theta)
        with pytest.raises(ConsistencyError, match=r"C_theta\(4\) = 0 for g=5"):
            analyze(5)

    def test_wrong_weight_caught_by_closed_form(self, monkeypatch):
        # only the pass reads c_theta, so a wrong weight (same sign, so the
        # parity check passes) moves it alone; analyze checks the closed
        # form first, which does not use the weight and must disagree
        real = defect2.c_theta

        def wrong(m, g, theta):
            if residue_class(m) == 4:
                return QuadExt(-(g - 1))
            return real(m, g, theta)

        monkeypatch.setattr(defect2, "c_theta", wrong)
        with pytest.raises(ConsistencyError, match="closed form at n=4, g=6"):
            analyze(6)

    def test_wrong_weight_caught_by_recurrence(self, monkeypatch):
        # the recurrence reads the branch's traces, not c_theta, so the
        # class-4 weight of the pass alone moves a_4..a_6 of both branches
        patched = _with_weight(defect2.c_theta, (4,), BOTH, lambda g: QuadExt(-(g - 1)))
        monkeypatch.setattr(defect2, "c_theta", patched)
        for theta in BOTH:
            assert a_list_theta(6, 6, theta) != a_list_theta_recurrence(6, 6, theta)

    def test_no_process_outlives_a_call(self):
        analyze(18, threads=2)
        assert multiprocessing.active_children() == []
        a_n_theta(18, 18, Theta.PI_4, threads=2)
        assert multiprocessing.active_children() == []
        count_signs(18, 5, Theta.THREE_PI_4, threads=2)
        assert multiprocessing.active_children() == []

    def test_no_process_machinery_loaded(self):
        # in a fresh interpreter, threads= must not pull in a process pool
        script = "; ".join([
            "import sys, zetapoly",
            "from zetapoly.defect2 import Theta, a_list_theta, analyze",
            "analyze(20, threads=8)",
            "[a_list_theta(24, 24, theta) for theta in Theta]",
            "print([name for name in ('multiprocessing', 'concurrent.futures.process')"
            " if name in sys.modules])",
        ])
        src = os.path.dirname(os.path.dirname(defect2.__file__))
        done = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
            check=True,
        )
        assert done.stdout.strip() == "[]"


def _with_weight(real, classes, thetas, weight):
    # c_theta with the weight of the given residue classes replaced on the
    # given branches
    def patched(m, g, theta):
        if theta in thetas and residue_class(m) in classes:
            return weight(g)
        return real(m, g, theta)

    return patched


def _scaled_fp(weights):
    # S_{i+1-j}/i times i!/(j-1)! over the S-values: the product along a
    # composition of N telescopes to N! times its term
    return lambda i, j: weights[i - j] * math.factorial(i - 1) // math.factorial(j - 1)


class TestPairedWalk:
    @pytest.mark.parametrize("g", [1, 2, 3, 5, 9, 14])
    def test_step_products_equal_terms(self, g):
        # the product of lpoly's scaled factorial products over the branch's
        # S-values at a composition's keys is n! * cr_theta, and every term
        # is rational
        for theta in BOTH:
            fp = _scaled_fp(defect2._pass_weights(10, g, theta))
            for n in range(1, 11):
                for composition in enumerate_compositions(n):
                    value, prefix = 1, 0
                    for part in composition.parts:
                        value *= fp(prefix + part, prefix + 1)
                        prefix += part
                    term = cr_theta(composition, g, theta)
                    assert term.irr == 0
                    assert value == term.rat * math.factorial(n)

    def test_per_part_identity(self):
        # f_pi4(m) = (-1)^m f_3pi4(m) for every part after every prefix, with
        # the same zero weights on both branches and none for g > 2
        for g in range(1, 31):
            weights = defect2._pass_weights(24, g, Theta.PI_4)
            weights3 = defect2._pass_weights(24, g, Theta.THREE_PI_4)
            if g > 2:
                assert all(weights)
            fp, fp3 = _scaled_fp(weights), _scaled_fp(weights3)
            for prefix in range(24):
                for child in range(prefix + 1, 25):
                    factor, factor3 = fp(child, prefix + 1), fp3(child, prefix + 1)
                    assert (factor == 0) is (factor3 == 0)
                    assert factor == (-1) ** (child - prefix) * factor3

    def test_walk_verdicts_all_hold(self):
        for g in (1, 2, 3, 9, 14):
            verdicts = defect2._symmetry_verdicts(
                defect2._pass_weights(14, g, Theta.PI_4),
                defect2._pass_weights(14, g, Theta.THREE_PI_4),
            )
            assert all(verdicts)

    @pytest.mark.parametrize("g", [1, 2, 3, 9, 14])
    def test_reflected_branch_equals_its_own_walk(self, g):
        # a both-branch report's 3pi/4 cells (a_n and (P+, P-) of every
        # n <= 14) equal a 3pi/4-only report's
        max_n = min(g, 14)
        both = analyze(g, max_n=max_n)
        own = analyze(g, max_n=max_n, thetas=(Theta.THREE_PI_4,))
        assert [row.cells[Theta.THREE_PI_4] for row in both.rows] == [
            row.cells[Theta.THREE_PI_4] for row in own.rows
        ]
        assert all(row.symmetry_ok is None for row in own.rows)

    @pytest.mark.parametrize("faulty", [False, True])
    @pytest.mark.parametrize("g", [3, 6])
    def test_verdicts_equal_termwise_comparison(self, monkeypatch, g, faulty):
        if faulty:
            patched = _with_weight(defect2.c_theta, (2,), (Theta.PI_4,), lambda g: QuadExt(-2))
            monkeypatch.setattr(defect2, "c_theta", patched)
        symmetric = defect2._symmetry_verdicts(
            defect2._pass_weights(8, g, Theta.PI_4),
            defect2._pass_weights(8, g, Theta.THREE_PI_4),
        )
        holds = True
        for n in range(1, 9):
            for composition in enumerate_compositions(n):
                left = cr_theta(composition, g, Theta.PI_4)
                right = cr_theta(composition, g, Theta.THREE_PI_4)
                holds = holds and left == (-right if n % 2 else right)
            assert symmetric[n] is holds
        assert holds is not faulty

    def test_one_branch_call_reads_its_own_weights(self, monkeypatch):
        # a pi/4-only fault leaves every 3pi/4 answer as it was
        a_before = a_list_theta(6, 6, Theta.THREE_PI_4)
        tallies_before = sign_tallies(6, 6, Theta.THREE_PI_4)
        patched = _with_weight(defect2.c_theta, (2,), (Theta.PI_4,), lambda g: QuadExt(-2))
        monkeypatch.setattr(defect2, "c_theta", patched)
        assert a_list_theta(6, 6, Theta.THREE_PI_4) == a_before
        assert sign_tallies(6, 6, Theta.THREE_PI_4) == tallies_before

    def test_one_branch_weight_changed_is_asymmetric(self, monkeypatch):
        # a class-2 weight of the same sign, on pi/4 only: every sign check
        # passes, every n >= 2 has a part 2, and n = 1 has none
        patched = _with_weight(defect2.c_theta, (2,), (Theta.PI_4,), lambda g: QuadExt(-2))
        monkeypatch.setattr(defect2, "c_theta", patched)
        assert verify_symmetry(1, 6)
        for n in range(2, 7):
            assert not verify_symmetry(n, 6)
        verdicts = defect2._symmetry_verdicts(
            defect2._pass_weights(6, 6, Theta.PI_4),
            defect2._pass_weights(6, 6, Theta.THREE_PI_4),
        )
        assert verdicts[1:] == [True] + [False] * 5

    @pytest.mark.parametrize(
        "classes,distort",
        [
            ((1,), lambda w: QuadExt(2 * w.irr)),  # odd part, rational weight
            ((3,), lambda w: w / 12),  # odd part, 2*irr = +-1/2
            ((1,), lambda w: w + 1),  # odd part with a rational part
            ((2,), lambda w: w + QuadExt(0, 1)),  # even part with a sqrt(2) part
            ((4,), lambda w: w / 2),  # even part, -5/2
        ],
    )
    def test_malformed_weight_raises(self, monkeypatch, classes, distort):
        # the walk holds integers only, so a weight of the wrong shape (same
        # sign on both branches, so no sign check fires) must be refused,
        # not truncated or dropped
        real = defect2.c_theta

        def malformed(m, g, theta):
            weight = real(m, g, theta)
            return distort(weight) if residue_class(m) in classes else weight

        monkeypatch.setattr(defect2, "c_theta", malformed)
        for theta in BOTH:
            with pytest.raises(ConsistencyError, match="is not an integer"):
                a_list_theta(4, 7, theta)

    def test_wrong_weight_in_both_branches_raises(self, monkeypatch):
        # the same wrong class-4 weight on both branches keeps every pair of
        # terms equal; only the closed form can tell
        patched = _with_weight(defect2.c_theta, (4,), BOTH, lambda g: QuadExt(-(g - 1)))
        monkeypatch.setattr(defect2, "c_theta", patched)
        assert verify_symmetry(3, 6)
        with pytest.raises(ConsistencyError, match="closed form at n=4, g=6"):
            verify_symmetry(4, 6)

    def test_analyze_reads_the_termwise_verdict(self, monkeypatch):
        real = defect2._symmetry_verdicts

        def broken_at_three(weights, weights3):
            verdicts = real(weights, weights3)
            verdicts[3] = False
            return verdicts

        monkeypatch.setattr(defect2, "_symmetry_verdicts", broken_at_three)
        verdicts = [row.symmetry_ok for row in analyze(5).rows]
        assert verdicts == [True, True, False, True, True]

    def test_symmetry_at_large_genus_is_instant(self):
        started = time.perf_counter()
        assert verify_symmetry(3, 10**6)
        assert time.perf_counter() - started < 1.0


class TestClosedForm:
    def test_equals_trace_route(self):
        for g in range(1, 41):
            for theta in BOTH:
                traces = TraceData(2, (theta.trace_value,) * (g - 1) + (0,))
                expected = list(coeffs_from_traces(traces).coeffs)
                assert defect2._branch_coeffs(2 * g, g, theta) == expected

    def test_analyze_is_bounded_in_genus(self):
        for g in (2000, 10**6):
            started = time.perf_counter()
            report = analyze(g, max_n=3)
            elapsed = time.perf_counter() - started
            assert report.oracle_match == {Theta.PI_4: True, Theta.THREE_PI_4: True}
            assert elapsed < 1.0


class TestListApis:
    def test_coefficients_equal_per_n_calls(self):
        for theta in BOTH:
            values = a_list_theta(16, 16, theta)
            assert values == [1] + [a_n_theta(n, 16, theta) for n in range(1, 17)]
            assert values == a_list_theta_recurrence(16, 16, theta)

    def test_tallies_equal_per_n_calls(self):
        for theta in BOTH:
            tallies = sign_tallies(16, 5, theta)
            assert tallies[0] == (1, 0)
            assert tallies[1:] == [count_signs(n, 5, theta) for n in range(1, 17)]

    def test_validation(self):
        with pytest.raises(ValueError):
            a_list_theta(0, 5, Theta.PI_4)
        with pytest.raises(ValueError):
            a_list_theta(6, 5, Theta.PI_4)
        with pytest.raises(ValueError):
            a_list_theta(31, 30, Theta.PI_4)
        with pytest.raises(ValueError):
            sign_tallies(4, 2, Theta.PI_4)
        with pytest.raises(ValueError):
            sign_tallies(0, 5, Theta.PI_4)
        with pytest.raises(ValueError, match="^n must be >= 1, got 0$"):
            count_signs(0, 5, Theta.THREE_PI_4)
        with pytest.raises(ValueError):
            count_signs(2, 5, Theta.PI_4, threads=0)


class TestPastTwentyFour:
    # nothing enumerates compositions, so the entry points take any n <= g
    # (sign_tallies any n at all) at O(n^2) big-integer steps
    def test_coefficients_at_one_hundred(self):
        for theta in BOTH:
            values = a_list_theta(100, 100, theta)
            assert values == defect2._branch_coeffs(100, 100, theta)
            assert values == a_list_theta_recurrence(100, 100, theta)

    def test_tally_totals_to_two_hundred(self):
        for theta in BOTH:
            totals = [plus + minus for plus, minus in sign_tallies(200, 5, theta)]
            assert totals[1:] == [1 << (n - 1) for n in range(1, 201)]

    def test_symmetry_at_sixty(self):
        assert verify_symmetry(60, 60)

    def test_analyze_defaults_to_every_n(self):
        report = analyze(40)
        assert report.max_n == 40
        assert [row.n for row in report.rows] == list(range(1, 41))
        for theta in BOTH:
            expected = a_list_theta_recurrence(40, 40, theta)
            assert expected == defect2._branch_coeffs(40, 40, theta)
            assert [row.cells[theta].a for row in report.rows] == expected[1:]
