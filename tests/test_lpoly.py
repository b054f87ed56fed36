import math
import re
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from zetapoly import lpoly, parapermanent
from zetapoly.errors import ConsistencyError
from zetapoly.lpoly import (
    COMPOSITION_CAP,
    LPolynomial,
    SSequence,
    TraceData,
    class_number,
    class_number_formula,
    class_number_from_traces,
    coeffs_by_compositions,
    coeffs_by_compositions_exact,
    coeffs_by_parapermanent,
    coeffs_by_parapermanent_exact,
    coeffs_by_recurrence,
    coeffs_by_recurrence_exact,
    coeffs_from_traces,
    complete,
    literal_matrix,
    n_from_traces,
    oracle_expand,
    s_from_counts,
    s_from_traces,
)
from zetapoly.parapermanent import pper_by_last_row, pper_composition_sums, pper_prefixes

s_vectors = st.builds(
    SSequence,
    st.sampled_from([2, 3, 4, 5]),
    st.lists(st.integers(-50, 50), min_size=1, max_size=8).map(tuple),
)


def trace_data(q_values=(2, 3, 4, 5, 7, 9), max_g=8):
    def build(q, raw):
        bound = math.isqrt(4 * q)
        return TraceData(q, tuple(max(-bound, min(bound, t)) for t in raw))

    return st.builds(
        build,
        st.sampled_from(q_values),
        st.lists(st.integers(-6, 6), min_size=0, max_size=max_g),
    )


def untruncated_product(q, traces):
    # every coefficient of prod (1 - t x + q x^2), multiplied out in full
    coeffs = [1]
    for t in traces:
        coeffs = [
            a - t * b + q * c
            for a, b, c in zip(coeffs + [0, 0], [0] + coeffs + [0], [0, 0] + coeffs)
        ]
    return tuple(coeffs)


def per_trace_s_values(traces, q, n):
    # S_1..S_n with one power-sum recurrence for every key, t and -t apart
    totals = [0] * n
    for t, count in traces.items():
        previous, current = 2, t
        for r in range(n):
            totals[r] -= count * current
            previous, current = current, t * current - q * previous
    return tuple(totals)


class TestInputs:
    def test_s_from_counts(self):
        assert s_from_counts(2, [5]).s == (2,)
        assert s_from_counts(2, [3]).s == (0,)
        assert s_from_counts(3, [4, 16]).s == (0, 6)

    def test_s_from_counts_validation(self):
        with pytest.raises(ValueError):
            s_from_counts(1, [5])
        with pytest.raises(ValueError):
            s_from_counts(2, [])
        with pytest.raises(ValueError):
            s_from_counts(2, [-1])

    def test_weil_warning(self):
        with pytest.warns(UserWarning):
            s_from_counts(2, [99])
        assert SSequence(2, (96,)).weil_violations() == (1,)
        assert SSequence(2, (2,)).weil_violations() == ()

    def test_trace_bounds(self):
        TraceData(2, (2, -2, 0))
        with pytest.raises(ValueError):
            TraceData(2, (3,))
        with pytest.raises(ValueError):
            TraceData(5, (-5,))

    def test_n_from_traces(self):
        data = TraceData(2, (0,))
        assert n_from_traces(data, 1) == 3
        assert n_from_traces(data, 2) == 9
        with pytest.raises(ValueError):
            n_from_traces(data, 0)

    @pytest.mark.parametrize(
        "traces",
        [
            [3, 3, -3, -3, -3, 0, -1, -1, -1, -1],  # ±3 unequal, 0, -1 alone
            [-2, -2, -2],
            [0, 0],
            [2, -2],
            [],
        ],
    )
    def test_s_values_pair_signs_pinned(self, traces):
        counts = Counter(traces)
        for n in (0, 1, 2, 7):
            expected = per_trace_s_values(counts, 5, n)
            assert lpoly._s_values(counts, 5, n) == expected
            assert lpoly._s_values(dict(counts), 5, n) == expected

    @given(st.sampled_from([2, 3, 5, 9]), st.lists(st.integers(-6, 6), max_size=12), st.integers(0, 9))
    def test_s_values_equal_per_trace_loop(self, q, traces, n):
        counts = Counter(traces)
        expected = per_trace_s_values(counts, q, n)
        assert lpoly._s_values(counts, q, n) == expected
        assert lpoly._s_values(dict(counts), q, n) == expected

    @given(trace_data())
    def test_s_matches_n(self, data):
        s = s_from_traces(data)
        for r in range(1, data.g + 1):
            assert s.s[r - 1] == n_from_traces(data, r) - (data.q**r + 1)


class TestCoefficients:
    def test_pinned_small(self):
        assert coeffs_by_recurrence(SSequence(2, (2,))) == [1, 2]
        assert coeffs_by_recurrence(SSequence(2, (4, 4))) == [1, 4, 10]
        assert coeffs_by_parapermanent(SSequence(2, (4, 4))) == [1, 4, 10]
        assert coeffs_by_compositions(SSequence(2, (4, 4))) == [1, 4, 10]

    @given(s_vectors)
    @settings(deadline=None)
    def test_three_methods_agree(self, s):
        by_recurrence = coeffs_by_recurrence_exact(s)
        assert coeffs_by_parapermanent_exact(s) == by_recurrence
        assert coeffs_by_compositions_exact(s) == by_recurrence

    def test_integrality_enforced(self):
        s = SSequence(2, (1, 0))
        with pytest.raises(ConsistencyError):
            coeffs_by_recurrence(s)
        with pytest.raises(ConsistencyError):
            coeffs_by_parapermanent(s)

    def test_composition_cap(self):
        s = SSequence(2, (0,) * (COMPOSITION_CAP + 1))
        with pytest.raises(ValueError):
            coeffs_by_compositions(s)

    def test_a4_closed_form(self):
        s = SSequence(3, (5, -7, 2, 11))
        s1, s2, s3, s4 = (Fraction(v) for v in s.s)
        expected = (
            s4 / 4
            + s1 * s3 / 3
            + s2 * s2 / 8
            + s1 * s1 * s2 / 4
            + s1**4 / 24
        )
        assert coeffs_by_compositions_exact(s)[4] == expected

    def test_literal_matrix_matches(self):
        s = SSequence(2, (4, 4, -2, 6))
        for n in range(s.g + 1):
            value = pper_by_last_row(literal_matrix(s, n))
            assert value == coeffs_by_recurrence_exact(s)[n]

    def test_literal_matrix_order_bounded_by_genus(self):
        s = SSequence(2, (4, 4, -2, 6))
        with pytest.raises(ValueError, match=r"^order must be in \[0, 4\], got 5$"):
            literal_matrix(s, s.g + 1)

    def test_literal_matrix_needs_nonzero_s(self):
        s = SSequence(2, (0, 4))
        with pytest.raises(ValueError):
            literal_matrix(s, 2)
        assert pper_by_last_row(literal_matrix(s, 1)) == 0


def fraction_recurrence(s):
    # i a_i = sum_{j<=i} S_j a_{i-j}, written out in Fractions
    a = [Fraction(1)]
    for i in range(1, s.g + 1):
        a.append(sum((s.s[j - 1] * a[i - j] for j in range(1, i + 1)), Fraction(0)) / i)
    return a


INTEGER_ROUTES = {
    "recurrence": coeffs_by_recurrence,
    "parapermanent": coeffs_by_parapermanent,
    "compositions": coeffs_by_compositions,
}
EXACT_ROUTES = (
    coeffs_by_recurrence_exact,
    coeffs_by_parapermanent_exact,
    coeffs_by_compositions_exact,
)


class TestIntegerRoutes:
    @pytest.mark.parametrize(
        "s, text",
        [
            (SSequence(2, (1, 0)), "a_2 is not an integer (1/2) for q=2, S=[1, 0]"),
            (
                SSequence(3, (2, 2, 1, 4)),
                "a_3 is not an integer (11/3) for q=3, S=[2, 2, 1, 4]",
            ),
        ],
    )
    def test_integrality_error_pinned(self, s, text):
        for method, route in INTEGER_ROUTES.items():
            with pytest.raises(ConsistencyError) as caught:
                route(s)
            assert str(caught.value) == f"{text} [method: {method}]"

    @pytest.mark.parametrize(
        "s",
        [
            SSequence(2, (4, 4, -2, 6, 0, -9)),
            SSequence(3, (2, 2, 1, 4)),
            s_from_traces(TraceData(5, (4, -3, 0, 2, 1, -4, 3))),
        ],
    )
    def test_scaled_table_gives_factorial_times_coefficient(self, s):
        expected = [
            math.factorial(i) * a for i, a in enumerate(fraction_recurrence(s))
        ]
        # S_{i+1-j}/i times i!/(j-1)!: the product along a composition of N
        # telescopes to N! times its term
        def fp(i, j):
            return s.s[i - j] * math.factorial(i - 1) // math.factorial(j - 1)

        for values in (pper_prefixes(s.g, fp), pper_composition_sums(s.g, fp)):
            assert all(type(value) is int for value in values)
            assert values == expected

    def test_lazy_routes_stop_at_first_fraction(self):
        # a_2 = 1/2 - q; building a_3..a_400 in Fractions takes seconds at
        # this q, so only a route that stops at a_2 answers at once
        q = 999999999989
        s = SSequence(q, (1 - q,) + tuple(-(q**r) for r in range(2, 401)))
        text = f"a_2 is not an integer ({Fraction(1, 2) - q}) for q={q}, "
        for method in ("recurrence", "parapermanent"):
            started = time.perf_counter()
            with pytest.raises(ConsistencyError) as caught:
                INTEGER_ROUTES[method](s)
            assert time.perf_counter() - started < 0.5
            assert str(caught.value).startswith(text)
            assert str(caught.value).endswith(f"[method: {method}]")

    @given(st.one_of(s_vectors, trace_data().map(s_from_traces)))
    @settings(deadline=None)
    def test_routes_match_fraction_recurrence(self, s):
        expected = fraction_recurrence(s)
        for route in EXACT_ROUTES:
            values = route(s)
            assert all(type(value) is Fraction for value in values)
            assert values == expected
        fractional = [i for i, a in enumerate(expected) if a.denominator != 1]
        for route in INTEGER_ROUTES.values():
            if fractional:
                with pytest.raises(ConsistencyError, match=f"^a_{fractional[0]} "):
                    route(s)
            else:
                assert route(s) == [int(a) for a in expected]

    @given(trace_data(max_g=10).map(s_from_traces))
    @settings(deadline=None)
    def test_integer_routes_give_plain_ints(self, s):
        for route in INTEGER_ROUTES.values():
            assert all(type(a) is int for a in route(s))

    def test_exact_recurrence_on_fraction_data_pinned(self):
        # a_2 = 1/2, so from a_3 on the inner sum mixes ints and Fractions;
        # S is not palindromic, so pairing S_j with a_(j-1) shows
        s = SSequence(2, (1, 0, 3, -2, 5))
        reference = [Fraction(1)]
        for i in range(1, s.g + 1):
            total = Fraction(0)
            for j in range(1, i + 1):
                total += s.s[j - 1] * reference[i - j]
            reference.append(total / i)
        assert reference == [
            1, 1, Fraction(1, 2), Fraction(7, 6), Fraction(13, 24), Fraction(121, 120)
        ]
        values = coeffs_by_recurrence_exact(s)
        assert all(type(a) is Fraction for a in values)
        assert values == reference

    def test_integral_input_builds_no_fraction(self, monkeypatch):
        class NoFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                raise AssertionError("a Fraction was built")

        monkeypatch.setattr(lpoly, "Fraction", NoFraction)
        monkeypatch.setattr(parapermanent, "Fraction", NoFraction)
        data = TraceData(7, (5, -3, 0, 2, 1, -5, 4, 3, -1, 2))
        expected = list(oracle_expand(data).coeffs[: data.g + 1])
        for route in INTEGER_ROUTES.values():
            assert route(s_from_traces(data)) == expected


class TestLPolynomial:
    def test_complete(self):
        full = complete([1, 4, 10], 2)
        assert full.coeffs == (1, 4, 10, 8, 4)
        assert full.g == 2

    def test_complete_small_genus(self):
        assert complete([1], 7).coeffs == (1,)
        assert complete([1], 7).g == 0
        assert complete([1, -3], 7).coeffs == (1, -3, 7)
        assert complete([1, 5], 2).coeffs == (1, 5, 2)

    def test_complete_validates_length(self):
        # the genus is len(coeffs) - 1, so only an empty list is too short,
        # and LPolynomial refuses it
        with pytest.raises(ValueError, match="^need 2g \\+ 1 coefficients a_0..a_2g, got 0$"):
            complete([], 2)

    def test_functional_equation_enforced(self):
        with pytest.raises(ValueError):
            LPolynomial(2, (1, 2, 3))
        with pytest.raises(ValueError):
            LPolynomial(2, (2, 2, 4))

    @pytest.mark.parametrize(
        "g, broken, i",
        [(1, [0], 0), (4, [0], 0), (4, [3], 3), (4, [3, 0], 0), (4, [2, 3], 2)],
    )
    def test_functional_equation_message(self, g, broken, i):
        # a_{2g-j} off by one at each broken j; the lowest one, i, is named
        q = 3
        coeffs = list(complete([1] + list(range(2, g + 2)), q).coeffs)
        for j in broken:
            coeffs[2 * g - j] += 1
        expected = q ** (g - i) * coeffs[i]
        text = (
            f"functional equation broken at i={i}: "
            f"a_{2 * g - i}={expected + 1}, q^(g-i)*a_{i}={expected}"
        )
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            LPolynomial(q, coeffs)

    def test_evaluate(self):
        full = complete([1, 2], 2)
        assert full.evaluate(1) == 5
        assert full.evaluate(Fraction(1, 2)) == Fraction(5, 2)

    def test_genus_zero(self):
        assert oracle_expand(TraceData(2, ())).coeffs == (1,)


class TestOracle:
    def test_pinned_product(self):
        data = TraceData(2, (-2, -2))
        assert oracle_expand(data).coeffs == (1, 4, 8, 8, 4)
        assert s_from_traces(data).s == (4, 0)
        assert coeffs_from_traces(data).coeffs == (1, 4, 8, 8, 4)

    @given(trace_data())
    @settings(deadline=None)
    def test_recurrence_equals_product(self, data):
        assert coeffs_from_traces(data).coeffs == oracle_expand(data).coeffs

    def test_genus_one_equals_factor(self):
        for q in (2, 3, 5, 9):
            bound = math.isqrt(4 * q)
            for t in range(-bound, bound + 1):
                assert oracle_expand(TraceData(q, (t,))).coeffs == (1, -t, q)

    @given(trace_data(max_g=12))
    @example(TraceData(2, ()))
    @example(TraceData(7, (-5,)))
    @example(TraceData(4, (4, -4, 0)))
    @settings(deadline=None)
    def test_equals_untruncated_product(self, data):
        # the upper half that complete supplies is the product's own
        assert oracle_expand(data).coeffs == untruncated_product(data.q, data.traces)


class TestClassNumber:
    def test_pinned(self):
        s = s_from_counts(2, [5])
        full = complete(coeffs_by_recurrence(s), 2)
        assert full.coeffs == (1, 2, 2)
        assert class_number(full) == 5
        assert class_number_formula(s) == 5
        s3 = s_from_counts(2, [3])
        assert class_number(complete(coeffs_by_recurrence(s3), 2)) == 3
        assert class_number_formula(s3) == 3

    def test_formula_accepts_traces(self):
        data = TraceData(2, (-2, -2))
        assert class_number_formula(data) == sum(oracle_expand(data).coeffs)

    def test_genus_two_worked(self):
        full = complete([1, 4, 10], 2)
        assert class_number(full) == 27
        assert class_number_formula(SSequence(2, (4, 4))) == 27

    def test_formula_needs_genus(self):
        with pytest.raises(ValueError, match="^need g >= 1$"):
            class_number_formula(SSequence(2, ()))

    def test_nonpositive_rejected(self):
        broken = LPolynomial(2, (1, -3, 2))
        with pytest.raises(ConsistencyError):
            class_number(broken)

    @given(trace_data(max_g=6))
    @settings(deadline=None)
    def test_formula_equals_evaluation(self, data):
        if data.g < 1:
            return
        full = oracle_expand(data)
        assert class_number_formula(data) == class_number(full)
        assert class_number_from_traces(data) == class_number(full)
