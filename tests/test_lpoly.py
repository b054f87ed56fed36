import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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
from zetapoly.parapermanent import pper_by_last_row

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

    def test_literal_matrix_needs_nonzero_s(self):
        s = SSequence(2, (0, 4))
        with pytest.raises(ValueError):
            literal_matrix(s, 2)
        assert pper_by_last_row(literal_matrix(s, 1)) == 0


class TestLPolynomial:
    def test_complete(self):
        full = complete([1, 4, 10], 2)
        assert full.coeffs == (1, 4, 10, 8, 4)
        assert full.g == 2

    def test_complete_validates_length(self):
        with pytest.raises(ValueError):
            complete([1, 4], 2, g=2)

    def test_functional_equation_enforced(self):
        with pytest.raises(ValueError):
            LPolynomial(2, 1, (1, 2, 3))
        with pytest.raises(ValueError):
            LPolynomial(2, 1, (2, 2, 4))

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

    def test_nonpositive_rejected(self):
        broken = LPolynomial(2, 1, (1, -3, 2))
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
