import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from zetapoly.arith import QuadExt
from zetapoly.compositions import count, enumerate_compositions
from zetapoly.parapermanent import (
    TriangularMatrix,
    _factorial_product_table,
    factorial_product,
    pper_by_compositions,
    pper_by_last_row,
    pper_composition_sums,
    pper_prefixes,
)

entries = st.fractions(min_value=-100, max_value=100, max_denominator=10)

triangular_matrices = st.integers(0, 6).flatmap(
    lambda order: st.lists(
        entries, min_size=order * (order + 1) // 2, max_size=order * (order + 1) // 2
    ).map(
        lambda flat: TriangularMatrix(
            tuple(
                tuple(flat[i * (i + 1) // 2 : i * (i + 1) // 2 + i + 1])
                for i in range(order)
            )
        )
    )
)


class TestTriangularMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            TriangularMatrix(((Fraction(1), Fraction(2)),))
        with pytest.raises(ValueError):
            TriangularMatrix(((Fraction(1),), (Fraction(2),)))

    def test_entry_access(self):
        matrix = TriangularMatrix(((Fraction(5),), (Fraction(1), Fraction(2))))
        assert matrix.order == 2
        assert matrix.entry(2, 1) == 1
        with pytest.raises(ValueError):
            matrix.entry(1, 2)
        with pytest.raises(ValueError):
            matrix.entry(3, 1)

    def test_factorial_product(self):
        matrix = TriangularMatrix(
            (
                (Fraction(2),),
                (Fraction(3), Fraction(5)),
                (Fraction(7), Fraction(11), Fraction(13)),
            )
        )
        assert factorial_product(matrix, 1, 1) == 2
        assert factorial_product(matrix, 3, 3) == 13
        assert factorial_product(matrix, 3, 1) == 7 * 11 * 13
        assert factorial_product(matrix, 2, 1) == 15
        with pytest.raises(ValueError):
            factorial_product(matrix, 2, 3)


class TestSmallOrders:
    def test_order_zero(self):
        matrix = TriangularMatrix(())
        assert pper_by_last_row(matrix) == 1
        assert pper_by_compositions(matrix) == 1

    def test_order_one(self):
        matrix = TriangularMatrix(((Fraction(7),),))
        assert pper_by_last_row(matrix) == 7
        assert pper_by_compositions(matrix) == 7

    def test_order_two(self):
        b11, b21, b22 = Fraction(2), Fraction(3), Fraction(5)
        matrix = TriangularMatrix(((b11,), (b21, b22)))
        expected = b21 * b22 + b11 * b22
        assert pper_by_last_row(matrix) == expected
        assert pper_by_compositions(matrix) == expected

    @given(st.tuples(entries, entries, entries, entries, entries, entries))
    def test_order_three_expansion(self, values):
        b11, b21, b22, b31, b32, b33 = values
        matrix = TriangularMatrix(((b11,), (b21, b22), (b31, b32, b33)))
        expected = (
            b31 * b32 * b33
            + b11 * b32 * b33
            + b21 * b22 * b33
            + b11 * b22 * b33
        )
        assert pper_by_last_row(matrix) == expected
        assert pper_by_compositions(matrix) == expected


class TestEvaluatorAgreement:
    @settings(deadline=None)
    @given(triangular_matrices)
    def test_random_matrices(self, matrix):
        assert pper_by_last_row(matrix) == pper_by_compositions(matrix)

    @pytest.mark.parametrize("order", range(11))
    def test_orders_up_to_ten(self, order):
        rng = random.Random(order * 7919 + 13)
        matrix = TriangularMatrix(
            tuple(
                tuple(
                    Fraction(rng.randint(-20, 20), rng.randint(1, 7))
                    for _ in range(i)
                )
                for i in range(1, order + 1)
            )
        )
        assert pper_by_last_row(matrix) == pper_by_compositions(matrix)

    def test_all_ones_counts_compositions(self):
        for order in range(1, 11):
            matrix = TriangularMatrix(
                tuple(tuple(Fraction(1) for _ in range(i)) for i in range(1, order + 1))
            )
            assert pper_by_last_row(matrix) == count(order)

    def test_zero_off_diagonal_collapses_to_diagonal_product(self):
        diag = [Fraction(2), Fraction(3), Fraction(5), Fraction(7)]
        rows = tuple(
            tuple(Fraction(0) for _ in range(i - 1)) + (diag[i - 1],)
            for i in range(1, 5)
        )
        matrix = TriangularMatrix(rows)
        product = Fraction(2 * 3 * 5 * 7)
        assert pper_by_last_row(matrix) == product
        assert pper_by_compositions(matrix) == product


class TestGenericEvaluators:
    def test_prefixes_against_matrix(self):
        rng = random.Random(99)
        order = 6
        matrix = TriangularMatrix(
            tuple(
                tuple(Fraction(rng.randint(1, 9)) for _ in range(i))
                for i in range(1, order + 1)
            )
        )
        table = {
            (i, j): factorial_product(matrix, i, j)
            for i in range(1, order + 1)
            for j in range(1, i + 1)
        }
        prefixes = pper_prefixes(order, lambda i, j: table[(i, j)])
        for n in range(order + 1):
            sub = TriangularMatrix(matrix.rows[:n])
            assert prefixes[n] == pper_by_last_row(sub)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            pper_prefixes(-1, lambda i, j: Fraction(1))
        with pytest.raises(ValueError):
            pper_composition_sums(-1, lambda i, j: Fraction(1))

    @pytest.mark.parametrize("kind", ["fraction-0", "fraction-1", "fraction-2", "quadext"])
    def test_composition_sums_match_definition(self, kind):
        # seeded order-8 tables; the Fraction entries come from a small range
        # so that some of them are zero
        rng = random.Random(kind)
        order = 8
        if kind == "quadext":
            one = QuadExt.one()

            def entry():
                return QuadExt(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                )
        else:
            one = Fraction(1)

            def entry():
                return Fraction(rng.randint(-2, 2), rng.randint(1, 3))

        matrix = TriangularMatrix(
            tuple(tuple(entry() for _ in range(i)) for i in range(1, order + 1))
        )
        if kind != "quadext":
            assert any(value == 0 for row in matrix.rows for value in row)

        def fp(i, j):
            return factorial_product(matrix, i, j)

        sums = pper_composition_sums(order, fp, one)
        for k in range(order + 1):
            expected = None
            for composition in enumerate_compositions(k):
                term = one
                previous = 0
                for current in composition.prefix_sums():
                    term = term * factorial_product(matrix, current, previous + 1)
                    previous = current
                expected = term if expected is None else expected + term
            assert sums[k] == expected
            assert sums[: k + 1] == pper_composition_sums(k, fp, one)


class CountingScalar:
    """Fraction wrapper that counts multiplications, for complexity checks."""

    mults = 0

    def __init__(self, value):
        self.value = Fraction(value)

    def __mul__(self, other):
        CountingScalar.mults += 1
        return CountingScalar(self.value * other.value)

    def __add__(self, other):
        return CountingScalar(self.value + other.value)

    def __eq__(self, other):
        if isinstance(other, CountingScalar):
            return self.value == other.value
        return self.value == other


def _counting_matrix(order, seed):
    rng = random.Random(seed)
    return TriangularMatrix(
        tuple(
            tuple(CountingScalar(rng.randint(1, 5)) for _ in range(i))
            for i in range(1, order + 1)
        )
    )


class TestOperationScaling:
    def _mults(self, evaluator, order):
        matrix = _counting_matrix(order, order)
        CountingScalar.mults = 0
        evaluator(matrix, CountingScalar(1))
        return CountingScalar.mults

    def test_last_row_is_quadratic(self):
        for order in (10, 20):
            assert self._mults(pper_by_last_row, order) <= 2 * order * order

    def _walk_mults(self, order):
        # the walk alone, over a factorial-product table built beforehand
        table = _factorial_product_table(_counting_matrix(order, order))
        CountingScalar.mults = 0
        pper_composition_sums(order, lambda i, j: table[i][j], CountingScalar(1))
        return CountingScalar.mults

    def test_composition_sum_is_exponential(self):
        small = self._walk_mults(10)
        large = self._walk_mults(13)
        assert small >= count(10)
        assert large >= 8 * small
        for order, mults in ((10, small), (13, large)):
            assert mults == (1 << order) - 1
            table_mults = self._mults(
                lambda matrix, _: _factorial_product_table(matrix), order
            )
            assert self._mults(pper_by_compositions, order) == mults + table_mults

    def test_both_agree_while_counting(self):
        matrix = _counting_matrix(9, 3)
        assert pper_by_last_row(matrix, CountingScalar(1)) == pper_by_compositions(
            matrix, CountingScalar(1)
        )
