import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from zetapoly.arith import QuadExt
from zetapoly.compositions import count, enumerate_compositions
from zetapoly import parapermanent
from zetapoly.parapermanent import (
    ScaledTable,
    TriangularMatrix,
    _by_compositions,
    _factorial_product_table,
    _last_row,
    factorial_product,
    pper_by_compositions,
    pper_by_last_row,
    pper_composition_sums,
    pper_prefixes,
    scale_columns,
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
            one = QuadExt(1)

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

        sums = pper_composition_sums(order, fp)
        assert sums == term_sums(order, fp, one)
        for k in range(order + 1):
            assert sums[: k + 1] == pper_composition_sums(k, fp)


def term_sums(order, fp, one):
    # the parapermanents of orders 0..order, each composition's term formed
    # from the factorial products at its keys and added on its own
    sums = []
    for k in range(order + 1):
        expected = None
        for composition in enumerate_compositions(k):
            term = one
            previous = 0
            for current in composition.prefix_sums():
                term = term * fp(current, previous + 1)
                previous = current
            expected = term if expected is None else expected + term
        sums.append(expected)
    return sums


def fraction_last_row(rows):
    # pper(i) = sum_s prod_{k=s..i} b[i][k] * pper(s-1), each entry taken as
    # a Fraction on its own: no common denominator and no read-out
    prefixes = [Fraction(1)]
    for i, row in enumerate(rows, start=1):
        total, product = Fraction(0), Fraction(1)
        for s in range(i, 0, -1):
            product *= Fraction(row[s - 1])
            total += product * prefixes[s - 1]
        prefixes.append(total)
    return prefixes[-1]


LARGE_PRIMES = (1_000_000_007, 2**61 - 1, 2**89 - 1, 2**127 - 1)

rational_entries = st.one_of(
    st.just(0),
    st.integers(-50, 50),
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.builds(Fraction, st.integers(-(10**6), 10**6), st.sampled_from(LARGE_PRIMES)),
)

rational_rows = st.integers(0, 8).flatmap(
    lambda order: st.tuples(
        *(st.lists(rational_entries, min_size=i, max_size=i) for i in range(1, order + 1))
    )
)


def _mixed_matrix(order, seed):
    # ints, zeros and Fractions of several denominators in every row
    rng = random.Random(seed)

    def entry():
        if rng.random() < 0.3:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    return TriangularMatrix(
        tuple(tuple(entry() for _ in range(i)) for i in range(1, order + 1))
    )


def _column_lcms(rows):
    # c_k, the lcm of the denominators of column k, an int counting as over 1
    columns = [[row[k] for row in rows[k:]] for k in range(len(rows))]
    return [math.lcm(*(Fraction(entry).denominator for entry in column)) for column in columns]


def _assert_column_scaled(rows, scales=None):
    # the table with entry (i, k) times c_k is all ints, its read-out is
    # prod_k c_k, and both evaluators give the Fraction recurrence's value
    matrix = TriangularMatrix(rows)
    scales = _column_lcms(rows) if scales is None else scales
    scaled = scale_columns(matrix)
    assert scaled.readout == math.prod(scales)
    for row, scaled_row in zip(rows, scaled.rows):
        assert all(type(value) is int for value in scaled_row)
        assert list(scaled_row) == [entry * c for entry, c in zip(row, scales)]
    expected = fraction_last_row(rows)
    assert pper_by_last_row(matrix) == expected
    assert pper_by_compositions(matrix) == expected


class TestRationalTables:
    @settings(deadline=None)
    @given(rational_rows)
    def test_evaluators_match_fraction_recurrence(self, rows):
        matrix = TriangularMatrix(rows)
        expected = fraction_last_row(rows)
        assert pper_by_last_row(matrix) == expected
        assert pper_by_compositions(matrix) == expected

    @settings(deadline=None)
    @given(rational_rows)
    def test_rational_tables_never_take_the_generic_path(self, rows):
        # both evaluators build their factorial products from ints only
        seen = []
        real = parapermanent._factorial_product_table

        def recording(matrix):
            seen.append(matrix)
            return real(matrix)

        matrix = TriangularMatrix(rows)
        with mock.patch.object(parapermanent, "_factorial_product_table", recording):
            pper_by_last_row(matrix)
            pper_by_compositions(matrix)
        assert len(seen) == 2
        assert all(type(value) is int for table in seen for row in table.rows for value in row)

    @pytest.mark.parametrize("seed", range(4))
    def test_column_scaled_path_matches_fraction_recurrence(self, seed):
        matrix = _mixed_matrix(9, seed)
        assert scale_columns(matrix).readout > 1
        expected = fraction_last_row(matrix.rows)
        assert pper_by_last_row(matrix) == expected
        assert pper_by_compositions(matrix) == expected

    def test_integer_table_has_unit_denominator(self):
        matrix = TriangularMatrix(((3,), (-2, 0), (5, 7, -1)))
        scaled = scale_columns(matrix)
        assert scaled.readout == 1
        assert scaled.rows == matrix.rows
        assert pper_by_last_row(matrix) == pper_by_compositions(matrix) == -35 - 21

    def test_scaled_table_is_integer(self):
        matrix = _mixed_matrix(7, 11)
        _assert_column_scaled(matrix.rows)
        table = scale_columns(matrix).products
        assert all(type(value) is int for row in table[1:] for value in row[1:])

    def test_column_lcm_divides_the_table_lcm(self):
        # each column's own lcm, not the lcm of the whole table: a column
        # whose entries share a denominator keeps it alone
        rows = ((Fraction(1, 3),), (Fraction(2, 3), Fraction(1, 5)), (1, Fraction(3, 5), 7))
        assert scale_columns(TriangularMatrix(rows)) == ScaledTable(
            ((1,), (2, 1), (3, 3, 7)), 15
        )

    def test_readings_for_a_budget(self):
        # column 1 holds 1/2 and 1/3: its largest denominator has 2 bits and
        # c_1 = 6 has 3; c_2 = 4 has 3, and order * bits(5) is 6
        matrix = TriangularMatrix(((Fraction(1, 2),), (Fraction(1, 3), Fraction(5, 4))))
        readings = []
        assert scale_columns(matrix, readings.append).readout == 24
        assert readings == [2 + 3 + 6, 3 + 3 + 6]

    @pytest.mark.parametrize("stop", [1, 2])
    def test_check_stops_before_the_lcms_and_the_table(self, stop):
        # a check that raises on the lower reading stops before any lcm is
        # formed, and one that raises on the exact reading before the table
        # is built
        readings = []

        def check(bits):
            readings.append(bits)
            if len(readings) == stop:
                raise OverflowError

        matrix = _mixed_matrix(6, stop)
        lcms = mock.Mock(wraps=math.lcm)
        tables = mock.Mock(wraps=_factorial_product_table)
        with mock.patch.object(math, "lcm", lcms):
            with mock.patch.object(parapermanent, "_factorial_product_table", tables):
                with pytest.raises(OverflowError):
                    scale_columns(matrix, check)
        assert (lcms.call_count, tables.call_count) == ((stop - 1) * matrix.order, 0)

    @pytest.mark.parametrize("kind", ["prime-powers", "shared"])
    def test_large_denominators_scale_by_columns(self, kind):
        # entry (i, j) over p^j for a 127-bit prime p (order * bits(D) of
        # 8,128 bits, once past the bound that sent tables to Fractions), and
        # every entry over one 300-bit number prime to 1..9, so that each
        # c_k is that number and the scaled entries are the numerators
        if kind == "prime-powers":
            prime = LARGE_PRIMES[-1]
            rows = tuple(
                tuple(Fraction(i - 2 * j, prime**j) for j in range(1, i + 1))
                for i in range(1, 9)
            )
            scales = [prime**k for k in range(1, 9)]
        else:
            rng = random.Random(300)
            shared = next(n for n in itertools.count(2**299 + 1, 2) if math.gcd(n, 2520) == 1)
            rows = tuple(
                tuple(Fraction(rng.randint(1, 9) * rng.choice((-1, 1)), shared) for _ in range(i))
                for i in range(1, 13)
            )
            scales = [shared] * 12
        _assert_column_scaled(rows, scales)

    @pytest.mark.parametrize(
        "bits,order",
        [(4_100, order) for order in range(1, 7)] + [(14_000, order) for order in range(1, 5)],
    )
    def test_evaluators_agree_on_large_distinct_denominators(self, bits, order):
        # distinct odd denominators of 4,100 and 14,000 bits, which once
        # sent even an order-1 table to Fractions
        rng = random.Random(order if bits == 4_100 else bits + order)
        rows = tuple(
            tuple(
                Fraction(rng.randint(-9, 9), rng.getrandbits(bits) | 1 << (bits - 1) | 1)
                for _ in range(i)
            )
            for i in range(1, order + 1)
        )
        _assert_column_scaled(rows)

    @pytest.mark.parametrize("order", range(1, 7))
    def test_evaluators_agree_over_quadext(self, order):
        rng = random.Random(order)
        matrix = TriangularMatrix(
            tuple(
                tuple(
                    QuadExt(
                        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                        Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                    )
                    for _ in range(i)
                )
                for i in range(1, order + 1)
            )
        )
        by_rows = pper_by_last_row(matrix)
        assert isinstance(by_rows, QuadExt)
        assert by_rows == pper_by_compositions(matrix)

    def test_other_scalars_keep_their_type(self):
        matrix = TriangularMatrix(((QuadExt(1, 1),), (QuadExt(2), QuadExt(0, 1))))
        assert scale_columns(matrix) is None
        expected = QuadExt(2) * QuadExt(0, 1) + QuadExt(1, 1) * QuadExt(0, 1)
        assert pper_by_last_row(matrix) == expected
        assert pper_by_compositions(matrix) == expected
        # every order >= 1 starts its sums from the int 0 and its products
        # from the int 1 and still gives a QuadExt, on the folded walks
        # (orders >= 4) too; the order-0 table's value is that 1 itself
        rng = random.Random(0)
        rows = [
            [QuadExt(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(i)]
            for i in range(1, 9)
        ]
        for order in range(9):
            prefix = TriangularMatrix(rows[:order])
            table = _factorial_product_table(prefix)
            sums = pper_composition_sums(order, lambda i, j: table[i][j])
            assert sums[0] == 1
            assert all(type(value) is QuadExt for value in sums[1:])
            for evaluate in (pper_by_last_row, pper_by_compositions):
                value = evaluate(prefix)
                if order:
                    assert type(value) is QuadExt
                else:
                    assert value == 1 == QuadExt(1)


divisors = st.integers(1, 7).flatmap(lambda d: st.sampled_from((d, -d)))


def _with_divisors(rows_strategy):
    # (rows, d_1..d_order): one nonzero divisor per row
    return rows_strategy.flatmap(
        lambda rows: st.tuples(
            st.just(rows), st.lists(divisors, min_size=len(rows), max_size=len(rows))
        )
    )


integer_rows = st.integers(0, 8).flatmap(
    lambda order: st.tuples(
        *(st.lists(st.integers(-9, 9), min_size=i, max_size=i) for i in range(1, order + 1))
    )
)


def _divided_prefixes(rows, row_divisors):
    # the last-row loop and the walk with row i over d_i, and the same
    # tables in Fractions with the diagonal entry of row i divided by d_i
    table = _factorial_product_table(TriangularMatrix(rows))

    def fp(i, j):
        return table[i][j]

    def divisor(i):
        return row_divisors[i - 1]

    prefixes = list(_last_row((table[i][1:] for i in range(1, len(rows) + 1)), divisor))
    walked = pper_composition_sums(len(rows), fp, divisor)
    divided = [
        tuple(row[:-1]) + (Fraction(row[-1]) / d,) for row, d in zip(rows, row_divisors)
    ]
    expected = [fraction_last_row(divided[:k]) for k in range(len(rows) + 1)]
    return prefixes, walked, expected


class TestRowDenominator:
    @settings(deadline=None)
    @given(_with_divisors(rational_rows))
    def test_matches_fraction_table_with_row_divided(self, case):
        prefixes, walked, expected = _divided_prefixes(*case)
        assert prefixes == expected
        assert walked == expected

    @settings(deadline=None)
    @given(_with_divisors(integer_rows))
    @example((((1,), (1, 1), (1, 1, 1), (1, 1, 1, 1)), [1, 2, 3, 4]))
    @example((((1,), (1, 1), (1, 1, 1)), [1, 3, 3]))
    def test_integer_table_is_int_until_first_inexact_division(self, case):
        # the all-ones table over d_i = i has every prefix 1; over 1, 3, 3
        # the division of row 2 is not exact
        prefixes, walked, expected = _divided_prefixes(*case)
        assert prefixes == expected
        first = next(
            (k for k, value in enumerate(expected) if value.denominator != 1), len(expected)
        )
        assert all(type(value) is int for value in prefixes[:first])
        assert all(type(value) is Fraction for value in prefixes[first:])
        # the walk divides each order's sum on its own: an int exactly
        # where that order's division is exact
        assert walked == expected
        assert [type(value) is int for value in walked] == [
            value.denominator == 1 for value in expected
        ]

    def test_iterator_is_lazy(self):
        # lpoly's integer route stops at its first Fraction prefix, so the
        # last-row loop takes a row only when its prefix is asked for
        rows_seen = []

        def fp(i, j):
            return i + j

        def rows():
            for i in range(1, 51):
                rows_seen.append(i)
                yield [fp(i, s) for s in range(1, i + 1)]

        first = list(itertools.islice(_last_row(rows(), lambda i: i), 3))
        # pper(1) = fp(1, 1) / 1, pper(2) = (fp(2, 1) + fp(2, 2) pper(1)) / 2
        assert first == [1, 2, Fraction(11, 2)]
        assert max(rows_seen) == 2


class CountingScalar:
    """Fraction wrapper that counts multiplications, for complexity checks."""

    mults = 0

    def __init__(self, value):
        self.value = Fraction(value)

    def __mul__(self, other):
        CountingScalar.mults += 1
        if isinstance(other, CountingScalar):
            other = other.value
        return CountingScalar(self.value * other)

    __rmul__ = __mul__

    def __add__(self, other):
        return CountingScalar(self.value + other.value)

    def __radd__(self, other):
        # every sum starts from the int 0
        assert other == 0
        return self

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
        evaluator(matrix)
        return CountingScalar.mults

    def test_last_row_is_quadratic(self):
        for order in (10, 20):
            assert self._mults(pper_by_last_row, order) <= 2 * order * order

    def _walk_mults(self, order):
        # the walk alone, over a factorial-product table built beforehand
        table = _factorial_product_table(_counting_matrix(order, order))
        CountingScalar.mults = 0
        pper_composition_sums(order, lambda i, j: table[i][j])
        return CountingScalar.mults

    def test_composition_sum_is_exponential(self):
        small = self._walk_mults(10)
        large = self._walk_mults(13)
        assert small >= count(10)
        assert large >= 8 * small
        for order, mults in ((10, small), (13, large)):
            assert mults == (1 << order) - 1
            table_mults = self._mults(_factorial_product_table, order)
            assert self._mults(pper_by_compositions, order) == mults + table_mults

    @pytest.mark.parametrize("order", range(14))
    def test_walk_forms_each_term_once(self, order):
        # one multiplication per composition of each order 1..order, and
        # every sum equal to its terms added one by one; orders <= 3 take
        # the unfolded walk, and at order 4 the root is the one node popped.
        # The one-order walk forms the same nodes and adds only order's
        # terms
        table = _factorial_product_table(_counting_matrix(order, order))
        CountingScalar.mults = 0
        sums = pper_composition_sums(order, lambda i, j: table[i][j])
        assert CountingScalar.mults == (1 << order) - 1
        expected = term_sums(order, lambda i, j: table[i][j].value, Fraction(1))
        assert sums == expected
        CountingScalar.mults = 0
        top = _by_compositions(table)
        assert CountingScalar.mults == (1 << order) - 1
        assert top == expected[order]

    @pytest.mark.parametrize("order", range(10))
    def test_walk_over_integers_with_zero_and_negative_keys(self, order):
        # entries in -3..3, with the diagonal entries (n-3, n-3), (n-2, n-2)
        # and (n-1, n-1) set to zero: every term of orders n-3, n-2 and n-1
        # and the keys from prefix n-3 to order n-2 and from prefix n-2 to
        # order n-1 are then zero, and the folded levels must still add,
        # and multiply, every term
        rng = random.Random(order)
        rows = [[rng.randint(-3, 3) for _ in range(i)] for i in range(1, order + 1)]
        for i in (order - 3, order - 2, order - 1):
            if i >= 1:
                rows[i - 1][i - 1] = 0
        table = _factorial_product_table(TriangularMatrix(tuple(map(tuple, rows))))
        sums = pper_composition_sums(order, lambda i, j: table[i][j])
        expected = term_sums(order, lambda i, j: table[i][j], 1)
        assert sums == expected
        assert _by_compositions(table) == expected[order]
        if order >= 4:
            assert sums[order - 3] == sums[order - 2] == sums[order - 1] == 0
        elif order == 3:
            assert sums[order - 2] == sums[order - 1] == 0
        counting = _factorial_product_table(
            TriangularMatrix(tuple(tuple(map(CountingScalar, row)) for row in rows))
        )
        for walk in (
            lambda: pper_composition_sums(order, lambda i, j: counting[i][j]),
            lambda: _by_compositions(counting),
        ):
            CountingScalar.mults = 0
            walk()
            assert CountingScalar.mults == (1 << order) - 1

    def test_both_agree_while_counting(self):
        matrix = _counting_matrix(9, 3)
        assert pper_by_last_row(matrix) == pper_by_compositions(matrix)
