import pytest
from hypothesis import given, strategies as st

from zetapoly.compositions import (
    Composition,
    count,
    decode,
    encode,
    enumerate_compositions,
    iter_parts,
)

part_lists = st.lists(st.integers(1, 9), min_size=1, max_size=8)


class TestCount:
    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 1), (2, 2), (5, 16), (20, 2**19)])
    def test_values(self, n, expected):
        assert count(n) == expected

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            count(-1)


class TestDecodeEncode:
    def test_order_for_three(self):
        parts = [decode(3, k).parts for k in range(count(3))]
        assert parts == [(3,), (1, 2), (2, 1), (1, 1, 1)]

    def test_first_and_last(self):
        assert decode(7, 0).parts == (7,)
        assert decode(7, count(7) - 1).parts == (1,) * 7

    def test_empty_composition(self):
        assert decode(0, 0).parts == ()
        assert encode(Composition(())) == 0
        assert list(enumerate_compositions(0)) == [Composition(())]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_round_trip_exhaustive(self, n):
        for k in range(count(n)):
            assert encode(decode(n, k)) == k

    @given(part_lists)
    def test_round_trip_from_parts(self, parts):
        composition = Composition(tuple(parts))
        assert decode(composition.n, encode(composition)) == composition

    def test_decode_range(self):
        with pytest.raises(ValueError):
            decode(3, 4)
        with pytest.raises(ValueError):
            decode(3, -1)


class TestEnumeration:
    def test_all_distinct_and_sum(self):
        seen = set()
        for composition in enumerate_compositions(10):
            assert composition.n == 10
            seen.add(composition.parts)
        assert len(seen) == count(10)

    def test_index_ranges_concatenate(self):
        full = list(iter_parts(9))
        total = count(9)
        chunks = []
        for lo, hi in [(0, 100), (100, 200), (200, total)]:
            chunks.extend(decode(9, k).parts for k in range(lo, hi))
        assert chunks == full

    def test_parts_in_range_matches(self):
        raw = list(iter_parts(8))
        assert raw == [c.parts for c in enumerate_compositions(8)]
        assert raw == [decode(8, k).parts for k in range(count(8))]
        assert list(iter_parts(0)) == [()]

    def test_bad_range(self):
        with pytest.raises(ValueError):
            list(iter_parts(-1))
        with pytest.raises(ValueError):
            list(enumerate_compositions(-1))


class TestCompositionType:
    @pytest.mark.parametrize("parts", [(0,), (1, -2), (1, 0, 1)])
    def test_rejects_nonpositive_parts(self, parts):
        with pytest.raises(ValueError):
            Composition(parts)

    def test_prefix_sums(self):
        assert Composition((1, 2, 1)).prefix_sums() == (1, 3, 4)

    @given(part_lists)
    def test_r_and_n(self, parts):
        composition = Composition(tuple(parts))
        assert composition.r == len(parts)
        assert composition.n == sum(parts)
