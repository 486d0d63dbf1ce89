from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from oracles import Tableau, enumerate_ssyt, partition_from_frobenius
from schurzeta.partitions import FrobeniusForm, Partition, SkewShape


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return Partition(())
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    parts = sorted(Counter(bins).values(), reverse=True)
    return Partition(tuple(parts))


def hook_content_count(lam: Partition, n: int) -> Fraction:
    """Independent SSYT-count oracle: prod over cells of (n + content) / hook."""
    con = lam.conjugate()
    total = Fraction(1)
    for i, j in lam.as_skew().cells():
        hook = (lam.part(i) - j) + (con.part(j) - i) + 1
        total *= Fraction(n + j - i, hook)
    return total


# --- construction and basic invariants ---


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition((1, 2))
    with pytest.raises(ValueError):
        Partition((2, 0))
    assert Partition(()).size == 0
    assert Partition((3, 1)).size == 4


def test_conjugate_examples():
    assert Partition((6, 4, 4, 2, 2)).conjugate() == Partition((5, 5, 3, 3, 1, 1))
    assert Partition(()).conjugate() == Partition(())
    assert Partition((1, 1, 1)).conjugate() == Partition((3,))


@given(partition_strategy())
def test_conjugate_involution(lam):
    assert lam.conjugate().conjugate() == lam


def test_frobenius_examples():
    f = Partition((6, 4, 4, 2, 2)).frobenius()
    assert f.p == (5, 2, 1) and f.q == (4, 3, 0) and f.n == 3
    f = Partition((1,)).frobenius()
    assert f.p == (0,) and f.q == (0,) and f.n == 1
    f = Partition((2, 2)).frobenius()
    assert f.p == (1, 0) and f.q == (1, 0) and f.n == 2


def test_frobenius_errors():
    with pytest.raises(ValueError):
        Partition(()).frobenius()
    with pytest.raises(ValueError):
        FrobeniusForm((1, 1), (1, 0))
    with pytest.raises(ValueError):
        FrobeniusForm((2,), (1, 0))


def test_from_frobenius_examples():
    assert partition_from_frobenius(FrobeniusForm((5, 2, 1), (4, 3, 0))) == Partition((6, 4, 4, 2, 2))
    assert partition_from_frobenius(FrobeniusForm((0,), (0,))) == Partition((1,))
    assert partition_from_frobenius(FrobeniusForm((1, 0), (1, 0))) == Partition((2, 2))


@given(partition_strategy())
def test_frobenius_round_trip(lam):
    if lam.size == 0:
        return
    assert partition_from_frobenius(lam.frobenius()) == lam


def test_corners():
    assert Partition((2, 2)).as_skew().corners() == [(2, 2)]
    assert Partition((1,)).as_skew().corners() == [(1, 1)]
    for p, q in [(1, 1), (2, 1), (1, 3), (3, 2)]:
        assert Partition.hook(p, q).as_skew().corners() == [(1, p + 1), (q + 1, 1)]


def test_skew_shape():
    shape = SkewShape(Partition((2, 2)), Partition((1,)))
    assert shape.cells() == [(1, 2), (2, 1), (2, 2)]
    assert shape.size == 3
    with pytest.raises(ValueError):
        SkewShape(Partition((2,)), Partition((3,)))
    with pytest.raises(ValueError):
        SkewShape(Partition((2,)), Partition((1, 1)))


def test_skew_corners():
    shape = SkewShape(Partition((2, 2)), Partition((1,)))
    assert sorted(shape.corners()) == [(2, 2)]
    assert sorted(Partition((3, 2)).as_skew().corners()) == [(1, 3), (2, 2)]


# --- tableau enumeration ---


def test_enumerate_counts_examples():
    assert sum(1 for _ in enumerate_ssyt(Partition((2, 1)), 2)) == 2
    assert sum(1 for _ in enumerate_ssyt(Partition((1, 1, 1)), 2)) == 0
    # brute force over all 2^3 fillings of (2,2)/(1) gives 2, matching the
    # Littlewood-Richardson reduction s_{(2,2)/(1)} = s_{(2,1)}
    skew = SkewShape(Partition((2, 2)), Partition((1,)))
    assert sum(1 for _ in enumerate_ssyt(skew, 2)) == 2


def test_enumerate_empty_shape():
    tableaux = list(enumerate_ssyt(Partition(()), 3))
    assert len(tableaux) == 1 and tableaux[0].entries == {}


def test_enumerate_rejects_bad_bound():
    with pytest.raises(ValueError):
        list(enumerate_ssyt(Partition((1,)), 0))


def test_enumeration_is_lexicographic_and_valid():
    shape = Partition((2, 2))
    words = [t.row_word() for t in enumerate_ssyt(shape, 3)]
    assert words == sorted(words)
    assert len(words) == len(set(words))
    for t in enumerate_ssyt(shape, 3):
        # Tableau validates row/column constraints on construction; spot-check anyway
        assert t[(1, 1)] <= t[(1, 2)]
        assert t[(1, 1)] < t[(2, 1)]


def test_tableau_validation():
    shape = Partition((2,)).as_skew()
    with pytest.raises(ValueError):
        Tableau(shape, {(1, 1): 2, (1, 2): 1})
    with pytest.raises(ValueError):
        Tableau(shape, {(1, 1): 1})
    col = Partition((1, 1)).as_skew()
    with pytest.raises(ValueError):
        Tableau(col, {(1, 1): 1, (2, 1): 1})


@given(partition_strategy(max_n=8), st.integers(min_value=1, max_value=4))
def test_ssyt_count_matches_hook_content(lam, n):
    count = sum(1 for _ in enumerate_ssyt(lam, n))
    expected = hook_content_count(lam, n)
    assert expected.denominator == 1
    assert count == expected


def test_hook_shape_helper():
    assert Partition.hook(2, 3) == Partition((3, 1, 1, 1))
    with pytest.raises(ValueError):
        Partition.hook(-1, 0)
