import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import enumerate_ssyt, power_sum_schur
from schurzeta import schur
from schurzeta.expressions import expand_antihook, truncated_value
from schurzeta.mzv import ContentAssignment, ConvergenceError, TruncationConfig, eval_ez_truncated
from schurzeta.partitions import Partition, SkewShape
from schurzeta.rootzeta import chain_determinant
from schurzeta.schur import (
    VariableTableau,
    _RowWindow,
    _route,
    antihook_tableau,
    check_W_lambda,
    eval_schur,
    eval_schur_truncated,
)


def brute_force_schur(vt: VariableTableau, M: int) -> Fraction:
    """Oracle: enumerate fillings and weight them cell by cell."""
    total = Fraction(0)
    for t in enumerate_ssyt(vt.shape, M):
        term = Fraction(1)
        for cell, m in t.entries.items():
            term *= Fraction(1, m ** vt.value(*cell))
        total += term
    return total


def test_variable_tableau_construction():
    vt = VariableTableau.from_content(Partition((2, 1)), {0: 1, 1: 2, -1: 2})
    assert vt.value(1, 1) == 1 and vt.value(1, 2) == 2 and vt.value(2, 1) == 2
    with pytest.raises(KeyError):
        VariableTableau.from_content(Partition((2, 1)), {0: 1, 1: 2})
    with pytest.raises(ValueError):
        VariableTableau.from_cells(Partition((2,)), {(1, 1): 2})


def test_check_W_lambda_examples():
    # corner (2,2) has content 0; z_0 = 1 fails the strict condition there
    vt = VariableTableau.from_content(Partition((2, 2)), {0: 1, 1: 1, -1: 1})
    assert not check_W_lambda(vt)
    assert check_W_lambda(VariableTableau.from_content(Partition((1,)), {0: 2}))
    assert check_W_lambda(
        VariableTableau.from_content(Partition((2, 1)), {0: 1, 1: 2, -1: 2})
    )
    assert check_W_lambda(
        VariableTableau.from_content(Partition((2, 2)), {0: 2, 1: 1, -1: 1})
    )


def test_truncated_examples():
    assert eval_schur_truncated(
        VariableTableau.from_content(Partition((1,)), {0: 2}), 2, exact=True
    ) == Fraction(5, 4)
    assert eval_schur_truncated(
        VariableTableau.from_content(Partition((1, 1)), {0: 2, -1: 2}), 3, exact=True
    ) == Fraction(7, 18)
    assert eval_schur_truncated(
        VariableTableau.from_content(Partition((2,)), {0: 2, 1: 2}), 2, exact=True
    ) == Fraction(21, 16)


def test_empty_shape_is_one():
    vt = VariableTableau.from_content(Partition(()), {})
    assert eval_schur_truncated(vt, 5, exact=True) == 1


def test_row_column_degeneration():
    z = {0: 2, 1: 1, 2: 2, -1: 1, -2: 3}
    for n in (1, 2, 3):
        row = VariableTableau.from_content(Partition((n,)), z)
        col = VariableTableau.from_content(Partition((1,) * n), z)
        row_args = [z[j] for j in range(n)]
        col_args = [z[-j] for j in range(n)]
        for M in (1, 2, 3, 5, 9):
            assert eval_schur_truncated(row, M, exact=True) == eval_ez_truncated(row_args, M, star=True, exact=True)
            assert eval_schur_truncated(col, M, exact=True) == eval_ez_truncated(col_args, M, exact=True)


def test_recurrence_matches_enumeration_randomized():
    rng = random.Random(20240)
    shapes = [
        ((2, 1), ()),
        ((2, 2), ()),
        ((3, 2, 1), ()),
        ((3, 3), (1,)),
        ((2, 2, 2), (1, 1)),
        ((4, 2), (2,)),
        ((3, 3, 3), (2, 2)),
    ]
    for outer, inner in shapes:
        shape = SkewShape(Partition(outer), Partition(inner))
        vals = {c: rng.choice([1, 2, 3]) for c in shape.cells()}
        vt = VariableTableau.from_cells(shape, vals)
        for M in (1, 3, 6):
            exact = eval_schur_truncated(vt, M, exact=True)
            floating = eval_schur_truncated(vt, M, exact=False)
            assert floating == pytest.approx(float(exact), rel=1e-12, abs=1e-300)


def test_recurrence_handles_complex():
    s = 2 + 0.5j
    vt = VariableTableau.from_cells(Partition((2,)), {(1, 1): s, (1, 2): 2})
    M = 15
    direct = sum(
        m1 ** (-s) * float(m2) ** (-2.0)
        for m1 in range(1, M + 1)
        for m2 in range(m1, M + 1)
    )
    assert eval_schur_truncated(vt, M, exact=False) == pytest.approx(direct, rel=1e-12)


def test_hook_identities_exact_small():
    # hook1 / hook2 right-hand sides assembled directly from the formula
    z = {0: 2, 1: 1, 2: 2, -1: 1, -2: 2}
    for p, q in [(0, 0), (1, 1), (2, 1), (1, 2)]:
        vt = VariableTableau.from_content(Partition.hook(p, q), z)
        for M in (2, 5):
            lhs = eval_schur_truncated(vt, M, exact=True)
            rhs1 = Fraction(0)
            for j in range(q + 1):
                star = eval_ez_truncated([z[t] for t in range(-j, p + 1)], M, star=True, exact=True)
                rest = eval_ez_truncated([z[-t] for t in range(j + 1, q + 1)], M, exact=True)
                rhs1 += (-1) ** j * star * rest
            rhs2 = Fraction(0)
            for j in range(p + 1):
                strict = eval_ez_truncated([z[t] for t in range(j, -q - 1, -1)], M, exact=True)
                rest = eval_ez_truncated([z[t] for t in range(j + 1, p + 1)], M, star=True, exact=True)
                rhs2 += (-1) ** j * strict * rest
            assert lhs == rhs1
            assert lhs == rhs2


def test_eval_schur_golden_values():
    # these tails decay like 1/M, the boundary case of the doubling estimate,
    # hence the small slack on the heuristic interval
    cfg = TruncationConfig(M=4000)
    cases = [
        (Partition((1,)), {0: 2}, math.pi**2 / 6),
        (Partition((1, 1)), {0: 2, -1: 2}, math.pi**4 / 120),
        (Partition((2,)), {0: 2, 1: 2}, 7 * math.pi**4 / 360),
    ]
    for lam, z, target in cases:
        res = eval_schur(VariableTableau.from_content(lam, z), cfg)
        assert res.heuristic
        assert abs(res.value - target) <= 1.05 * res.tail_bound


def test_eval_schur_exact_mode():
    vt = VariableTableau.from_content(Partition((2,)), {0: 2, 1: 2})
    res = eval_schur(vt, TruncationConfig(M=2, mode="exact"))
    assert res.value == Fraction(21, 16) and res.tail_bound is None


def test_eval_schur_convergence_error():
    vt = VariableTableau.from_content(Partition((1,)), {0: 1})
    with pytest.raises(ConvergenceError):
        eval_schur(vt, TruncationConfig(M=10))


def test_eval_schur_skew_note():
    vt = antihook_tableau([2, 2], [2])
    res = eval_schur(vt, TruncationConfig(M=50))
    assert "heuristic" in res.note


# --- reversed-hook (antihook) identity ---


def antihook_rhs(vt, M, exact):
    """The anti-hook expansion of the reversed hook vt, truncated at M."""
    k, l = vt.shape.inner[0], len(vt.shape.inner)
    z = ContentAssignment({j - i: v for (i, j), v in vt.cell_values.items()})
    return truncated_value(expand_antihook(k, l), z, M, exact)


def test_antihook_layout():
    vt = antihook_tableau([10, 20, 30], [40, 50])
    # bottom row (s00, s10, s20), right column (s21, s22) bottom to top
    assert vt.shape.outer == Partition((3, 3, 3))
    assert vt.shape.inner == Partition((2, 2))
    assert vt.value(3, 1) == 10 and vt.value(3, 2) == 20 and vt.value(3, 3) == 30
    assert vt.value(2, 3) == 40 and vt.value(1, 3) == 50


def test_antihook_tableau_is_the_content_tableau_of_its_layout():
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            bottom, column = list(range(10, 11 + k)), list(range(20, 20 + l))
            vt = antihook_tableau(bottom, column)
            shape = SkewShape(Partition((k + 1,) * (l + 1)), Partition((k,) * l))
            z = dict(zip(range(-l, k + 1), [*bottom, *column]))
            assert vt == VariableTableau.from_content(shape, z)
            cells = {(l + 1, j): bottom[j - 1] for j in range(1, k + 2)}
            cells.update({(r, k + 1): column[l - r] for r in range(1, l + 1)})
            assert vt == VariableTableau(shape, cells)


def test_antihook_rhs_expansion_k1_l1():
    # RHS = -zeta(s11, s10, s00) + zeta*(s00) zeta(s11, s10)
    s00, s10, s11 = 2, 3, 4
    expected = -eval_ez_truncated([s11, s10, s00], 7, exact=True) + eval_ez_truncated(
        [s00], 7, star=True, exact=True
    ) * eval_ez_truncated([s11, s10], 7, exact=True)
    assert antihook_rhs(antihook_tableau([s00, s10], [s11]), 7, exact=True) == expected


def test_antihook_exact_matches_brute_force():
    rng = random.Random(9)
    for k in (1, 2):
        for l in (1, 2):
            bottom = [rng.choice([1, 2, 3]) for _ in range(k + 1)]
            column = [rng.choice([1, 2, 3]) for _ in range(l)]
            vt = antihook_tableau(bottom, column)
            for M in (2, 5, 8):
                lhs = brute_force_schur(vt, M)
                assert lhs == antihook_rhs(vt, M, exact=True)


def test_antihook_truncation_one_is_zero():
    # a column of two cells cannot be filled with entries <= 1
    vt = antihook_tableau([2, 2], [2])
    assert eval_schur_truncated(vt, 1, exact=True) == 0
    assert antihook_rhs(vt, 1, exact=True) == 0


def test_antihook_input_validation():
    with pytest.raises(ValueError):
        antihook_tableau([2], [2])
    with pytest.raises(ValueError):
        antihook_tableau([2, 2], [])


# --- closed-form routes of eval_schur against the sums by definition ---

INTS = st.integers(min_value=1, max_value=3)
REALS = st.floats(min_value=1, max_value=4)
COMPLEX = st.builds(complex, st.floats(min_value=1, max_value=4), st.floats(min_value=-2, max_value=2))


@st.composite
def partitions(draw, max_size=7):
    parts, left = [], draw(st.integers(min_value=1, max_value=max_size))
    while left:
        parts.append(draw(st.integers(min_value=1, max_value=min([left, *parts[-1:]]))))
        left -= parts[-1]
    return Partition(tuple(parts))


@st.composite
def content_tableaux(draw, values, max_size=7):
    lam = draw(partitions(max_size))
    z = {c: draw(values) for c in range(1 - len(lam), lam[0])}
    return VariableTableau.from_content(lam, z)


@st.composite
def reversed_hooks(draw, values):
    k = draw(st.integers(min_value=1, max_value=3))
    l = draw(st.integers(min_value=1, max_value=3))
    return antihook_tableau([draw(values) for _ in range(k + 1)], [draw(values) for _ in range(l)])


@given(reversed_hooks(INTS), st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_antihook_expansion_equals_enumeration_exactly(vt, M):
    assert antihook_rhs(vt, M, exact=True) == brute_force_schur(vt, M)


def _expected_path(vt):
    # a reversed hook is summed by definition, its O(M)-per-cell row window
    return "chain-determinant" if vt.shape.is_straight() else "row-window"


# a reversed hook's route is the row window itself, which
# test_enumeration_equals_brute_force checks, and its expansion is checked
# by test_antihook_expansion_equals_enumeration_exactly
@given(content_tableaux(INTS), st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_closed_forms_equal_enumeration_exactly(vt, M):
    path, truncated = _route(vt, exact=True)
    assert path == _expected_path(vt)
    value = truncated(M)
    assert isinstance(value, Fraction)
    assert value == eval_schur_truncated(vt, M, exact=True) == brute_force_schur(vt, M)


@given(
    st.one_of(*(f(v) for f in (content_tableaux, reversed_hooks) for v in (REALS, COMPLEX))),
    st.integers(min_value=1, max_value=40),
)
# the determinant is ~1e4 times smaller than its terms here; in plain double
# precision the chain route is off by 2.9e-12
@example(VariableTableau.from_content(Partition((3, 3)), {-1: 1.0, 0: 4.0, 1: 4.0, 2: 1.0}), 30)
@settings(max_examples=60, deadline=None)
def test_closed_forms_match_row_window(vt, M):
    path, truncated = _route(vt, exact=False)
    assert path == _expected_path(vt)
    value = truncated(M)
    # a reversed hook's route is the row window itself, so it is held to the
    # anti-hook expansion instead
    if vt.shape.is_straight():
        reference = eval_schur_truncated(vt, M, exact=False)
    else:
        reference = antihook_rhs(vt, M, exact=False)
    assert type(value) is type(reference)
    assert abs(value - reference) <= 1e-12 * abs(reference)


# --- the exact row window on integer numerators against the brute-force oracle ---


@st.composite
def skew_shapes(draw, max_size=8):
    """A straight or skew shape of at most max_size cells, empty rows included."""
    outer = draw(partitions(max_size))
    inner = []
    if draw(st.booleans()):
        for part in outer:
            inner.append(draw(st.integers(min_value=0, max_value=min([part, *inner[-1:]]))))
    return SkewShape(outer, Partition(tuple(p for p in inner if p)))


@st.composite
def per_cell_tableaux(draw, max_size=8):
    """A skew_shapes shape with an independent exponent in {0, 1, 2, 3} per cell."""
    shape = draw(skew_shapes(max_size))
    return VariableTableau.from_cells(shape, {c: draw(st.integers(0, 3)) for c in shape.cells()})


def _cycled(outer, inner):
    shape = SkewShape(Partition(outer), Partition(inner))
    return VariableTableau.from_cells(shape, {c: 1 + k % 3 for k, c in enumerate(shape.cells())})


def free_cell_examples(test):
    """Tableaux whose free cells fold into each of the row window's chains."""
    # the third row's first cell has nothing above or below it
    test = example(_cycled((3, 3, 3), (2, 2)), 5)(test)
    # the second row's one cell has no neighbour: the whole row is one chain
    test = example(_cycled((4, 3), (3, 2)), 6)(test)
    # a row has free cells at both ends only when all of it is free, so this
    # pins free cells at the right end of the first row and the left end of
    # the second, beside a cell with a neighbour above
    test = example(_cycled((5, 3), (2,)), 6)(test)
    # a left run above a wholly free row
    return example(_cycled((4, 4, 1), (2, 1)), 6)(test)


@given(per_cell_tableaux(), st.integers(min_value=1, max_value=6))
# (3,2,2)/(2,2): the second row is empty
@example(VariableTableau.from_cells(SkewShape(Partition((3, 2, 2)), Partition((2, 2))),
                                    {(1, 3): 2, (3, 1): 1, (3, 2): 3}), 4)
@free_cell_examples
@settings(max_examples=80, deadline=None)
def test_enumeration_equals_brute_force(vt, M):
    value = eval_schur_truncated(vt, M, exact=True)
    assert isinstance(value, Fraction)
    assert value == brute_force_schur(vt, M)


@pytest.mark.parametrize(
    "outer,inner,M",
    [((1, 1), (), 1), ((2, 2), (1,), 1), ((1, 1, 1), (), 2), ((3, 3, 3), (2, 2), 2)],
)
def test_enumeration_is_zero_when_a_column_outgrows_M(outer, inner, M):
    # the last cell sits under a column whose lower bound passes M
    shape = SkewShape(Partition(outer), Partition(inner))
    vt = VariableTableau.from_cells(shape, {c: 2 for c in shape.cells()})
    assert eval_schur_truncated(vt, M, exact=True) == 0 == brute_force_schur(vt, M)


@pytest.mark.parametrize("outer,inner", [((1,), ()), ((3,), ()), ((2, 1), (1,)), ((4, 2), (2,))])
def test_enumeration_at_M_one_has_one_filling(outer, inner):
    # no column holds two cells, so the only filling is all ones
    shape = SkewShape(Partition(outer), Partition(inner))
    vt = VariableTableau.from_cells(shape, {c: 3 for c in shape.cells()})
    assert eval_schur_truncated(vt, 1, exact=True) == 1 == brute_force_schur(vt, 1)


# --- an oracle from outside the paper: power sums at a constant exponent ---


@given(skew_shapes().filter(lambda shape: shape.n_rows <= 4), st.integers(0, 3), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_row_window_equals_power_sum_schur(shape, s, M):
    vt = VariableTableau.from_cells(shape, {c: s for c in shape.cells()})
    assert eval_schur_truncated(vt, M, exact=True) == power_sum_schur(shape.outer, shape.inner, s, M)


@pytest.mark.parametrize("s", [0, 2])
@pytest.mark.parametrize("parts", [(1,), (2, 1), (2, 2), (3, 1, 1), (3, 2, 1), (3, 3)])
def test_chain_determinant_equals_power_sum_schur(parts, s):
    lam = Partition(parts)
    z = ContentAssignment({c: s for c in range(1 - len(lam), lam[0])})
    assert chain_determinant(lam.frobenius(), z, 300, True) == power_sum_schur(lam, (), s, 300)


def test_enumeration_sums_the_last_cell_from_its_lower_bound_to_M():
    # the last cell's values a..M are summed from its lower bound a; a bound
    # one place off adds or drops the value at a
    M = 5
    row = VariableTableau.from_cells(Partition((2,)), {(1, 1): 1, (1, 2): 2})
    col = VariableTableau.from_cells(Partition((1, 1)), {(1, 1): 1, (2, 1): 2})
    cell = VariableTableau.from_cells(Partition((1,)), {(1, 1): 2})
    pairs = [(a, b) for a in range(1, M + 1) for b in range(1, M + 1)]
    assert eval_schur_truncated(row, M, exact=True) == sum(Fraction(1, a * b * b) for a, b in pairs if a <= b)
    assert eval_schur_truncated(col, M, exact=True) == sum(Fraction(1, a * b * b) for a, b in pairs if a < b)
    assert eval_schur_truncated(cell, M, exact=True) == sum(Fraction(1, b * b) for b in range(1, M + 1))


def test_eval_schur_routes_by_shape():
    lam = Partition((2, 2))
    by_content = {(1, 1): 3, (1, 2): 2, (2, 1): 2, (2, 2): 3}
    # the same variables per cell are still content-parametrized
    vt = VariableTableau.from_cells(lam, by_content)
    assert eval_schur(vt, TruncationConfig(M=30)).path == "chain-determinant"
    res = eval_schur(vt, TruncationConfig(M=5, mode="exact"))
    assert res.path == "chain-determinant" and res.value == brute_force_schur(vt, 5)

    per_cell = VariableTableau.from_cells(lam, {**by_content, (2, 2): 2})
    res = eval_schur(per_cell, TruncationConfig(M=30))
    assert res.path == "row-window"
    assert res.value == eval_schur_truncated(per_cell, 30, exact=False)
    res = eval_schur(per_cell, TruncationConfig(M=5, mode="exact"))
    assert res.path == "row-window" and res.value == brute_force_schur(per_cell, 5)

    assert eval_schur(antihook_tableau([2, 3], [2]), TruncationConfig(M=30)).path == "row-window"
    skew = VariableTableau.from_content(SkewShape(Partition((3, 2)), Partition((1,))), {0: 2, 1: 2, 2: 2, -1: 2})
    assert eval_schur(skew, TruncationConfig(M=30)).path == "row-window"


def test_floating_mode_stays_floating_for_integer_exponents():
    for vt in (
        VariableTableau.from_content(Partition((2, 2)), {0: 3, 1: 2, -1: 2}),
        antihook_tableau([2, 3], [2]),
    ):
        res = eval_schur(vt, TruncationConfig(M=50))
        assert type(res.value) is float and res.heuristic
        exact = eval_schur(vt, TruncationConfig(M=50, mode="exact")).value
        assert res.value == pytest.approx(float(exact), rel=1e-12)


def test_closed_forms_keep_the_convergence_gate():
    # a 1 at a corner is outside the region: refused with the region error
    with pytest.raises(ConvergenceError, match="convergence region"):
        eval_schur(VariableTableau.from_content(Partition((2,)), {0: 2, 1: 1}), TruncationConfig(M=10))
    with pytest.raises(ConvergenceError, match="convergence region"):
        eval_schur(antihook_tableau([1, 1], [2]), TruncationConfig(M=10))
    # inside the region, although the anti-hook factor zeta(2, 2, 1) diverges
    vt = antihook_tableau([1, 2], [2])
    res = eval_schur(vt, TruncationConfig(M=200))
    assert res.path == "row-window"
    assert res.value == pytest.approx(eval_schur_truncated(vt, 200, exact=False), rel=1e-12)


def test_floating_reversed_hooks_match_exact_to_1e_15():
    # the row window adds only positive terms, where the anti-hook expansion
    # is an alternating sum that lost up to 3.2e-15 on these
    rng = random.Random(23)
    for _ in range(20):
        k, l = rng.randint(1, 3), rng.randint(1, 3)
        bottom = [rng.randint(1, 3) for _ in range(k)] + [rng.randint(2, 3)]
        vt = antihook_tableau(bottom, [rng.randint(1, 3) for _ in range(l)])
        M = rng.choice((50, 100, 200))
        exact = eval_schur(vt, TruncationConfig(M=M, mode="exact")).value
        floating = eval_schur(vt, TruncationConfig(M=M)).value
        assert abs(Fraction(floating) - exact) <= Fraction(1e-15) * exact


def test_eval_schur_empty_shape_is_one():
    vt = VariableTableau.from_content(Partition(()), {})
    assert eval_schur(vt, TruncationConfig(M=10)).value == 1
    assert eval_schur(vt, TruncationConfig(M=10, mode="exact")).value == 1


def test_row_window_refuses_before_allocating():
    # not content-parametrized, so (3,3) takes the row window, whose third
    # cell would need an M^3 state: 7.45 GiB at M = 1000
    vt = VariableTableau.from_cells(Partition((3, 3)), {(i, j): 2 + i + 2 * j for i in (1, 2) for j in (1, 2, 3)})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large"):
            eval_schur(vt, TruncationConfig(M=1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


def test_eval_schur_refused_at_2M_skips_the_pass_at_M(monkeypatch):
    # (4,4)/(1) holds M^3 entries: 300^3 is within the budget, 600^3 is not
    vt = VariableTableau.from_content(SkewShape(Partition((4, 4)), Partition((1,))),
                                      {0: 3, 1: 2, 2: 2, 3: 2, -1: 2})
    calls = []

    def spy(vt, M, exact):
        calls.append(M)
        return eval_schur_truncated(vt, M, exact)

    monkeypatch.setattr(schur, "eval_schur_truncated", spy)
    with pytest.raises(ValueError, match="too large"):
        eval_schur(vt, TruncationConfig(M=300))
    assert calls == [600]


@pytest.mark.parametrize("dtype", [float, complex])
def test_row_window_refuses_by_its_peak_not_only_its_state(dtype):
    # a placement budgets 2.5 states: a window that may hold 2 M^2 states
    # refuses to build one, one that may hold 3 builds it, and consuming an
    # axis of it in place builds one new state and copies nothing else
    M = 100
    w = np.ones(M, dtype=dtype)

    def window(max_elems):
        win = _RowWindow(M, dtype, max_elems)
        win.place("a", w)
        win.place("b", w, mask_weak="a")
        return win

    with pytest.raises(ValueError, match="too large"):
        window(2 * M**2)
    win = window(3 * M**2)
    tracemalloc.start()
    try:
        win.place("c", w, consume_strict="b")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert win.state.size == M**2
    assert peak <= 2.1 * win.state.nbytes


def test_exact_row_window_refuses_by_bytes_before_allocating():
    # 200^3 = 8e6 entries are within floating mode's budget, but each exact
    # entry is a numerator over lcm(1..200)^14, about 540 B: 4.3 GB in all
    vt = VariableTableau.from_content(Partition((3, 3)), {0: 3, 1: 2, 2: 2, -1: 2})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="too large for this shape; lower M"):
            eval_schur_truncated(vt, 200, exact=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20


# --- free cells folded into chains in the row window ---


@given(per_cell_tableaux(), st.integers(min_value=1, max_value=6))
@free_cell_examples
@settings(max_examples=80, deadline=None)
def test_row_window_equals_enumeration(vt, M):
    # floating against exact, the exact row window checked by brute force above
    window = eval_schur_truncated(vt, M, exact=False)
    assert type(window) is float
    exact = eval_schur_truncated(vt, M, exact=True)
    assert window == pytest.approx(float(exact), rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("values", [[2.5], [2.5, 1.5, 3.0], [2.0, 2.5 + 1j]])
def test_a_wholly_free_row_is_one_truncated_zeta_star(values):
    vt = VariableTableau.from_cells(Partition((len(values),)), {(1, j): v for j, v in enumerate(values, 1)})
    assert eval_schur_truncated(vt, 500, exact=False) == eval_ez_truncated(values, 500, star=True, exact=False)


def test_reversed_hook_row_window_is_linear_in_M():
    # the bottom row's free cells fold into one prefix chain, so the state
    # stays a vector of M entries: 160 kB here, where an M x M state would
    # take 3.2 GB
    vt = antihook_tableau([2.5, 2.2, 2.0], [3.0, 2.5])
    tracemalloc.start()
    try:
        window = eval_schur_truncated(vt, 20000, exact=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert window == pytest.approx(antihook_rhs(vt, 20000, exact=False), rel=1e-12)
