import cmath
import math
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from schurzeta.mzv import ContentAssignment, ConvergenceError, TruncationConfig, eval_ez_truncated
from schurzeta.partitions import FrobeniusForm, Partition
from schurzeta.rootzeta import (
    RootZetaArgs,
    _grid_sum,
    canonical_pairs,
    chain_determinant,
    check_root_domain,
    eval_root_zeta,
)
from schurzeta.schur import VariableTableau, eval_schur_truncated


def exact(M):
    return TruncationConfig(M, "exact")


def floating(M):
    return TruncationConfig(M, "floating")


def brute_force_root(args, M, d=0, x=None):
    """Direct product over the box in Fractions, the oracle for the box sum
    in both arithmetics."""
    r = args.r
    total = Fraction(0)
    ranges = [range(0 if k <= d else 1, M + 1) for k in range(1, r + 1)]
    for ms in product(*ranges):
        term = Fraction(1)
        for i in range(1, r + 2):
            for j in range(i + 1, r + 2):
                s = args.value(i, j)
                if s == 0:
                    continue
                base = sum(ms[i - 1 : j - 1]) + (x or 0)
                if base == 0:
                    continue  # prime rule
                term *= Fraction(1, Fraction(base) ** s)
        total += term
    return total


def test_canonical_pairs():
    assert canonical_pairs(1) == [(1, 2)]
    assert canonical_pairs(3) == [(1, 2), (2, 3), (3, 4), (1, 3), (2, 4), (1, 4)]


def test_args_validation():
    with pytest.raises(ValueError):
        RootZetaArgs.full(2, [2, 2])  # rank 2 needs 3 variables
    with pytest.raises(ValueError):
        RootZetaArgs(1, {(2, 3): 2})
    args = RootZetaArgs.first_row([2, 3])
    assert args.r == 2 and args.value(1, 2) == 2 and args.value(1, 3) == 3
    assert args.value(2, 3) == 0


def test_check_root_domain():
    assert check_root_domain(RootZetaArgs.first_row([2, 2]))
    assert not check_root_domain(RootZetaArgs.first_row([2, 1]))  # position 2 covered by 1
    assert not check_root_domain(RootZetaArgs(1, {(1, 2): -1}))


def test_rank_one_is_riemann():
    args = RootZetaArgs.full(1, [2])
    res = eval_root_zeta(args, floating(4000))
    assert res.heuristic and res.tail_bound is not None
    # the doubling estimate is a heuristic; a pure 1/M tail sits exactly at
    # its boundary, hence the few-percent slack
    assert abs(res.value - math.pi**2 / 6) <= 1.05 * res.tail_bound
    assert eval_root_zeta(args, exact(4000)).value == eval_ez_truncated([2], 4000, exact=True)


def test_rank_two_against_brute_force():
    args = RootZetaArgs.full(2, [2, 2, 2])
    for M in (1, 2, 4):
        assert eval_root_zeta(args, exact(M)).value == brute_force_root(args, M)


def test_rank_two_doubling_consistency():
    args = RootZetaArgs.full(2, [2, 2, 2])
    v1 = eval_root_zeta(args, floating(30))
    v2 = eval_root_zeta(args, floating(60))
    assert abs(v2.value - v1.value) <= v1.tail_bound


def test_first_row_reduces_to_mzv():
    # substituting n = m1 + m2 turns the sum over m1^-2 (m1+m2)^-2 into the
    # strict double zeta; the box truncation agrees with the direct box sum
    # exactly and tends to zeta(2,2) as M grows
    args = RootZetaArgs.first_row([2, 2])
    for M in (2, 3, 5):
        value = eval_root_zeta(args, exact(M)).value
        direct = sum(
            Fraction(1, m1**2 * (m1 + m2) ** 2)
            for m1 in range(1, M + 1)
            for m2 in range(1, M + 1)
        )
        assert value == direct
    limit = math.pi**4 / 120
    assert abs(eval_root_zeta(args, floating(60)).value - limit) < 0.05


def test_bullet_prime_rule():
    # the prime omits vanishing-base factors from the product, so the m=0
    # summand of the rank-1 series is an empty product contributing 1
    args = RootZetaArgs.full(1, [2])
    res = eval_root_zeta(args, exact(50), d=1)
    assert res.value == 1 + eval_ez_truncated([2], 50, exact=True)


def test_bullet_d_zero_collapse():
    args = RootZetaArgs.full(2, [2, 2, 2])
    assert eval_root_zeta(args, exact(6), d=0).value == eval_root_zeta(args, exact(6)).value


def test_bullet_d_range():
    args = RootZetaArgs.full(1, [2])
    with pytest.raises(ValueError):
        eval_root_zeta(args, exact(5), d=2)
    with pytest.raises(ValueError):
        eval_root_zeta(args, exact(5), d=-1)


def test_bullet_first_row_example():
    args = RootZetaArgs.first_row([2, 3])
    assert eval_root_zeta(args, exact(2), d=1).value == brute_force_root(args, 2, d=1)


def test_H_shift():
    args = RootZetaArgs.full(1, [2])
    res = eval_root_zeta(args, exact(50), x=1)
    assert res.value == eval_ez_truncated([2], 51, exact=True) - 1
    half = eval_root_zeta(args, exact(20), x=Fraction(1, 2))
    direct = sum(Fraction(1, (Fraction(1, 2) + m) ** 2) for m in range(1, 21))
    assert half.value == direct
    # a float shift is not summed in Fractions, even in exact mode
    shifted = eval_root_zeta(args, exact(20), x=0.5)
    assert shifted.value == pytest.approx(float(direct), rel=1e-12)
    assert shifted.tail_bound is not None and "rational shift" in shifted.note
    with pytest.raises(ValueError):
        eval_root_zeta(args, exact(5), x=0)
    with pytest.raises(ValueError):
        eval_root_zeta(args, exact(5), x=-1.0)


def test_H_single_term():
    args = RootZetaArgs.first_row([2, 3])
    res = eval_root_zeta(args, exact(1), x=2)
    assert res.value == Fraction(1, 3**2 * 4**3)


def test_bullet_H():
    args = RootZetaArgs.full(1, [2])
    res = eval_root_zeta(args, exact(50), d=1, x=1)
    assert res.value == eval_ez_truncated([2], 51, exact=True)  # index shift onto 1..M+1
    assert eval_root_zeta(args, exact(20), d=0, x=1).value == eval_root_zeta(args, exact(20), x=1).value
    args2 = RootZetaArgs.first_row([2, 2])
    assert eval_root_zeta(args2, exact(2), d=2, x=1).value == brute_force_root(args2, 2, d=2, x=1)


def test_first_row_agrees_with_full_zeros():
    fr = RootZetaArgs.first_row([2, 3])
    full = RootZetaArgs.full(2, [2, 0, 3])  # canonical order: (1,2), (2,3), (1,3)
    for M in (2, 4):
        for d, x in ((0, None), (1, None), (0, 1)):
            assert eval_root_zeta(fr, exact(M), d, x).value == eval_root_zeta(full, exact(M), d, x).value


def test_convergence_heuristic_enforced():
    with pytest.raises(ConvergenceError):
        eval_root_zeta(RootZetaArgs.first_row([2, 1]), exact(5))


# plain; bullet with d=1; H with x=1; bullet-H with d=1, x=1, all at rank 2
VARIANTS = [(0, None), (1, None), (0, 1), (1, 1)]


@pytest.mark.parametrize("d,x", VARIANTS)
def test_floating_mode_sums_in_floats(d, x):
    args = RootZetaArgs.full(2, [2, 2, 2])
    res = eval_root_zeta(args, floating(12), d, x)
    want = eval_root_zeta(args, exact(12), d, x).value
    assert type(res.value) is float and res.heuristic and res.tail_bound is not None
    assert abs(res.value - float(want)) <= 1e-12 * float(want)


@pytest.mark.parametrize("d,x", VARIANTS)
def test_exact_mode_returns_the_fraction_at_M(d, x):
    args = RootZetaArgs.full(2, [2, 2, 2])
    res = eval_root_zeta(args, exact(3), d, x)
    assert isinstance(res.value, Fraction) and res.tail_bound is None and not res.heuristic
    assert res.value == brute_force_root(args, 3, d, x)


@pytest.mark.parametrize("d,x", VARIANTS)
def test_exact_mode_falls_back_on_float_exponents(d, x):
    args = RootZetaArgs.full(2, [2, 2.5, 2])
    res = eval_root_zeta(args, exact(6), d, x)
    assert type(res.value) is float and res.tail_bound is not None
    assert "fell back to floating" in res.note
    assert res.value == eval_root_zeta(args, floating(6), d, x).value


# --- the box sum against the direct product over the box ---


def complex_brute_force_root(args, M, d=0, x=None):
    """The box sum point by point in complex double precision, the oracle
    for real and complex exponents."""
    total = 0j
    ranges = [range(0 if k <= d else 1, M + 1) for k in range(1, args.r + 1)]
    for ms in product(*ranges):
        term = 1 + 0j
        for (i, j), s in args.s.items():
            base = sum(ms[i - 1 : j - 1]) + float(x or 0)
            if s != 0 and base != 0:
                term *= cmath.exp(-complex(s) * math.log(base))
        total += term
    return total


# the largest M drawn per rank: the references visit (M+1)^r points
MAX_M = {1: 40, 2: 12, 3: 6, 4: 4}


@st.composite
def root_cases(draw, exponents):
    """(args, M, d, x) over ranks 1-4, the four variants (d = 0 or not, x
    None or not), first-row and full arguments."""
    r = draw(st.integers(min_value=1, max_value=4))
    M = draw(st.integers(min_value=1, max_value=MAX_M[r]))
    d = draw(st.integers(min_value=0, max_value=r))
    x = draw(st.sampled_from([None, 1, Fraction(1, 2)]))
    first_row = draw(st.booleans())
    n = r if first_row else len(canonical_pairs(r))
    values = draw(st.lists(exponents, min_size=n, max_size=n))
    args = RootZetaArgs.first_row(values) if first_row else RootZetaArgs.full(r, values)
    assume(check_root_domain(args))
    return args, M, d, x


@given(root_cases(st.integers(min_value=0, max_value=3)))
@settings(max_examples=80, deadline=None)
def test_grid_sum_matches_the_loop_on_integer_exponents(case):
    args, M, d, x = case
    res = eval_root_zeta(args, floating(M), d, x)
    want = float(brute_force_root(args, M, d, x))
    assert type(res.value) is float
    assert abs(res.value - want) <= 1e-12 * want


@given(root_cases(st.integers(min_value=0, max_value=3)))
@settings(max_examples=80, deadline=None)
def test_exact_grid_sum_equals_the_direct_product(case):
    args, M, d, x = case
    value = _grid_sum(args, M, d, x, True)
    assert type(value) is Fraction
    assert value == brute_force_root(args, M, d, x)
    assert eval_root_zeta(args, exact(M), d, x).value == value


real_or_complex = st.one_of(
    st.floats(min_value=0.0, max_value=3.0),
    st.builds(complex, st.floats(min_value=0.5, max_value=3.0), st.floats(min_value=-2.0, max_value=2.0)),
)


@given(root_cases(real_or_complex))
@settings(max_examples=80, deadline=None)
def test_grid_sum_matches_brute_force_on_real_and_complex_exponents(case):
    args, M, d, x = case
    res = eval_root_zeta(args, floating(M), d, x)
    want = complex_brute_force_root(args, M, d, x)
    assert type(res.value) in (float, complex)
    assert abs(res.value - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize(
    "args,M,d,x",
    [
        (RootZetaArgs.full(3, [2, 3, 2, 1, 2, 3]), 1, 0, None),
        (RootZetaArgs.full(3, [2, 3, 2, 1, 2, 3]), 1, 3, Fraction(1, 2)),
        # m_1 = m_2 = 0 makes the bases of (1,2), (2,3) and (1,3) zero
        (RootZetaArgs.full(3, [2, 2, 3, 2, 2, 2]), 5, 2, None),
        # no factor touches m_2, which must still count M (or M+1) times
        (RootZetaArgs(2, {(1, 2): 2}), 7, 0, None),
        (RootZetaArgs(2, {(1, 2): 2}), 7, 2, None),
        (RootZetaArgs(3, {(1, 2): 2}), 4, 0, 1),
    ],
    ids=["M-one", "M-one-bullet-H", "zero-block", "last-index-free", "last-index-free-bullet", "two-free-H"],
)
def test_grid_sum_pinned_cases(args, M, d, x):
    want = brute_force_root(args, M, d, x)
    assert _grid_sum(args, M, d, x, True) == want
    value = _grid_sum(args, M, d, x, False)
    assert type(value) is float
    assert abs(value - float(want)) <= 1e-12 * float(want)


@pytest.mark.parametrize("s", [2.5, -1, Fraction(1, 2)])
def test_box_sum_refuses_an_exponent_it_cannot_sum_exactly(s):
    with pytest.raises(ValueError, match="non-negative integer"):
        _grid_sum(RootZetaArgs(1, {(1, 2): s}), 5, 0, None, True)


def test_grid_sum_of_a_free_last_index():
    value = _grid_sum(RootZetaArgs(2, {(1, 2): 2}), 7, 0, None, False)
    assert value == pytest.approx(7 * float(eval_ez_truncated([2], 7, exact=True)), rel=1e-14)


def test_grid_sum_memory_is_bounded():
    # at 2M the (m_1, m_2) grid has 36 M elements; summed in blocks of rows
    # the evaluation stays far below the 290 MB one grid-sized array takes
    M = 3000
    tracemalloc.start()
    try:
        res = eval_root_zeta(RootZetaArgs.full(2, [2, 2, 2]), floating(M))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    m2 = np.arange(1.0, M + 1.0)
    want = sum(float((m1**-2.0 * m2**-2.0 * (m1 + m2) ** -2.0).sum()) for m1 in range(1, M + 1))
    assert abs(res.value - want) <= 1e-12 * want


def test_exact_grid_sum_memory_is_bounded():
    # entries are numerators over lcm(1..400)^6, about 480 B each, so the
    # 40,000-point grid would take 19 MiB at once; blocks of 8 MiB peak near 8.4
    args = RootZetaArgs.full(2, [2, 2, 2])
    tracemalloc.start()
    try:
        value = eval_root_zeta(args, exact(200)).value
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20
    assert float(value) == pytest.approx(eval_root_zeta(args, floating(200)).value, rel=1e-13)


@pytest.mark.parametrize(
    "cfg,d,predicted",
    [
        (floating(1000), 0, f"{1000**3 + 2000**3} box points"),
        (exact(1100), 3, f"{1101**3} box points"),
        # under 2^30 points, but each carries numerators over lcm(1..3000)^12
        (exact(1000), 0, f"{1000**3} cells of 53969-bit numerators"),
    ],
    ids=["floating-at-M-and-2M", "exact-zero-block", "exact-numerator-bits"],
)
def test_an_oversized_box_is_refused_before_any_table(cfg, d, predicted):
    # rank 3; floating mode also sums the box at 2M for its estimate, and a
    # zero-based index takes M + 1 values
    args = RootZetaArgs.full(3, [2] * 6)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^job too large \(predicted {predicted}\); lower M$"):
            eval_root_zeta(args, cfg, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# --- coupled-truncation chains and the hook rewrite ---


def hook_determinant(z0, arm, leg, M, exact):
    """chain_determinant of the hook (p | q) whose arm carries z_1..z_p and
    whose leg carries z_-1..z_-q: its one entry."""
    z = {0: z0, **dict(zip(range(1, len(arm) + 1), arm)), **dict(zip(range(-1, -len(leg) - 1, -1), leg))}
    return chain_determinant(FrobeniusForm((len(arm),), (len(leg),)), ContentAssignment(z), M, exact)


def test_chain_tables_against_brute_force():
    # the hook (2 | 2): sum over m of m^-2 times the strict chains
    # m < n_1 < n_2 and the weak chains m <= k_1 <= k_2, all <= M
    M = 9
    want = sum(
        Fraction(1, m**2 * n1**2 * n2**3 * k1**2 * k2**3)
        for m in range(1, M + 1)
        for n1 in range(m + 1, M + 1)
        for n2 in range(n1 + 1, M + 1)
        for k1 in range(m, M + 1)
        for k2 in range(k1, M + 1)
    )
    assert hook_determinant(2, [2, 3], [2, 3], M, True) == want


def test_chain_tables_float_matches_exact():
    M = 30
    for arm, leg in (([2, 2], []), ([], [2, 2]), ([2, 2], [2, 2]), ([2], [2, 2])):
        exact = hook_determinant(2, arm, leg, M, True)
        floating = hook_determinant(2.0, [float(v) for v in arm], [float(v) for v in leg], M, False)
        assert float(exact) == pytest.approx(floating, rel=1e-12)


def test_a_row_and_a_column_are_euler_zagier_sums():
    # the row (p+1) is zeta-star(z_0, ..., z_p), the column (1^(q+1)) is
    # zeta(z_0, z_-1, ..., z_-q): an empty leg or arm weighs 1
    svals = [3, 1, 2, 2]
    for M in (1, 2, 7):
        for n in range(4):
            assert hook_determinant(svals[0], svals[1 : n + 1], [], M, True) == eval_ez_truncated(
                svals[: n + 1], M, star=True, exact=True
            )
            assert hook_determinant(svals[0], [], svals[1 : n + 1], M, True) == eval_ez_truncated(
                svals[: n + 1], M, exact=True
            )


def reference_float_chain_table(svals, M, weak):
    """The floating chain table as one backward cumsum per exponent, built
    from the innermost exponent out: the reference for the table the chain
    kernel gives run down, from the value M."""
    dtype = complex if any(isinstance(v, complex) and v.imag for v in svals) else float
    m = np.arange(1.0, M + 1.0)
    T = np.ones(M + 2, dtype=dtype)
    for s in reversed(svals):
        if isinstance(s, complex) and s.imag != 0:
            powers = np.exp(-s * np.log(m))
        else:
            powers = m ** (-float(complex(s).real))
        w = powers * T[1 : M + 1]
        G = np.zeros(M + 2, dtype=dtype)
        G[1 : M + 1] = np.cumsum(w[::-1])[::-1]
        G[0] = G[1]
        if weak:
            T = G
        else:
            T = np.concatenate((G[1:], np.zeros(1, dtype=dtype)))
    return T


def reference_exact_chain_table(svals, M, weak):
    """The exact chain table summed in Fractions, one backward pass per
    exponent."""
    T = [Fraction(1)] * (M + 2)
    for s in reversed(svals):
        G = [Fraction(0)] * (M + 2)
        acc = Fraction(0)
        for u in range(M, 0, -1):
            acc += T[u] / u**s
            G[u] = acc
        G[0] = acc
        T = G if weak else [G[min(v + 1, M + 1)] for v in range(M + 2)]
    return T


CHAIN_EXPONENTS = st.one_of(
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=0.5, max_value=4),
    st.builds(complex, st.floats(min_value=0.5, max_value=4), st.floats(min_value=-3, max_value=3)),
    st.sampled_from([2 + 0j, 3 + 0j]),  # complex type, real value
)


@given(
    CHAIN_EXPONENTS,
    st.lists(CHAIN_EXPONENTS, max_size=3),
    st.lists(CHAIN_EXPONENTS, max_size=3),
    st.integers(min_value=1, max_value=2000),
)
@example(2, [], [], 3)
@example(2 + 1j, [3.0, 2], [2, 1.5], 1)
@example(1.5, [2.5, 2 - 1j], [3], 2)
@example(3, [2 + 0j], [2 + 0j], 2)
@settings(max_examples=200, deadline=None)
def test_float_chain_determinant_matches_the_backward_cumsum(z0, arm, leg, M):
    value = hook_determinant(z0, arm, leg, M, False)
    m = np.arange(1.0, M + 1.0)
    weight = np.exp(-z0 * np.log(m)) if isinstance(z0, complex) and z0.imag else m ** (-float(complex(z0).real))
    terms = (
        weight
        * reference_float_chain_table(leg, M, weak=False)[1 : M + 1]
        * reference_float_chain_table(arm, M, weak=True)[1 : M + 1]
    )
    # a complex exponent with imaginary part 0 counts as real
    assert type(value) is (complex if np.iscomplexobj(terms) else float)
    # relative to the sum of the terms' sizes, which is the value's own size
    # unless complex terms cancel
    assert abs(value - terms.sum()) <= 1e-13 * np.abs(terms).sum()


@given(
    st.integers(min_value=0, max_value=4),
    st.lists(st.integers(min_value=0, max_value=4), max_size=3),
    st.lists(st.integers(min_value=0, max_value=4), max_size=3),
    st.integers(min_value=1, max_value=40),
)
@example(2, [], [], 3)
@example(2, [2, 3, 1], [1, 3], 1)
@example(0, [1, 3], [2, 3, 1], 2)
@settings(max_examples=150, deadline=None)
def test_exact_chain_table_equals_the_fraction_loop(z0, arm, leg, M):
    strict = reference_exact_chain_table(leg, M, weak=False)
    weak = reference_exact_chain_table(arm, M, weak=True)
    want = sum((Fraction(strict[m] * weak[m], m**z0) for m in range(1, M + 1)), Fraction(0))
    value = hook_determinant(z0, arm, leg, M, True)
    assert type(value) is Fraction and value == want


@st.composite
def content_shapes(draw):
    """A straight shape of at most 8 cells with an integer z_k per content."""
    rows = [draw(st.integers(min_value=1, max_value=8))]
    while sum(rows) < 8 and draw(st.booleans()):
        rows.append(draw(st.integers(min_value=1, max_value=min(rows[-1], 8 - sum(rows)))))
    lam = Partition(tuple(rows))
    z = {k: draw(st.integers(min_value=0, max_value=4)) for k in range(1 - len(rows), rows[0])}
    return lam, z


@given(content_shapes(), st.integers(min_value=1, max_value=5))
@example((Partition((3, 2, 1)), {0: 2, 1: 3, 2: 2, -1: 2, -2: 3}), 5)
@example((Partition((2, 2)), {0: 0, 1: 0, -1: 0}), 3)
@settings(max_examples=150, deadline=None)
def test_exact_chain_determinant_equals_the_row_window(shape, M):
    lam, z = shape
    value = chain_determinant(lam.frobenius(), ContentAssignment(z), M, True)
    assert value == eval_schur_truncated(VariableTableau.from_content(lam, z), M, exact=True)


@pytest.mark.parametrize(
    "call",
    [
        lambda: eval_ez_truncated([2], 10),
        lambda: eval_schur_truncated(VariableTableau.from_content(Partition((1,)), {0: 2}), 10),
        lambda: chain_determinant(FrobeniusForm((0,), (0,)), ContentAssignment({0: 2}), 10),
    ],
    ids=["eval_ez_truncated", "eval_schur_truncated", "chain_determinant"],
)
def test_helpers_take_their_arithmetic_from_the_caller(call):
    with pytest.raises(TypeError, match="exact"):
        call()


def test_exact_helpers_refuse_non_integer_exponents():
    with pytest.raises(ValueError, match="non-negative integer"):
        eval_ez_truncated([2.5], 10, exact=True)
    with pytest.raises(ValueError, match="non-negative integer"):
        hook_determinant(2, [2], [2, 2.5], 10, True)


def test_hook_rewrite_matches_tableau_sum():
    # the coupled truncation keeps every running value <= M, so the rewrite
    # agrees exactly with the tableau sum of the hook shape
    cases = [
        (1, 1, {0: 2, 1: 2, -1: 2}),
        (2, 1, {0: 3, 1: 2, 2: 2, -1: 2}),
        (1, 2, {0: 2, 1: 3, -1: 2, -2: 2}),
        (3, 2, {0: 2, 1: 1, 2: 1, 3: 2, -1: 1, -2: 2}),
        (0, 3, {0: 2, -1: 1, -2: 1, -3: 2}),
    ]
    for p, q, z in cases:
        for M in (3, 6):
            bridge = chain_determinant(FrobeniusForm((p,), (q,)), ContentAssignment(z), M, True)
            vt = VariableTableau.from_content(Partition.hook(p, q), z)
            assert bridge == eval_schur_truncated(vt, M, exact=True)


def test_hook_rewrite_float():
    z = {0: 3.0, 1: 2.0, -1: 2.0}
    v = chain_determinant(FrobeniusForm((1,), (1,)), ContentAssignment(z), 40, False)
    vt = VariableTableau.from_content(Partition.hook(1, 1), {0: 3, 1: 2, -1: 2})
    assert v == pytest.approx(float(eval_schur_truncated(vt, 40, exact=True)), rel=1e-12)
