import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from schurzeta.mzv import (
    ContentAssignment,
    ConvergenceError,
    TruncationConfig,
    _chains,
    _ez_value,
    _tail_bound,
    check_ez_domain,
    eval_ez,
    eval_ez_truncated,
    exact_exponent,
)


def brute_force_ez(s, M, star):
    """Direct nested iteration, the oracle for the prefix-sum recurrence."""
    from itertools import product

    total = Fraction(0)
    for tup in product(range(1, M + 1), repeat=len(s)):
        ok = all(a <= b if star else a < b for a, b in zip(tup, tup[1:]))
        if ok:
            term = Fraction(1)
            for m, e in zip(tup, s):
                term *= Fraction(1, m**e)
            total += term
    return total


def test_domain_examples():
    assert check_ez_domain([2])
    assert check_ez_domain([1, 2])
    assert not check_ez_domain([2, 1])
    assert not check_ez_domain([1, 1])
    assert check_ez_domain([0.5, 3])


def test_truncated_examples():
    assert eval_ez_truncated([2], 2, exact=True) == Fraction(5, 4)
    assert eval_ez_truncated([1, 2], 3, exact=True) == Fraction(5, 12)
    assert eval_ez_truncated([1, 2], 2, star=True, exact=True) == Fraction(11, 8)


def test_truncated_empty_and_errors():
    assert eval_ez_truncated([], 5, exact=True) == 1
    with pytest.raises(ValueError):
        eval_ez_truncated([2], 0, exact=True)


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=3),
    st.integers(min_value=1, max_value=8),
    st.booleans(),
)
@settings(max_examples=60)
def test_recurrence_matches_brute_force(s, M, star):
    assert eval_ez_truncated(s, M, star, exact=True) == brute_force_ez(s, M, star)


def reference_truncated_float(s, M, star):
    """The floating recurrence with fresh arrays at every stage: new bases
    and logs, a new cumsum and a concatenated shifted copy. The in-place
    kernel must give the same bits."""

    def powers(e):
        m = np.arange(1.0, M + 1.0)
        if isinstance(e, complex) and e.imag != 0:
            return np.exp(-e * np.log(m))
        return m ** (-float(complex(e).real))

    A = powers(s[0])
    rest = ()
    for sj in s[1:]:
        rest += (A.sum(),)
        cs = np.cumsum(A)
        if not star:
            cs = np.concatenate((np.zeros(1, dtype=cs.dtype), cs[:-1]))
        A = powers(sj) * cs
    total = A.sum()
    return (complex(total) if np.iscomplexobj(A) else float(total)), rest


EXPONENTS = st.one_of(
    st.integers(min_value=0, max_value=4),
    st.floats(min_value=0.5, max_value=4),
    st.builds(complex, st.floats(min_value=0.5, max_value=4), st.floats(min_value=-3, max_value=3)),
    st.sampled_from([2 + 0j, 3 + 0j]),  # complex type, real value
)


@given(st.lists(EXPONENTS, min_size=1, max_size=4), st.integers(min_value=1, max_value=3000), st.booleans())
@example([2 + 1j, 3.0, 2, 1.5], 1, False)
@example([2 + 1j, 3.0, 2, 1.5], 1, True)
@example([2.5, 2 - 1j, 3], 2, False)
@example([3, 2 + 0j], 2, True)
@settings(max_examples=200, deadline=None)
def test_float_recurrence_is_bit_identical_to_the_fresh_array_reference(s, M, star):
    value, rest = _ez_value(s, M, star, exact=False)
    ref_value, ref_rest = reference_truncated_float(s, M, star)
    assert type(value) is type(ref_value) and type(rest) is type(ref_rest)
    assert value == ref_value and rest == ref_rest
    if check_ez_domain(s):
        res = eval_ez(s, TruncationConfig(M=M), star=star)
        assert res.value == ref_value
        assert (res.tail_bound, res.heuristic) == _tail_bound(s, M, star, ref_rest)


@pytest.mark.parametrize(
    "s, arrays",
    [
        ([2.5], 3),
        ([1.5, 2.0, 3.0], 3),
        ([2.0, 1.5, 2.5, 3.0], 3),
        ([2 + 1j], 7),
        ([2.0, 2 + 1j, 3.0], 7),
        ([2 - 1j, 2.0, 2 + 1j], 7),
        ([2 + 1j, 1.5 - 1j, 2 + 2j, 3.0], 7),
    ],
)
@pytest.mark.parametrize("down", [False, True])
def test_the_chain_kernel_holds_the_bases_and_two_stages(s, arrays, down):
    # bases, one stage and the next, in float64 arrays of length M (a complex
    # stage is two, and a complex exponent adds the bases' logs): a stage
    # kept alive into the next step would show here
    M = 200_000
    tracemalloc.start()
    try:
        _chains(s, M, False, False, down)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= arrays * 8 * M + 2**16


def reference_truncated_exact(s, M, star):
    """The exact recurrence as one fused loop over m on integer numerators
    over lcm(1..M)^(s_1 + ... + s_r): the reference for the chain kernel
    that also serves the exact chain tables."""
    L = math.lcm(*range(1, M + 1))
    powers = [L**e for e in s]
    acc = [0] * len(s)
    for m in range(1, M + 1):
        prev = 1
        for t, e in enumerate(s):
            term = prev * (powers[t] // m**e)
            if star:
                acc[t] += term
                prev = acc[t]
            else:
                prev = acc[t]
                acc[t] += term
    return Fraction(acc[-1], L ** sum(s))


@given(
    st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=300),
    st.booleans(),
)
@example([2, 3, 1], 1, False)
@example([2, 3, 1], 1, True)
@example([1, 3], 2, False)
@example([1, 3], 2, True)
@settings(max_examples=100, deadline=None)
def test_exact_sum_equals_the_fused_loop(s, M, star):
    value = eval_ez_truncated(s, M, star, exact=True)
    assert type(value) is Fraction
    assert value == reference_truncated_exact(s, M, star)


@given(st.lists(EXPONENTS, min_size=1, max_size=3), st.integers(min_value=1, max_value=300), st.booleans())
@example([2, 3], 5, True)
@example([0, 4, 1], 7, True)
@example([2 + 1j, 1.5], 7, False)
@example([2 + 0j, 3], 7, False)
@settings(max_examples=100, deadline=None)
def test_a_weak_step_into_exponent_zero_takes_the_running_sums(s, M, exact):
    # the rule that the chain determinant's arms and the row window's fold
    # chains rely on. Floating entries are bit for bit equal but for the sign
    # of a zero: a complex exponent's m = 1 term can have imaginary part -0.0,
    # which the product with 1 + 0j makes +0.0
    exact = exact and all(exact_exponent(v) is not None for v in s)
    for down in (False, True):
        terms = _chains(s, M, True, exact, down)[0]
        running = np.cumsum(terms[::-1])[::-1] if down else np.cumsum(terms)
        zero = _chains((0, *s) if down else (*s, 0), M, True, exact, down)[0]
        assert zero.dtype == running.dtype
        assert zero.tolist() == running.tolist()


def test_float_matches_exact():
    for s, star in [((2, 3), False), ((2, 2), True), ((1, 2), False)]:
        exact = eval_ez_truncated(s, 50, star, exact=True)
        floating = eval_ez_truncated([float(v) for v in s], 50, star, exact=False)
        assert abs(float(exact) - floating) < 1e-12
        assert eval_ez_truncated(s, 50, star, exact=False) == floating


def test_complex_exponents():
    v = eval_ez_truncated([2 + 1j], 100, exact=False)
    direct = sum(m ** (-(2 + 1j)) for m in range(1, 101))
    assert abs(v - direct) < 1e-12


def test_golden_zeta2():
    res = eval_ez([2], TruncationConfig(M=100_000))
    assert res.tail_bound is not None
    assert abs(res.value - math.pi**2 / 6) <= res.tail_bound
    assert not res.heuristic


def test_golden_depth_two():
    # targets validated by the truncated stuffle identities in exact arithmetic
    M = 60
    z2 = eval_ez_truncated([2], M, exact=True)
    z4 = eval_ez_truncated([4], M, exact=True)
    assert z2 * z2 == 2 * eval_ez_truncated([2, 2], M, exact=True) + z4
    assert eval_ez_truncated([2, 2], M, star=True, exact=True) == eval_ez_truncated([2, 2], M, exact=True) + z4

    res = eval_ez([2, 2], TruncationConfig(M=50_000))
    assert abs(res.value - math.pi**4 / 120) <= res.tail_bound
    res = eval_ez([2, 2], TruncationConfig(M=50_000), star=True)
    assert abs(res.value - 7 * math.pi**4 / 360) <= res.tail_bound


def test_log_factor_applies_at_re_one():
    M = 1000
    plain = eval_ez([2, 2], TruncationConfig(M=M))
    logged = eval_ez([1, 3], TruncationConfig(M=M))
    # the inner series of (1, 3) diverges, so its bound is the heuristic
    # integral rule, with the log inflation for the inner exponent 1
    base = M ** (1 - 3) / (3 - 1) * abs(eval_ez_truncated([1.0], M, exact=False))
    assert logged.tail_bound == pytest.approx(base * (1 + math.log(M))) and logged.heuristic
    # (2, 2) is proved: the integral times the inner value at M plus its tail
    inner = eval_ez_truncated([2.0], M, exact=False) + M ** (-1)
    assert plain.tail_bound == pytest.approx(M ** (-1) * inner) and not plain.heuristic


def second_pass_tail_bound(s, M, star):
    """(bound, heuristic) with every inner sum summed again on its own, the
    real parts' prefixes for the proved bound and the complex s[:-1] for the
    heuristic one: the reference for the bound that reuses the first pass."""
    sigma = [complex(v).real for v in s]
    if min(sigma[:-1]) <= 1:
        tail = M ** (1.0 - sigma[-1]) / (sigma[-1] - 1.0)
        if 1.0 in sigma[:-1]:
            tail *= (1.0 + math.log(M)) ** (len(s) - 1)
        return tail * abs(eval_ez_truncated([complex(v) for v in s[:-1]], M, star, exact=False)), True
    bound = 0.0
    for t, e in enumerate(sigma):
        bound = (eval_ez_truncated(sigma[:t], M, star, exact=False) + bound) * M ** (1.0 - e) / (e - 1.0)
    return bound, False


@pytest.mark.parametrize("star", [False, True], ids=["strict", "star"])
@pytest.mark.parametrize(
    "s",
    [(2.5, 3.0), (1.0, 2.0), (2 + 1j, 3.0), (1.0, 2.0, 3.5), (1.5, 2 - 0.5j, 2.5), (3, 2, 2)],
    ids=["real-2", "re-one-2", "complex-2", "re-one-3", "complex-3", "int-3"],
)
def test_tail_bound_reuses_the_remaining_sum(s, star):
    M = 20_000
    res = eval_ez(s, TruncationConfig(M=M), star=star)
    assert res.value == eval_ez_truncated(s, M, star, exact=False)
    assert type(res.tail_bound) is float
    bound, heuristic = second_pass_tail_bound(s, M, star)
    assert res.tail_bound == pytest.approx(bound, rel=1e-12) and res.heuristic == heuristic


@given(
    st.lists(st.floats(min_value=1.01, max_value=4.0), min_size=1, max_size=4),
    st.sampled_from([10, 100, 1000]),
    st.booleans(),
)
@example([1.05, 1.05, 2.5], 1000, False)
@settings(max_examples=60, deadline=None)
def test_a_proved_tail_bound_holds_the_lower_bound_of_the_error(s, M, star):
    # every term is positive, so v(8M) - v(M) is at most the true error
    res = eval_ez(s, TruncationConfig(M=M), star=star)
    assert not res.heuristic
    assert res.tail_bound >= eval_ez_truncated(s, 8 * M, star, exact=False) - res.value


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("M", [10, 100, 1000])
def test_the_tail_bound_contains_zeta_of_twos(n, M):
    # zeta({2}^n) = pi^(2n) / (2n + 1)!
    res = eval_ez([2] * n, TruncationConfig(M=M))
    assert not res.heuristic
    assert abs(math.pi ** (2 * n) / math.factorial(2 * n + 1) - res.value) <= res.tail_bound


@given(st.integers(min_value=2, max_value=5), st.integers(min_value=10, max_value=200))
@settings(max_examples=30)
def test_monotone_convergence(s, M):
    v1 = eval_ez_truncated([float(s)], M, exact=False)
    v2 = eval_ez_truncated([float(s)], 2 * M, exact=False)
    res = eval_ez([s * 1.0], TruncationConfig(M=M))
    assert v2 >= v1
    assert v2 <= v1 + res.tail_bound


@given(
    st.lists(st.floats(min_value=1.0, max_value=4.0), min_size=2, max_size=3),
    st.integers(min_value=10, max_value=80),
    st.booleans(),
)
@settings(max_examples=25)
def test_monotone_convergence_deeper(s, M, star):
    s = s[:-1] + [max(s[-1], 1.5)]  # keep the outermost exponent clear of 1
    v1 = eval_ez_truncated(s, M, star, exact=False)
    v2 = eval_ez_truncated(s, 2 * M, star, exact=False)
    res = eval_ez(s, TruncationConfig(M=M), star=star)
    assert v2 >= v1
    assert v2 <= v1 + res.tail_bound


def test_exact_mode_results():
    res = eval_ez([2], TruncationConfig(M=2, mode="exact"))
    assert res.value == Fraction(5, 4)
    assert res.tail_bound is None and res.note == ""


def test_exact_mode_fallback_note():
    res = eval_ez([2.5], TruncationConfig(M=10, mode="exact"))
    assert "fell back to floating" in res.note
    assert isinstance(res.value, float)


def test_convergence_error():
    with pytest.raises(ConvergenceError):
        eval_ez([2, 1], TruncationConfig(M=10))


def test_depth_one_star_agrees():
    for M in (1, 5, 17):
        assert eval_ez_truncated([3], M, exact=True) == eval_ez_truncated([3], M, star=True, exact=True)


def test_content_assignment():
    a = ContentAssignment({0: 3, 1: 2, -1: 2})
    assert a.sequence([-1, 0, 1]) == (2, 3, 2)
    with pytest.raises(KeyError):
        a[5]


def test_truncation_config_validation():
    with pytest.raises(ValueError):
        TruncationConfig(M=0)
    with pytest.raises(ValueError):
        TruncationConfig(mode="fast")
    with pytest.raises(ValueError):
        TruncationConfig(tolerance=0.0)
