
from fractions import Fraction
from itertools import combinations

import pytest

from oracles import expand_grid_determinant
from schurzeta.expressions import (
    FormalExpr,
    FormalTerm,
    HookEntry,
    ZetaSymbol,
    eval_thm42,
    expand_antihook,
    expand_giambelli,
    expand_giambelli_terms,
    expand_hook,
    giambelli_det_expr,
    normalize,
    truncated_value,
)
from schurzeta.mzv import ContentAssignment, ConvergenceError, TruncationConfig, eval_ez_truncated
from schurzeta.partitions import FrobeniusForm, Partition
from schurzeta.rootzeta import chain_determinant
from schurzeta.schur import VariableTableau, eval_schur, eval_schur_truncated


def term(coeff, *factors):
    return FormalTerm(coeff, tuple(ZetaSymbol(k, tuple(a)) for k, a in factors))


def test_symbol_validation():
    with pytest.raises(ValueError):
        ZetaSymbol("weak", (0,))
    with pytest.raises(ValueError):
        ZetaSymbol("star", ())


def test_expand_hook_examples():
    e = expand_hook(0, 1, "hook1")
    expected = normalize(
        FormalExpr(
            (
                term(1, ("star", [0]), ("strict", [-1])),
                term(-1, ("star", [-1, 0])),
            )
        )
    )
    assert e == expected

    assert expand_hook(0, 0, "hook1") == FormalExpr((term(1, ("star", [0])),))
    assert expand_hook(0, 0, "hook2") == FormalExpr((term(1, ("strict", [0])),))

    e = expand_hook(1, 1, "hook2")
    expected = normalize(
        FormalExpr(
            (
                term(1, ("strict", [0, -1]), ("star", [1])),
                term(-1, ("strict", [1, 0, -1])),
            )
        )
    )
    assert e == expected

    with pytest.raises(ValueError):
        expand_hook(-1, 0)
    with pytest.raises(ValueError):
        expand_hook(0, 0, "hook3")


@pytest.mark.parametrize(
    "k,l,plain",
    [
        (1, 1, "-zeta(z1,z0,z-1) + zeta*(z-1)*zeta(z1,z0)"),
        (2, 1, "zeta(z2,z1,z0,z-1) - zeta*(z-1)*zeta(z2,z1,z0) + zeta*(z-1,z0)*zeta(z2,z1)"),
        (2, 2, "zeta(z2,z1,z0,z-1,z-2) - zeta*(z-2)*zeta(z2,z1,z0,z-1) + zeta*(z-2,z-1)*zeta(z2,z1,z0)"),
    ],
)
def test_expand_antihook_examples(k, l, plain):
    assert expand_antihook(k, l).plain() == plain


def test_expand_antihook_validation():
    with pytest.raises(ValueError):
        expand_antihook(0, 1)
    with pytest.raises(ValueError):
        expand_antihook(1, 0)


def test_giambelli_grid():
    grid = giambelli_det_expr(Partition((2, 2)))
    assert grid == [[HookEntry(1, 1), HookEntry(1, 0)], [HookEntry(0, 1), HookEntry(0, 0)]]
    assert grid[0][0].shape == Partition((2, 1))
    assert grid[0][0].contents == (-1, 0, 1)

    grid = giambelli_det_expr(Partition((6, 4, 4, 2, 2)))
    assert [[e.p for e in row] for row in grid] == [[5] * 3, [2] * 3, [1] * 3]
    assert [[e.q for e in row] for row in grid] == [[4, 3, 0]] * 3

    assert giambelli_det_expr(Partition((1,))) == [[HookEntry(0, 0)]]


def test_expand_giambelli_single_cell():
    assert expand_giambelli(Partition((1,))) == expand_hook(0, 0, "hook1")


def test_expand_giambelli_2x2():
    lam = Partition((2, 2))
    raw = list(expand_giambelli_terms(lam))
    assert len(raw) == 4
    g = expand_giambelli(lam)
    expected = normalize(
        FormalExpr(
            (
                term(1, ("star", [-1, 0]), ("star", [0, 1])),
                term(-1, ("star", [-1, 0, 1]), ("star", [0])),
            )
        )
    )
    assert g == expected


def all_test_shapes(max_pq=3):
    """Every partition with N <= 3 and p_i, q_i <= max_pq."""
    shapes = []
    vals = range(max_pq + 1)
    for n in (1, 2, 3):
        decreasing = [t for t in combinations(vals, n)]
        for p in decreasing:
            for q in decreasing:
                shapes.append(
                    Partition.from_frobenius(
                        FrobeniusForm(tuple(reversed(p)), tuple(reversed(q)))
                    )
                )
    return shapes


def test_term_counts():
    import math as _math

    for lam in all_test_shapes(2):
        f = lam.frobenius()
        n_fact = _math.factorial(f.n)
        std = sum(1 for _ in expand_giambelli_terms(lam, "standard"))
        rev = sum(1 for _ in expand_giambelli_terms(lam, "reversed"))
        assert std == n_fact * _math.prod(qi + 1 for qi in f.q)
        assert rev == n_fact * _math.prod(pi + 1 for pi in f.p)


def test_sign_coherence():
    # first raw term is sigma = identity with all j = 0 and coefficient +1
    for lam in (Partition((2, 2)), Partition((3, 2, 1))):
        f = lam.frobenius()
        first = next(iter(expand_giambelli_terms(lam)))
        assert first.coefficient == 1
        expected = []
        for k in range(f.n):
            expected.append(ZetaSymbol("star", tuple(range(0, f.p[k] + 1))))
            if f.q[k] > 0:
                expected.append(ZetaSymbol("strict", tuple(range(-1, -f.q[k] - 1, -1))))
        assert first.factors == FormalTerm(1, tuple(expected)).factors


def test_structural_determinant_equality_sample():
    for lam in (Partition((2, 2)), Partition((3, 1)), Partition((3, 2, 1)), Partition((4, 4, 4))):
        grid = giambelli_det_expr(lam)
        assert expand_giambelli(lam, "standard") == expand_grid_determinant(grid, "hook1")
        assert expand_giambelli(lam, "reversed") == expand_grid_determinant(grid, "hook2")


def _partitions(n, largest=None):
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first, *rest)


SMALL_AND_5x5 = [Partition(p) for n in range(1, 10) for p in _partitions(n)] + [Partition((5,) * 5)]


@pytest.mark.parametrize("lam", SMALL_AND_5x5, ids=lambda lam: ",".join(map(str, lam.parts)))
def test_collected_expansion_equals_normalized_terms_and_cofactors(lam):
    grid = giambelli_det_expr(lam)
    for variant, hook in (("standard", "hook1"), ("reversed", "hook2")):
        collected = expand_giambelli(lam, variant)
        assert collected == normalize(FormalExpr(tuple(expand_giambelli_terms(lam, variant))))
        assert collected == expand_grid_determinant(grid, hook)


def test_normalize():
    t = term(1, ("star", [0]))
    e = FormalExpr((t, term(-1, ("star", [0]))))
    assert normalize(e) == FormalExpr.zero()
    e = FormalExpr((term(2, ("star", [0])), term(3, ("star", [0]))))
    assert normalize(e) == FormalExpr((term(5, ("star", [0])),))
    g = expand_giambelli(Partition((2, 2)))
    assert normalize(g) == g


def test_latex_output():
    e = expand_hook(0, 1, "hook1")
    s = e.latex()
    assert r"\zeta^{\star}(z_{-1}, z_{0})" in s
    assert r"\zeta(z_{-1})" in s
    assert FormalExpr.zero().latex() == "0"
    assert FormalExpr.one().latex() == "1"


def test_evaluate_expr_examples():
    e = FormalExpr((term(1, ("star", [0])),))
    assert truncated_value(e, ContentAssignment({0: 2}), 2, exact=True) == Fraction(5, 4)

    e = expand_hook(0, 1, "hook1")
    z = ContentAssignment({0: 2, -1: 2})
    vt = VariableTableau.from_content(Partition((1, 1)), z)
    assert truncated_value(e, z, 3, exact=True) == eval_schur_truncated(vt, 3, exact=True)
    assert truncated_value(e, z, 3, exact=True) == Fraction(7, 18)


def test_empty_expression_evaluates_to_zero():
    assert truncated_value(FormalExpr.zero(), ContentAssignment({}), 5, exact=True) == 0


def test_thm42_single_cell_is_riemann():
    vt = VariableTableau.from_content(Partition((1,)), {0: 3})
    res = eval_schur(vt, TruncationConfig(40, mode="exact"))
    assert res.value == eval_ez_truncated([3], 40, exact=True)
    # exact mode: the value at M and no estimate
    assert res.tail_bound is None and not res.heuristic and res.path == "chain-determinant"


def test_thm42_hook_matches_tableau():
    z = ContentAssignment({0: 3, 1: 2, -1: 2})
    lam = Partition((2, 1))
    vt = VariableTableau.from_content(lam, z)
    for M in (3, 6, 10):
        assert chain_determinant(lam.frobenius(), z, M, True) == eval_schur_truncated(vt, M, exact=True)


def test_thm42_two_by_two_numerical():
    z = ContentAssignment({0: 3, 1: 2, -1: 2})
    lam = Partition((2, 2))
    series = chain_determinant(lam.frobenius(), z, 200, False)
    # summed over tableaux by the row window, not by eval_schur's Thm 4.2 route
    schur = eval_schur_truncated(VariableTableau.from_content(lam, z), 200, exact=False)
    assert abs(series - schur) < 1e-10


def test_thm42_three_by_three_exact():
    z = ContentAssignment({0: 3, 1: 2, 2: 2, -1: 2, -2: 2})
    lam = Partition((3, 3, 3))
    vt = VariableTableau.from_content(lam, z)
    for M in (3, 4):
        assert chain_determinant(lam.frobenius(), z, M, True) == eval_schur_truncated(vt, M, exact=True)


@pytest.mark.parametrize(
    "content",
    [{0: 3, 1: 2, 2: 2, -1: 2, -2: 3}, {0: 2.5, 1: 1.5, 2: 2, -1: 2.2, -2: 3}, {0: 3, 1: 2 + 0.5j, 2: 2, -1: 2, -2: 3 - 1j}],
    ids=["integer", "real", "complex"],
)
@pytest.mark.parametrize("M", [7, 50])
def test_eval_thm42_is_exact_mode_eval_schur(content, M):
    # bench/check.py takes eval_thm42 as its Thm 4.2 reference
    lam = Partition((3, 2, 1))
    res = eval_thm42(lam, content, M)
    want = eval_schur(VariableTableau.from_content(lam, content), TruncationConfig(M, mode="exact"))
    assert (res.value, res.tail_bound, res.heuristic) == (want.value, want.tail_bound, want.heuristic)


def test_expansion_matches_tableau_asymmetric_shape():
    lam = Partition((4, 3, 3, 2))
    z = ContentAssignment({0: 3, 1: 2, 2: 1, 3: 2, -1: 1, -2: 2, -3: 2})
    lhs = eval_schur_truncated(VariableTableau.from_content(lam, z), 4, exact=True)
    assert truncated_value(expand_giambelli(lam, "standard"), z, 4, exact=True) == lhs
    assert truncated_value(expand_giambelli(lam, "reversed"), z, 4, exact=True) == lhs


def test_expansion_matches_tableau_complex_content():
    z = ContentAssignment({0: 3, 1: 2 + 0.3j, -1: 2})
    lam = Partition((2, 2))
    lhs = eval_schur_truncated(VariableTableau.from_content(lam, z), 60, exact=False)
    rhs = truncated_value(expand_giambelli(lam), z, 60, exact=False)
    assert abs(lhs - rhs) < 1e-12


def test_thm42_convergence_checks():
    # eval_schur refuses by the W_lambda rule alone
    exact = TruncationConfig(10, mode="exact")
    # inside W_lambda, though the arm chain z_1 and the leg chain z_-1 diverge on their own
    lam, z = Partition((2, 2)), {0: 2, 1: 1, -1: 1}
    res = eval_schur(VariableTableau.from_content(lam, z), exact)
    assert res.value == eval_schur_truncated(VariableTableau.from_content(lam, z), 10, exact=True)
    # outside W_lambda (z_1 < 1 off the corners), though every chain converges
    with pytest.raises(ConvergenceError):
        eval_schur(VariableTableau.from_content(Partition((3, 1)), {0: 2, 1: 0.9, 2: 3, -1: 2}), exact)
    for lam, z in [((1,), {0: 1}), ((2, 2), {0: 3, 1: 0.2, -1: 2})]:
        with pytest.raises(ConvergenceError):
            eval_schur(VariableTableau.from_content(Partition(lam), z), exact)


def test_giambelli_numerical_consistency_small():
    # expansion evaluates to the cofactor value of the hook grid
    z = ContentAssignment({0: 3, 1: 2, -1: 2})
    lam = Partition((2, 2))
    expanded = truncated_value(expand_giambelli(lam), z, 30, exact=True)
    grid = giambelli_det_expr(lam)
    vals = [
        [
            eval_schur_truncated(VariableTableau.from_content(e.shape, z), 30, exact=True)
            for e in row
        ]
        for row in grid
    ]
    det = vals[0][0] * vals[1][1] - vals[0][1] * vals[1][0]
    assert expanded == det
