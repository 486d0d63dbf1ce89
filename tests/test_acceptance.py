"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
complete. All comparisons are either exact rational equalities or carry the
tolerance stated in the assertion.
"""

import math
import random
from fractions import Fraction
from itertools import combinations

from oracles import enumerate_ssyt, expand_grid_determinant, partition_from_frobenius
from schurzeta.expressions import (
    expand_antihook,
    expand_giambelli,
    expand_hook,
    giambelli_det_expr,
    truncated_value,
)
from schurzeta.mzv import ContentAssignment, TruncationConfig, eval_ez, eval_ez_truncated
from schurzeta.partitions import FrobeniusForm, Partition
from schurzeta.rootzeta import RootZetaArgs, canonical_pairs, chain_determinant, eval_root_zeta
from schurzeta.schur import (
    VariableTableau,
    _antihook_content,
    antihook_tableau,
    eval_schur,
    eval_schur_truncated,
)


def _report(number: int, description: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE criterion {number} ({description}): {status}")
    assert not failures, f"criterion {number}: {failures[:5]}"


def brute_force_skew(vt: VariableTableau, M: int) -> Fraction:
    total = Fraction(0)
    for t in enumerate_ssyt(vt.shape, M):
        term = Fraction(1)
        for cell, m in t.entries.items():
            term *= Fraction(1, m ** vt.value(*cell))
        total += term
    return total


def test_criterion_1_hook_identities_exact():
    rng = random.Random(101)
    failures = []
    for p in range(4):
        for q in range(4):
            draws = []
            for _ in range(2):
                z = {k: rng.choice([1, 2, 3]) for k in range(-q, p + 1)}
                z[p] = rng.choice([2, 3])   # corner at the end of the arm
                z[-q] = rng.choice([2, 3])  # corner at the end of the leg
                draws.append(ContentAssignment(z))
            for z in draws:
                vt = VariableTableau.from_content(Partition.hook(p, q), z)
                for M in (4, 6, 8):
                    lhs = eval_schur_truncated(vt, M, exact=True)
                    for variant in ("hook1", "hook2"):
                        rhs = truncated_value(expand_hook(p, q, variant), z, M, exact=True)
                        if lhs != rhs:
                            failures.append((variant, p, q, M, z))
    _report(1, "hook identities exact at truncation", failures)


def test_criterion_2_antihook_exact():
    rng = random.Random(202)
    failures = []
    for k in (1, 2, 3):
        for l in (1, 2, 3):
            for _ in range(2):
                bottom = [rng.choice([1, 2, 3]) for _ in range(k + 1)]
                column = [rng.choice([1, 2, 3]) for _ in range(l)]
                vt = antihook_tableau(bottom, column)
                expr, z = expand_antihook(k, l), _antihook_content(bottom, column)
                for M in (4, 6):
                    lhs = brute_force_skew(vt, M)
                    rhs = truncated_value(expr, ContentAssignment(z), M, exact=True)
                    if lhs != rhs:
                        failures.append((k, l, M, bottom, column))
    _report(2, "anti-hook identity exact at truncation", failures)


def test_criterion_3_giambelli_structural():
    failures = []
    checked = 0
    vals = range(4)
    for n in (1, 2, 3):
        for p in combinations(vals, n):
            for q in combinations(vals, n):
                lam = partition_from_frobenius(
                    FrobeniusForm(tuple(reversed(p)), tuple(reversed(q)))
                )
                expanded = expand_giambelli(lam, "standard")
                cofactor = expand_grid_determinant(giambelli_det_expr(lam), "hook1")
                if expanded != cofactor:
                    failures.append(lam.parts)
                checked += 1
    assert checked == 68
    _report(3, "Giambelli structural identity, 68 shapes", failures)


def test_criterion_4_giambelli_numerical():
    # both sides are truncated at M, where the identity holds exactly, so they
    # differ by rounding alone
    z = {0: 3, 1: 2, 2: 2, -1: 2, -2: 2}
    M = 2000
    failures = []
    for parts in [(2, 2), (3, 1), (2, 2, 1), (3, 2, 1)]:
        lam = Partition(parts)
        schur = eval_schur(VariableTableau.from_content(lam, z), TruncationConfig(M=M)).value
        expr = truncated_value(expand_giambelli(lam), ContentAssignment(z), M, exact=False)
        rel = abs(complex(schur) - complex(expr)) / abs(complex(expr))
        if rel > 1e-12:
            failures.append((parts, rel))
    _report(4, f"Giambelli numerical identity at M={M}, relative diff <= 1e-12", failures)


def test_criterion_5_root_system_numerical():
    z = {0: 3, 1: 2, 2: 2, -1: 2, -2: 2}
    failures = []
    for parts in [(2, 1), (2, 2)]:
        lam = Partition(parts)
        # summed over tableaux by the row window, not by eval_schur's Thm 4.2 route
        schur = eval_schur_truncated(VariableTableau.from_content(lam, z), 200, exact=False)
        series = chain_determinant(lam.frobenius(), ContentAssignment(z), 200, False)
        diff = abs(complex(schur) - complex(series))
        if diff > 1e-10:
            failures.append((parts, diff))
    _report(5, "root-system series identity at M=200, diff <= 1e-10", failures)


def test_criterion_6_mzv_golden_values():
    failures = []
    # independent validation of the targets by truncated stuffle identities
    M = 60
    z2 = eval_ez_truncated([2], M, exact=True)
    z4 = eval_ez_truncated([4], M, exact=True)
    if z2 * z2 != 2 * eval_ez_truncated([2, 2], M, exact=True) + z4:
        failures.append("stuffle zeta(2)^2")
    if eval_ez_truncated([2, 2], M, star=True, exact=True) != eval_ez_truncated([2, 2], M, exact=True) + z4:
        failures.append("star decomposition")

    res = eval_ez([2], TruncationConfig(M=1_000_000))
    if not (res.tail_bound <= 1e-6 and abs(res.value - math.pi**2 / 6) <= res.tail_bound):
        failures.append(("zeta(2)", res.tail_bound))
    res = eval_ez([2, 2], TruncationConfig(M=100_000))
    if not abs(res.value - math.pi**4 / 120) <= res.tail_bound:
        failures.append("zeta(2,2)")
    res = eval_ez([2, 2], TruncationConfig(M=100_000), star=True)
    if not abs(res.value - 7 * math.pi**4 / 360) <= res.tail_bound:
        failures.append("zeta*(2,2)")
    _report(6, "golden MZV values within reported bounds", failures)


def test_criterion_7_exact_algebraic_suite():
    rng = random.Random(707)
    failures = []
    cases = 0

    for _ in range(200):  # stuffle at truncation
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        M = rng.randint(1, 50)
        lhs = eval_ez_truncated([a], M, exact=True) * eval_ez_truncated([b], M, exact=True)
        rhs = (
            eval_ez_truncated([a, b], M, exact=True)
            + eval_ez_truncated([b, a], M, exact=True)
            + eval_ez_truncated([a + b], M, exact=True)
        )
        if lhs != rhs:
            failures.append(("stuffle", a, b, M))
        cases += 1

    for _ in range(120):  # star / strict decomposition
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        M = rng.randint(1, 50)
        lhs = eval_ez_truncated([a, b], M, star=True, exact=True)
        rhs = eval_ez_truncated([a, b], M, exact=True) + eval_ez_truncated([a + b], M, exact=True)
        if lhs != rhs:
            failures.append(("star", a, b, M))
        cases += 1

    for _ in range(60):  # depth-1 agreement
        a = rng.randint(0, 5)
        M = rng.randint(1, 60)
        if eval_ez_truncated([a], M, exact=True) != eval_ez_truncated([a], M, star=True, exact=True):
            failures.append(("depth1", a, M))
        cases += 1

    for _ in range(60):  # d=0 collapse, bit for bit
        r = rng.randint(1, 3)
        n_vars = r * (r + 1) // 2
        args = RootZetaArgs.full(r, [rng.choice([2, 3]) for _ in range(n_vars)])
        cfg = TruncationConfig(rng.randint(2, 4), "exact")
        if eval_root_zeta(args, cfg, d=0).value != eval_root_zeta(args, cfg).value:
            failures.append(("d0", args, cfg.M))
        cases += 1

    for _ in range(60):  # first-row-only agreement, bit for bit
        r = rng.randint(1, 3)
        zrow = [rng.choice([2, 3]) for _ in range(r)]
        fr = RootZetaArgs.first_row(zrow)
        first_row_vals = {(1, j): zrow[j - 2] for j in range(2, r + 2)}
        full = RootZetaArgs(
            r, {pair: first_row_vals.get(pair, 0) for pair in canonical_pairs(r)}
        )
        cfg = TruncationConfig(rng.randint(2, 4), "exact")
        if eval_root_zeta(fr, cfg).value != eval_root_zeta(full, cfg).value:
            failures.append(("first-row A", zrow, cfg.M))
        if eval_root_zeta(fr, cfg, x=1).value != eval_root_zeta(full, cfg, x=1).value:
            failures.append(("first-row H", zrow, cfg.M))
        cases += 1

    assert cases >= 500
    _report(7, f"exact algebraic suite, {cases} randomized cases", failures)


def test_criterion_8_ssyt_counts():
    def partitions_of(n, cap=None):
        if n == 0:
            yield ()
            return
        cap = n if cap is None else cap
        for first in range(min(n, cap), 0, -1):
            for rest in partitions_of(n - first, first):
                yield (first,) + rest

    failures = []
    checked = 0
    for size in range(0, 9):
        for parts in partitions_of(size):
            lam = Partition(parts)
            con = lam.conjugate()
            for n in range(1, 5):
                count = sum(1 for _ in enumerate_ssyt(lam, n))
                expected = Fraction(1)
                for i, j in lam.as_skew().cells():
                    hook = (lam.part(i) - j) + (con.part(j) - i) + 1
                    expected *= Fraction(n + j - i, hook)
                if expected.denominator != 1 or count != expected:
                    failures.append((parts, n, count, expected))
                checked += 1
    assert checked >= 67 * 4
    _report(8, f"SSYT counts match hook-content products ({checked} checks)", failures)
