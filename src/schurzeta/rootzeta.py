"""Zeta-functions of the type-A root system and their modified variants.

The rank-r series runs over m_1, ..., m_r with one factor
(m_i + ... + m_{j-1})^(-s(i,j)) per pair 1 <= i < j <= r+1. Variants:

* bullet (d): the first d indices run from 0, and factors whose base would
  vanish (all contributing indices zero) are omitted from the product.
* H (x): every base is shifted by a fixed x > 0, all indices from 1.
* bullet-H (d, x): both; the shift keeps every base positive, so nothing
  needs omitting.

Public evaluators truncate each index at M (a box truncation). One box sum,
_grid_sum, serves both arithmetics: a table of powers per root, and the grid
of the last two indices summed in numpy by blocks of rows, about (M+1)^(r-2)
Python steps at rank r. Exact mode runs it on integer numerators.

chain_determinant is the Thm 4.2 series of a content-parametrized Schur
sum, whose entries are first-row modified root-system zeta-functions under
the coupled truncation: the bound M applies to the running values
x + m_1 + ... + m_k themselves, so a first-row series is a single chain
of them, and every Schur tableau entry stays <= M. Each chain is mzv's one
chain kernel run down from the value M, in the arithmetic the caller names.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

import numpy as np

from .mzv import (
    ContentAssignment,
    ConvergenceError,
    EvalResult,
    Number,
    TruncationConfig,
    _arithmetic,
    _chains,
    _exact_exponents,
    _powers,
    _refuse_exact_job,
    _truncated_result,
)
from .partitions import FrobeniusForm


def canonical_pairs(r: int) -> list[tuple[int, int]]:
    """Pair order (1,2),(2,3),...,(r,r+1),(1,3),...,(1,r+1): by gap, then start."""
    return [(i, i + g) for g in range(1, r + 1) for i in range(1, r + 2 - g)]


@dataclass(frozen=True)
class RootZetaArgs:
    """Rank and the variable attached to each positive root (i, j).

    Pairs absent from the mapping count as exponent 0, which is how the
    first-row-only shorthand (only s(1,j) set) is represented.
    """

    r: int
    s: dict[tuple[int, int], Number]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("rank must be >= 1")
        valid = set(canonical_pairs(self.r))
        for pair in self.s:
            if pair not in valid:
                raise ValueError(f"pair {pair} is not a root of rank {self.r}")
        object.__setattr__(self, "s", dict(self.s))

    @classmethod
    def full(cls, r: int, values: Sequence[Number]) -> "RootZetaArgs":
        pairs = canonical_pairs(r)
        if len(values) != len(pairs):
            raise ValueError(f"rank {r} needs {len(pairs)} variables, got {len(values)}")
        return cls(r, dict(zip(pairs, values)))

    @classmethod
    def first_row(cls, values: Sequence[Number]) -> "RootZetaArgs":
        """s(1, j) = values[j-2] for j = 2..r+1, everything else 0."""
        r = len(values)
        if r < 1:
            raise ValueError("need at least one variable")
        return cls(r, {(1, j): values[j - 2] for j in range(2, r + 2)})

    def value(self, i: int, j: int) -> Number:
        return self.s.get((i, j), 0)


def check_root_domain(args: RootZetaArgs) -> bool:
    """Sufficient-for-first-row-only convergence heuristic: all real parts
    >= 0, and the roots covering each position k sum to real part > 1."""
    if any(complex(v).real < 0 for v in args.s.values()):
        return False
    for k in range(1, args.r + 1):
        cover = sum(
            complex(args.value(i, j)).real
            for (i, j) in canonical_pairs(args.r)
            if i <= k < j
        )
        if not cover > 1:
            return False
    return True


# float elements of one _grid_sum block; an exact block holds as many bytes
_GRID_BLOCK = 1 << 20
# box points one job may sum, at M and at 2M when floating (~8 s of floats)
_MAX_BOX_POINTS = 1 << 30


def _grid_sum(args: RootZetaArgs, M: int, d: int, x, exact: bool) -> Number:
    """The sum over the box 0-or-1 <= m_k <= M, in the arithmetic exact names.

    Each root (i, j) gets one table of (v + x)^(-s) over the bases
    v = 0..r*M; without a shift, base 0 (only inside the zero block) holds 1,
    the prime rule. A Python loop runs over m_1..m_{r-2}; numpy sums the
    (m_{r-1}, m_r) grid in blocks of rows, gathering every factor that
    touches the last two indices from its table at m_i + ... + m_{j-1}: about
    (M+1)^(r-2) Python steps, and memory for the tables plus one block.

    Exact mode (integer s >= 0, x = p/q) runs the same loop on numerators:
    with L the lcm of the bases B = q*v + p, a table holds (q*L // B)^s over
    L^s, and L^s at base 0, so the box is one Fraction over L^(sum of s).
    A point's cost grows with the bits of that denominator, so an exact box
    is refused by points times predicted bits, before L is computed.
    """
    r = args.r
    lo = [0 if k <= d else 1 for k in range(1, r + 1)]
    if exact:
        exponents = _exact_exponents(args.s.values())
        p, q = (0, 1) if x is None else Fraction(x).as_integer_ratio()
        bases = range(p, p + q * r * M + 1, q)
        _refuse_exact_job(math.prod(M + 1 - b for b in lo), bases[-1], sum(exponents))
        L = math.lcm(*filter(None, bases))
        D = L ** sum(exponents)
        quotients = [q * L // B if B else L for B in bases]
        tables = {pair: np.array([n**s for n in quotients], dtype=object) for pair, s in zip(args.s, exponents) if s}
        dtype, elems = object, _GRID_BLOCK * 8 // (8 + sys.getsizeof(D))
    else:
        tables = {
            pair: np.concatenate(([1.0], _powers(s, np.arange(1.0, r * M + 1.0)))) if x is None
            else _powers(s, np.arange(1.0, r * M + 2.0) + (float(x) - 1.0))
            for pair, s in args.s.items() if s != 0
        }
        dtype, elems = np.result_type(float, *tables.values()), _GRID_BLOCK
    cols = np.arange(lo[-1], M + 1)  # m_r
    # m_{r-1}; rank 1 has none, and its one row of zeros is read by no factor
    rows = np.arange(lo[-2], M + 1) if r > 1 else np.zeros(1, dtype=int)
    step = max(1, elems // len(cols))
    head = {pair: t.tolist() for pair, t in tables.items() if pair[1] < r}
    row = [(pair[0], t) for pair, t in tables.items() if pair[1] == r]
    grid = [(pair[0], t) for pair, t in tables.items() if pair[1] == r + 1]

    total = 0
    for ms in product(*(range(lo[k], M + 1) for k in range(r - 2))):
        # tail[i] = m_i + ... + m_{r-2}, so the pair (i, j) has base tail[i] - tail[j]
        tail = [0] * (r + 1)
        for i in range(r - 2, 0, -1):
            tail[i] = tail[i + 1] + ms[i - 1]
        w = 1
        for (i, j), t in head.items():
            w *= t[tail[i] - tail[j]]
        for first in range(0, len(rows), step):
            a = rows[first : first + step]
            block = np.ones((len(a), len(cols)), dtype)
            if grid:
                ab = a[:, None] + cols
                for i, t in grid:
                    block *= t[cols] if i == r else t[tail[i] :][ab]
            for i, t in row:
                block *= t[tail[i] :][a][:, None]
            total += w * block.sum()
    if exact:
        return Fraction(total, D)
    total = complex(total)
    return total.real if total.imag == 0 else total


def eval_root_zeta(args: RootZetaArgs, cfg: TruncationConfig, d: int = 0, x=None) -> EvalResult:
    """The type-A root-system zeta truncated to the box m_k <= cfg.M.

    The first d indices run from 0 (zeta-bullet) and x > 0 shifts every
    base (zeta-H); d = 0 with x None is the plain series. Exact mode returns
    the Fraction at M, which needs non-negative integer exponents and a
    rational x; floating mode adds a doubling-consistency estimate.
    """
    if not 0 <= d <= args.r:
        raise ValueError(f"d must satisfy 0 <= d <= {args.r}, got {d}")
    if x is not None and (not complex(x).real > 0 or complex(x).imag):
        raise ValueError("shift x must be a positive real")
    if not check_root_domain(args):
        raise ConvergenceError("root-system variables fail the convergence heuristic")
    exact, note = _arithmetic(cfg, args.s.values())
    rational_x = x is None or isinstance(x, (int, Fraction)) and not isinstance(x, bool)
    if exact and not rational_x:
        exact, note = False, "exact mode requires a rational shift x; summed in floating point"
    points = sum((m + 1) ** d * m ** (args.r - d) for m in ([cfg.M] if exact else [cfg.M, 2 * cfg.M]))
    if points > _MAX_BOX_POINTS:
        raise ValueError(f"job too large (predicted {points} box points); lower M")
    return _truncated_result(lambda m: _grid_sum(args, m, d, x, exact), cfg.M, exact, note=note)


def _det(rows):
    """Determinant by elimination with partial pivoting: exact on Fractions,
    otherwise in the precision of the entries."""
    a = [list(r) for r in rows]
    n = len(a)
    sign = 1
    for k in range(n):
        pivot = max(range(k, n), key=lambda i: abs(a[i][k]))
        if a[pivot][k] == 0:
            return a[pivot][k]
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            g = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] -= g * a[k][j]
    return math.prod((a[k][k] for k in range(n)), start=sign)


def chain_determinant(frobenius: FrobeniusForm, assignment: ContentAssignment, M: int, exact: bool) -> Number:
    """The Thm 4.2 series of the content shape with Frobenius form (p | q),
    truncated at M: the determinant of the N x N matrix whose (j, k) entry is

        sum over m <= M of m^(-z_0) * strict chain above m over z_-1..z_-q_j
                                    * weak chain from m over z_1..z_p_k.

    Both chains share the bound M with m (the coupled truncation), so the
    series equals the Schur sum with every entry <= M. Each is one call of
    mzv's chain kernel run down from the value M: the leg's strict terms over
    (z_0, z_-1, ..., z_-q_j), and the arm's weak terms over (0, z_1, ...,
    z_p_k), whose first index weighs m^0 = 1.
    The matrix is legs @ arms.T in either arithmetic. exact=True (integer
    exponents only) forms it from integer numerators; every permutation
    term then has the product of the chains' denominators, so one Fraction
    determinant is divided by it once. exact=False works in floating point
    whatever the exponents: double-precision chains, and the matrix and its
    determinant in numpy's longdouble.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    z = assignment.sequence
    legs, leg_rests = zip(*(_chains(z(range(0, -q - 1, -1)), M, False, exact, down=True) for q in frobenius.q))
    arms, arm_rests = zip(*(_chains((0, *z(range(1, p + 1))), M, True, exact, down=True) for p in frobenius.p))
    legs, arms = np.stack(legs), np.stack(arms)
    if exact:
        return _det([list(map(Fraction, row)) for row in (legs @ arms.T).tolist()]) / math.prod(leg_rests + arm_rests)
    # the determinant can be ~1e4 times smaller than its terms ((3,3) with
    # z_-1..z_2 = 1, 4, 4, 1 at M = 30), which costs four digits in double
    # precision. Rounding in the chains is not amplified that way, only
    # rounding in the entries and the elimination, so those run in extended
    # precision (plain double where numpy's longdouble is double).
    ext = np.clongdouble if np.iscomplexobj(legs) or np.iscomplexobj(arms) else np.longdouble
    det = _det(legs.astype(ext) @ arms.T.astype(ext))
    return complex(det) if ext is np.clongdouble else float(det)
