"""Test-only reference code: the semi-standard tableaux enumerated one by
one, the Giambelli determinant as a cofactor expansion, and the Schur sum
at a constant exponent from power sums. The package sums and expands
without them; the tests compare against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, permutations
from typing import Iterator, Sequence

from schurzeta.expressions import FormalExpr, HookEntry, expand_hook, normalize
from schurzeta.partitions import Partition, SkewShape


@dataclass
class Tableau:
    """A filling of a skew shape: rows weakly increase, columns strictly increase."""

    shape: SkewShape
    entries: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        cells = self.shape.cells()
        if set(self.entries) != set(cells):
            raise ValueError("entries must cover exactly the cells of the shape")
        for (i, j), v in self.entries.items():
            if not isinstance(v, int) or v < 1:
                raise ValueError(f"entry at ({i},{j}) must be a positive integer")
        for i, j in cells:
            v = self.entries[(i, j)]
            if self.shape.contains(i, j + 1) and self.entries[(i, j + 1)] < v:
                raise ValueError(f"row {i} fails to weakly increase at column {j}")
            if self.shape.contains(i + 1, j) and self.entries[(i + 1, j)] <= v:
                raise ValueError(f"column {j} fails to strictly increase at row {i}")

    def __getitem__(self, cell: tuple[int, int]) -> int:
        return self.entries[cell]

    def row_word(self) -> tuple[int, ...]:
        """Entries read row by row, left to right (the enumeration order key)."""
        return tuple(self.entries[c] for c in self.shape.cells())

    def __repr__(self) -> str:
        rows = []
        for i in range(1, self.shape.n_rows + 1):
            a, b = self.shape.row_span(i)
            rows.append("." * a + "".join(str(self.entries[(i, j)]) for j in range(a + 1, b + 1)))
        return "Tableau[" + "|".join(rows) + "]"


def enumerate_ssyt(shape: SkewShape | Partition, max_entry: int) -> Iterator[Tableau]:
    """Yield every semi-standard filling with entries in 1..max_entry.

    Depth-first fill in row-major order, trying smaller values first, so the
    stream is lexicographic on the row-major entry word. Branches are pruned
    when the value floor (left and above neighbours) or the remaining column
    height makes completion impossible.
    """
    if isinstance(shape, Partition):
        shape = shape.as_skew()
    if max_entry < 1:
        raise ValueError("max_entry must be >= 1")
    cells = shape.cells()
    if not cells:
        yield Tableau(shape, {})
        return
    # cells strictly below (i, j) in its column still need distinct larger values
    below = {
        (i, j): sum(1 for r in range(i + 1, shape.n_rows + 1) if shape.contains(r, j))
        for (i, j) in cells
    }
    entries: dict[tuple[int, int], int] = {}

    def fill(k: int) -> Iterator[Tableau]:
        if k == len(cells):
            yield Tableau(shape, dict(entries))
            return
        i, j = cells[k]
        lo = 1
        if shape.contains(i, j - 1):
            lo = max(lo, entries[(i, j - 1)])
        if shape.contains(i - 1, j):
            lo = max(lo, entries[(i - 1, j)] + 1)
        hi = max_entry - below[(i, j)]
        for v in range(lo, hi + 1):
            entries[(i, j)] = v
            yield from fill(k + 1)
        entries.pop((i, j), None)

    yield from fill(0)


def expand_grid_determinant(grid: Sequence[Sequence[HookEntry]], variant: str = "hook1") -> FormalExpr:
    """Cofactor expansion along the last column, entries expanded per hook."""
    mat = [[expand_hook(e.p, e.q, variant) for e in row] for row in grid]

    def det(m: list[list[FormalExpr]]) -> FormalExpr:
        n = len(m)
        if n == 1:
            return m[0][0]
        total = FormalExpr.zero()
        for h in range(n):
            minor = [row[:-1] for r, row in enumerate(m) if r != h]
            total = total + (m[h][n - 1] * det(minor)).scaled((-1) ** (h + 1 + n))
        return total

    return normalize(det(mat))


def power_sum_schur(outer: Sequence[int], inner: Sequence[int], s: int, M: int) -> Fraction:
    """The skew Schur function s_{outer/inner}(x_1, ..., x_M) at x_m = m^(-s),
    integer s >= 0: the Schur sum truncated at M with s in every cell.

    Jacobi-Trudi gives it as det[h_(outer_i - inner_j - i + j)], and Newton's
    identities n h_n = sum_k p_k h_(n-k) give the h from the power sums
    p_k = sum_(m <= M) m^(-ks) (Macdonald, Symmetric Functions and Hall
    Polynomials, I.2-I.5). Exact at every M.
    """
    n = len(outer)
    inner = [*inner] + [0] * (n - len(inner))
    top = outer[0] - inner[-1] + n - 1 if n else 0  # the largest index of an h
    L = math.lcm(*range(1, M + 1))
    p = [Fraction(sum((L // m) ** (k * s) for m in range(1, M + 1)), L ** (k * s)) for k in range(top + 1)]
    h = [Fraction(1)]
    for d in range(1, top + 1):
        h.append(sum(p[k] * h[d - k] for k in range(1, d + 1)) / d)

    def entry(i, j):
        d = outer[i] - inner[j] - i + j
        return h[d] if d >= 0 else 0

    total = Fraction(0)
    for sigma in permutations(range(n)):
        sign = (-1) ** sum(a > b for a, b in combinations(sigma, 2))
        total += sign * math.prod(entry(i, j) for i, j in enumerate(sigma))
    return total
