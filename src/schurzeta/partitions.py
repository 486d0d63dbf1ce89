"""Partitions, skew shapes and Frobenius forms.

Cells are addressed (row, column), 1-based, with rows growing downwards.
The content of a cell (i, j) is j - i; content-parametrized exponents
elsewhere in the package are keyed on that number.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True)
class Partition:
    """A weakly decreasing tuple of positive integers; () is the empty shape."""

    parts: tuple[int, ...] = ()

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        if parts and parts[-1] < 1:
            raise ValueError(f"parts must be positive, got {parts}")

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __getitem__(self, i: int) -> int:
        return self.parts[i]

    def part(self, i: int) -> int:
        """Row length lambda_i (1-based), zero beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    @property
    def size(self) -> int:
        return sum(self.parts)

    def contains(self, i: int, j: int) -> bool:
        return 1 <= i <= len(self.parts) and 1 <= j <= self.parts[i - 1]

    def cells(self) -> list[tuple[int, int]]:
        """All cells in row-major order."""
        return [(i, j) for i, p in enumerate(self.parts, 1) for j in range(1, p + 1)]

    def conjugate(self) -> "Partition":
        """Transpose of the diagram: lambda'_i = #{j : lambda_j >= i}."""
        if not self.parts:
            return Partition(())
        return Partition(
            tuple(sum(1 for p in self.parts if p >= i) for i in range(1, self.parts[0] + 1))
        )

    @property
    def diagonal_length(self) -> int:
        """Number of cells on the main diagonal."""
        return sum(1 for i, p in enumerate(self.parts, 1) if p >= i)

    def frobenius(self) -> "FrobeniusForm":
        """Arm/leg coordinates p_i = lambda_i - i, q_i = lambda'_i - i along the diagonal."""
        if not self.parts:
            raise ValueError("the empty partition has no Frobenius form")
        con = self.conjugate()
        n = self.diagonal_length
        p = tuple(self.parts[i - 1] - i for i in range(1, n + 1))
        q = tuple(con.parts[i - 1] - i for i in range(1, n + 1))
        return FrobeniusForm(p, q)

    @classmethod
    def from_frobenius(cls, form: "FrobeniusForm") -> "Partition":
        """Inverse of :meth:`frobenius`."""
        n = form.n
        rows = [form.p[i - 1] + i for i in range(1, n + 1)]
        # rows below the diagonal block are read off the leg lengths:
        # column j has length q_j + j, so row i > n holds #{j : q_j + j >= i} cells
        i = n + 1
        while True:
            row = sum(1 for j in range(1, n + 1) if form.q[j - 1] + j >= i)
            if row == 0:
                break
            rows.append(row)
            i += 1
        return cls(tuple(rows))

    def corners(self) -> list[tuple[int, int]]:
        """Removable cells (i, lambda_i) with lambda_i > lambda_{i+1}."""
        out = []
        for i, p in enumerate(self.parts, 1):
            if p > self.part(i + 1):
                out.append((i, p))
        return out

    def as_skew(self) -> "SkewShape":
        return SkewShape(self, Partition(()))

    @staticmethod
    def hook(p: int, q: int) -> "Partition":
        """The hook shape (p+1, 1^q) with arm p and leg q."""
        if p < 0 or q < 0:
            raise ValueError("hook arm and leg must be >= 0")
        return Partition((p + 1,) + (1,) * q)

    def __repr__(self) -> str:
        return f"Partition{self.parts}"


@dataclass(frozen=True)
class FrobeniusForm:
    """Frobenius coordinates (p_1, ..., p_N | q_1, ..., q_N), both strictly decreasing."""

    p: tuple[int, ...]
    q: tuple[int, ...]

    def __post_init__(self):
        p = tuple(int(a) for a in self.p)
        q = tuple(int(a) for a in self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        if len(p) != len(q) or not p:
            raise ValueError("p and q must be nonempty and of equal length")
        for seq in (p, q):
            if any(a < 0 for a in seq):
                raise ValueError(f"Frobenius coordinates must be >= 0, got {seq}")
            if any(a <= b for a, b in zip(seq, seq[1:])):
                raise ValueError(f"Frobenius coordinates must strictly decrease, got {seq}")

    @property
    def n(self) -> int:
        return len(self.p)

    def __repr__(self) -> str:
        return f"FrobeniusForm(p={self.p}, q={self.q})"


@dataclass(frozen=True)
class SkewShape:
    """Cell set outer minus inner; inner is padded with zero rows as needed."""

    outer: Partition
    inner: Partition = Partition(())

    def __post_init__(self):
        if len(self.inner) > len(self.outer):
            raise ValueError("inner partition has more rows than outer")
        for i in range(1, len(self.inner) + 1):
            if self.inner.part(i) > self.outer.part(i):
                raise ValueError(
                    f"inner row {i} ({self.inner.part(i)}) exceeds outer ({self.outer.part(i)})"
                )

    @property
    def n_rows(self) -> int:
        return len(self.outer)

    @property
    def size(self) -> int:
        return self.outer.size - self.inner.size

    def row_span(self, i: int) -> tuple[int, int]:
        """Columns of row i are inner_i + 1 .. outer_i, returned as (inner_i, outer_i)."""
        return self.inner.part(i), self.outer.part(i)

    def contains(self, i: int, j: int) -> bool:
        a, b = self.row_span(i)
        return 1 <= i <= self.n_rows and a < j <= b

    def cells(self) -> list[tuple[int, int]]:
        out = []
        for i in range(1, self.n_rows + 1):
            a, b = self.row_span(i)
            out.extend((i, j) for j in range(a + 1, b + 1))
        return out

    def corners(self) -> list[tuple[int, int]]:
        """Cells with no neighbour to the right and none below."""
        return [
            (i, j)
            for (i, j) in self.cells()
            if not self.contains(i, j + 1) and not self.contains(i + 1, j)
        ]

    def is_straight(self) -> bool:
        return self.inner.size == 0

    def __repr__(self) -> str:
        if self.is_straight():
            return f"SkewShape{self.outer.parts}"
        return f"SkewShape({self.outer.parts}/{self.inner.parts})"
