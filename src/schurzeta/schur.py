"""(Skew) Schur multiple zeta-functions.

The sum runs over semi-standard fillings of the shape with every entry at
most M, weighting a filling by prod m_ij^(-s_ij). By definition it is a
row-window recurrence (below) in either arithmetic, whose cost is M ** w, w
at most one more than the sum of a row's overlaps with the rows above and
below; a reversed hook (k+1)^(l+1) / k^l costs O(M) per cell. Exact mode
runs it on integer numerators over lcm(1..M)^k, k the sum of the exponents,
and builds one Fraction at the end.

eval_schur takes the Thm 4.2 chain determinant for straight
content-parametrized shapes, at about N^2 * M * |lambda| cost for Durfee
size N, as it equals the truncated sum exactly at every M; every other
shape, reversed hooks included, takes the row window.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .mzv import (
    ConvergenceError,
    ContentAssignment,
    EvalResult,
    Number,
    TruncationConfig,
    _arithmetic,
    _chains,
    _exact_exponents,
    _lcm_upto,
    _refuse_exact_job,
    _truncated_result,
)
from .partitions import Partition, SkewShape
from .rootzeta import chain_determinant


@dataclass(frozen=True)
class VariableTableau:
    """A complex exponent per cell of a (skew) shape."""

    shape: SkewShape
    cell_values: Mapping[tuple[int, int], Number]

    def __post_init__(self):
        cells = set(self.shape.cells())
        given = set(self.cell_values)
        if given != cells:
            missing = sorted(cells - given)
            extra = sorted(given - cells)
            raise ValueError(f"cell values mismatch shape (missing {missing}, extra {extra})")
        object.__setattr__(self, "cell_values", dict(self.cell_values))

    @classmethod
    def from_content(
        cls, shape: SkewShape | Partition, assignment: ContentAssignment | Mapping[int, Number]
    ) -> "VariableTableau":
        """Content-parametrized variables: the cell (i, j) carries z_{j-i}."""
        if isinstance(shape, Partition):
            shape = shape.as_skew()
        if not isinstance(assignment, ContentAssignment):
            assignment = ContentAssignment(assignment)
        return cls(shape, {(i, j): assignment[j - i] for (i, j) in shape.cells()})

    @classmethod
    def from_cells(
        cls, shape: SkewShape | Partition, values: Mapping[tuple[int, int], Number]
    ) -> "VariableTableau":
        if isinstance(shape, Partition):
            shape = shape.as_skew()
        return cls(shape, values)

    def value(self, i: int, j: int) -> Number:
        return self.cell_values[(i, j)]


def check_W_lambda(vt: VariableTableau) -> bool:
    """Convergence region: real part >= 1 everywhere, > 1 at every corner."""
    corners = set(vt.shape.corners())
    for cell, v in vt.cell_values.items():
        re = complex(v).real
        if cell in corners:
            if not re > 1:
                return False
        elif not re >= 1:
            return False
    return True


def _refuse_outside_W_lambda(vt: VariableTableau) -> None:
    if not check_W_lambda(vt):
        raise ConvergenceError(
            "exponents violate the convergence region (need Re >= 1, > 1 at corners)"
        )


# ---------------------------------------------------------------------------
# the sum by definition: row-window recurrence
#
# Rows are processed top to bottom. The state is a joint array with one axis
# per placed cell that a later cell still compares with: the cells of the row
# above not yet reached, and the cells of the current row with a cell below.
# Placing a cell turns the "sum over values below a bound" steps into
# cumulative sums, so each row costs a handful of cumsum/gather passes over
# the state. Cells with no neighbour above or below open no axis: at the
# right end of a row they fold into a weak suffix chain over the last placed
# cell, at the left end into a weak prefix chain in the weight of the first
# placed cell, and a row of such cells into one scalar, its truncated
# zeta-star value. Each of the three, and a cell's weight m^(-s), is one call
# of mzv's chain kernel, mzv._chains, in either arithmetic: the weak chain
# up over the prefix cells and the first placed cell is that cell's weight,
# the weak chain (0, suffix cells) down is the suffix, its first index
# weighing m^0 = 1, the sum of the row's terms is the scalar, and depth-1
# terms are any other weight. So the state holds M ** w entries, w at
# most one more than the sum of the row's overlaps with its neighbours, and
# a reversed hook, whose bottom row's free cells fold into one prefix chain,
# stays at M.
#
# In exact mode the state is a numpy object array of Python ints, each a
# numerator over L^K, L = lcm(1..M) and K the sum of the exponents: a cell
# with exponent e weighs L^e // m^e, and one Fraction is built at the end.
# Before L is computed, a job past mzv's exact budget, M numerators per cell,
# is refused.
# ---------------------------------------------------------------------------


class _RowWindow:
    """State array plus the labels of its live axes. max_elems bounds the
    entries held at once: a placement is refused before anything is built
    when its peak, peak times the state it builds, would exceed it.

    A placement takes its cumsums in place and builds one new state, the
    gather, which it then masks and weighs in place. tracemalloc put the
    peak at 2.00 states in floating point and at 1.55 states of entries the
    size of the final denominator in exact mode, where the gather copies
    pointers, not numerators.
    """

    peak = 2.5

    def __init__(self, M: int, dtype, max_elems: int):
        self.M = M
        self.dtype = dtype
        self.max_elems = max_elems
        self.state = np.ones((), dtype=dtype)
        self.live: list[tuple[str, int]] = []

    def _axis(self, label) -> int:
        return self.live.index(label)

    def place(self, label, weight: np.ndarray, consume_strict=None, consume_weak=None, mask_weak=None):
        """Add one cell's axis; bounds come from existing axes.

        consume_* axes are summed into the new axis (strict: value < new,
        weak: value <= new) and disappear. mask_weak stays live, contributing
        the constraint new >= its value.
        """
        M, state = self.M, self.state
        consumed = [lab for lab in (consume_strict, consume_weak) if lab is not None]
        # the consumed axes collapse into the new one, the others stay
        if self.peak * (state.size // M ** len(consumed) * M) > self.max_elems:
            raise ValueError("row-window state too large for this shape; lower M")
        if consumed:
            ts = [self._axis(lab) for lab in consumed]
            for t in ts:
                np.add.accumulate(state, axis=t, out=state)
            # the new value v reads a weak sum at v and a strict one at v - 1
            idx = tuple(np.arange(M) - (lab == consume_strict) for lab in consumed)
            self.state = None  # so the old state is freed once the gather has read it
            state = np.moveaxis(np.moveaxis(state, ts, range(len(ts)))[idx], 0, -1)
            if consume_strict is not None:
                state[..., 0] = 0
            self.live = [lab for lab in self.live if lab not in consumed] + [label]
        else:
            state = state[..., None] * np.ones(M, dtype=self.dtype)
            self.live = self.live + [label]
        if mask_weak is not None:
            shape_u = [1] * len(self.live)
            shape_u[self._axis(mask_weak)] = M
            state *= np.arange(M) >= np.arange(M).reshape(shape_u)
        state *= weight
        self.state = state

    def scale(self, factor):
        # a 0-d object product is a bare int: keep an array
        self.state = np.asarray(self.state * factor, dtype=self.dtype)

    def scale_axis(self, label, vec: np.ndarray):
        t = self._axis(label)
        shape = [1] * self.state.ndim
        shape[t] = self.M
        self.state = self.state * vec.reshape(shape)

    def drop(self, label):
        t = self._axis(label)
        # an object reduction to 0-d is a bare int: keep an array
        self.state = np.asarray(self.state.sum(axis=t), dtype=self.dtype)
        self.live.pop(t)

    def total(self):
        return self.state.sum()


def eval_schur_truncated(vt: VariableTableau, M: int, exact: bool) -> Number:
    """Sum over all semi-standard fillings with entries <= M, by definition:
    the row-window recurrence, on integer numerators giving a Fraction when
    exact (non-negative integer exponents only), else in floating point.

    The row loop is shared by both arithmetics; the arithmetic picks the
    state's dtype, its refusal budget of 2 GiB and the final denominator.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    shape = vt.shape
    value = vt.cell_values
    if exact:
        K = sum(_exact_exponents(value.values()))
        _refuse_exact_job(M * len(value), M, K)
        D = _lcm_upto(M) ** K
        # an entry is a pointer to a numerator of about D's size
        win = _RowWindow(M, object, 2**31 // (8 + sys.getsizeof(D)))
    else:
        dtype = complex if any(isinstance(v, complex) and v.imag for v in value.values()) else float
        win = _RowWindow(M, dtype, 2**31 // np.dtype(dtype).itemsize)

    spans = [shape.row_span(i) for i in range(1, shape.n_rows + 1)]
    b_prev = 0  # right end of the adjacent nonempty row above
    for i, (a, b) in enumerate(spans, 1):
        if a >= b:
            # empty row: nothing below can see past it
            for lab in list(win.live):
                win.drop(lab)
            b_prev = 0
            continue
        win.live = [("p", c) for (_, c) in win.live]
        b_next = 0
        if i < len(spans):
            an, bn = spans[i]
            b_next = bn if an < bn else 0
        # cells with neighbours neither above nor below fold into chains: a
        # suffix chain from c0 to the right end, a prefix chain over the
        # cells left of c1, and the whole row when the two meet
        c0 = min(max(b_prev, b_next, a) + 1, b + 1)
        c1 = a + 1
        while c1 < c0 and ("p", c1) not in win.live and c1 > b_next:
            c1 += 1
        if c1 == c0:
            c0 = a + 1
        for c in range(c1, c0):
            # the cell's weight m^(-s); the first placed cell's also sums the
            # weak chains of the free cells to its left up to its value
            w = _chains([value[i, k] for k in range(a + 1 if c == c1 else c, c + 1)], M, True, exact)[0]
            above = ("p", c) if ("p", c) in win.live else None
            left = ("u", c - 1) if c > c1 else None
            # a left neighbour still wanted by the next row stays live under a
            # mask; otherwise it is summed into the new axis and disappears
            left_needed = left is not None and c - 1 <= b_next
            win.place(
                ("u", c),
                w,
                consume_strict=above,
                consume_weak=left if (left is not None and not left_needed) else None,
                mask_weak=left if left_needed else None,
            )
        if c0 <= b:
            svals = [value[i, c] for c in range(c0, b + 1)]
            if c0 == a + 1:
                win.scale(_chains(svals, M, True, exact)[0].sum())
            else:
                # entry v - 1 sums the weak chains over svals from v or above
                win.scale_axis(("u", c0 - 1), _chains([0, *svals], M, True, exact, down=True)[0])
        for lab in list(win.live):
            kind, c = lab
            if kind == "u" and c > b_next:
                win.drop(lab)
        b_prev = b
    total = win.total()
    if exact:
        return Fraction(total, D)
    return complex(total) if win.dtype is complex else float(total)


def _content_assignment(vt: VariableTableau) -> ContentAssignment | None:
    """The z_k of a nonempty tableau, straight or skew, whose cell (i, j)
    carries a value that depends on j - i only; None for any other tableau."""
    if not vt.cell_values:
        return None
    z: dict[int, Number] = {}
    for (i, j), v in vt.cell_values.items():
        if z.setdefault(j - i, v) != v:
            return None
    return ContentAssignment(z)


def _route(vt: VariableTableau, exact: bool):
    """(path, M -> truncated sum): the chain determinant where the shape has
    it, else the row window."""
    z = _content_assignment(vt)
    if z is not None and vt.shape.is_straight():
        frobenius = vt.shape.outer.frobenius()
        return "chain-determinant", lambda M: chain_determinant(frobenius, z, M, exact)
    return "row-window", lambda M: eval_schur_truncated(vt, M, exact)


def eval_schur(vt: VariableTableau, cfg: TruncationConfig) -> EvalResult:
    """Truncated Schur sum: in exact mode the Fraction at M, in floating
    mode with a doubling-consistency tail estimate.

    The shape picks the route, reported as the result's path: the chain
    determinant for straight content-parametrized tableaux, else the sum by
    definition, the row window, in either arithmetic.
    """
    note = ""
    if not vt.shape.is_straight():
        note = "skew shape: convergence checked with the same corner rule, heuristically"
    _refuse_outside_W_lambda(vt)
    exact, fallback = _arithmetic(cfg, vt.cell_values.values())
    note = "; ".join(filter(None, (note, fallback)))
    path, truncated = _route(vt, exact)
    return _truncated_result(truncated, cfg.M, exact, note=note, path=path)


# ---------------------------------------------------------------------------
# reversed-hook skew shapes: one long bottom row under a single right column
# ---------------------------------------------------------------------------


def _antihook_content(bottom: Sequence[Number], column: Sequence[Number]) -> dict[int, Number]:
    """z_{-l}..z_k of (k+1)^(l+1) / k^l: the bottom row left to right, then
    the right column bottom to top."""
    if len(bottom) < 2 or len(column) < 1:
        raise ValueError("need at least two bottom values and one column value")
    return dict(zip(range(-len(column), len(bottom)), [*bottom, *column]))


def antihook_tableau(bottom: Sequence[Number], column: Sequence[Number]) -> VariableTableau:
    """The skew shape (k+1)^(l+1) / k^l with the bottom row carrying `bottom`
    left to right and the right column carrying `column` bottom to top."""
    z = _antihook_content(bottom, column)
    k, l = len(bottom) - 1, len(column)
    return VariableTableau.from_content(SkewShape(Partition((k + 1,) * (l + 1)), Partition((k,) * l)), z)

