"""Integer-coefficient algebra over zeta / zeta-star symbols in the z variables.

A symbol is a strict or star Euler-Zagier sum whose arguments are content
indices (the integer k stands for z_k), outermost index last. Expressions
expand the hook identities, the Giambelli determinant and its fully expanded
permutation sum, and evaluate numerically through the mzv module. The
constant 1 is an empty product of symbols, never a symbol with empty
arguments, so degenerate trailing factors are simply omitted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Callable, Iterator, Mapping, Sequence

from .mzv import ContentAssignment, EvalResult, Number, TruncationConfig, eval_ez_truncated
from .partitions import Partition
from .schur import VariableTableau, eval_schur


@dataclass(frozen=True)
class ZetaSymbol:
    """kind 'strict' for zeta, 'star' for zeta-star; args are z indices."""

    kind: str
    args: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("strict", "star"):
            raise ValueError(f"kind must be 'strict' or 'star', got {self.kind!r}")
        args = tuple(int(a) for a in self.args)
        if not args:
            raise ValueError("a symbol needs at least one argument; 1 is the empty product")
        object.__setattr__(self, "args", args)

    @property
    def sort_key(self):
        return (self.kind, self.args)

    def latex(self) -> str:
        head = r"\zeta^{\star}" if self.kind == "star" else r"\zeta"
        body = ", ".join(f"z_{{{k}}}" for k in self.args)
        return f"{head}({body})"

    @property
    def name(self) -> str:
        return "zeta*" if self.kind == "star" else "zeta"

    def plain(self) -> str:
        return self.name + "(" + ",".join(f"z{k}" for k in self.args) + ")"

    def to_json(self) -> dict:
        return {"kind": self.kind, "args": list(self.args)}


@dataclass(frozen=True)
class FormalTerm:
    coefficient: int
    factors: tuple[ZetaSymbol, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "factors", tuple(sorted(self.factors, key=lambda f: f.sort_key))
        )

    @property
    def sort_key(self):
        return (len(self.factors), tuple(f.sort_key for f in self.factors))


@dataclass(frozen=True)
class FormalExpr:
    terms: tuple[FormalTerm, ...] = ()

    @classmethod
    def zero(cls) -> "FormalExpr":
        return cls(())

    @classmethod
    def one(cls) -> "FormalExpr":
        return cls((FormalTerm(1, ()),))

    def __add__(self, other: "FormalExpr") -> "FormalExpr":
        return normalize(FormalExpr(self.terms + other.terms))

    def __mul__(self, other: "FormalExpr") -> "FormalExpr":
        out = [
            FormalTerm(a.coefficient * b.coefficient, a.factors + b.factors)
            for a in self.terms
            for b in other.terms
        ]
        return normalize(FormalExpr(tuple(out)))

    def scaled(self, c: int) -> "FormalExpr":
        if c == 0:
            return FormalExpr.zero()
        return FormalExpr(tuple(FormalTerm(c * t.coefficient, t.factors) for t in self.terms))

    def __len__(self) -> int:
        return len(self.terms)

    def to_json(self) -> list:
        return [
            {"coeff": t.coefficient, "factors": [f.to_json() for f in t.factors]}
            for t in self.terms
        ]

    def render(self, symbol: Callable[[ZetaSymbol], str], times: str, scale: str) -> str:
        """The signed terms: the coefficient's magnitude and `scale` unless it
        is 1, then the factors drawn by `symbol` and joined by `times`."""
        if not self.terms:
            return "0"
        parts = []
        for t in self.terms:
            body = times.join(symbol(f) for f in t.factors)
            mag = abs(t.coefficient)
            if not body:
                piece = str(mag)
            else:
                piece = (f"{mag}{scale}" if mag != 1 else "") + body
            if not parts:
                parts.append(("-" if t.coefficient < 0 else "") + piece)
            else:
                parts.append(("- " if t.coefficient < 0 else "+ ") + piece)
        return " ".join(parts)

    def latex(self) -> str:
        return self.render(ZetaSymbol.latex, r"\,", " ")

    def plain(self) -> str:
        return self.render(ZetaSymbol.plain, "*", "*")


def normalize(expr: FormalExpr) -> FormalExpr:
    """Collect like terms, drop zero coefficients, sort canonically; idempotent."""
    collected: dict[tuple, int] = {}
    factors_of: dict[tuple, tuple[ZetaSymbol, ...]] = {}
    for t in expr.terms:
        key = tuple(f.sort_key for f in t.factors)
        collected[key] = collected.get(key, 0) + t.coefficient
        factors_of[key] = t.factors
    terms = [
        FormalTerm(c, factors_of[key]) for key, c in collected.items() if c != 0
    ]
    terms.sort(key=lambda t: t.sort_key)
    return FormalExpr(tuple(terms))


# ---------------------------------------------------------------------------
# hook expansions
# ---------------------------------------------------------------------------


def _hook_terms(p: int, q: int, variant: str) -> list[tuple[int, tuple[ZetaSymbol, ...]]]:
    """The (sign, factors) terms of the hook (p+1, 1^q) in summation order;
    the empty trailing factor at the boundary index is omitted."""
    terms = []
    if variant == "hook1":
        for j in range(q + 1):
            factors = (ZetaSymbol("star", tuple(range(-j, p + 1))),)
            if j < q:
                factors += (ZetaSymbol("strict", tuple(range(-j - 1, -q - 1, -1))),)
            terms.append(((-1) ** j, factors))
    elif variant == "hook2":
        for j in range(p + 1):
            factors = (ZetaSymbol("strict", tuple(range(j, -q - 1, -1))),)
            if j < p:
                factors += (ZetaSymbol("star", tuple(range(j + 1, p + 1))),)
            terms.append(((-1) ** j, factors))
    else:
        raise ValueError(f"variant must be 'hook1' or 'hook2', got {variant!r}")
    return terms


def expand_hook(p: int, q: int, variant: str = "hook1") -> FormalExpr:
    """The alternating star-times-strict expansion of the hook (p+1, 1^q).

    hook1 sums over the leg (q+1 terms), hook2 over the arm (p+1 terms); the
    empty trailing factor at the boundary index is omitted.
    """
    if p < 0 or q < 0:
        raise ValueError("hook arm and leg must be >= 0")
    return normalize(FormalExpr(tuple(FormalTerm(c, f) for c, f in _hook_terms(p, q, variant))))


def expand_antihook(k: int, l: int) -> FormalExpr:
    """The alternating star-times-strict expansion of the reversed hook
    (k+1)^(l+1) / k^l, whose contents -l..k are all distinct: term i = 0..k
    is (-1)^(k-i) zeta(z_k, ..., z_{i-l}) times zeta*(z_{-l}, ..., z_{i-l-1}),
    the empty star factor at i = 0 omitted.
    """
    if k < 1 or l < 1:
        raise ValueError("reversed hook needs k, l >= 1")
    terms = []
    for i in range(k + 1):
        factors = (ZetaSymbol("strict", tuple(range(k, i - l - 1, -1))),)
        if i:
            factors += (ZetaSymbol("star", tuple(range(-l, i - l))),)
        terms.append(FormalTerm((-1) ** (k - i), factors))
    return normalize(FormalExpr(tuple(terms)))


# ---------------------------------------------------------------------------
# Giambelli determinant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HookEntry:
    """One determinant slot: the hook with arm p and leg q, content variables
    z_0..z_p along the row and z_{-1}..z_{-q} down the column."""

    p: int
    q: int

    @property
    def shape(self) -> Partition:
        return Partition.hook(self.p, self.q)

    @property
    def contents(self) -> tuple[int, ...]:
        return tuple(range(-self.q, self.p + 1))


def giambelli_det_expr(lam: Partition) -> list[list[HookEntry]]:
    """The N x N grid whose (i, j) slot is the hook with arm p_i and leg q_j."""
    f = lam.frobenius()
    return [[HookEntry(f.p[i], f.q[j]) for j in range(f.n)] for i in range(f.n)]


def _slot_table(lam: Partition, variant: str) -> list[list[list[tuple[int, tuple[ZetaSymbol, ...]]]]]:
    """The N x N per-slot term lists of the permutation sum: slot (k, c) is
    the hook with arm p_c and leg q_k, expanded as hook1 (standard) or hook2
    (reversed), its terms in the order of the slot's index j."""
    if variant not in ("standard", "reversed"):
        raise ValueError(f"variant must be 'standard' or 'reversed', got {variant!r}")
    f = lam.frobenius()
    hook = "hook1" if variant == "standard" else "hook2"
    return [[_hook_terms(f.p[c], f.q[k], hook) for c in range(f.n)] for k in range(f.n)]


def _permutation_sum(table: Sequence[Sequence[Sequence[tuple[int, tuple]]]]) -> Iterator[tuple[int, tuple]]:
    """(coefficient, concatenated items) over every permutation sigma and
    every choice of one term per slot (k, sigma(k)), signed by sgn(sigma)."""
    for sigma in permutations(range(len(table))):
        sgn = _perm_sign(sigma)
        for choice in product(*(table[k][c] for k, c in enumerate(sigma))):
            coeff, items = sgn, ()
            for sign, part in choice:
                coeff *= sign
                items += part
            yield coeff, items


def expand_giambelli_terms(lam: Partition, variant: str = "standard") -> Iterator[FormalTerm]:
    """Raw terms of the permutation-sum expansion, before collection.

    standard: one star factor per slot k over z_{-j_k}..z_{p_sigma(k)} and one
    strict factor over z_{-j_k-1}..z_{-q_k} (omitted at j_k = q_k), signs
    sgn(sigma) * (-1)^(j_1+...+j_N). reversed swaps the roles: strict factors
    carry z_{j_k}..z_{-q_k} and star factors z_{j_k+1}..z_{p_sigma(k)}.
    """
    for coeff, factors in _permutation_sum(_slot_table(lam, variant)):
        yield FormalTerm(coeff, factors)


def expand_giambelli(lam: Partition, variant: str = "standard") -> FormalExpr:
    """The collected permutation-sum expansion of the Giambelli determinant.

    Like terms are collected on sorted tuples of symbol ranks, ranked in
    sort_key order, so that only the surviving terms are built; the result
    equals normalize over expand_giambelli_terms.
    """
    table = _slot_table(lam, variant)
    symbols = sorted(
        {f for row in table for slot in row for _, factors in slot for f in factors},
        key=lambda f: f.sort_key,
    )
    rank = {f: r for r, f in enumerate(symbols)}
    ranked = [
        [[(sign, tuple(rank[f] for f in factors)) for sign, factors in slot] for slot in row]
        for row in table
    ]
    collected: dict[tuple[int, ...], int] = {}
    for coeff, ranks in _permutation_sum(ranked):
        key = tuple(sorted(ranks))
        collected[key] = collected.get(key, 0) + coeff
    keys = sorted((key for key, c in collected.items() if c), key=lambda k: (len(k), k))
    return FormalExpr(
        tuple(FormalTerm(collected[key], tuple(symbols[r] for r in key)) for key in keys)
    )


def _perm_sign(sigma: Sequence[int]) -> int:
    sgn = 1
    for i in range(len(sigma)):
        for j in range(i + 1, len(sigma)):
            if sigma[i] > sigma[j]:
                sgn = -sgn
    return sgn


# ---------------------------------------------------------------------------
# numerical evaluation
# ---------------------------------------------------------------------------


def truncated_value(expr: FormalExpr, assignment: ContentAssignment, M: int, exact: bool) -> Number:
    """Sum of coefficient times product of the factors truncated at M, each
    symbol summed once, in the arithmetic exact names. The factors are
    truncated sums, so none is checked for convergence."""
    cache: dict[ZetaSymbol, Number] = {}
    total = Fraction(0) if exact else 0.0
    for t in expr.terms:
        val = t.coefficient
        for f in t.factors:
            if f not in cache:
                cache[f] = eval_ez_truncated(
                    assignment.sequence(f.args), M, star=f.kind == "star", exact=exact
                )
            val *= cache[f]
        total += val
    return total


def eval_thm42(
    lam: Partition, assignment: ContentAssignment | Mapping[int, Number], M: int
) -> EvalResult:
    """The Thm 4.2 series of the content shape lam truncated at M, as
    eval_schur in exact mode computes it: the chain determinant, exact for
    non-negative integer exponents, else floating with its doubling estimate.

    Kept only as bench/check.py's reference, until that script sums its own
    determinant; the library's front door is eval_schur.
    """
    return eval_schur(VariableTableau.from_content(lam, assignment), TruncationConfig(M, mode="exact"))
