"""Euler-Zagier multiple zeta and zeta-star sums with explicit truncation.

Argument order follows zeta(s_1, ..., s_r) = sum over m_1 < ... < m_r of
prod m_t^(-s_t): the last exponent belongs to the largest (outermost) index.
The star variant replaces every strict inequality by a weak one.

Truncation at M keeps exactly the tuples with m_r <= M, which is the
repository-wide convention: every running value stays <= M.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from numbers import Integral
from typing import Iterable, Mapping, Sequence

import numpy as np

Number = int | float | complex | Fraction


class ConvergenceError(ValueError):
    """A series was requested outside its convergence domain."""


@dataclass(frozen=True)
class TruncationConfig:
    """How a series is truncated and compared.

    mode "exact" sums in rational arithmetic (integer exponents only);
    "floating" uses double precision. tolerance is the comparison width
    used by verification commands in floating mode.
    """

    M: int = 1000
    mode: str = "floating"
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.M < 1:
            raise ValueError("truncation M must be >= 1")
        if self.mode not in ("exact", "floating"):
            raise ValueError(f"mode must be 'exact' or 'floating', got {self.mode!r}")
        if not (self.tolerance > 0 and math.isfinite(self.tolerance)):
            raise ValueError(f"tolerance must be positive and finite, got {self.tolerance!r}")

    @property
    def is_exact(self) -> bool:
        return self.mode == "exact"


@dataclass
class EvalResult:
    """A computed value with the truncation used and a tail error estimate.

    tail_bound is None in exact mode (the value is exact for the truncated
    sum). heuristic marks estimates that are consistency checks rather than
    proved bounds. path names the evaluation route, where an evaluator has
    more than one.
    """

    value: Number
    tail_bound: float | None
    truncation: int
    heuristic: bool = False
    note: str = ""
    path: str = ""

    def as_dict(self) -> dict:
        """The report's results block; a Fraction value also as value_float."""
        out = {
            "value": value_to_json(self.value),
            "tail_bound": self.tail_bound,
            "truncation": self.truncation,
            "heuristic": self.heuristic,
            "note": self.note,
        }
        if isinstance(self.value, Fraction):
            out["value_float"] = float(self.value)
        if self.path:
            out["path"] = self.path
        return out


def _truncated_result(evaluate, M: int, exact: bool, note: str = "", path: str = "") -> EvalResult:
    """The truncated value at M: exact, with no bound, or with twice its
    distance to the value at 2M as a heuristic tail estimate. The larger
    pass runs first, so an input refused at 2M is refused before the pass
    at M is spent."""
    if exact:
        return EvalResult(evaluate(M), None, M, note=note, path=path)
    v2 = evaluate(2 * M)
    v1 = evaluate(M)
    estimate = 2.0 * abs(complex(v2) - complex(v1))
    return EvalResult(v1, estimate, M, heuristic=True, note=note, path=path)


def value_to_json(v: Number):
    """Fractions render as 'p/q' strings, complex values as [re, im].

    An exact value can have more digits than CPython's int-to-string limit
    (4300 by default), so the limit is lifted for this conversion only;
    parsing input keeps it.
    """
    if isinstance(v, Fraction):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            return str(v)
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


def exact_exponent(v) -> int | None:
    """The value as a non-negative int if it qualifies for exact mode, else None."""
    if isinstance(v, bool):
        return None
    if isinstance(v, Integral):
        return int(v) if v >= 0 else None
    if isinstance(v, Fraction) and v.denominator == 1 and v >= 0:
        return int(v)
    return None


def _arithmetic(cfg: TruncationConfig, values: Iterable[Number]) -> tuple[bool, str]:
    """(exact, note): exact arithmetic when the config asks for it and every
    exponent is a non-negative integer, floating otherwise; the note says so
    when exact mode had to fall back."""
    if not cfg.is_exact:
        return False, ""
    if all(exact_exponent(v) is not None for v in values):
        return True, ""
    return False, "exact mode requires non-negative integer exponents; fell back to floating"


@dataclass(frozen=True)
class ContentAssignment:
    """Values for the content-indexed variables z_k, k in Z."""

    values: Mapping[int, Number]

    def __post_init__(self):
        object.__setattr__(self, "values", dict(self.values))

    def __getitem__(self, k: int) -> Number:
        try:
            return self.values[k]
        except KeyError:
            raise KeyError(f"no value assigned to z_{k}") from None

    def __contains__(self, k: int) -> bool:
        return k in self.values

    def sequence(self, indices: Sequence[int]) -> tuple[Number, ...]:
        return tuple(self[k] for k in indices)


def check_ez_domain(s: Sequence[Number]) -> bool:
    """Whether the series converges, strict or star alike: every suffix of
    length i has real part sum > i."""
    s = tuple(s)
    if not s:
        return True
    acc = 0.0
    for i, v in enumerate(reversed(s), 1):
        acc += complex(v).real
        if not acc > i:
            return False
    return True


def _exact_exponents(values: Iterable[Number]) -> list[int]:
    """The values as ints for an exact sum, which needs every one of them a
    non-negative integer."""
    ints = [exact_exponent(v) for v in values]
    if None in ints:
        raise ValueError("exact sums need non-negative integer exponents")
    return ints


def _powers(s: Number, bases: np.ndarray, log_bases: np.ndarray | None = None) -> np.ndarray:
    """bases^(-s): real for real s, else on the principal branch, from
    log_bases when the caller has it. The bases must be positive."""
    if isinstance(s, complex) and s.imag != 0:
        # exp in place: one complex array at a time, not two
        W = -s * (np.log(bases) if log_bases is None else log_bases)
        return np.exp(W, out=W)
    return bases ** (-float(complex(s).real))


@lru_cache
def _lcm_upto(n: int) -> int:
    """lcm(1..n), once per n: exact chain and row-window sums at M = n run
    over powers of it."""
    return math.lcm(*range(1, n + 1))


# exact cells times the bits of their numerators: at 1.4-3.6 ns per
# cell-bit (2 vCPU), at most about 15 s of numerators
_MAX_EXACT_POINT_BITS = 1 << 32


def _refuse_exact_job(cells: int, n: int, K: int) -> None:
    """Refuse an exact job of `cells` numerators over L^K, L = lcm(1..n),
    before L is computed. L^K has at most K * (1.4988 n + 1) bits, as
    psi(n) = ln L < 1.03883 n (Rosser-Schoenfeld 1962)."""
    bits = math.ceil(K * (1.4988 * n + 1))
    if cells * bits > _MAX_EXACT_POINT_BITS:
        raise ValueError(f"job too large (predicted {cells} cells of {bits}-bit numerators); lower M")


def _chains(s: Sequence[Number], M: int, star: bool, exact: bool, down: bool = False) -> tuple[np.ndarray, int | tuple]:
    """The chains m_1 < ... < m_r <= M of s (weak for star) by the prefix-sum
    recurrence, one stage per exponent: (terms, rest).

    Entry v - 1 of terms sums prod m_t^(-s_t) over the chains whose free end
    is v: the last index going up, the first index going down. Going up, a
    stage takes the running sum of the one before from v = 1 and multiplies
    it into the next exponent's powers, shifted one value up for the strict
    chain. Going down, the stages run from s_r to s_1, the running sums from
    v = M and the strict shift one value down. So the depth-r sum costs
    O(M * r), holding the bases, one stage and the next.

    Exponent 0 weighs every value by exactly 1 (1.0, or the int 1), so a weak
    step into it leaves the running sums of the stage before, bit for bit:
    the weak terms of (*s, 0) going up, or of (0, *s) going down, are the
    running sums of the terms of s in that direction. Callers take running
    sums that way.

    Floating mode: rest is the tuple of the pairwise sums of the stages
    before the last (empty at depth 1), going up the truncated values of
    s[:1], ..., s[:-1], which the tail bound needs. The logs of the bases
    are taken once, for a complex exponent only, and a stage turns complex
    only where its exponent or an earlier one is.

    Exact mode (non-negative integer exponents only): the same steps on a
    numpy object array of integer numerators over D = L^(s_1 + ... + s_r),
    L = lcm(1..M), where m^(-e) is L^e // m^e; rest is D. A job past the
    exact budget is refused before L is computed.
    """
    if exact:
        s = _exact_exponents(s)
        _refuse_exact_job(M * len(s), M, sum(s))
        L = _lcm_upto(M)

        def powers(e):
            Le = L**e
            return np.array([Le // m**e for m in range(1, M + 1)], dtype=object)
    else:
        bases = np.arange(1.0, M + 1.0)
        logs = np.log(bases) if any(isinstance(v, complex) and v.imag != 0 for v in s) else None

        def powers(e):
            return _powers(e, bases, logs)

    stages = s[::-1] if down else s
    A = powers(stages[0])
    sums = []
    for e in stages[1:]:
        if not exact:
            # numpy's pairwise sum, not cumsum's last entry: that one adds
            # sequentially and drifts ~1e-11 relative at M = 1e6
            sums.append(A.sum())
        # running sums in place: np.cumsum's additions without its wrapper's
        # cost on short arrays
        R = A[::-1] if down else A
        np.add.accumulate(R, out=R)
        W = powers(e)
        if np.iscomplexobj(A) and not np.iscomplexobj(W):
            W = W.astype(complex)
        if star:
            W *= A
        elif down:
            W[:-1] *= A[1:]
            W[-1] = 0
        else:
            W[1:] *= A[:-1]
            W[0] = 0
        A = W
    return A, L ** sum(s) if exact else tuple(sums)


def _ez_value(s: Sequence[Number], M: int, star: bool, exact: bool) -> tuple[Number, int | tuple]:
    """The sum truncated at M, an exact Fraction or a float or complex, and
    the kernel's rest."""
    terms, rest = _chains(s, M, star, exact)
    total = terms.sum()
    if exact:
        return Fraction(total, rest), rest
    return (complex(total) if np.iscomplexobj(terms) else float(total)), rest


def eval_ez_truncated(s: Sequence[Number], M: int, star: bool = False, *, exact: bool) -> Number:
    """The finite sum with m_r <= M: an exact Fraction (non-negative integer
    exponents only) or a double-precision value, as exact says.
    """
    s = tuple(s)
    if M < 1:
        raise ValueError("M must be >= 1")
    if not s:
        return Fraction(1) if exact else 1.0
    return _ez_value(s, M, star, exact)[0]


def _tail_bound(s: Sequence[Number], M: int, star: bool, sums: tuple) -> tuple[float, bool]:
    """(bound, heuristic) on the distance from the truncated value at M to
    the limit, from the kernel's stage sums.

    With sigma the real parts, A_t the truncated value of sigma[:t] (A_0 = 1)
    and T_0 = 0, the tail of sigma[:t] is at most

        T_t = (A_(t-1) + T_(t-1)) * M^(1 - sigma_t) / (sigma_t - 1):

    past M the outermost index weighs at most that integral, times the
    whole inner series, which is its value at M plus its own tail. A
    complex term is bounded by its real-part term. This is proved when
    every prefix sigma[:t] converges. Where one does not, the bound is the
    integral times the inner value at M, inflated by (1 + ln M)^(r-1) when
    an inner real part is exactly 1: a heuristic.
    """
    sigma = tuple(complex(v).real for v in s)
    if not all(check_ez_domain(sigma[:t]) for t in range(1, len(s))):
        tail = M ** (1.0 - sigma[-1]) / (sigma[-1] - 1.0)
        if 1.0 in sigma[:-1]:
            tail *= (1.0 + math.log(M)) ** (len(s) - 1)
        return tail * float(abs(sums[-1])), True
    if sigma != s and len(s) > 1:
        # the stage sums are complex: sum the real parts once more
        terms, sums = _chains(sigma[:-1], M, star, False)
        sums = (*sums, terms.sum())
    bound = 0.0
    for A, st in zip((1.0, *sums), sigma):
        bound = (A + bound) * M ** (1.0 - st) / (st - 1.0)
    return float(bound), False


def eval_ez(s: Sequence[Number], cfg: TruncationConfig, star: bool = False) -> EvalResult:
    """Truncated Euler-Zagier value with a tail bound.

    The interval value +- tail_bound contains the limit, a proved bound
    (heuristic false), whenever every prefix s[:t] of the exponents is in
    the convergence domain, that is every real part is > 1. Otherwise the
    bound is a heuristic (heuristic true), which can miss the limit.
    """
    s = tuple(s)
    if not s:
        raise ValueError("empty exponent sequence")
    if not check_ez_domain(s):
        raise ConvergenceError(
            f"exponents {s} violate the convergence condition (suffix sums must exceed the depth)"
        )
    exact, note = _arithmetic(cfg, s)
    value, rest = _ez_value(s, cfg.M, star, exact)
    if exact:
        return EvalResult(value, None, cfg.M)
    bound, heuristic = _tail_bound(s, cfg.M, star, rest)
    return EvalResult(value, bound, cfg.M, heuristic=heuristic, note=note)
