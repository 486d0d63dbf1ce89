"""Euler-Zagier multiple zeta and zeta-star sums with explicit truncation.

Argument order follows zeta(s_1, ..., s_r) = sum over m_1 < ... < m_r of
prod m_t^(-s_t): the last exponent belongs to the largest (outermost) index.
The star variant replaces every strict inequality by a weak one.

Truncation at M keeps exactly the tuples with m_r <= M, which is the
repository-wide convention: every running value stays <= M.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral
from typing import Iterable, Iterator, Mapping, Sequence

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
        out = {
            "value": value_to_json(self.value),
            "tail_bound": self.tail_bound,
            "truncation": self.truncation,
            "heuristic": self.heuristic,
            "note": self.note,
        }
        if self.path:
            out["path"] = self.path
        return out


def _doubling_result(evaluate, M: int, note: str = "", path: str = "") -> EvalResult:
    """The truncated value at M with twice its distance to the value at 2M
    as a heuristic tail estimate."""
    v1 = evaluate(M)
    v2 = evaluate(2 * M)
    estimate = 2.0 * abs(complex(v2) - complex(v1))
    return EvalResult(v1, estimate, M, heuristic=True, note=note, path=path)


def _product(factors: Sequence[EvalResult]) -> tuple[complex, float]:
    """The product of the factor values, and its tail bound propagated to
    first order from the factors' bounds."""
    value = 1.0 + 0.0j
    for f in factors:
        value *= complex(f.value)
    bound = 0.0
    for i, f in enumerate(factors):
        others = 1.0
        for j, g in enumerate(factors):
            if j != i:
                others *= abs(complex(g.value))
        bound += (f.tail_bound or 0.0) * others
    return value, bound


def value_to_json(v: Number):
    """Fractions render as 'p/q' strings, complex values as [re, im]."""
    if isinstance(v, Fraction):
        return str(v)
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

    def to_json(self) -> dict:
        return {str(k): value_to_json(v) for k, v in sorted(self.values.items())}

    @classmethod
    def from_json(cls, data: Mapping) -> "ContentAssignment":
        vals: dict[int, Number] = {}
        for k, v in data.items():
            if isinstance(v, (list, tuple)):
                re, im = v
                vals[int(k)] = complex(re, im) if im else float(re)
            else:
                vals[int(k)] = v
        return cls(vals)


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


def _chain_numerators(s: Sequence[int], bases: Iterable[int], star: bool, L: int) -> Iterator[int]:
    """The running sum over the chains of s (weak for star) taken in the
    order of bases, yielded after each base as an integer numerator over
    L^(s_1 + ... + s_r), L a multiple of every base. acc[t] sums the chains
    of s[:t+1] whose last index comes before m (or is m, for star), so the
    depth-r sum costs O(len(bases) * r) instead of O(len(bases) ** r)."""
    powers = [L**e for e in s]
    acc = [0] * len(s)
    for m in bases:
        prev = 1  # the empty chain
        for t, e in enumerate(s):
            term = prev * (powers[t] // m**e)
            if star:
                acc[t] += term
                prev = acc[t]
            else:
                prev = acc[t]
                acc[t] += term
        yield acc[-1]


def _truncated_exact(s: Sequence[int], M: int, star: bool) -> Fraction:
    # only the last running numerator is kept, so memory stays O(r)
    L = math.lcm(*range(1, M + 1))
    last = deque(_chain_numerators(s, range(1, M + 1), star, L), maxlen=1).pop()
    return Fraction(last, L ** sum(s))


def _powers(s: Number, bases: np.ndarray, log_bases: np.ndarray | None = None) -> np.ndarray:
    """bases^(-s): real for real s, else on the principal branch, from
    log_bases when the caller has it. The bases must be positive."""
    if isinstance(s, complex) and s.imag != 0:
        return np.exp(-s * (np.log(bases) if log_bases is None else log_bases))
    return bases ** (-float(complex(s).real))


def _pow_vector(s: Number, M: int, shift: float = 0.0) -> np.ndarray:
    """(m + shift)^(-s) for m = 1..M, by the rule of _powers."""
    return _powers(s, np.arange(1.0, M + 1.0) + shift)


def _ez_terms(s: Sequence[Number], bases: np.ndarray, star: bool) -> tuple[np.ndarray, Number]:
    """The last stage of the prefix-sum recurrence over the bases, in their
    order: entry k sums the chains of s whose last index is bases[k]; and
    the sum of the stage before it (1 for depth 1), over the bases 1..M the
    truncated value of s[:-1].

    The bases must be a contiguous array, so that a base's power does not
    depend on its position. Their logs, needed only for a complex exponent,
    are taken once; each stage's cumulative sum is taken in place and
    multiplied into the next stage's powers, shifted by one for the strict
    chain. A stage turns complex only where its exponent or an earlier one is.
    """
    logs = np.log(bases) if any(isinstance(v, complex) and v.imag != 0 for v in s) else None
    A = _powers(s[0], bases, logs)
    rest = 1.0
    for t, sj in enumerate(s[1:], 2):
        if t == len(s):
            # numpy's pairwise sum, not cumsum's last entry: that one adds
            # sequentially and drifts ~1e-11 relative at M = 1e6
            rest = A.sum()
        np.cumsum(A, out=A)
        W = _powers(sj, bases, logs)
        if np.iscomplexobj(A) and not np.iscomplexobj(W):
            W = W.astype(complex)
        if star:
            W *= A
        else:
            W[1:] *= A[:-1]
            W[0] = 0
        A = W
    return A, rest


def _truncated_float(s: Sequence[Number], M: int, star: bool) -> tuple[float | complex, Number]:
    """The sum truncated at M, and that of s[:-1] (1 for depth 1), which the
    tail bound needs."""
    A, rest = _ez_terms(s, np.arange(1.0, M + 1.0), star)
    total = A.sum()
    return (complex(total) if np.iscomplexobj(A) else float(total)), rest


def eval_ez_truncated(s: Sequence[Number], M: int, star: bool = False, *, exact: bool) -> Number:
    """The finite sum with m_r <= M: an exact Fraction (non-negative integer
    exponents only) or a double-precision value, as exact says.
    """
    s = tuple(s)
    if M < 1:
        raise ValueError("M must be >= 1")
    if not s:
        return Fraction(1) if exact else 1.0
    if exact:
        ints = [exact_exponent(v) for v in s]
        if None in ints:
            raise ValueError("exact sums need non-negative integer exponents")
        return _truncated_exact(ints, M, star)
    return _truncated_float(s, M, star)[0]


def _tail_bound(s: Sequence[Number], M: int, rest: Number) -> float:
    # integral comparison on the outermost index, times the truncated value
    # `rest` of the remaining sum; a log inflation covers inner exponents
    # sitting at real part exactly 1
    sr = complex(s[-1]).real
    tail = M ** (1.0 - sr) / (sr - 1.0)
    if any(complex(v).real == 1.0 for v in s[:-1]):
        tail *= (1.0 + math.log(M)) ** (len(s) - 1)
    return tail * float(abs(rest))


def eval_ez(s: Sequence[Number], cfg: TruncationConfig, star: bool = False) -> EvalResult:
    """Truncated Euler-Zagier value with a tail bound.

    The interval value +- tail_bound contains the limit whenever all real
    parts are >= 1 and the convergence condition holds.
    """
    s = tuple(s)
    if not s:
        raise ValueError("empty exponent sequence")
    if not check_ez_domain(s):
        raise ConvergenceError(
            f"exponents {s} violate the convergence condition (suffix sums must exceed the depth)"
        )
    exact, note = _arithmetic(cfg, s)
    if exact:
        value = _truncated_exact([exact_exponent(v) for v in s], cfg.M, star)
        return EvalResult(value, None, cfg.M)
    value, rest = _truncated_float(s, cfg.M, star)
    return EvalResult(value, _tail_bound(s, cfg.M, rest), cfg.M, note=note)
