"""Check every CLI report against an identity of the paper or an independent route.

* verify jobs must exit 0 with verified true; exact ones must compare as
  identical Fractions.
* eval-schur on a straight shape is compared with the Thm 4.2 series at the
  same M; on a reversed-hook skew shape with the alternating zeta-star times
  zeta sum, evaluated by the sums below.
* eval-mzv and eval-rootzeta are compared with the sums of their definitions
  written here: index tuples enumerated directly when there are few, nested
  prefix sums otherwise; the root-system box is summed as one numpy grid.
* expand jobs: the returned terms, evaluated at a fixed point, must equal the
  Schur value of the shape (the expansions hold at every truncation M).

Exact reports must match the reference Fraction exactly. Float reports must
agree to REL_TOL, whatever arithmetic the program chose: a value that turns
from a silent Fraction into a float still passes, a wrong value does not.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import comb

import numpy as np

from schurzeta.expressions import eval_thm42
from schurzeta.partitions import Partition

REL_TOL = 1e-9
BOOLEAN_FLAGS = {"exact", "star", "collected", "reversed"}
# largest number of index tuples summed one by one in exact references
DIRECT_TUPLES = 5_000
# truncation at which expansions are evaluated
EXPAND_M = 60


class CheckFailed(Exception):
    pass


# --------------------------------------------------------------------------
# argv and report parsing
# --------------------------------------------------------------------------


def parse_argv(argv: list[str]) -> tuple[str, list[str], dict]:
    command, positional, flags = argv[0], [], {}
    i = 1
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--"):
            key = tok[2:].replace("-", "_")
            if key in BOOLEAN_FLAGS:
                flags[key] = True
                i += 1
            else:
                flags[key] = argv[i + 1]
                i += 2
        else:
            positional.append(tok)
            i += 1
    return command, positional, flags


def number(tok: str):
    for cast in (int, float, complex):
        try:
            return cast(tok)
        except ValueError:
            pass
    raise CheckFailed(f"cannot parse {tok!r}")


def numbers(text: str) -> list:
    return [number(t) for t in text.split(",")]


def content_of(text: str) -> dict[int, object]:
    return {int(k): number(v) for k, v in (item.split("=", 1) for item in text.split(","))}


def shape_of(text: str | None) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(",")) if text else ()


def is_int(v) -> bool:
    return isinstance(v, int) and v >= 0


def reported(value):
    """A report value: 'p/q' strings are exact, [re, im] is complex."""
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, list):
        return complex(*value)
    return value


def floated(v):
    return complex(v) if isinstance(v, complex) else float(v)


# --------------------------------------------------------------------------
# reference sums
# --------------------------------------------------------------------------


def _powers(s, M: int) -> np.ndarray:
    m = np.arange(1.0, M + 1.0)
    if isinstance(s, complex) and s.imag:
        return np.exp(-s * np.log(m))
    return m ** -float(complex(s).real)


def ez_float(s, M: int, star: bool):
    """sum over m_1 < ... < m_r <= M (<= for star) of prod m_t^-s_t."""
    inner = _powers(s[0], M)
    for sj in s[1:]:
        below = np.cumsum(inner)
        if not star:
            below -= inner  # strictly smaller indices only
        inner = _powers(sj, M) * below
    return complex(inner.sum()) if np.iscomplexobj(inner) else float(inner.sum())


def ez_exact(s, M: int, star: bool) -> Fraction:
    r = len(s)
    tuples = comb(M + r - 1, r) if star else comb(M, r)
    if tuples <= DIRECT_TUPLES:
        chains = combinations_with_replacement if star else combinations
        total = Fraction(0)
        for ms in chains(range(1, M + 1), r):
            den = 1
            for m, e in zip(ms, s):
                den *= m**e
            total += Fraction(1, den)
        return total
    inner = [Fraction(1, m ** s[0]) for m in range(1, M + 1)]
    for sj in s[1:]:
        acc, nxt = Fraction(0), []
        for m, a in enumerate(inner, 1):
            if star:
                acc += a
            nxt.append(acc / m**sj)
            if not star:
                acc += a
        inner = nxt
    return sum(inner, Fraction(0))


def ez(s, M: int, star: bool, exact: bool):
    return ez_exact(s, M, star) if exact else ez_float([floated(v) for v in s], M, star)


def antihook_sum(bottom, column, M: int, exact: bool):
    """sum_i (-1)^(k-i) zeta*(bottom[:i]) zeta(reversed column, reversed bottom[i:])."""
    k = len(bottom) - 1
    total = Fraction(0) if exact else 0.0
    for i in range(k + 1):
        term = (-1) ** (k - i) * ez(column[::-1] + bottom[i:][::-1], M, False, exact)
        if i:
            term *= ez(bottom[:i], M, True, exact)
        total += term
    return total


def box_sum(rank: int, svals: dict, M: int, d: int, x) -> float | complex:
    """The type-A root-system sum over the box of m_1..m_r, as one grid.

    Indices k <= d run from 0, the others from 1; a factor whose base is 0 is
    left out; x shifts every base.
    """
    axes = [np.arange(0 if k <= d else 1, M + 1, dtype=float) for k in range(1, rank + 1)]
    grid = np.meshgrid(*axes, indexing="ij")
    weight = np.ones(grid[0].shape, dtype=complex)
    for (i, j), s in svals.items():
        if s == 0:
            continue
        base = sum(grid[t - 1] for t in range(i, j)) + (float(x) if x is not None else 0.0)
        safe = np.where(base == 0, 1.0, base)
        weight *= np.where(base == 0, 1.0, np.exp(-complex(s) * np.log(safe)))
    total = complex(weight.sum())
    return total if total.imag else total.real


def root_pairs(rank: int) -> list[tuple[int, int]]:
    return [(i, i + g) for g in range(1, rank + 1) for i in range(1, rank + 2 - g)]


def schur_thm42(shape, content: dict, M: int, exact: bool):
    """The Thm 4.2 series; floats force its floating path."""
    z = content if exact else {k: floated(v) for k, v in content.items()}
    return eval_thm42(Partition(shape), z, M).value


# --------------------------------------------------------------------------
# per-command checks
# --------------------------------------------------------------------------


def _close(got, want, scale=0.0):
    got, want = complex(got), complex(want)
    if not abs(got - want) <= REL_TOL * max(abs(want), scale) + 1e-15:
        raise CheckFailed(f"value {got} differs from reference {want}")


def _same(got, want, exact: bool):
    if exact:
        if not isinstance(got, Fraction) or got != want:
            raise CheckFailed(f"exact value {got} is not the reference {want}")
    else:
        _close(got, want)


def _reference_value(command, flags, exact):
    M = int(flags["M"])
    if command == "eval-mzv":
        return ez(numbers(flags["args"]), M, bool(flags.get("star")), exact)
    if command == "eval-schur":
        outer, inner = shape_of(flags["shape"]), shape_of(flags.get("inner"))
        z = content_of(flags["content"])
        if not inner:
            return schur_thm42(outer, z, M, exact)
        k, l = inner[0], len(inner)
        if outer != (k + 1,) * (l + 1) or inner != (k,) * l:
            raise CheckFailed(f"no reference route for skew shape {outer}/{inner}")
        bottom = [z[c] for c in range(-l, k - l + 1)]
        column = [z[c] for c in range(k - l + 1, k + 1)]
        return antihook_sum(bottom, column, M, exact)
    if command == "eval-rootzeta":
        if flags.get("first_row"):
            vals = numbers(flags["first_row"])
            rank = len(vals)
            svals = {(1, j): v for j, v in zip(range(2, rank + 2), vals)}
        else:
            rank = int(flags["rank"])
            svals = dict(zip(root_pairs(rank), numbers(flags["svars"])))
        variant = flags.get("variant", "plain")
        d = int(flags["d"]) if "bullet" in variant else 0
        x = number(flags["x"]) if variant.endswith("H") else None
        return box_sum(rank, svals, M, d, x)
    raise CheckFailed(f"no reference for {command}")


def _check_expand(positional, flags, results):
    terms = results["terms"]
    if results["term_count"] != len(terms):
        raise CheckFailed("term_count disagrees with the terms listed")
    target = positional[0]
    if target == "giambelli":
        shape = shape_of(flags["shape"])
    else:
        shape = (int(flags["p"]) + 1,) + (1,) * int(flags["q"])
    rng = random.Random(repr((target, shape)))
    z = {c: rng.uniform(1.5, 3.5) for c in range(1 - len(shape), shape[0])}
    values: dict[tuple, float] = {}
    total = scale = 0.0
    for term in terms:
        prod = float(term["coeff"])
        for f in term["factors"]:
            key = (f["kind"], tuple(f["args"]))
            if key not in values:
                values[key] = ez_float([z[a] for a in key[1]], EXPAND_M, key[0] == "star")
            prod *= values[key]
        total += prod
        scale += abs(prod)
    _close(total, schur_thm42(shape, z, EXPAND_M, exact=False), scale)


def check_report(argv: list[str], code, report: dict) -> None:
    """Raise CheckFailed unless the report is a correct answer to argv."""
    command, positional, flags = parse_argv(argv)
    if code != 0 or report.get("status") != "ok":
        raise CheckFailed(f"exit {code}, status {report.get('status')}: {report.get('error')}")
    results = report["results"]
    if command == "verify":
        if report.get("verified") is not True or results.get("equal") is not True:
            raise CheckFailed("identity not verified")
        exact = flags.get("exact") and results["comparison"] == "exact"
        if flags.get("exact") and not exact:
            raise CheckFailed("exact verification compared in tolerance")
        if exact and reported(results["lhs"]) != reported(results["rhs"]):
            raise CheckFailed("exact sides differ")
        return
    if command == "expand":
        _check_expand(positional, flags, results)
        return
    got = reported(results["value"])
    exact = bool(flags.get("exact"))
    if exact:
        # exact mode applies when every exponent is a non-negative integer
        text = flags.get("args") or flags.get("content") or ""
        exact = all(is_int(number(t.split("=")[-1])) for t in text.split(","))
    _same(got, _reference_value(command, flags, exact), exact)


def check(argv: list[str], code, stdout: str) -> None:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        raise CheckFailed(f"exit {code}, no JSON report") from None
    check_report(argv, code, report)


def corrupt(report: dict) -> dict:
    """A copy of a report with its answer changed slightly, for self-checks."""
    bad = json.loads(json.dumps(report))
    results = bad["results"]
    if "verified" in bad:
        bad["verified"] = results["equal"] = False
    elif "terms" in results:
        results["terms"][0]["coeff"] += 1
    else:
        # 1e-6 relative: far above REL_TOL, far below any visible change
        value = reported(results["value"])
        shift = max(abs(value), 1) * Fraction(1, 10**6)
        if isinstance(value, Fraction):
            results["value"] = str(value + shift)
        elif isinstance(value, complex):
            results["value"] = [value.real + float(shift), value.imag]
        else:
            results["value"] = value + float(shift)
    return bad
