"""Command-line front end: evaluation, expansion, and identity verification.

Every run prints a machine-readable report (JSON by default) echoing the
parsed job, and exits 0 on success, 2 when a verification fails, 1 on input
or convergence errors. Configuration precedence: flags, then SCHURZETA_*
environment variables, then built-in defaults (M=1000, tolerance=1e-8,
floating mode).
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import os
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Number

from .expressions import (
    FormalExpr,
    expand_antihook,
    expand_giambelli,
    expand_giambelli_terms,
    expand_hook,
    giambelli_det_expr,
    truncated_value,
)
from .mzv import (
    ContentAssignment,
    ConvergenceError,
    TruncationConfig,
    _arithmetic,
    eval_ez,
    value_to_json,
)
from .partitions import Partition, SkewShape
from .rootzeta import RootZetaArgs, _det, chain_determinant, eval_root_zeta
from .schur import (
    VariableTableau,
    _antihook_content,
    _refuse_outside_W_lambda,
    antihook_tableau,
    eval_schur,
    eval_schur_truncated,
)

SCHEMA_VERSION = 1
DEFAULTS = {"M": 1000, "tolerance": 1e-8, "mode": "floating", "format": "json"}

VERIFY_IDENTITIES = ("hook1", "hook2", "giambelli", "thm41", "thm41-reversed", "thm42", "antihook")
# the parameters an identity reads besides its name; the others read shape and content
_VERIFY_READS = {"hook1": ("p", "q", "content"), "hook2": ("p", "q", "content"), "antihook": ("bottom", "column")}


class UsageError(ValueError):
    """Bad flags, malformed JSON, or missing/unknown job fields."""


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def _parse_number(tok: str):
    tok = tok.strip()
    try:
        return int(tok)
    except ValueError:
        pass
    if "/" in tok:
        try:
            return Fraction(tok)
        except (ValueError, ZeroDivisionError):
            pass
    for kind in (float, complex):
        try:
            value = kind(tok)
        except ValueError:
            continue
        if not cmath.isfinite(value):
            raise UsageError(f"number {tok!r} is not finite")
        return value
    raise UsageError(f"cannot parse number {tok!r}")


def _parse_number_list(text: str) -> list:
    return [_parse_number(t) for t in text.split(",") if t.strip()]


def _parse_partition(text: str) -> Partition:
    try:
        return Partition(tuple(int(t) for t in str(text).split(",") if t.strip()))
    except ValueError as err:
        raise UsageError(f"bad partition {text!r}: {err}") from None


def _parse_value(v, field: str):
    """One exponent of a JSON mapping or array: a number, its text, or [re, im]."""
    if isinstance(v, str):
        return _parse_number(v)
    if isinstance(v, Number) and not isinstance(v, bool):
        return v
    if isinstance(v, list) and 1 <= len(v) <= 2 and all(isinstance(t, (int, float)) for t in v):
        return complex(*v)
    raise UsageError(f"{field} values must be numbers or [re, im], got {v!r}")


def _parse_content(text) -> dict:
    """'0=3,1=2,-1=2' or a JSON-style mapping into {index: value}."""
    if isinstance(text, dict):
        return {int(k): _parse_value(v, "content") for k, v in text.items()}
    out = {}
    for item in str(text).split(","):
        if not item.strip():
            continue
        if "=" not in item:
            raise UsageError(f"content entries look like k=value, got {item!r}")
        k, v = item.split("=", 1)
        out[int(k)] = _parse_number(v)
    return out


def _env(name: str, default, cast):
    raw = os.environ.get(f"SCHURZETA_{name}")
    if raw is None:
        return default
    try:
        return cast(raw)
    except ValueError:
        raise UsageError(f"bad SCHURZETA_{name} value {raw!r}") from None


# ---------------------------------------------------------------------------
# job specification
# ---------------------------------------------------------------------------

# the JSON types each parameter takes, null counting as absent; integers and
# partitions may also come as text, such as "2" or "2,2". Each parameter but
# eval-schur's cells is also the flag of the same name.
_ARRAY, _BOOL, _TEXT, _WHOLE, _MAPPING = (list,), (bool,), (str,), (int, str), (dict, str)
_COMMAND_PARAMS = {
    "eval-mzv": {"args": _ARRAY, "star": _BOOL},
    "eval-schur": {"shape": _WHOLE, "inner": _WHOLE, "content": _MAPPING, "cells": (dict,)},
    "eval-rootzeta": {"rank": _WHOLE, "variant": _TEXT, "svars": _ARRAY, "first_row": _ARRAY,
                      "d": _WHOLE, "x": (int, float, str)},
    "expand": {"target": _TEXT, "p": _WHOLE, "q": _WHOLE, "shape": _WHOLE, "variant": _TEXT,
               "collected": _BOOL},
    "verify": {"identity": _TEXT, "p": _WHOLE, "q": _WHOLE, "shape": _WHOLE, "content": _MAPPING,
               "bottom": _ARRAY, "column": _ARRAY},
}
_CFG_FIELDS = {"M": _WHOLE, "mode": _TEXT, "tolerance": (int, float, str)}
_JSON_NAMES = {bool: "a boolean", int: "an integer", float: "a number", str: "a string",
               list: "an array", dict: "an object"}


def _finite(value) -> bool:
    """No inf or nan anywhere in a parameter, so that its report is strict JSON."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return all(map(_finite, value))
    return not isinstance(value, (float, complex)) or cmath.isfinite(value)


def _check_fields(owner: str, values: dict, allowed: dict):
    """Refuse unknown fields, values of other JSON types (a boolean is not an
    integer here), and non-finite numbers; null counts as absent."""
    unknown = set(values) - set(allowed)
    if unknown:
        raise UsageError(f"unknown field(s) for {owner}: {', '.join(sorted(unknown))}")
    for name, value in values.items():
        if value is None:
            continue
        types = allowed[name]
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            expected = " or ".join(_JSON_NAMES[t] for t in types)
            raise UsageError(f"{owner} field {name!r} must be {expected}, got {value!r}")
        if not _finite(value):
            raise UsageError(f"{owner} field {name!r} must be finite, got {value!r}")


@dataclass
class JobSpec:
    """One CLI job: what to run, its parameters, truncation config, output."""

    command: str
    params: dict = field(default_factory=dict)
    cfg: TruncationConfig = TruncationConfig()
    output: str = "json"

    def __post_init__(self):
        if not isinstance(self.command, str) or self.command not in _COMMAND_PARAMS:
            raise UsageError(f"unknown command {self.command!r}")
        _check_fields(self.command, self.params, _COMMAND_PARAMS[self.command])
        if self.output not in ("json", "plain", "latex"):
            raise UsageError(f"output must be json, plain or latex, got {self.output!r}")

    def to_json(self) -> dict:
        params = {}
        for k, v in self.params.items():
            if isinstance(v, (int, float, str, bool)) or v is None:
                params[k] = v
            elif isinstance(v, (list, tuple)):
                params[k] = [value_to_json(x) for x in v]
            elif isinstance(v, dict):
                params[k] = {str(kk): value_to_json(vv) for kk, vv in v.items()}
            else:
                params[k] = value_to_json(v)
        return {
            "command": self.command,
            "params": params,
            "cfg": {"M": self.cfg.M, "mode": self.cfg.mode, "tolerance": self.cfg.tolerance},
            "output": self.output,
        }

    @classmethod
    def from_json(cls, data: dict) -> "JobSpec":
        if not isinstance(data, dict):
            raise UsageError("job spec must be a JSON object")
        known = {"command", "params", "cfg", "output"}
        unknown = set(data) - known
        if unknown:
            raise UsageError(f"unknown job field(s): {', '.join(sorted(unknown))}")
        if "command" not in data:
            raise UsageError("job spec is missing the 'command' field")
        cfg_data, params = data.get("cfg", {}), data.get("params", {})
        if not isinstance(cfg_data, dict) or not isinstance(params, dict):
            raise UsageError("job fields 'cfg' and 'params' must be JSON objects")
        _check_fields("cfg", cfg_data, _CFG_FIELDS)
        cfg_data = {k: v for k, v in cfg_data.items() if v is not None}
        try:
            cfg = TruncationConfig(
                M=int(cfg_data.get("M", DEFAULTS["M"])),
                mode=cfg_data.get("mode", DEFAULTS["mode"]),
                tolerance=float(cfg_data.get("tolerance", DEFAULTS["tolerance"])),
            )
        except (TypeError, ValueError) as err:
            raise UsageError(f"bad cfg: {err}") from None
        return cls(
            command=data["command"],
            params=dict(params),
            cfg=cfg,
            output=data.get("output", "json"),
        )


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _require(params: dict, key: str, command: str):
    if params.get(key) is None:
        raise UsageError(f"{command} requires --{key.replace('_', '-')}")
    return params[key]


def _refuse_unread(params: dict, route: str, read, defaults: dict | None = None):
    """Refuse the parameters that are set but that the route does not read,
    naming their flags; a value equal to its flag's default counts as unset."""
    defaults = defaults or {}
    unread = [k for k, v in params.items() if k not in read and v is not None and v != defaults.get(k)]
    if unread:
        # only expand leaves variant unread, and there its flag is --reversed
        flags = ", ".join("--reversed" if k == "variant" else "--" + k.replace("_", "-") for k in unread)
        raise UsageError(f"{route} does not read {flags}")


def _run_eval_mzv(spec: JobSpec) -> dict:
    args = [_parse_value(a, "args") for a in _require(spec.params, "args", "eval-mzv")]
    star = bool(spec.params.get("star", False))
    res = eval_ez(args, spec.cfg, star=star)
    return {"results": res.as_dict()}


def _schur_tableau(params: dict) -> VariableTableau:
    shape = _parse_partition(_require(params, "shape", "eval-schur"))
    inner = params.get("inner")
    skew = SkewShape(shape, _parse_partition(inner) if inner else Partition(()))
    if params.get("cells") is not None:
        _refuse_unread(params, "eval-schur with cells", ("shape", "inner", "cells"))
        cells = {}
        for key, v in params["cells"].items():
            i, j = (int(t) for t in str(key).split(","))
            cells[(i, j)] = _parse_value(v, "cells")
        return VariableTableau.from_cells(skew, cells)
    content = _parse_content(_require(params, "content", "eval-schur"))
    return VariableTableau.from_content(skew, content)


def _run_eval_schur(spec: JobSpec) -> dict:
    vt = _schur_tableau(spec.params)
    res = eval_schur(vt, spec.cfg)
    return {"results": res.as_dict()}


def _run_eval_rootzeta(spec: JobSpec) -> dict:
    params = spec.params
    variant = params.get("variant", "plain")
    if params.get("first_row") is not None:
        route, read = "eval-rootzeta --first-row", {"variant", "first_row"}
        args = RootZetaArgs.first_row([_parse_value(v, "first_row") for v in params["first_row"]])
    else:
        route, read = "eval-rootzeta --rank --svars", {"variant", "rank", "svars"}
        rank = int(_require(params, "rank", "eval-rootzeta"))
        args = RootZetaArgs.full(rank, [_parse_value(v, "svars") for v in _require(params, "svars", "eval-rootzeta")])
    if variant not in ("plain", "bullet", "H", "bulletH"):
        raise UsageError(f"variant must be plain, bullet, H or bulletH, got {variant!r}")
    d, x = 0, None
    if variant.startswith("bullet"):
        read.add("d")
        d = int(_require(params, "d", "eval-rootzeta"))
    if variant.endswith("H"):
        read.add("x")
        x = _parse_number(str(_require(params, "x", "eval-rootzeta")))
    _refuse_unread(params, f"{route} --variant {variant}", read)
    res = eval_root_zeta(args, spec.cfg, d, x)
    return {"results": res.as_dict()}


def _run_expand(spec: JobSpec) -> dict:
    params = spec.params
    target = _require(params, "target", "expand")
    if target in ("hook1", "hook2"):
        # the flag parser always fills in variant and collected
        _refuse_unread(params, f"expand {target}", ("target", "p", "q"), {"variant": "standard", "collected": False})
        p = int(_require(params, "p", "expand"))
        q = int(_require(params, "q", "expand"))
        expr = expand_hook(p, q, target)
    elif target == "giambelli":
        _refuse_unread(params, "expand giambelli", ("target", "shape", "variant", "collected"))
        lam = _parse_partition(_require(params, "shape", "expand"))
        variant = params.get("variant", "standard")
        if params.get("collected"):
            expr = expand_giambelli(lam, variant)
        else:
            # uncollected permutation-sum terms, as the identity is stated
            expr = FormalExpr(tuple(expand_giambelli_terms(lam, variant)))
    else:
        raise UsageError(f"expand target must be hook1, hook2 or giambelli, got {target!r}")
    return {
        "results": {
            "terms": expr.to_json(),
            "term_count": len(expr),
            "latex": expr.latex(),
            "plain": expr.plain(),
        }
    }


def _giambelli_matrix_value(lam: Partition, content: ContentAssignment, M: int, exact: bool):
    """Determinant of the hook-shape Schur values, by direct tableau sums."""
    return _det([
        [eval_schur_truncated(VariableTableau.from_content(e.shape, content), M, exact) for e in row]
        for row in giambelli_det_expr(lam)
    ])


def _run_verify(spec: JobSpec) -> dict:
    """Both sides truncated at the same M, where every identity holds
    exactly, in the one arithmetic _arithmetic picks: the Schur side summed
    over tableaux, the other side by truncated_value over the identity's
    expansion (hooks, Thm 4.1, anti-hook), as the determinant of hook sums
    (Giambelli) or as the chain determinant (Thm 4.2). Floating sides stand
    for series, so floating mode refuses exponents outside W_lambda, and only
    there: a factor whose own series diverges is still a finite truncated sum."""
    params = spec.params
    identity = _require(params, "identity", "verify")
    if identity not in VERIFY_IDENTITIES:
        raise UsageError(f"identity must be one of {', '.join(VERIFY_IDENTITIES)}")
    _refuse_unread(params, f"verify {identity}", ("identity", *_VERIFY_READS.get(identity, ("shape", "content"))))
    content = ContentAssignment(_parse_content(params.get("content") or {}))
    expr = None
    if identity in ("hook1", "hook2"):
        p = int(_require(params, "p", "verify"))
        q = int(_require(params, "q", "verify"))
        vt = VariableTableau.from_content(Partition.hook(p, q), content)
        expr = expand_hook(p, q, identity)
    elif identity == "antihook":
        bottom = [_parse_value(v, "bottom") for v in _require(params, "bottom", "verify")]
        column = [_parse_value(v, "column") for v in _require(params, "column", "verify")]
        vt = antihook_tableau(bottom, column)
        content = ContentAssignment(_antihook_content(bottom, column))
        expr = expand_antihook(len(bottom) - 1, len(column))
    else:
        lam = _parse_partition(_require(params, "shape", "verify"))
        vt = VariableTableau.from_content(lam, content)
        if identity in ("thm41", "thm41-reversed"):
            expr = expand_giambelli(lam, "standard" if identity == "thm41" else "reversed")

    exact, note = _arithmetic(spec.cfg, vt.cell_values.values())
    if not exact:
        _refuse_outside_W_lambda(vt)
    M = spec.cfg.M
    if expr is not None:
        rhs = truncated_value(expr, content, M, exact)
    elif identity == "giambelli":
        rhs = _giambelli_matrix_value(lam, content, M, exact)
    else:
        rhs = chain_determinant(lam.frobenius(), content, M, exact)
    lhs = eval_schur_truncated(vt, M, exact)

    if exact:
        difference, threshold, equal = lhs - rhs, 0.0, lhs == rhs
    else:
        difference = complex(lhs) - complex(rhs)
        if difference.imag == 0:
            difference = difference.real
        threshold = spec.cfg.tolerance
        equal = abs(difference) <= threshold
    results = {
        "identity": identity,
        "lhs": value_to_json(lhs),
        "rhs": value_to_json(rhs),
        "difference": value_to_json(difference),
        "comparison": "exact" if exact else "tolerance",
        "threshold": threshold,
        "equal": bool(equal),
    }
    if note:
        results["note"] = note
    return {"results": results, "verified": bool(equal)}


_RUNNERS = {
    "eval-mzv": _run_eval_mzv,
    "eval-schur": _run_eval_schur,
    "eval-rootzeta": _run_eval_rootzeta,
    "expand": _run_expand,
    "verify": _run_verify,
}


def run(spec: JobSpec) -> tuple[int, dict]:
    """Execute one job; returns (exit_code, report)."""
    started = time.perf_counter()
    report = {"schema": SCHEMA_VERSION, "command": spec.command, "inputs": spec.to_json()}
    try:
        outcome = _RUNNERS[spec.command](spec)
    except (UsageError, ConvergenceError, ValueError, KeyError, MemoryError) as err:
        report["status"] = "error"
        if isinstance(err, MemoryError):
            report["error"] = f"out of memory at M={spec.cfg.M}; try a lower M"
        else:  # str() of a KeyError is the repr of its message
            report["error"] = str(err.args[0] if isinstance(err, KeyError) and err.args else err)
        report["wall_time_s"] = time.perf_counter() - started
        return 1, report
    report.update(outcome)
    verified = outcome.get("verified", True)
    report["status"] = "ok" if verified else "verification-failed"
    report["wall_time_s"] = time.perf_counter() - started
    return (0 if verified else 2), report


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise UsageError(message)


def _add_common(parser: _Parser):
    parser.add_argument("--M", type=int, default=None, help="truncation bound")
    parser.add_argument("--mode", choices=["exact", "floating"], default=None)
    parser.add_argument("--exact", action="store_true", help="shorthand for --mode exact")
    parser.add_argument("--tolerance", type=float, default=None)
    parser.add_argument("--format", choices=["json", "plain", "latex"], default=None)


def build_parser() -> _Parser:
    """A new parser on each call, so a caller that changes it cannot change main's."""
    parser = _Parser(prog="schurzeta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-mzv", help="Euler-Zagier multiple zeta (or star) value")
    p.add_argument("--args", required=True, help="comma-separated exponents, e.g. 2,3")
    p.add_argument("--star", action="store_true")
    _add_common(p)

    p = sub.add_parser("eval-schur", help="Schur multiple zeta value by tableau summation")
    p.add_argument("--shape", required=True, help="outer partition, e.g. 2,2")
    p.add_argument("--inner", default=None, help="inner partition for skew shapes")
    p.add_argument("--content", default=None, help="content values, e.g. '0=3,1=2,-1=2'")
    _add_common(p)

    p = sub.add_parser("eval-rootzeta", help="type-A root-system zeta and variants")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--svars", default=None, help="all variables in canonical root order")
    p.add_argument("--first-row", dest="first_row", default=None, help="first-row-only variables")
    p.add_argument("--variant", choices=["plain", "bullet", "H", "bulletH"], default="plain")
    p.add_argument("--d", type=int, default=None, help="number of zero-based indices")
    p.add_argument("--x", default=None, help="positive shift")
    _add_common(p)

    p = sub.add_parser("expand", help="formal expansion of an identity's right-hand side")
    p.add_argument("target", choices=["hook1", "hook2", "giambelli"])
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--shape", default=None)
    p.add_argument("--reversed", dest="variant", action="store_const", const="reversed",
                   default="standard", help="swap the roles of zeta and zeta-star")
    p.add_argument("--collected", action="store_true", help="normalize (collect like terms)")
    _add_common(p)

    p = sub.add_parser("verify", help="check one identity numerically or exactly")
    p.add_argument("identity", choices=list(VERIFY_IDENTITIES))
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--shape", default=None)
    p.add_argument("--bottom", default=None, help="bottom-row values for antihook")
    p.add_argument("--column", default=None, help="right-column values for antihook")
    p.add_argument("--content", default=None, help="content values, e.g. '0=3,1=2,-1=2'")
    _add_common(p)

    p = sub.add_parser("job", help="run a JSON job specification")
    p.add_argument("file", help="path to a JSON job file, or - for stdin")

    return parser


@functools.cache
def _parser() -> _Parser:
    """main's parser, built once per process. Reusing it is safe because parsing
    leaves no state on it: every default is immutable, no action appends, and
    each parse_args returns a new Namespace."""
    return build_parser()


def _spec_from_namespace(ns) -> JobSpec:
    M = ns.M if ns.M is not None else _env("M", DEFAULTS["M"], int)
    mode = (
        "exact"
        if getattr(ns, "exact", False)
        else ns.mode if ns.mode is not None else _env("MODE", DEFAULTS["mode"], str)
    )
    tolerance = (
        ns.tolerance if ns.tolerance is not None else _env("TOLERANCE", DEFAULTS["tolerance"], float)
    )
    try:
        cfg = TruncationConfig(M=M, mode=mode, tolerance=tolerance)
    except ValueError as err:
        raise UsageError(f"bad cfg: {err}") from None
    output = ns.format if ns.format is not None else _env("FORMAT", DEFAULTS["format"], str)
    params = {}
    for name, types in _COMMAND_PARAMS[ns.command].items():
        value = getattr(ns, name, None)
        if (types is _ARRAY or types is _MAPPING) and value is not None:
            # empty text of an optional flag counts as absent; --args is
            # required, so its empty text is the empty exponent sequence
            if not value and name != "args":
                continue
            value = _parse_number_list(value) if types is _ARRAY else _parse_content(value)
        if value is not None:
            params[name] = value
    return JobSpec(ns.command, params, cfg, output)


def _render(report: dict, output: str) -> str:
    if output == "latex" and "results" in report and "latex" in report.get("results", {}):
        return report["results"]["latex"]
    if output == "plain":
        lines = [f"command: {report['command']}", f"status: {report['status']}"]
        if "error" in report:
            lines.append(f"error: {report['error']}")
        for k, v in sorted(report.get("results", {}).items()):
            if k == "terms":
                continue
            lines.append(f"{k}: {v}")
        lines.append(f"wall_time_s: {report['wall_time_s']:.6f}")
        return "\n".join(lines)
    return json.dumps(report, indent=2, sort_keys=True)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        ns = _parser().parse_args(argv)
        if ns.command == "job":
            try:
                if ns.file == "-":
                    text = sys.stdin.read()
                else:
                    with open(ns.file) as fh:
                        text = fh.read()
            except (OSError, UnicodeDecodeError) as err:
                raise UsageError(f"cannot read job file: {err}") from None
            try:
                data = json.loads(text)
            except json.JSONDecodeError as err:
                raise UsageError(f"malformed JSON job: {err}") from None
            spec = JobSpec.from_json(data)
        else:
            spec = _spec_from_namespace(ns)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    code, report = run(spec)
    try:
        print(_render(report, spec.output))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; keep the exit-time flush from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
