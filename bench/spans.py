"""Spans around the public functions of the schurzeta layers, from outside.

Tracer.install() replaces every public function of cli, mzv, schur, rootzeta
and expressions by a wrapper, under every name it is bound to (the modules
import each other's functions directly, and the package re-exports them);
uninstall() puts the originals back.
A span is [name, start, end, parent index, job id, computed count]; spans
stay in memory until dump(). A layer's self time is its spans' durations
minus the durations of their child spans.

Computed counts are derived from the call's inputs and result, never from a
clock, so they repeat exactly for the same jobs:
  schur.recurrence.state_elems  largest row-window state: (2M)^axes for eval_schur
  rootzeta.box_points           points of the box at M and 2M
  rootzeta.shifted_chain_table.cells  chain length x M
  expressions.expand.terms      terms of expansions returned outside expressions
  evaluate_expr                 (distinct symbols, factor occurrences)
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from fractions import Fraction
from numbers import Integral
from time import perf_counter

MODULES = ("cli", "mzv", "schur", "rootzeta", "expressions")
EXPAND_SPANS = ("expressions.expand", "expressions.normalize", "expressions.giambelli_det_expr")
EVAL_ZETA = ("eval_zeta_A", "eval_zeta_bullet", "eval_zeta_H", "eval_zeta_bullet_H")


def _is_int(v) -> bool:
    return (isinstance(v, Integral) and not isinstance(v, bool) and v >= 0) or (
        isinstance(v, Fraction) and v.denominator == 1 and v >= 0
    )


def window_axes(shape) -> int:
    """Most live axes of the row-window state for a (skew) shape.

    Follows the axis bookkeeping of the row-window recurrence in
    schurzeta.schur without building arrays; the state holds M^axes values.
    """
    spans = [shape.row_span(i) for i in range(1, shape.n_rows + 1)]
    live: list[tuple[str, int]] = []
    peak = b_prev = 0
    for i, (a, b) in enumerate(spans, 1):
        if a >= b:
            live, b_prev = [], 0
            continue
        live = [("p", c) for (_, c) in live]
        b_next = 0
        if i < len(spans):
            an, bn = spans[i]
            b_next = bn if an < bn else 0
        c0 = max(max(b_prev, b_next) + 1, a + 1)
        for c in range(a + 1, min(c0 - 1, b) + 1):
            above = ("p", c) if ("p", c) in live else None
            left = ("u", c - 1) if c - 1 > a else None
            left_needed = left is not None and c - 1 <= b_next
            consumed = {above, None if left_needed else left} - {None}
            live = [lab for lab in live if lab not in consumed] + [("u", c)]
            peak = max(peak, len(live))
        live = [lab for lab in live if not (lab[0] == "u" and lab[1] > b_next)]
        b_prev = b
    return peak


def _schur_label(name, bound):
    """eval_schur / eval_schur_truncated: enumeration or row window, from the inputs."""
    vt = bound.arguments["vt"]
    ints = all(_is_int(v) for v in vt.cell_values.values())
    if name == "eval_schur":
        enumerate_ = bound.arguments["cfg"].is_exact and ints
        M = 2 * bound.arguments["cfg"].M
    else:
        exact = bound.arguments.get("exact")
        enumerate_ = ints if exact is None else exact
        M = bound.arguments["M"]
    if enumerate_:
        return "schur.enumeration", None
    return "schur.recurrence", M ** window_axes(vt.shape)


def _box_points(name, bound):
    args, M = bound.arguments["args"], bound.arguments["M"]
    d = bound.arguments.get("d", 0)
    return f"rootzeta.{name}", sum((B + 1) ** d * B ** (args.r - d) for B in (M, 2 * M))


def _chain_cells(name, bound):
    return f"rootzeta.{name}", len(tuple(bound.arguments["svals"])) * bound.arguments["M"]


def _factor_use(name, bound):
    factors = [f for t in bound.arguments["expr"].terms for f in t.factors]
    return f"expressions.{name}", (len(set(factors)), len(factors))


# functions whose spans carry a label or a computed count, decided from the inputs
_LABELS = {
    ("schur", "eval_schur"): _schur_label,
    ("schur", "eval_schur_truncated"): _schur_label,
    **{("rootzeta", n): _box_points for n in EVAL_ZETA},
    ("rootzeta", "shifted_chain_table"): _chain_cells,
    ("expressions", "evaluate_expr"): _factor_use,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1
        self.patches: list[tuple] = []  # (binding site, attribute, original, wrapper)

    def install(self):
        if not self.patches:
            self.patches = list(self._patches())
        for site, attr, _original, wrapped in self.patches:
            setattr(site, attr, wrapped)

    def uninstall(self):
        for site, attr, original, _wrapped in self.patches:
            setattr(site, attr, original)

    def _patches(self):
        package = importlib.import_module("schurzeta")
        mods = {m: importlib.import_module(f"schurzeta.{m}") for m in MODULES}
        sites = [package, *mods.values()]
        for mname, mod in mods.items():
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(mname, name, fn)
                for site in sites:
                    for attr, val in vars(site).items():
                        if val is fn:
                            yield site, attr, fn, wrapped

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.job, None])
        self.stack.append(idx)
        return self.spans[idx]

    def _in_expand(self) -> bool:
        return bool(self.stack) and self.spans[self.stack[-1]][0].startswith(EXPAND_SPANS)

    def _wrap(self, mname, name, fn):
        label = _LABELS.get((mname, name))
        sig = inspect.signature(fn)
        default = f"{mname}.{name}"
        is_expand = default.startswith(EXPAND_SPANS)

        if inspect.isgeneratorfunction(fn):
            # one span per resumption, so the consumer keeps only its own time
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                outer = not self._in_expand()
                it = fn(*args, **kwargs)
                while True:
                    span = self._open(default)
                    span[1] = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        span[2] = perf_counter()
                        self.stack.pop()
                    if outer:
                        span[5] = 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name_, count = default, None
            if label is not None:
                name_, count = label(name, sig.bind(*args, **kwargs))
            outer = is_expand and not self._in_expand()
            span = self._open(name_)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                self.stack.pop()
            if outer and hasattr(result, "terms"):
                count = len(result.terms)
            span[5] = count
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load(path) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh]


def per_layer(spans: list[list], decks: int) -> dict[str, float]:
    """Per-layer metrics per deck from spans; shares and ratios are run-wide."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _job, _count in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, list] = {}
    for (name, start, end, _parent, _job, count), covered in zip(spans, child):
        self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
        calls[name] = calls.get(name, 0) + 1
        if count is not None:
            counts.setdefault(name, []).append(count)

    def s(*names):
        return sum(self_s.get(k, 0.0) for k in names)

    def n(*names):
        return sum(calls.get(k, 0) for k in names)

    def module(mod):
        return tuple(k for k in self_s if k.startswith(f"{mod}."))

    total = sum(self_s.values()) or 1.0
    eval_zeta = tuple(f"rootzeta.{z}" for z in EVAL_ZETA)
    expand = tuple(k for k in self_s if k.startswith(EXPAND_SPANS))
    use = counts.get("expressions.evaluate_expr", [])
    distinct, occurrences = sum(u[0] for u in use), sum(u[1] for u in use)
    m = {
        "cli.main.self_s": s(*module("cli")),
        "mzv.eval_ez.s": s("mzv.eval_ez"),
        "mzv.eval_ez.calls": n("mzv.eval_ez"),
        "mzv.eval_ez_truncated.s": s("mzv.eval_ez_truncated"),
        "mzv.eval_ez_truncated.calls": n("mzv.eval_ez_truncated"),
        "schur.recurrence.s": s("schur.recurrence"),
        "schur.recurrence.calls": n("schur.recurrence"),
        "schur.enumeration.s": s("schur.enumeration"),
        "schur.enumeration.calls": n("schur.enumeration"),
        "schur.eval_skew_antihook_rhs.s": s("schur.eval_skew_antihook_rhs"),
        "rootzeta.eval_zeta.s": s(*eval_zeta),
        "rootzeta.eval_zeta.calls": n(*eval_zeta),
        "rootzeta.shifted_chain_table.s": s("rootzeta.shifted_chain_table"),
        "rootzeta.shifted_chain_table.calls": n("rootzeta.shifted_chain_table"),
        "expressions.expand.s": s(*expand),
        "expressions.evaluate_expr.s": s("expressions.evaluate_expr"),
        "expressions.evaluate_expr.calls": n("expressions.evaluate_expr"),
        "expressions.eval_thm42.s": s("expressions.eval_thm42"),
        "expressions.eval_thm42.calls": n("expressions.eval_thm42"),
    }
    m = {k: v / decks for k, v in m.items()}
    m["schur.recurrence.state_elems"] = max(counts.get("schur.recurrence", [0]))
    m["rootzeta.box_points"] = sum(c for z in eval_zeta for c in counts.get(z, [])) / decks
    m["rootzeta.shifted_chain_table.cells"] = sum(counts.get("rootzeta.shifted_chain_table", [])) / decks
    m["expressions.expand.terms"] = sum(c for k in expand for c in counts.get(k, [])) / decks
    m["expressions.evaluate_expr.factor_reuse"] = 1.0 - distinct / occurrences if occurrences else 0.0
    for mod in MODULES:
        m[f"{mod}.self_share"] = s(*module(mod)) / total
    return m
