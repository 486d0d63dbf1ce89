"""Seeded job streams for the three workloads.

A workload is an endless sequence of decks. Every deck holds the same job
templates, so each deck asks for the same amount of work whatever the seed;
the seed picks the exponents of every job and the order of the deck. That
keeps throughput and latency percentiles comparable across seeds while the
program still sees fresh inputs in every deck.

Sizes come from seed-commit timings (2 CPU, CPython 3.11, numpy 2.4): no
single job takes more than about a tenth of a deck, and a deck takes a few
seconds, so a run of ten seconds or more holds several decks and well over
a hundred jobs.
"""

from __future__ import annotations

import random

# --------------------------------------------------------------------------
# exponent draws; the strings are what a user would type on the command line
# --------------------------------------------------------------------------


def _real(rng: random.Random, lo: float = 1.5, hi: float = 4.0) -> str:
    return f"{rng.uniform(lo, hi):.3f}"


def _cplx(rng: random.Random) -> str:
    return f"{rng.uniform(2.0, 3.5):.3f}{rng.uniform(-1.5, 1.5):+.3f}j"


def _int(rng: random.Random) -> str:
    return str(rng.choice((2, 3)))


def _contents(lo: int, hi: int, draw, rng: random.Random) -> str:
    # z_0 first, as in the README: a value starting with '-' would read as a flag
    order = [*range(0, hi + 1), *range(-1, lo - 1, -1)]
    return ",".join(f"{k}={draw(rng)}" for k in order)


def _shape_contents(shape: tuple[int, ...], draw, rng: random.Random) -> str:
    return _contents(1 - len(shape), shape[0] - 1, draw, rng)


def _csv(shape) -> str:
    return ",".join(str(p) for p in shape)


def _mode(exact: bool) -> list[str]:
    return ["--exact"] if exact else []


# --------------------------------------------------------------------------
# job templates: each returns one argv list for the schurzeta CLI
# --------------------------------------------------------------------------


def eval_schur(shape, M, draw, exact=False):
    def make(rng):
        return ["eval-schur", "--shape", _csv(shape),
                "--content", _shape_contents(shape, draw, rng), "--M", str(M), *_mode(exact)]
    return make


def eval_antihook_skew(k, l, M, draw, exact=False):
    """The reversed-hook skew shape (k+1)^(l+1) / k^l, content -l..k."""
    def make(rng):
        return ["eval-schur", "--shape", _csv((k + 1,) * (l + 1)), "--inner", _csv((k,) * l),
                "--content", _contents(-l, k, draw, rng), "--M", str(M), *_mode(exact)]
    return make


def verify_shape(identity, shape, M, draw, exact=False):
    def make(rng):
        return ["verify", identity, "--shape", _csv(shape),
                "--content", _shape_contents(shape, draw, rng), "--M", str(M), *_mode(exact)]
    return make


def verify_hook(identity, p, q, M, draw, exact=False):
    def make(rng):
        return ["verify", identity, "--p", str(p), "--q", str(q),
                "--content", _contents(-q, p, draw, rng), "--M", str(M), *_mode(exact)]
    return make


def verify_antihook(k, l, M, draw, exact=False):
    def make(rng):
        bottom = ",".join(draw(rng) for _ in range(k + 1))
        column = ",".join(draw(rng) for _ in range(l))
        return ["verify", "antihook", "--bottom", bottom, "--column", column,
                "--M", str(M), *_mode(exact)]
    return make


def eval_mzv(depth, M, draw, star=False, exact=False):
    def make(rng):
        # every draw has real part >= 1.5, inside the convergence domain
        args = [draw(rng) for _ in range(depth)]
        return ["eval-mzv", "--args", ",".join(args), *(["--star"] if star else []),
                "--M", str(M), *_mode(exact)]
    return make


def eval_rootzeta(rank, M, draw, variant="plain", first_row=False, d=None, x=None):
    n_vars = rank if first_row else rank * (rank + 1) // 2

    def make(rng):
        vals = ",".join(draw(rng) for _ in range(n_vars))
        argv = ["eval-rootzeta", *(["--first-row", vals] if first_row else ["--rank", str(rank), "--svars", vals]),
                "--variant", variant]
        if d is not None:
            argv += ["--d", str(d)]
        if x is not None:
            argv += ["--x", x]
        return argv + ["--M", str(M)]
    return make


def expand(target, p=None, q=None, shape=None, collected=False, reversed_=False):
    def make(rng):
        argv = ["expand", target]
        if target == "giambelli":
            argv += ["--shape", _csv(shape)]
        else:
            argv += ["--p", str(p), "--q", str(q)]
        return argv + (["--collected"] if collected else []) + (["--reversed"] if reversed_ else [])
    return make


# --------------------------------------------------------------------------
# decks
# --------------------------------------------------------------------------

# floating mode, real and some complex exponents: the numpy row window and the
# float EZ prefix sums carry the work; no Fraction and no enumeration runs
FLOAT_EVAL = [
    *(eval_schur((2, 2), M, _real) for M in (500, 600, 700, 800, 900)),
    eval_schur((2, 2), 400, _cplx),
    *(eval_schur((3, 2, 1), M, _real) for M in (400, 500, 600, 700)),
    eval_schur((3, 2, 1), 300, _cplx),
    eval_schur((3, 2), 600, _real),
    eval_schur((3, 3), 50, _real),
    eval_schur((3, 3), 60, _real),
    eval_schur((2, 1), 2000, _real),
    eval_schur((4, 1, 1), 2000, _real),
    eval_schur((3,), 2000, _cplx),
    eval_antihook_skew(1, 1, 1000, _real),
    eval_antihook_skew(2, 1, 900, _real),
    eval_antihook_skew(1, 2, 1000, _real),
    eval_antihook_skew(2, 2, 800, _real),
    verify_shape("thm41", (2, 2), 500, _real),
    verify_shape("thm41", (3, 2, 1), 300, _real),
    verify_shape("thm42", (2, 2), 600, _real),
    verify_shape("thm42", (3, 2, 1), 400, _cplx),
    verify_hook("hook1", 2, 1, 2000, _real),
    verify_hook("hook2", 1, 2, 2000, _real),
    verify_hook("hook1", 3, 2, 1500, _cplx),
    verify_antihook(1, 1, 1000, _real),
    verify_antihook(2, 2, 800, _real),
    eval_mzv(1, 1_000_000, _real),
    eval_mzv(2, 500_000, _real),
    eval_mzv(2, 1_000_000, _real, star=True),
    eval_mzv(3, 1_000_000, _real),
    eval_mzv(2, 200_000, _cplx),
    eval_rootzeta(1, 200, _real),
    eval_rootzeta(2, 30, _real),
    eval_rootzeta(2, 30, _real, variant="bullet", first_row=True, d=1),
    eval_rootzeta(2, 25, _real, variant="H", x="0.5"),
    eval_rootzeta(2, 30, _real, variant="bulletH", first_row=True, d=1, x="0.5"),
]

# exact mode, random integer contents at small M: SSYT enumeration, the
# Fraction EZ recurrence and the formal algebra carry the work; no row window
EXACT_VERIFY = [
    verify_hook("hook1", 1, 1, 24, _int, exact=True),
    verify_hook("hook1", 2, 1, 16, _int, exact=True),
    verify_hook("hook2", 1, 2, 18, _int, exact=True),
    verify_hook("hook2", 2, 2, 10, _int, exact=True),
    verify_shape("giambelli", (2, 2), 16, _int, exact=True),
    verify_shape("giambelli", (2, 2), 20, _int, exact=True),
    verify_shape("giambelli", (3, 2, 1), 8, _int, exact=True),
    verify_shape("thm41", (2, 2), 18, _int, exact=True),
    verify_shape("thm41", (3, 2, 1), 9, _int, exact=True),
    verify_shape("thm41-reversed", (2, 2), 16, _int, exact=True),
    verify_shape("thm41-reversed", (3, 2, 1), 8, _int, exact=True),
    verify_shape("thm42", (2, 2), 18, _int, exact=True),
    verify_shape("thm42", (3, 2, 1), 8, _int, exact=True),
    verify_antihook(1, 1, 24, _int, exact=True),
    verify_antihook(2, 1, 16, _int, exact=True),
    verify_antihook(2, 2, 12, _int, exact=True),
    eval_schur((2, 2), 20, _int, exact=True),
    eval_schur((3, 2, 1), 9, _int, exact=True),
    eval_schur((3, 1), 20, _int, exact=True),
    eval_antihook_skew(1, 1, 24, _int, exact=True),
    eval_antihook_skew(2, 1, 14, _int, exact=True),
    eval_mzv(1, 2000, _int, exact=True),
    eval_mzv(2, 400, _int, exact=True),
    eval_mzv(2, 300, _int, star=True, exact=True),
    eval_mzv(3, 200, _int, exact=True),
    expand("hook1", p=1, q=2),
    expand("hook2", p=3, q=2),
    expand("hook1", p=4, q=4),
    expand("giambelli", shape=(2, 2)),
    expand("giambelli", shape=(3, 2, 1), collected=True, reversed_=True),
    expand("giambelli", shape=(3, 3, 3), collected=True),
    expand("giambelli", shape=(4, 4, 4, 4)),
    expand("giambelli", shape=(4, 3, 2, 2), reversed_=True),
    expand("giambelli", shape=(5, 5, 5, 5, 5), collected=True),
]

# the README's default-mode commands with integer exponents and no --exact;
# several of these run in Fraction today although floating mode was asked for
INT_FLOATING = [
    eval_rootzeta(1, 200, _int),
    eval_rootzeta(2, 20, _int),
    eval_rootzeta(2, 30, _int),
    eval_rootzeta(2, 40, _int),
    eval_rootzeta(3, 6, _int),
    eval_rootzeta(3, 8, _int),
    eval_rootzeta(2, 30, _int, variant="bullet", d=1),
    eval_rootzeta(2, 30, _int, variant="bullet", first_row=True, d=1),
    eval_rootzeta(3, 8, _int, variant="bullet", first_row=True, d=1),
    eval_rootzeta(2, 25, _int, variant="H", x="1"),
    eval_rootzeta(2, 30, _int, variant="H", first_row=True, x="1"),
    eval_rootzeta(2, 30, _int, variant="bulletH", first_row=True, d=2, x="1"),
    eval_rootzeta(3, 8, _int, variant="bulletH", first_row=True, d=1, x="1"),
    verify_shape("thm42", (2, 2), 100, _int),
    verify_shape("thm42", (2, 2), 200, _int),
    verify_shape("thm42", (3, 2, 1), 150, _int),
    verify_shape("thm42", (3, 2, 1), 250, _int),
    verify_shape("giambelli", (2, 2), 20, _int),
    verify_shape("giambelli", (2, 2), 30, _int),
    verify_shape("giambelli", (3, 2, 1), 8, _int),
    verify_shape("giambelli", (3, 2, 1), 10, _int),
    eval_schur((2, 2), 600, _int),
    eval_schur((3, 2, 1), 500, _int),
    verify_hook("hook1", 1, 1, 2000, _int),
    verify_hook("hook1", 2, 2, 1500, _int),
]

DECKS = {"float_eval": FLOAT_EVAL, "exact_verify": EXACT_VERIFY, "int_floating": INT_FLOATING}


def decks(workload: str, seed: int):
    """Yield decks (lists of argv lists) forever; the same seed gives the same decks."""
    templates = DECKS[workload]
    rng = random.Random(f"{workload}:{seed}")
    while True:
        deck = [make(rng) for make in templates]
        rng.shuffle(deck)
        yield deck


def first_decks(workload: str, seed: int, n: int) -> list[list[list[str]]]:
    stream = decks(workload, seed)
    return [next(stream) for _ in range(n)]
