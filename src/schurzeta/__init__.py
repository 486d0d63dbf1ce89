"""Schur multiple zeta-functions: combinatorics, series evaluators, and
formal identity expansion / verification."""

from .expressions import (
    FormalExpr,
    FormalTerm,
    HookEntry,
    ZetaSymbol,
    expand_antihook,
    expand_giambelli,
    expand_giambelli_terms,
    expand_hook,
    giambelli_det_expr,
    normalize,
    truncated_value,
)
from .mzv import (
    ContentAssignment,
    ConvergenceError,
    EvalResult,
    TruncationConfig,
    check_ez_domain,
    eval_ez,
    eval_ez_truncated,
)
from .partitions import FrobeniusForm, Partition, SkewShape
from .rootzeta import (
    RootZetaArgs,
    canonical_pairs,
    chain_determinant,
    check_root_domain,
    eval_root_zeta,
)
from .schur import (
    VariableTableau,
    antihook_tableau,
    check_W_lambda,
    eval_schur,
    eval_schur_truncated,
)

__version__ = "0.1.0"

__all__ = [
    "ContentAssignment",
    "ConvergenceError",
    "EvalResult",
    "FormalExpr",
    "FormalTerm",
    "FrobeniusForm",
    "HookEntry",
    "Partition",
    "RootZetaArgs",
    "SkewShape",
    "TruncationConfig",
    "VariableTableau",
    "ZetaSymbol",
    "antihook_tableau",
    "canonical_pairs",
    "chain_determinant",
    "check_W_lambda",
    "check_ez_domain",
    "check_root_domain",
    "eval_ez",
    "eval_ez_truncated",
    "eval_root_zeta",
    "eval_schur",
    "eval_schur_truncated",
    "expand_antihook",
    "expand_giambelli",
    "expand_giambelli_terms",
    "expand_hook",
    "giambelli_det_expr",
    "normalize",
    "truncated_value",
]
