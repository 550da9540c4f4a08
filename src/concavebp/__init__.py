"""Bin packing with concave, cardinality-dependent bin costs.

A bin holding q items costs f(q) for a non-decreasing concave f with
f(0) = 0.  The package bundles cost-oblivious heuristics, an optimal
fractional packer, an exact oracle for small instances, and an asymptotic
approximation scheme, plus a verifier and a benchmark CLI.
"""
from .afptas import AfptasResult, Provenance, run_afptas
from .core import (
    CostFunction,
    FractionalPacking,
    Instance,
    Packing,
    Verdict,
    Violation,
    embed_fractional,
    eval_cost,
    eval_fractional_cost,
    eval_fractional_f,
    make_cost_function,
    make_fq,
    verify_packing,
)
from .errors import (
    InfeasibleMasterError,
    InvariantError,
    NumericalFailureError,
    SolverLimitError,
)
from .exact import exact_opt, exact_opt_fk_all
from .fractional import fnfi, fnfi_with_split_repair
from .heuristics import (
    OverflowedPartition,
    best_fit,
    first_fit,
    lower_bound_fk,
    match_half,
    next_fit,
    nfd,
    nfi,
    overflowed_packing,
    pi_sequence,
    weight,
)
from .pricing import KccInstance, KccItemType, kcc_fptas, price_all
from .structures import (
    Configuration,
    GeneralizedConfiguration,
    GroupingResult,
    SmallSplit,
    Staircase,
    Window,
    build_staircase,
    build_windows,
    linear_grouping,
    main_window,
    split_small,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
