"""Holding-time asymptotics for continuous-time Markov chains.

The library analyzes finite-state chains with a distinguished origin state 0
and a waiting threshold theta: the quantity of interest is the first time tau
at which the chain sits still at the origin for theta units of time.  It
provides exact decay parameters, geometric-decay constants, a delay-equation
survival solver, conditioned-chain (h-transform) constructions, Monte Carlo
estimators, and closed-form results for coin-run and Poisson special cases.
"""

from .chain import (
    AugmentedState,
    ChainSpec,
    ValidationReport,
    build_birth_death,
    emit_spec,
    parse_spec,
    validate,
)
from .errors import (
    InfeasibleError,
    IterationError,
    NumericError,
    ParseError,
    PreconditionError,
    SingularMatrixError,
    SpecError,
    SpecValidationError,
    StructureError,
    ZeroholdError,
)
from .spectral import KilledGenerator, expm_action, killed_generator, perron_decay, solve_linear
from .hitting import (
    HittingAnalysis,
    MgfValue,
    analyze_hitting,
    bd_gamma,
    harmonic_vector_bd,
    hitting_mgf,
    never_hit_prob,
)
from .asymptotics import (
    LimitVector,
    PhiSolution,
    limit_vector_recurrent,
    limit_vector_transient,
    return_mgf,
    solve_phi,
)
from .renewal import SurvivalCurve, curve_to_csv, g_density, lift_survival, solve_renewal
from .conditioned import (
    ConditionedChain,
    conditioned_to_json,
    make_hlambda,
    make_limit_chain,
    make_subexp_weak,
    make_vague_limit,
)
from .montecarlo import (
    DivergenceReport,
    Estimate,
    HarmonicProfile,
    RatioEstimate,
    SamplePath,
    SubexpDiagnostic,
    conditioned_vs_rejection,
    estimate_kill_hazard,
    estimate_survival,
    estimate_tail_ratio,
    rejection_window_stats,
    sample_hitting_times,
    simulate_path,
    subexp_diagnostic,
    verify_harmonic,
)
from .coinruns import (
    CoinResult,
    PoissonResult,
    coin_constant,
    coin_exact,
    coin_result,
    coin_root,
    poisson_phi,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedState",
    "ChainSpec",
    "CoinResult",
    "ConditionedChain",
    "DivergenceReport",
    "Estimate",
    "HarmonicProfile",
    "HittingAnalysis",
    "InfeasibleError",
    "IterationError",
    "KilledGenerator",
    "LimitVector",
    "MgfValue",
    "NumericError",
    "ParseError",
    "PhiSolution",
    "PoissonResult",
    "PreconditionError",
    "RatioEstimate",
    "SamplePath",
    "SingularMatrixError",
    "SpecError",
    "SpecValidationError",
    "StructureError",
    "SubexpDiagnostic",
    "SurvivalCurve",
    "ValidationReport",
    "ZeroholdError",
    "analyze_hitting",
    "bd_gamma",
    "build_birth_death",
    "coin_constant",
    "coin_exact",
    "coin_result",
    "coin_root",
    "conditioned_to_json",
    "conditioned_vs_rejection",
    "curve_to_csv",
    "emit_spec",
    "estimate_kill_hazard",
    "estimate_survival",
    "estimate_tail_ratio",
    "expm_action",
    "g_density",
    "harmonic_vector_bd",
    "hitting_mgf",
    "killed_generator",
    "lift_survival",
    "limit_vector_recurrent",
    "limit_vector_transient",
    "make_hlambda",
    "make_limit_chain",
    "make_subexp_weak",
    "make_vague_limit",
    "never_hit_prob",
    "parse_spec",
    "perron_decay",
    "poisson_phi",
    "rejection_window_stats",
    "return_mgf",
    "sample_hitting_times",
    "simulate_path",
    "solve_linear",
    "solve_phi",
    "solve_renewal",
    "subexp_diagnostic",
    "validate",
    "verify_harmonic",
]
