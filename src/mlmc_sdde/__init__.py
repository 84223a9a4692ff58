"""Theta Euler-Maruyama stepping and coupled multilevel Monte Carlo for
stochastic delay differential equations with a small-noise parameter.

Submodules
----------
model     problem and payoff definitions, builtin examples
rng       counter-based Gaussian noise with coordinate addressing
scheme    grids, implicit stepping, drift taming, single-level paths
coupling  fine/coarse path pairs sharing one Brownian increment stream
mlmc      level statistics, shard merging, the multilevel estimator
analysis  empirical convergence-rate experiments
cli       command-line entry point writing CSV tables
"""

from .analysis import (
    EnvelopeFit,
    RateFit,
    coupled_moment_rates,
    coupled_variance_rates,
    deterministic_skeleton,
    envelope_fit,
    small_noise_deviation,
    strong_error_rate,
)
from .coupling import (
    CoupledPair,
    LevelPair,
    coupled_payoff_delta,
    simulate_coupled,
)
from .mlmc import (
    LevelStats,
    MlmcEstimate,
    estimate_level,
    mlmc_estimate,
    single_level_estimate,
)
from .model import (
    BUILTIN_PAYOFFS,
    BUILTIN_PROBLEMS,
    GlobalLipschitz,
    OneSidedLipschitz,
    Payoff,
    SddeProblem,
    builtin_payoff,
    builtin_problem,
    derived_constants,
)
from .rng import NoiseStream
from .scheme import (
    AdmissibilityError,
    DelayBuffer,
    GridSpec,
    NonConvergence,
    TamedDrift,
    check_admissibility,
    implicit_step_solve,
    tame_drift,
    taming_for_level,
    theta_em_path,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_PAYOFFS",
    "BUILTIN_PROBLEMS",
    "GlobalLipschitz",
    "OneSidedLipschitz",
    "Payoff",
    "SddeProblem",
    "builtin_payoff",
    "builtin_problem",
    "derived_constants",
    "NoiseStream",
    "AdmissibilityError",
    "DelayBuffer",
    "GridSpec",
    "NonConvergence",
    "TamedDrift",
    "check_admissibility",
    "implicit_step_solve",
    "tame_drift",
    "taming_for_level",
    "theta_em_path",
    "CoupledPair",
    "LevelPair",
    "coupled_payoff_delta",
    "simulate_coupled",
    "LevelStats",
    "MlmcEstimate",
    "estimate_level",
    "mlmc_estimate",
    "single_level_estimate",
    "EnvelopeFit",
    "RateFit",
    "coupled_moment_rates",
    "coupled_variance_rates",
    "deterministic_skeleton",
    "envelope_fit",
    "small_noise_deviation",
    "strong_error_rate",
    "__version__",
]
