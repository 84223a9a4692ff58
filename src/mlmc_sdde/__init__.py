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

# Each submodule's ``__all__`` is the one list of its public names; the
# package republishes them.
from . import analysis, coupling, mlmc, model, rng, scheme
from .analysis import *  # noqa: F401,F403
from .coupling import *  # noqa: F401,F403
from .mlmc import *  # noqa: F401,F403
from .model import *  # noqa: F401,F403
from .rng import *  # noqa: F401,F403
from .scheme import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [name for module in (model, rng, scheme, coupling, mlmc, analysis)
           for name in module.__all__] + ["__version__"]
