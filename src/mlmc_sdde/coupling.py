"""Coupled fine/coarse path pairs driven by one increment stream.

A pair at fine level ``l`` runs the theta scheme twice over the same
Brownian path: once with step ``h_l = T M^-l`` and once with step
``h_{l-1} = M h_l``.  Fine step ``j`` consumes the stream's draw
``xi(j)``, and coarse step ``n`` the sum of the draws of its ``M`` fine
steps, added left to right,

    dW_coarse(n) = sqrt(h_l) * (xi(nM) + xi(nM + 1) + ... + xi(nM + M - 1)),

so both paths see the same underlying Brownian motion and their payoff
difference telescopes across levels.  The members run one after the other
through the scheme's single step loop: the fine member reads the stream a
block at a time, bit for bit the single-level path of level ``l``, and
adds each draw into its coarse step's sum, on which the coarse member runs.
Delay alignment requires the fine delay offset ``m_l`` to be divisible by
``M``; with ``tau = 0.25`` and ``T = 1`` at ``M = 2`` that means fine
levels of at least 3.

For one-sided Lipschitz drifts each member uses the tamed drift of its
own level: the fine path tames with step ``h_{l-1}`` and the coarse path
with ``h_{l-2}``, which is why tamed pairs need ``l >= 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import Payoff, SddeProblem
from .rng import NoiseStream
from .scheme import (
    DelayBuffer,
    GridSpec,
    _integrate,
    _stream_increments,
    _stream_paths,
    check_admissibility,
    taming_for_level,
)

__all__ = ["LevelPair", "CoupledPair", "simulate_coupled", "coupled_payoff_delta"]


@dataclass(frozen=True)
class LevelPair:
    """Grid pair for one multilevel difference at fine level ``level``.

    ``grid_fine`` has step ``h_level = T M^-level`` and ``grid_coarse``
    has step ``M`` times larger.  ``delta`` switches on drift taming with
    the given exponent; ``None`` runs the plain drift.
    """

    M: int
    level: int
    theta: float
    grid_fine: GridSpec
    grid_coarse: GridSpec
    delta: float | None = None

    @classmethod
    def for_problem(
        cls,
        problem: SddeProblem,
        level: int,
        M: int = 2,
        theta: float = 0.0,
        delta: float | None = None,
    ) -> "LevelPair":
        if M < 2:
            raise ValueError(f"M must be >= 2, got {M}")
        if level < 1:
            raise ValueError(f"a pair needs level >= 1, got {level}")
        if delta is not None and level < 2:
            raise ValueError(
                "a tamed pair needs level >= 2: the coarse member tames "
                f"with the step of level {level - 2}"
            )
        grid_fine = GridSpec.for_problem(problem, theta=theta, level=level,
                                         M=M)
        grid_coarse = GridSpec.for_problem(problem, theta=theta,
                                           level=level - 1, M=M)
        if grid_fine.steps_per_delay_m % M != 0:
            raise ValueError(
                f"delay offset m = {grid_fine.steps_per_delay_m} at level "
                f"{level} is not divisible by M = {M}; the coarse grid "
                "cannot align with the delay"
            )
        return cls(M=M, level=level, theta=theta, grid_fine=grid_fine,
                   grid_coarse=grid_coarse, delta=delta)

    @property
    def h_fine(self) -> float:
        return self.grid_fine.step_h

    @property
    def h_coarse(self) -> float:
        return self.grid_coarse.step_h

    @property
    def n_coarse(self) -> int:
        return self.grid_coarse.total_steps_N

    @property
    def cost_per_path(self) -> int:
        """Fine plus coarse step count, the standard pair cost unit."""
        return self.grid_fine.total_steps_N + self.grid_coarse.total_steps_N

    def noise_stream(self, master_seed: int, path_index,
                     dim: int) -> NoiseStream:
        """Stream of this pair: one draw per fine step."""
        return NoiseStream(
            master_seed=master_seed,
            level=self.level,
            path_index=path_index,
            dim=dim,
            n_steps=self.grid_fine.total_steps_N,
        )


@dataclass
class CoupledPair:
    """Simulated pair: full fine path, coarse path, and their alignment."""

    pair: LevelPair
    fine: DelayBuffer
    coarse: DelayBuffer

    @property
    def fine_on_coarse_grid(self) -> np.ndarray:
        """Fine-path states at the coarse nodes, shape like ``coarse``."""
        return _grid_states(self.fine)[:: self.pair.M]

    @property
    def coarse_on_grid(self) -> np.ndarray:
        return _grid_states(self.coarse)

    def state_difference(self) -> np.ndarray:
        """Fine minus coarse at every coarse node, shape (N_c + 1, ..., a)."""
        return self.fine_on_coarse_grid - self.coarse_on_grid


def _grid_states(buf: DelayBuffer) -> np.ndarray:
    """States at grid indices ``0 .. N`` of a full-path member."""
    if buf.values.shape[0] != buf.m + buf.total_steps + 1:
        raise ValueError("pair holds only the delay window (full_path=False)")
    return buf.values[buf.m:]


def simulate_coupled(
    problem: SddeProblem,
    pair: LevelPair,
    noise: NoiseStream,
    *,
    full_path: bool = True,
) -> CoupledPair:
    """Run both members of ``pair`` on one shared increment stream.

    ``noise`` must cover the fine grid (see :meth:`LevelPair.noise_stream`).
    The fine member consumes draw ``j`` at fine step ``j``; the coarse
    member consumes the elementwise sum of draws ``n M .. n M + M - 1``,
    added left to right, at coarse step ``n``, scaled by the same
    ``sqrt(h_fine)``.  The members run one after the other through the
    scheme's single step loop, so the fine path produced here is bit for
    bit the path :func:`mlmc_sdde.scheme.theta_em_path` yields for the
    same stream on the fine grid.  ``full_path=False`` keeps only the
    delay window of each member (see :func:`mlmc_sdde.scheme.theta_em_path`),
    enough for the terminal states; the whole-path views of the pair then
    raise ``ValueError``.  When the problem's eps is 0 no draw is made.
    """
    gf, gc = pair.grid_fine, pair.grid_coarse
    tame_f = taming_for_level(problem, pair.level, pair.M, pair.delta)
    tame_c = taming_for_level(problem, pair.level - 1, pair.M, pair.delta)
    gf.validate_against(problem)
    gc.validate_against(problem)
    check_admissibility(problem, gf, tame_f)
    check_admissibility(problem, gc, tame_c)
    n_f = gf.total_steps_N
    n_paths = _stream_paths(noise, problem, n_f)

    sqh = math.sqrt(gf.step_h)
    # The coarse draws, summed as the fine member reads its own (none at
    # eps = 0); map, unlike a generator expression, keeps no block alive.
    sums = np.empty((gc.total_steps_N, noise.n_paths, problem.dim_noise))
    fine = _integrate(problem, gf, tame_f, n_paths,
                      map(lambda xi: sqh * xi, _stream_increments(
                          noise, n_f, 1.0, [(pair.M, sums)])),
                      "fine member, ", full_path=full_path)
    coarse = _integrate(problem, gc, tame_c, n_paths,
                        (sqh * xi for xi in sums), "coarse member, ",
                        full_path=full_path)
    return CoupledPair(pair=pair, fine=fine, coarse=coarse)


def coupled_payoff_delta(
    coupled: CoupledPair, payoff: Payoff
) -> tuple[np.ndarray, np.ndarray]:
    """Terminal payoff difference and fine payoff for a simulated pair.

    Returns ``(psi_fine - psi_coarse, psi_fine)`` evaluated at the
    terminal states, each shaped like the path batch.
    """
    psi_fine = np.asarray(payoff.eval(coupled.fine.terminal), dtype=float)
    psi_coarse = np.asarray(payoff.eval(coupled.coarse.terminal), dtype=float)
    return psi_fine - psi_coarse, psi_fine
