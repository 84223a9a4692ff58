"""Coupled fine/coarse path pairs driven by one increment stream.

A pair at fine level ``l`` runs the theta scheme twice over the same
Brownian path: once with step ``h_l = T M^-l`` and once with step
``h_{l-1} = M h_l``.  Fine step ``j`` consumes the stream's draw
``xi(j)``, and coarse step ``n`` the sum of the draws of its ``M`` fine
steps, added left to right,

    dW_coarse(n) = sqrt(h_l) * (xi(nM) + xi(nM + 1) + ... + xi(nM + M - 1)),

so both paths see the same underlying Brownian motion and their payoff
difference telescopes across levels.  The members step in lockstep on
the scheme's one driver, the one that also runs a single-level path: the
fine member takes each draw as the stream is read a block at a time, bit
for bit the single-level path of level ``l``, and the coarse member takes
each sum as soon as its ``M`` draws have been read.  No array of sums is
stored, so a pair holds its two delay windows and one draw block, however
many steps it runs.
Delay alignment requires the fine delay offset ``m_l`` to be divisible by
``M``; with ``tau = 0.25`` and ``T = 1`` at ``M = 2`` that means fine
levels of at least 3.

For one-sided Lipschitz drifts each member uses the tamed drift of its
own level: the fine path tames with step ``h_{l-1}`` and the coarse path
with ``h_{l-2}``, which is why tamed pairs need ``l >= 2``.

A :class:`LevelPair` is the plan of every level run of the package: the
base level of a telescoping estimate is a plan without a coarse member,
whose fine member runs alone, as the plain theta-EM path of its level.
The plan holds the problem it was built for, so its stream, its run and
its payoffs take only the noise, the seed and the paths, and it lists
its members, each a grid with the taming of its level, in one place.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Payoff, SddeProblem
from .rng import NoiseStream
from .scheme import (
    DelayBuffer,
    GridSpec,
    TamedDrift,
    _lockstep,
    taming_for_level,
    theta_em_path,
)

__all__ = ["LevelPair", "CoupledPair", "simulate_coupled", "coupled_payoff_delta"]


@dataclass(frozen=True)
class LevelPair:
    """Plan of one level run of ``problem`` at level ``level``: a coupled
    pair, or the base level of a telescoping estimate.

    ``grid_fine`` is the grid of ``level``.  On a pair ``grid_coarse`` is
    that of ``level - 1``, with a step ``M`` times larger; on a base level
    it is ``None`` and the fine member runs alone.  Every grid carries the
    plan's theta.  ``delta`` switches on drift taming with the given
    exponent; ``None`` runs the plain drift.
    """

    problem: SddeProblem
    M: int
    level: int
    grid_fine: GridSpec
    grid_coarse: GridSpec | None
    delta: float | None = None

    @classmethod
    def for_problem(
        cls,
        problem: SddeProblem,
        level: int,
        M: int = 2,
        theta: float = 0.0,
        delta: float | None = None,
        *,
        coupled: bool = True,
    ) -> "LevelPair":
        """The plan of ``level``: a pair, or with ``coupled=False`` a base
        level, which skips the checks that only a coarse member needs."""
        if coupled and level < 1:
            raise ValueError(f"a pair needs level >= 1, got {level}")
        if coupled and delta is not None and level < 2:
            raise ValueError(
                "a tamed pair needs level >= 2: the coarse member tames "
                f"with the step of level {level - 2}"
            )
        grid_fine = GridSpec.for_problem(problem, theta=theta, level=level,
                                         M=M)
        if not coupled:
            return cls(problem=problem, M=M, level=level,
                       grid_fine=grid_fine, grid_coarse=None, delta=delta)
        if grid_fine.steps_per_delay_m % M != 0:
            raise ValueError(
                f"delay offset m = {grid_fine.steps_per_delay_m} at level "
                f"{level} is not divisible by M = {M}; the coarse grid "
                "cannot align with the delay"
            )
        grid_coarse = GridSpec.for_problem(problem, theta=theta,
                                           level=level - 1, M=M)
        return cls(problem=problem, M=M, level=level, grid_fine=grid_fine,
                   grid_coarse=grid_coarse, delta=delta)

    @property
    def cost_per_path(self) -> int:
        """Step count of the members, fine plus coarse on a pair: the
        standard cost unit."""
        return sum(grid.total_steps_N for grid, _, _ in self.members)

    @property
    def members(self) -> list[tuple[GridSpec, TamedDrift | None, str]]:
        """``(grid, taming, where)`` of each member, finest first: its grid,
        the taming of that grid's level, and the prefix of its stalled
        solves.  A base level has the fine member alone, unprefixed."""
        grids = [(self.grid_fine, self.level, "fine member, "),
                 (self.grid_coarse, self.level - 1, "coarse member, ")]
        if self.grid_coarse is None:
            grids = [(self.grid_fine, self.level, "")]
        return [(grid, taming_for_level(self.problem, level, self.M,
                                        self.delta), where)
                for grid, level, where in grids]

    def noise_stream(self, master_seed: int, path_index) -> NoiseStream:
        """Stream of this plan: one draw of the problem's noise dimension
        per fine step."""
        return NoiseStream(
            master_seed=master_seed,
            level=self.level,
            path_index=path_index,
            dim=self.problem.dim_noise,
            n_steps=self.grid_fine.total_steps_N,
        )

    def run(self, noise, *,
            full_path: bool = False) -> DelayBuffer | CoupledPair:
        """The paths of this plan on ``noise``.

        A base level returns the :func:`~mlmc_sdde.scheme.theta_em_path`
        of its grid, tamed by the level's rule, on any of the noise forms
        the scheme's driver reads (a stream, the increments themselves,
        or ``None`` for the drift-only skeleton; see
        :func:`~mlmc_sdde.scheme.theta_em_path`); a pair returns its
        :func:`simulate_coupled` members on a stream.  ``full_path`` is
        theirs.
        """
        if self.grid_coarse is None:
            (grid, taming, _), = self.members
            return theta_em_path(self.problem, grid, noise, taming,
                                 full_path=full_path)
        return simulate_coupled(self, noise, full_path=full_path)

    def payoffs(self, psi: Payoff, seed: int, a: int,
                b: int) -> tuple[np.ndarray, np.ndarray]:
        """``(deltas, fines)`` of ``psi`` at the terminal states of the
        paths ``[a, b)`` on the substreams ``(seed, level, path)``: the
        payoff twice on a base level, whose delta is the payoff itself,
        and :func:`coupled_payoff_delta` on a pair."""
        out = self.run(self.noise_stream(seed, np.arange(a, b)))
        if self.grid_coarse is None:
            values = psi.eval(out.terminal)
            return values, values
        return coupled_payoff_delta(out, psi)


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
    pair: LevelPair,
    noise: NoiseStream,
    *,
    full_path: bool = True,
) -> CoupledPair:
    """Run both members of ``pair`` on one shared increment stream, on
    the problem of the pair.

    ``pair`` must have a coarse member, else ``ValueError``, and ``noise``
    must be a :class:`~mlmc_sdde.rng.NoiseStream`, else ``TypeError``;
    both are checked before any draw.  The stream is read, checked and
    scaled as the scheme's driver reads every stream (see
    :func:`mlmc_sdde.scheme.theta_em_path`): it must cover the fine grid
    (see :meth:`LevelPair.noise_stream`), each draw is scaled by
    ``sqrt(h_fine)``, and at eps = 0 nothing is drawn.  The fine member
    consumes draw ``j`` at fine step ``j``; the coarse member consumes the
    elementwise sum of draws ``n M .. n M + M - 1``, added left to right,
    at coarse step ``n``.  The :attr:`LevelPair.members` step in lockstep
    on that driver, the coarse member as soon as its sum is complete, so
    the fine path produced here is bit for bit the path
    :func:`~mlmc_sdde.scheme.theta_em_path` yields for the same stream on
    the fine grid.  ``full_path=False`` keeps only the delay window of
    each member, enough for the terminal states; the whole-path views of
    the pair then raise ``ValueError``.  Both members' grids and
    admissibility are checked before any draw, so a member that fails
    them is refused before either has run a step.
    """
    if pair.grid_coarse is None:
        raise ValueError(f"level {pair.level} plan has no coarse member")
    if not isinstance(noise, NoiseStream):
        raise TypeError(f"expected a NoiseStream, got {type(noise).__name__}")
    fine, coarse = _lockstep(pair.problem, pair.members, noise,
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
