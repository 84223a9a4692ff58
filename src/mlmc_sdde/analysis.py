"""Rate measurement: skeletons, log-log fits, and sweep experiments.

This module turns the scheme's convergence behaviour into measurable
slopes.  Each experiment runs a sweep of simulation "cells" (one grid
level or one noise scale per cell), records a tidy table of statistics,
and fits ordinary least squares lines through the log-log points.

Seeding convention: every cell draws from its own substream family.  The
master seed of a cell is ``seed + 1_000_003 * lane + index`` where the
lane separates roles (0 level-sweep pairs, 1 noise-sweep pairs, 2
independent fine runs, 3 independent coarse runs, 4 deviation cells) and
the index enumerates cells within a lane.  Together with the per-level
stream keying this makes all cells pairwise disjoint, so results are
independent of evaluation order and of worker count.

A cell whose paths blow up (non-finite values) raises ``ValueError``
naming the experiment, the level, the noise scale and the path range,
the way a chunk of :mod:`mlmc` does.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coupling import LevelPair, _block_sums, simulate_coupled
from .mlmc import _chunk_ranges, _refuse_blown_up
from .model import Payoff, SddeProblem
from .rng import NoiseStream
from .scheme import (
    DelayBuffer,
    GridSpec,
    TamedDrift,
    taming_for_level,
    theta_em_path,
)

__all__ = [
    "RateFit",
    "EnvelopeFit",
    "envelope_fit",
    "deterministic_skeleton",
    "DeviationResult",
    "small_noise_deviation",
    "MomentRates",
    "coupled_moment_rates",
    "VarianceRates",
    "coupled_variance_rates",
    "StrongErrorResult",
    "strong_error_rate",
]

_LANE_STRIDE = 1_000_003


def _cell_seed(seed: int, lane: int, index: int = 0) -> int:
    return int(seed) + _LANE_STRIDE * lane + index


def _cell_name(experiment: str, level: int, eps: float, a: int,
               b: int) -> str:
    return f"{experiment} level {level} (eps {eps:g}), paths [{a}, {b})"


def _run_cells(thunks: Sequence[Callable[[], object]],
               jobs: int | None) -> list:
    """Evaluate independent cell closures, in order, optionally threaded.

    Results always come back in cell order, so threading cannot change
    any downstream number.
    """
    if jobs is None or jobs <= 1 or len(thunks) <= 1:
        return [fn() for fn in thunks]
    with ThreadPoolExecutor(max_workers=min(jobs, len(thunks))) as pool:
        return list(pool.map(lambda fn: fn(), thunks))


@dataclass(frozen=True)
class RateFit:
    """Ordinary least squares line through log-log points.

    ``slope``/``intercept`` satisfy ``log y ~ slope * log x + intercept``;
    ``r_squared`` is the usual coefficient of determination of that line
    (in [0, 1] since the line is fitted to the same points it is scored
    on).  ``points`` retains the fitted (log x, log y) pairs.
    """

    slope: float
    intercept: float
    r_squared: float
    points: tuple[tuple[float, float], ...]

    @classmethod
    def from_data(cls, x: Sequence[float], y: Sequence[float]) -> "RateFit":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise ValueError("x and y must be 1-d arrays of equal length")
        if x.size < 3:
            raise ValueError(
                f"rate regression requires >= 3 points, got {x.size}"
            )
        if np.any(x <= 0.0) or np.any(y <= 0.0):
            raise ValueError("rate regression requires positive x and y")
        lx, ly = np.log(x), np.log(y)
        design = np.column_stack([lx, np.ones_like(lx)])
        (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
        resid = ly - (slope * lx + intercept)
        ss_tot = float(np.sum((ly - ly.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid**2)) / ss_tot
        return cls(
            slope=float(slope),
            intercept=float(intercept),
            r_squared=min(max(r2, 0.0), 1.0),
            points=tuple(zip(lx.tolist(), ly.tolist())),
        )


@dataclass(frozen=True)
class EnvelopeFit:
    """Nonnegative least squares fit of a sum-of-terms dominating bound.

    ``coefficients`` are the NNLS coefficients multiplied by ``scale``,
    the smallest factor that lifts the fitted curve above every data
    point.  ``r_squared`` scores the dominating envelope against the data
    in linear space and may be negative when the envelope's shape does
    not follow the data at all.
    """

    coefficients: tuple[float, ...]
    scale: float
    r_squared: float
    fitted: tuple[float, ...]

    def dominates(self, y: Sequence[float], slack: float = 1e-9) -> bool:
        y = np.asarray(y, dtype=float)
        env = np.asarray(self.fitted)
        return bool(np.all(y <= env * (1.0 + slack) + 1e-300))


def envelope_fit(columns: Sequence[Sequence[float]],
                 y: Sequence[float]) -> EnvelopeFit:
    """Fit ``y ~ sum_j c_j * columns[j]`` with ``c_j >= 0``, then rescale.

    The NNLS solution is multiplied by the smallest positive factor that
    makes the envelope dominate every data point, so ``fitted >= y``
    holds exactly for the returned curve.
    """
    a = np.column_stack([np.asarray(col, dtype=float) for col in columns])
    y = np.asarray(y, dtype=float)
    if a.shape[0] != y.size:
        raise ValueError("columns and y must have matching lengths")
    from scipy.optimize import nnls  # the only user; kept off start-up

    coeff, _ = nnls(a, y)
    base = a @ coeff
    if np.any(base <= 0.0):
        raise ValueError(
            "envelope basis vanished at a data point; the fit cannot "
            "dominate the data"
        )
    scale = float(np.max(y / base))
    env = scale * base
    ss_res = float(np.sum((y - env) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return EnvelopeFit(
        coefficients=tuple((scale * coeff).tolist()),
        scale=scale,
        r_squared=r2,
        fitted=tuple(env.tolist()),
    )


def _record(experiment, level, h, eps, theta, delta, statistic, value,
            samples, seed):
    return {
        "experiment": experiment,
        "level": level,
        "h": h,
        "eps": eps,
        "theta": theta,
        "delta": delta,
        "statistic": statistic,
        "value": value,
        "samples": samples,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Deterministic skeleton
# ---------------------------------------------------------------------------

def deterministic_skeleton(
    problem: SddeProblem,
    grid: GridSpec,
    taming: TamedDrift | None = None,
) -> DelayBuffer:
    """Noise-free theta-EM recursion on ``grid`` (single path).

    Identical to :func:`theta_em_path` with the noise term removed, which
    is also what the scheme produces at ``eps = 0`` on any increment
    stream.
    """
    return theta_em_path(problem, grid, noise=None, taming=taming)


# ---------------------------------------------------------------------------
# Small-noise deviation from the skeleton
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviationResult:
    """Sweep of E[sup_n |X^eps - Z|^2] against the noise scale."""

    fit: RateFit
    eps_values: tuple[float, ...]
    deviation_sq: tuple[float, ...]
    envelope: EnvelopeFit | None
    records: tuple[dict, ...]


def small_noise_deviation(
    problem: SddeProblem,
    level: int,
    theta: float = 0.0,
    delta: float | None = None,
    eps_sweep: Sequence[float] = (),
    n_paths: int = 1000,
    seed: int = 0,
    M: int = 2,
    jobs: int | None = None,
) -> DeviationResult:
    """Mean-square sup-distance between noisy paths and the skeleton.

    Runs one cell per noise scale at a fixed grid level and fits
    ``log E[sup_n |X - Z|^2]`` against ``log eps`` over the positive
    sweep entries (at least three spanning a decade are required).  With
    taming (``delta`` set) the result also carries a fitted dominating
    envelope ``A * (M h)^delta + B * eps^2``, the shape of the tamed
    scheme's deviation bound.
    """
    eps_values = [float(e) for e in eps_sweep]
    if any(e < 0.0 for e in eps_values):
        raise ValueError("noise scales must be >= 0")
    positive = [e for e in eps_values if e > 0.0]
    if len(positive) < 3 or max(positive) / min(positive) < 10.0:
        raise ValueError(
            "eps_sweep needs >= 3 positive values spanning at least one "
            "decade"
        )
    grid = GridSpec.for_problem(problem, theta=theta, level=level, M=M)
    taming = taming_for_level(problem, level, M, delta)
    skeleton = theta_em_path(
        problem.with_noise_scale(0.0), grid, noise=None, taming=taming)
    z = skeleton.values[skeleton.m:]

    def cell(i: int, eps: float) -> float:
        noisy_problem = problem.with_noise_scale(eps)
        stream = NoiseStream(
            master_seed=_cell_seed(seed, 4, i),
            level=level,
            path_index=np.arange(n_paths),
            dim=problem.dim_noise,
            n_steps=grid.total_steps_N,
        )
        path = theta_em_path(noisy_problem, grid, noise=stream, taming=taming)
        diff = path.values[path.m:] - z[:, None, :]
        sup_sq = np.sum(diff * diff, axis=-1).max(axis=0)
        _refuse_blown_up(_cell_name("deviation", level, eps, 0, n_paths),
                         sup_sq)
        return float(sup_sq.mean())

    deviations = _run_cells(
        [lambda i=i, eps=eps: cell(i, eps)
         for i, eps in enumerate(eps_values)],
        jobs,
    )
    records = [
        _record("deviation", level, grid.step_h, eps, theta, delta,
                "deviation_sup_sq", dev, n_paths, seed)
        for eps, dev in zip(eps_values, deviations)
    ]

    fit_pairs = [(e, d) for e, d in zip(eps_values, deviations)
                 if e > 0.0 and d > 0.0]
    if len(fit_pairs) < 3:
        raise ValueError(
            "fewer than 3 cells produced a positive deviation; no rate "
            "to fit"
        )
    fit = RateFit.from_data([p[0] for p in fit_pairs],
                            [p[1] for p in fit_pairs])

    envelope = None
    if delta is not None:
        pos_eps = np.array([p[0] for p in fit_pairs])
        pos_dev = np.array([p[1] for p in fit_pairs])
        floor = np.full_like(pos_eps, (M * grid.step_h) ** delta)
        envelope = envelope_fit([floor, pos_eps**2], pos_dev)

    return DeviationResult(
        fit=fit,
        eps_values=tuple(eps_values),
        deviation_sq=tuple(deviations),
        envelope=envelope,
        records=tuple(records),
    )


# ---------------------------------------------------------------------------
# Coupled pair statistics
# ---------------------------------------------------------------------------

def _pair_sq_moments(problem, level, M, theta, delta, n_paths, master_seed):
    """(sup over coarse nodes, terminal) of E|fine - coarse|^2."""
    pair = LevelPair.for_problem(problem, level, M=M, theta=theta, delta=delta)
    stream = pair.noise_stream(master_seed, np.arange(n_paths),
                               problem.dim_noise)
    coupled = simulate_coupled(problem, pair, stream)
    diff = coupled.state_difference()
    sq = np.sum(diff * diff, axis=-1)
    _refuse_blown_up(_cell_name("rates-moment", level, problem.noise_scale,
                                0, n_paths), sq)
    per_node = sq.mean(axis=-1)
    return float(per_node.max()), float(per_node[-1]), pair


@dataclass(frozen=True)
class MomentRates:
    """Second-moment decay of the coupled difference, two sweeps."""

    h_slope: RateFit
    eps_slope: RateFit
    h_slope_terminal: RateFit
    eps_slope_terminal: RateFit
    h_values: tuple[float, ...]
    h_sup: tuple[float, ...]
    h_terminal: tuple[float, ...]
    eps_values: tuple[float, ...]
    eps_sup: tuple[float, ...]
    eps_terminal: tuple[float, ...]
    records: tuple[dict, ...]


def coupled_moment_rates(
    problem: SddeProblem,
    theta: float = 0.0,
    delta: float | None = None,
    level_sweep: Sequence[int] = (),
    eps_sweep: Sequence[float] = (),
    n_paths: int = 1000,
    seed: int = 0,
    M: int = 2,
    jobs: int | None = None,
) -> MomentRates:
    """Coupled-difference second moments against step size and noise.

    The level sweep runs at the problem's own noise scale; the noise
    sweep runs at the finest level of ``level_sweep``.  Fits use the sup
    over coarse nodes of ``E|fine - coarse|^2`` (terminal-node fits are
    reported alongside).  The step variable of the level fit is the fine
    step ``h_l`` untamed and the coarse step ``h_{l-1}`` tamed, matching
    each regime's bound convention; the slope is unaffected by that
    constant factor.
    """
    levels = sorted(int(lv) for lv in level_sweep)
    if len(levels) < 3:
        raise ValueError("level_sweep needs >= 3 levels")
    eps_values = [float(e) for e in eps_sweep]
    if len(eps_values) < 3:
        raise ValueError("eps_sweep needs >= 3 noise scales")

    top = levels[-1]
    level_cells = [
        lambda lv=lv: _pair_sq_moments(
            problem, lv, M, theta, delta, n_paths, _cell_seed(seed, 0))
        for lv in levels
    ]
    eps_cells = [
        lambda i=i, eps=eps: _pair_sq_moments(
            problem.with_noise_scale(eps), top, M, theta, delta, n_paths,
            _cell_seed(seed, 1, i))
        for i, eps in enumerate(eps_values)
    ]
    results = _run_cells(level_cells + eps_cells, jobs)

    records = []
    h_values, h_sup, h_term = [], [], []
    for lv, (sup, term, pair) in zip(levels, results[: len(levels)]):
        x = pair.h_fine if delta is None else pair.h_coarse
        h_values.append(x)
        h_sup.append(sup)
        h_term.append(term)
        for stat, val in (("coupled_sup_sq_moment", sup),
                          ("coupled_terminal_sq_moment", term)):
            records.append(_record(
                "rates-moment", lv, pair.h_fine, problem.noise_scale,
                theta, delta, stat, val, n_paths, seed,
            ))

    eps_sup, eps_term = [], []
    for eps, (sup, term, pair) in zip(eps_values, results[len(levels):]):
        eps_sup.append(sup)
        eps_term.append(term)
        for stat, val in (("coupled_sup_sq_moment", sup),
                          ("coupled_terminal_sq_moment", term)):
            records.append(_record(
                "rates-moment", top, pair.h_fine, eps, theta, delta,
                stat, val, n_paths, seed,
            ))

    return MomentRates(
        h_slope=RateFit.from_data(h_values, h_sup),
        eps_slope=RateFit.from_data(eps_values, eps_sup),
        h_slope_terminal=RateFit.from_data(h_values, h_term),
        eps_slope_terminal=RateFit.from_data(eps_values, eps_term),
        h_values=tuple(h_values),
        h_sup=tuple(h_sup),
        h_terminal=tuple(h_term),
        eps_values=tuple(eps_values),
        eps_sup=tuple(eps_sup),
        eps_terminal=tuple(eps_term),
        records=tuple(records),
    )


# ---------------------------------------------------------------------------
# Coupled variance vs uncoupled oracle
# ---------------------------------------------------------------------------

def _coupled_payoff_var(problem, psi, level, M, theta, delta, n_paths,
                        master_seed):
    pair = LevelPair.for_problem(problem, level, M=M, theta=theta, delta=delta)
    stream = pair.noise_stream(master_seed, np.arange(n_paths),
                               problem.dim_noise)
    coupled = simulate_coupled(problem, pair, stream, full_path=False)
    pf = psi.eval(coupled.fine.terminal)
    pc = psi.eval(coupled.coarse.terminal)
    _refuse_blown_up(_cell_name("rates-variance", level, problem.noise_scale,
                                0, n_paths), pf, pc)
    return float(np.var(pf - pc, ddof=1)), pair


def _uncoupled_payoff_var(problem, psi, level, M, theta, delta, n_paths,
                          seed_fine, seed_coarse):
    """Variance of the payoff difference across INDEPENDENT runs."""
    out = []
    for lv, cell_seed in ((level, seed_fine), (level - 1, seed_coarse)):
        grid = GridSpec.for_problem(problem, theta=theta, level=lv, M=M)
        taming = taming_for_level(problem, lv, M, delta)
        stream = NoiseStream(
            master_seed=cell_seed,
            level=lv,
            path_index=np.arange(n_paths),
            dim=problem.dim_noise,
            n_steps=grid.total_steps_N,
        )
        path = theta_em_path(problem, grid, noise=stream, taming=taming,
                             full_path=False)
        out.append(psi.eval(path.terminal))
        _refuse_blown_up(_cell_name("rates-variance uncoupled", lv,
                                    problem.noise_scale, 0, n_paths), out[-1])
    return float(np.var(out[0] - out[1], ddof=1))


@dataclass(frozen=True)
class VarianceRates:
    """Variance decay of the coupled payoff difference, two sweeps.

    ``h_uncoupled``/``eps_uncoupled`` hold the same statistic from
    independent (uncoupled) fine/coarse runs, the baseline the coupling
    is supposed to beat pointwise.
    """

    h_slope: RateFit
    eps_slope: RateFit
    h_values: tuple[float, ...]
    h_coupled: tuple[float, ...]
    h_uncoupled: tuple[float, ...]
    eps_values: tuple[float, ...]
    eps_coupled: tuple[float, ...]
    eps_uncoupled: tuple[float, ...]
    records: tuple[dict, ...]


def coupled_variance_rates(
    problem: SddeProblem,
    psi: Payoff,
    theta: float = 0.0,
    delta: float | None = None,
    level_sweep: Sequence[int] = (),
    eps_sweep: Sequence[float] = (),
    n_paths: int = 1000,
    seed: int = 0,
    M: int = 2,
    jobs: int | None = None,
) -> VarianceRates:
    """Var(psi(fine(T)) - psi(coarse(T))) against step size and noise.

    Sweeps mirror :func:`coupled_moment_rates`.  Each cell also runs an
    uncoupled oracle (independent fine and coarse paths, fresh
    substreams) whose difference variance does not benefit from shared
    noise; the coupled value should sit below it everywhere.
    """
    levels = sorted(int(lv) for lv in level_sweep)
    if len(levels) < 3:
        raise ValueError("level_sweep needs >= 3 levels")
    eps_values = [float(e) for e in eps_sweep]
    if len(eps_values) < 3:
        raise ValueError("eps_sweep needs >= 3 noise scales")

    top = levels[-1]
    n_h = len(levels)

    def level_cell(j, lv):
        var_c, pair = _coupled_payoff_var(
            problem, psi, lv, M, theta, delta, n_paths, _cell_seed(seed, 0))
        var_u = _uncoupled_payoff_var(
            problem, psi, lv, M, theta, delta, n_paths,
            _cell_seed(seed, 2, j), _cell_seed(seed, 3, j))
        return var_c, var_u, pair

    def eps_cell(i, eps):
        noisy = problem.with_noise_scale(eps)
        var_c, pair = _coupled_payoff_var(
            noisy, psi, top, M, theta, delta, n_paths, _cell_seed(seed, 1, i))
        var_u = _uncoupled_payoff_var(
            noisy, psi, top, M, theta, delta, n_paths,
            _cell_seed(seed, 2, n_h + i), _cell_seed(seed, 3, n_h + i))
        return var_c, var_u, pair

    thunks = [lambda j=j, lv=lv: level_cell(j, lv)
              for j, lv in enumerate(levels)]
    thunks += [lambda i=i, eps=eps: eps_cell(i, eps)
               for i, eps in enumerate(eps_values)]
    results = _run_cells(thunks, jobs)

    records = []
    h_values, h_coup, h_unc = [], [], []
    for lv, (var_c, var_u, pair) in zip(levels, results[:n_h]):
        x = pair.h_fine if delta is None else pair.h_coarse
        h_values.append(x)
        h_coup.append(var_c)
        h_unc.append(var_u)
        for stat, val in (("var_delta_coupled", var_c),
                          ("var_delta_uncoupled", var_u)):
            records.append(_record(
                "rates-variance", lv, pair.h_fine, problem.noise_scale,
                theta, delta, stat, val, n_paths, seed,
            ))

    eps_coup, eps_unc = [], []
    for eps, (var_c, var_u, pair) in zip(eps_values, results[n_h:]):
        eps_coup.append(var_c)
        eps_unc.append(var_u)
        for stat, val in (("var_delta_coupled", var_c),
                          ("var_delta_uncoupled", var_u)):
            records.append(_record(
                "rates-variance", top, pair.h_fine, eps, theta, delta,
                stat, val, n_paths, seed,
            ))

    return VarianceRates(
        h_slope=RateFit.from_data(h_values, h_coup),
        eps_slope=RateFit.from_data(eps_values, eps_coup),
        h_values=tuple(h_values),
        h_coupled=tuple(h_coup),
        h_uncoupled=tuple(h_unc),
        eps_values=tuple(eps_values),
        eps_coupled=tuple(eps_coup),
        eps_uncoupled=tuple(eps_unc),
        records=tuple(records),
    )


# ---------------------------------------------------------------------------
# Strong error against a shared-noise refined reference
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrongErrorResult:
    """Mean-square payoff error against a nested fine reference."""

    fit: RateFit
    ref_level: int
    h_values: tuple[float, ...]
    errors_sq: tuple[float, ...]
    records: tuple[dict, ...]


def strong_error_rate(
    problem: SddeProblem,
    psi: Payoff,
    theta: float = 0.0,
    level_sweep: Sequence[int] = (),
    n_paths: int = 1000,
    seed: int = 0,
    M: int = 2,
    ref_offset: int = 3,
    chunk_paths: int = 2500,
    jobs: int | None = None,
) -> StrongErrorResult:
    """Pathwise strong error of each level against a refined reference.

    The reference runs the same scheme ``ref_offset`` levels finer; each
    coarser level is driven by block sums of the reference increments,
    so all paths share one Brownian skeleton and the measured error is
    pathwise.  Fits ``log E|psi(X_ref(T)) - psi(X_l(T))|^2`` against
    ``log h_l``.
    """
    levels = sorted(int(lv) for lv in level_sweep)
    if len(levels) < 3:
        raise ValueError("level_sweep needs >= 3 levels")
    ref_level = levels[-1] + int(ref_offset)
    grid_ref = GridSpec.for_problem(problem, theta=theta, level=ref_level, M=M)
    n_ref = grid_ref.total_steps_N
    grids = {
        lv: GridSpec.for_problem(problem, theta=theta, level=lv, M=M)
        for lv in levels
    }

    eps = problem.noise_scale

    def chunk(a: int, b: int) -> dict[int, float]:
        stream = NoiseStream(
            master_seed=_cell_seed(seed, 0),
            level=ref_level,
            path_index=np.arange(a, b),
            dim=problem.dim_noise,
            n_steps=n_ref,
        )
        dw_ref = stream.gaussian_increment(range(n_ref))
        dw_ref *= np.sqrt(grid_ref.step_h)
        ref = theta_em_path(problem, grid_ref, noise=dw_ref, full_path=False)
        psi_ref = psi.eval(ref.terminal)
        _refuse_blown_up(_cell_name("rates-strong reference", ref_level, eps,
                                    a, b), psi_ref)
        sums = {}
        for lv in levels:
            dw = _block_sums(dw_ref, M ** (ref_level - lv))
            path = theta_em_path(problem, grids[lv], noise=dw,
                                 full_path=False)
            psi_lv = psi.eval(path.terminal)
            _refuse_blown_up(_cell_name("rates-strong", lv, eps, a, b),
                             psi_lv)
            diff = psi_ref - psi_lv
            sums[lv] = float(np.sum(diff * diff))
        return sums

    chunk_sums = _run_cells(
        [lambda a=a, b=b: chunk(a, b)
         for a, b in _chunk_ranges(0, n_paths, chunk_paths)], jobs)
    err_sums = {lv: 0.0 for lv in levels}
    for sums in chunk_sums:
        for lv in levels:
            err_sums[lv] += sums[lv]

    h_values = [grids[lv].step_h for lv in levels]
    errors = [err_sums[lv] / n_paths for lv in levels]
    records = tuple(
        _record("rates-strong", lv, grids[lv].step_h, eps, theta, None,
                "strong_error_sq", err, n_paths, seed)
        for lv, err in zip(levels, errors)
    )
    return StrongErrorResult(
        fit=RateFit.from_data(h_values, errors),
        ref_level=ref_level,
        h_values=tuple(h_values),
        errors_sq=tuple(errors),
        records=records,
    )
