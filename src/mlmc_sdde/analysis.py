"""Rate measurement: skeletons, log-log fits, and sweep experiments.

This module turns the scheme's convergence behaviour into measurable
slopes.  Each experiment runs a sweep of simulation "cells" (one grid
level or one noise scale per cell), records a tidy table of statistics,
and fits ordinary least squares lines through the log-log points.

Seeding convention: every cell draws from its own substream family.  The
master seed of a cell is ``seed + 1_000_003 * lane + index`` modulo
``2**64``, where the lane separates roles (0 level-sweep pairs, 1
noise-sweep pairs, 4 deviation cells) and the index enumerates cells
within a lane; in lane 0, whose cells the per-level stream keying
already separates, the index counts the earlier cells of the same level,
so a repeated level runs as a replicate.  Together with the per-level
stream keying this makes all cells pairwise disjoint, so results are
independent of evaluation order and of worker count.  The strong sweep
runs every level on one reference path (lane 0, index 0), so there a
repeated level repeats its error.

A cell whose paths blow up (non-finite values) raises ``ValueError``,
and one whose solve stalls ``NonConvergence``, naming the experiment, the
level, the noise scale and the path range, the way a chunk of :mod:`mlmc`
does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .coupling import CoupledPair, LevelPair, coupled_payoff_delta
from .mlmc import _chunk_width, _refuse_blown_up, _run_cells, _run_chunks
from .model import Payoff, SddeProblem
from .scheme import (
    DelayBuffer,
    GridSpec,
    NonConvergence,
    TamedDrift,
    _stream_increments,
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

# A cell runs in chunks of mlmc._chunk_width paths, the width an MLMC
# level folds, sized by the states a path of the cell stores: its delay
# windows, or its whole path with full_path.  A chunk reads its noise one
# 256 KiB draw block at a time.  With the counter-based stream a path's
# draws do not depend on its chunk, so at theta = 0 chunks give the bits
# of one batch; at theta > 0 the implicit solve iterates per chunk.
#
# The strong-error reference runs this many levels finer than the finest
# level of the sweep, and its paths run in chunks of this many, not of
# the cells' width: the default sweep's paths store about 385 states, so
# that budget would give 8192-path chunks, which raised the default
# run's peak RSS from 63 MiB to 80 MiB (69 MiB at 4096 paths).
_REF_OFFSET = 3
_STRONG_CHUNK_PATHS = 2048


def _cell_seed(seed: int, lane: int, index: int = 0) -> int:
    # The lane offsets wrap modulo 2**64, so every seed the stream takes
    # keys its cells; any other seed is passed on for the stream to refuse.
    seed = int(seed)
    return ((seed + _LANE_STRIDE * lane + index) % 2**64
            if 0 <= seed < 2**64 else seed)


def _refuse_few_paths(experiment: str, n_paths: int) -> None:
    # A sweep's means and variances need two paths, as a level estimate
    # needs two samples.
    if n_paths < 2:
        raise ValueError(f"{experiment}: n_paths must be >= 2, got {n_paths}")


def _listed(values) -> str:
    # A sweep as a refusal names it: its values, or none.
    return ", ".join(f"{v:g}" for v in values) or "none"


def _refuse_sweep(experiment: str, sweep: str, values) -> None:
    # A rate is a slope through three or more points, so a sweep needs two
    # distinct values; a repeated value is a replicate, but for a level of
    # the strong sweep, whose levels all run on one reference path.
    if len(values) < 3 or len(set(values)) < 2:
        raise ValueError(f"{experiment}: {sweep} needs >= 3 values, >= 2 of "
                         f"them distinct, got {_listed(values)}")


def _refuse_noise_scales(experiment: str, eps_values, zero_ok=False) -> None:
    # A problem takes a noise scale in [0, 1]; a sweep refuses a scale out
    # of its range, or NaN, naming the experiment, before any work.
    for eps in eps_values:
        if not (eps >= 0.0 if zero_ok else eps > 0.0):
            raise ValueError(f"{experiment}: eps_sweep needs noise scales "
                             f"{'>= 0' if zero_ok else '> 0'}, got {eps:g}")
        if eps > 1.0:
            raise ValueError(f"{experiment}: eps_sweep needs noise scales "
                             f"<= 1, got {eps:g}")


def _cell_samples(plan: LevelPair, seed: int, n_paths: int, experiment: str,
                  read: Callable[..., tuple[np.ndarray, ...]], *,
                  full_path: bool = True) -> tuple[np.ndarray, ...]:
    """``read`` of the run of ``plan`` on the paths ``[0, n_paths)`` of the
    substreams ``(seed, level, path)``, in chunks of
    :func:`mlmc._chunk_width` paths, each of its samples joined along the
    path axis.

    ``read`` takes what :meth:`LevelPair.run` returns, with
    ``full_path``, and gives per-path samples, one value per path along
    their last axis; see :func:`mlmc._run_chunks` for the refusals."""
    where = (f"{experiment} level {plan.level} "
             f"(eps {plan.problem.noise_scale:g})")
    chunks = _run_chunks(
        lambda a, b: read(plan.run(plan.noise_stream(seed, range(a, b)),
                                   full_path=full_path)),
        where, 0, n_paths, _chunk_width(plan, full_path=full_path))
    return tuple(parts[0] if len(parts) == 1
                 else np.concatenate(parts, axis=-1) for parts in zip(*chunks))


def _sup_sq(path: DelayBuffer, centre: np.ndarray | None = None):
    """Terminal states ``(a, P)`` and ``sup_n |X_n - centre_n|^2`` ``(P,)``
    over the nodes of a full path; ``centre`` is a state per grid node
    ``(N + 1, a)``, or ``None`` for the origin."""
    body = path.values[path.m:]
    diff = body if centre is None else body - centre[:, None, :]
    return body[-1].T, np.sum(diff * diff, axis=-1).max(axis=0)


def _pair_sq(coupled: CoupledPair):
    """``|fine - coarse|^2`` at every coarse node ``(N_c + 1, P)`` of a
    full-path pair."""
    diff = coupled.state_difference()
    return (np.sum(diff * diff, axis=-1),)


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
        if np.unique(x).size < 2:
            raise ValueError(
                f"rate regression requires >= 2 distinct x, got {x[0]:g} only")
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


# The columns of every result table, in order.
_COLUMNS = ("experiment", "level", "h", "eps", "theta", "delta",
            "statistic", "value", "samples", "seed")


def _record(*values) -> dict:
    """One table row: ``values`` in the order of ``_COLUMNS``."""
    return dict(zip(_COLUMNS, values, strict=True))


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

    Runs one cell per noise scale at a fixed grid level, the skeleton's
    plan at that scale, and fits ``log E[sup_n |X - Z|^2]`` against
    ``log eps`` over the positive sweep entries (at least three spanning a
    decade are required).  A cell at eps = 0 is recorded and left out of
    the fit; a positive scale whose deviation is not positive is refused,
    naming it, since the fit takes its log.  With
    taming (``delta`` set) the result also carries a fitted dominating
    envelope ``A * (M h)^delta + B * eps^2``, the shape of the tamed
    scheme's deviation bound.
    """
    _refuse_few_paths("deviation", n_paths)
    eps_values = [float(e) for e in eps_sweep]
    _refuse_noise_scales("deviation", eps_values, zero_ok=True)
    positive = [e for e in eps_values if e > 0.0]
    if len(positive) < 3 or max(positive) / min(positive) < 10.0:
        raise ValueError("deviation: eps_sweep needs >= 3 positive values "
                         "spanning at least one decade, got "
                         + _listed(eps_values))
    plan = LevelPair.for_problem(problem, level, M=M, theta=theta,
                                 delta=delta, coupled=False)
    try:
        skeleton = plan.run(None, full_path=True)
    except NonConvergence as exc:
        raise exc.within(f"deviation level {level} skeleton") from exc

    def cell(i: int, eps: float) -> float:
        _, sup_sq = _cell_samples(
            replace(plan, problem=problem.with_noise_scale(eps)),
            _cell_seed(seed, 4, i), n_paths, "deviation",
            lambda path: _sup_sq(path, skeleton.values[skeleton.m:]))
        return float(sup_sq.mean())

    deviations = _run_cells([lambda i=i, eps=eps: cell(i, eps)
                             for i, eps in enumerate(eps_values)], jobs)
    records = [
        _record("deviation", level, plan.grid_fine.step_h, eps, theta, delta,
                "deviation_sup_sq", dev, n_paths, seed)
        for eps, dev in zip(eps_values, deviations)
    ]

    for eps, dev in zip(eps_values, deviations):
        if eps > 0.0 and not dev > 0.0:
            raise ValueError(f"deviation: deviation_sup_sq is {dev:g} at eps "
                             f"{eps:g}; the eps fit takes its log")
    fit_pairs = [(e, d) for e, d in zip(eps_values, deviations) if e > 0.0]
    fit = RateFit.from_data([p[0] for p in fit_pairs],
                            [p[1] for p in fit_pairs])

    envelope = None
    if delta is not None:
        pos_eps = np.array([p[0] for p in fit_pairs])
        pos_dev = np.array([p[1] for p in fit_pairs])
        floor = np.full_like(pos_eps, (M * plan.grid_fine.step_h) ** delta)
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

def _two_sweeps(experiment, problem, theta, delta, M, level_sweep,
                eps_sweep, n_paths, seed, jobs, cell):
    """The level and noise sweeps of :func:`coupled_moment_rates` and
    :func:`coupled_variance_rates`.

    ``cell(plan, master_seed)`` returns a dict of statistics of a cell
    run by ``plan``.  Each level's pair plan is built once; the noise
    cells run the finest level's plan at their scales.  A repeated level
    is a replicate: its k-th repeat runs on index k of lane 0.  Returns
    ``(h_values, eps_values, level_columns, eps_columns, records)``, a
    column holding one statistic over a sweep as a tuple.  A sweep of
    fewer than three values or two distinct ones, and a noise scale that
    is not in (0, 1], are refused, naming ``experiment``, before any
    cell runs; a statistic that is not positive is refused after the
    cells, naming its cell.
    """
    _refuse_few_paths(experiment, n_paths)
    levels = sorted(int(lv) for lv in level_sweep)
    _refuse_sweep(experiment, "level_sweep", levels)
    eps_values = [float(e) for e in eps_sweep]
    _refuse_sweep(experiment, "eps_sweep", eps_values)
    _refuse_noise_scales(experiment, eps_values)  # the eps fit takes logs

    plans = {lv: LevelPair.for_problem(problem, lv, M=M, theta=theta,
                                       delta=delta) for lv in levels}
    runs = [(plans[lv], _cell_seed(seed, 0, levels[:i].count(lv)))
            for i, lv in enumerate(levels)]
    runs += [(replace(plans[levels[-1]],
                      problem=problem.with_noise_scale(eps)),
              _cell_seed(seed, 1, i)) for i, eps in enumerate(eps_values)]
    results = _run_cells([lambda run=run: cell(*run) for run in runs], jobs)
    for i, ((plan, _), stats) in enumerate(zip(runs, results)):
        for stat, value in stats.items():
            if not value > 0.0:  # the fits take logs
                where = (f"level {plan.level}; the h" if i < len(levels) else
                         f"eps {plan.problem.noise_scale:g}; the eps")
                raise ValueError(f"{experiment}: {stat} is {value:g} at "
                                 f"{where} fit takes its log")
    records = tuple(
        _record(experiment, plan.level, plan.grid_fine.step_h,
                plan.problem.noise_scale, theta, delta, stat, value,
                n_paths, seed)
        for (plan, _), stats in zip(runs, results)
        for stat, value in stats.items()
    )
    # The fine step untamed, the coarse step tamed: see coupled_moment_rates.
    h_values = tuple((plans[lv].grid_fine if delta is None
                      else plans[lv].grid_coarse).step_h for lv in levels)

    def columns(stats):
        return {key: tuple(s[key] for s in stats) for key in stats[0]}

    return (h_values, tuple(eps_values), columns(results[:len(levels)]),
            columns(results[len(levels):]), records)


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
    sup, term = "coupled_sup_sq_moment", "coupled_terminal_sq_moment"

    def cell(plan, master_seed):
        sq, = _cell_samples(plan, master_seed, n_paths, "rates-moment",
                            _pair_sq)
        per_node = sq.mean(axis=-1)
        return {sup: float(per_node.max()), term: float(per_node[-1])}

    h_values, eps_values, h, e, records = _two_sweeps(
        "rates-moment", problem, theta, delta, M, level_sweep, eps_sweep,
        n_paths, seed, jobs, cell)
    return MomentRates(
        h_slope=RateFit.from_data(h_values, h[sup]),
        eps_slope=RateFit.from_data(eps_values, e[sup]),
        h_slope_terminal=RateFit.from_data(h_values, h[term]),
        eps_slope_terminal=RateFit.from_data(eps_values, e[term]),
        h_values=h_values,
        h_sup=h[sup],
        h_terminal=h[term],
        eps_values=eps_values,
        eps_sup=e[sup],
        eps_terminal=e[term],
        records=records,
    )


# ---------------------------------------------------------------------------
# Coupled variance vs the variance of independent members
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VarianceRates:
    """Variance decay of the coupled payoff difference, two sweeps.

    ``h_uncoupled``/``eps_uncoupled`` hold the baseline the coupling is
    supposed to beat pointwise: the variance the difference would have
    for independent (uncoupled) fine and coarse members, ``Var psi_f +
    Var psi_c`` over the members of the same pairs.
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

    Sweeps mirror :func:`coupled_moment_rates`.  Each cell also reports
    the variance the difference would have for independent fine and
    coarse members, ``Var psi_f + Var psi_c``, which does not benefit
    from shared noise; each member of a pair has the law of its level's
    own run, so both terms come from the pair's samples.  The coupled
    value should sit below it everywhere.  The level sweep needs
    ``problem.noise_scale > 0``: without noise the coupled variance is
    exactly 0, and the h fit takes its log.
    """
    if not problem.noise_scale > 0.0:
        raise ValueError("rates-variance: the level sweep needs a noise "
                         f"scale > 0, got {problem.noise_scale:g}")

    coupled, uncoupled = "var_delta_coupled", "var_delta_uncoupled"

    def cell(plan, master_seed):
        # psi_c = psi_f - delta: the pair's coarse member, whose term of
        # the baseline is its variance over the same pairs.
        deltas, fines = _cell_samples(
            plan, master_seed, n_paths, "rates-variance",
            lambda pair: coupled_payoff_delta(pair, psi), full_path=False)
        return {coupled: float(np.var(deltas, ddof=1)),
                uncoupled: float(np.var(fines, ddof=1)
                                 + np.var(fines - deltas, ddof=1))}

    h_values, eps_values, h, e, records = _two_sweeps(
        "rates-variance", problem, theta, delta, M, level_sweep, eps_sweep,
        n_paths, seed, jobs, cell)
    return VarianceRates(
        h_slope=RateFit.from_data(h_values, h[coupled]),
        eps_slope=RateFit.from_data(eps_values, e[coupled]),
        h_values=h_values,
        h_coupled=h[coupled],
        h_uncoupled=h[uncoupled],
        eps_values=eps_values,
        eps_coupled=e[coupled],
        eps_uncoupled=e[uncoupled],
        records=records,
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


def _block_sums(dw: np.ndarray, q: int) -> np.ndarray:
    """Row ``n`` the sum of rows ``nq .. nq + q - 1`` of ``dw``, added left
    to right."""
    blocks = dw.reshape(len(dw) // q, q, *dw.shape[1:])
    out = blocks[:, 0].copy()
    for i in range(1, q):
        out += blocks[:, i]
    return out


def strong_error_rate(
    problem: SddeProblem,
    psi: Payoff,
    theta: float = 0.0,
    delta: float | None = None,
    level_sweep: Sequence[int] = (),
    n_paths: int = 1000,
    seed: int = 0,
    M: int = 2,
) -> StrongErrorResult:
    """Pathwise strong error of each level against a refined reference.

    The reference runs the same scheme ``_REF_OFFSET`` levels finer, on
    the grid and stream of that level's base-level :class:`LevelPair`
    plan.  The finest level is driven by block sums of the reference
    increments, added up as the reference run reads them, and each
    coarser level by block sums of the next finer level's increments, so
    all paths share one Brownian skeleton and the measured error is
    pathwise; a chunk holds the increments of one level at a time.  Each
    level, the reference too, runs through the plan of its level, tamed
    by that level's rule when ``delta`` is set.  At eps = 0 the reference
    and every level run on the chunk's stream, which then draws nothing,
    so each runs the drift-only skeleton of its level and no increment
    is held.  A repeated level is a copy, not a replicate: it runs on the
    same reference path and gives the same error.  The chunks of paths
    run in order on the calling thread.  Fits
    ``log E|psi(X_ref(T)) - psi(X_l(T))|^2`` against ``log h_l``.
    """
    _refuse_few_paths("rates-strong", n_paths)
    levels = sorted(int(lv) for lv in level_sweep)
    _refuse_sweep("rates-strong", "level_sweep", levels)
    ref_level = levels[-1] + _REF_OFFSET
    plans = {lv: LevelPair.for_problem(problem, lv, M=M, theta=theta,
                                       delta=delta, coupled=False)
             for lv in (ref_level, *levels)}
    grid_ref = plans[ref_level].grid_fine
    sqrt_h = np.sqrt(grid_ref.step_h)
    eps = problem.noise_scale

    def terminal_payoff(name: str, level: int, noise) -> np.ndarray:
        # One level's payoffs; a stalled solve or a blown-up path is named
        # by the level and the chunk.
        try:
            path = plans[level].run(noise)
        except NonConvergence as exc:
            raise exc.within(name) from exc
        values = psi.eval(path.terminal)
        _refuse_blown_up(name, values)
        return values

    def chunk(a: int, b: int) -> list[np.ndarray]:
        stream = plans[ref_level].noise_stream(_cell_seed(seed, 0),
                                               range(a, b))
        # At eps = 0 the reference and every level run on the stream, which
        # then draws nothing.  Otherwise the finest level's increments are
        # block sums of the reference increments, added up as the
        # reference run reads them.
        if eps:
            q_ref = M ** (ref_level - levels[-1])
            sums = np.empty((plans[levels[-1]].grid_fine.total_steps_N,
                             b - a, problem.dim_noise))

        def reference():
            # Increment j starts row j // q_ref when q_ref divides j and is
            # added into it otherwise, left to right.
            rows = list(sums)  # views: ``+=`` on ``sums[i]`` copies it back
            draws = _stream_increments(stream, grid_ref.total_steps_N)
            for j in range(grid_ref.total_steps_N):
                dw = sqrt_h * next(draws)  # keeps no row of a draw block
                if j % q_ref:
                    rows[j // q_ref] += dw
                else:
                    rows[j // q_ref][...] = dw
                yield dw

        psi_ref = terminal_payoff(
            f"rates-strong reference level {ref_level} (eps {eps:g}), "
            f"paths [{a}, {b})", ref_level, reference() if eps else stream)
        # Then the levels, finest first, each coarser one on the block sums
        # of the next finer one's increments, which are dropped once summed.
        errors_sq, finer = [], levels[-1]
        for lv in reversed(levels):
            if eps and lv < finer:
                sums = _block_sums(sums, M ** (finer - lv))
            finer = lv
            diff = psi_ref - terminal_payoff(
                f"rates-strong level {lv} (eps {eps:g}), paths [{a}, {b})",
                lv, sums if eps else stream)
            errors_sq.append(diff * diff)
        return errors_sq[::-1]

    chunks = _run_chunks(
        chunk, f"rates-strong levels {levels[0]}..{ref_level} (eps {eps:g})",
        0, n_paths, _STRONG_CHUNK_PATHS)
    h_values = [plans[lv].grid_fine.step_h for lv in levels]
    # Each level's per-chunk sums, added in chunk order.
    errors = [sum(float(np.sum(part)) for part in parts) / n_paths
              for parts in zip(*chunks)]
    for lv, err in zip(levels, errors):
        if not err > 0.0:
            raise ValueError(f"rates-strong: strong_error_sq is {err:g} at "
                             f"level {lv}; the h fit takes its log")
    records = tuple(
        _record("rates-strong", lv, h, eps, theta, delta,
                "strong_error_sq", err, n_paths, seed)
        for lv, h, err in zip(levels, h_values, errors)
    )
    return StrongErrorResult(
        fit=RateFit.from_data(h_values, errors),
        ref_level=ref_level,
        h_values=tuple(h_values),
        errors_sq=tuple(errors),
        records=records,
    )
