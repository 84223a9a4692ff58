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

A cell whose paths blow up (non-finite values) raises ``ValueError``,
and one whose solve stalls ``NonConvergence``, naming the experiment, the
level, the noise scale and the path range, the way a chunk of :mod:`mlmc`
does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coupling import LevelPair, coupled_payoff_delta, simulate_coupled
from .mlmc import _level_paths, _refuse_blown_up, _run_cells, _run_chunks
from .model import Payoff, SddeProblem
from .rng import NoiseStream
from .scheme import (
    DelayBuffer,
    GridSpec,
    NonConvergence,
    TamedDrift,
    _stream_increments,
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

# The normals one chunk of a cell may draw (128 MiB of float64); every
# default cell fits in one chunk.  With the counter-based stream a path's
# draws do not depend on its chunk, so at theta = 0 chunks give the bits
# of one batch; at theta > 0 the implicit solve iterates per chunk.
_CHUNK_DRAWS = 2**24

# The strong-error reference runs this many levels finer than the finest
# level of the sweep, and its paths run in chunks of this many.
_REF_OFFSET = 3
_STRONG_CHUNK_PATHS = 2500


def _cell_seed(seed: int, lane: int, index: int = 0) -> int:
    return int(seed) + _LANE_STRIDE * lane + index


def _cell_samples(chunk_fn: Callable[[int, int], tuple[np.ndarray, ...]],
                  experiment: str, problem: SddeProblem, level: int, M: int,
                  n_paths: int) -> tuple[np.ndarray, ...]:
    """The samples of :func:`_run_chunks` over the paths ``[0, n_paths)``
    of a cell whose finest grid is that of ``level``, in chunks within
    ``_CHUNK_DRAWS``, each sample joined along the path axis."""
    size = max(1, _CHUNK_DRAWS // (M ** level * problem.dim_noise))
    where = f"{experiment} level {level} (eps {problem.noise_scale:g})"
    chunks = _run_chunks(chunk_fn, where, 0, n_paths, size)
    return tuple(parts[0] if len(parts) == 1
                 else np.concatenate(parts, axis=-1) for parts in zip(*chunks))


def _path_samples(problem, level, M, theta, delta, seed, n_paths,
                  experiment, centre=None):
    """Terminal states ``(a, P)`` and ``sup_n |X_n - centre_n|^2`` ``(P,)``
    over the nodes of ``n_paths`` level paths; ``centre`` is a state per
    grid node ``(N + 1, a)``, or ``None`` for the origin."""
    def chunk(a, b):
        path = _level_paths(problem, level, M, theta, delta, seed, a, b,
                            full_path=True)
        body = path.values[path.m:]
        diff = body if centre is None else body - centre[:, None, :]
        return body[-1].T, np.sum(diff * diff, axis=-1).max(axis=0)

    return _cell_samples(chunk, experiment, problem, level, M, n_paths)


def _pair_samples(problem, level, M, theta, delta, seed, n_paths,
                  experiment, psi=None):
    """``|fine - coarse|^2`` at every coarse node ``(N_c + 1, P)`` of
    ``n_paths`` coupled pairs and, given a payoff ``psi``, the payoff
    difference ``(P,)``."""
    pair = LevelPair.for_problem(problem, level, M=M, theta=theta, delta=delta)

    def chunk(a, b):
        coupled = simulate_coupled(problem, pair, pair.noise_stream(
            seed, np.arange(a, b), problem.dim_noise))
        diff = coupled.state_difference()
        sq = np.sum(diff * diff, axis=-1)
        if psi is None:
            return (sq,)
        return sq, coupled_payoff_delta(coupled, psi)[0]

    return _cell_samples(chunk, experiment, problem, level, M, n_paths)


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
    try:
        skeleton = theta_em_path(
            problem.with_noise_scale(0.0), grid, noise=None, taming=taming)
    except NonConvergence as exc:
        raise NonConvergence(f"deviation level {level} skeleton: {exc}",
                             exc.iterations, exc.residual) from exc

    def cell(i: int, eps: float) -> float:
        _, sup_sq = _path_samples(
            problem.with_noise_scale(eps), level, M, theta, delta,
            _cell_seed(seed, 4, i), n_paths, "deviation",
            centre=skeleton.values[skeleton.m:])
        return float(sup_sq.mean())

    deviations = _run_cells([lambda i=i, eps=eps: cell(i, eps)
                             for i, eps in enumerate(eps_values)], jobs)
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
    sq, = _pair_samples(problem, level, M, theta, delta, master_seed,
                        n_paths, "rates-moment")
    per_node = sq.mean(axis=-1)
    return float(per_node.max()), float(per_node[-1])


def _two_sweeps(experiment, problem, theta, delta, M, level_sweep,
                eps_sweep, n_paths, seed, jobs, cell):
    """The level and noise sweeps of :func:`coupled_moment_rates` and
    :func:`coupled_variance_rates`.

    ``cell(problem, level, master_seed, k)`` returns a dict of statistics,
    ``k`` enumerating the cells of both sweeps.  Returns ``(h_values,
    eps_values, level_columns, eps_columns, records)``, a column holding
    one statistic over a sweep as a tuple.
    """
    levels = sorted(int(lv) for lv in level_sweep)
    if len(levels) < 3:
        raise ValueError("level_sweep needs >= 3 levels")
    eps_values = [float(e) for e in eps_sweep]
    if len(eps_values) < 3:
        raise ValueError("eps_sweep needs >= 3 noise scales")

    runs = [(problem, lv, _cell_seed(seed, 0)) for lv in levels]
    runs += [(problem.with_noise_scale(eps), levels[-1],
              _cell_seed(seed, 1, i)) for i, eps in enumerate(eps_values)]
    results = _run_cells([lambda k=k, run=run: cell(*run, k)
                          for k, run in enumerate(runs)], jobs)
    records = tuple(
        _record(experiment, lv, problem.horizon * float(M) ** (-lv),
                cell_problem.noise_scale, theta, delta, stat, value,
                n_paths, seed)
        for (cell_problem, lv, _), stats in zip(runs, results)
        for stat, value in stats.items()
    )
    coarse = 0 if delta is None else 1  # see coupled_moment_rates
    h_values = tuple(problem.horizon * float(M) ** (coarse - lv)
                     for lv in levels)

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

    def cell(cell_problem, level, master_seed, k):
        return dict(zip((sup, term), _pair_sq_moments(
            cell_problem, level, M, theta, delta, n_paths, master_seed)))

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
# Coupled variance vs uncoupled oracle
# ---------------------------------------------------------------------------

def _coupled_payoff_var(problem, psi, level, M, theta, delta, n_paths,
                        master_seed):
    pair = LevelPair.for_problem(problem, level, M=M, theta=theta, delta=delta)

    def chunk(a, b):
        coupled = simulate_coupled(problem, pair, pair.noise_stream(
            master_seed, np.arange(a, b), problem.dim_noise), full_path=False)
        return coupled_payoff_delta(coupled, psi)[:1]

    deltas, = _cell_samples(chunk, "rates-variance", problem, level, M,
                            n_paths)
    return float(np.var(deltas, ddof=1))


def _uncoupled_payoff_var(problem, psi, level, M, theta, delta, n_paths,
                          seed_fine, seed_coarse):
    """Variance of the payoff difference across INDEPENDENT runs."""
    out = []
    for lv, cell_seed in ((level, seed_fine), (level - 1, seed_coarse)):
        def chunk(a, b, lv=lv, cell_seed=cell_seed):
            path = _level_paths(problem, lv, M, theta, delta, cell_seed, a,
                                b, full_path=False)
            return (psi.eval(path.terminal),)

        out += _cell_samples(chunk, "rates-variance uncoupled", problem, lv,
                             M, n_paths)
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
    def cell(cell_problem, level, master_seed, k):
        return {
            "var_delta_coupled": _coupled_payoff_var(
                cell_problem, psi, level, M, theta, delta, n_paths,
                master_seed),
            "var_delta_uncoupled": _uncoupled_payoff_var(
                cell_problem, psi, level, M, theta, delta, n_paths,
                _cell_seed(seed, 2, k), _cell_seed(seed, 3, k)),
        }

    h_values, eps_values, h, e, records = _two_sweeps(
        "rates-variance", problem, theta, delta, M, level_sweep, eps_sweep,
        n_paths, seed, jobs, cell)
    coupled, uncoupled = "var_delta_coupled", "var_delta_uncoupled"
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


def strong_error_rate(
    problem: SddeProblem,
    psi: Payoff,
    theta: float = 0.0,
    level_sweep: Sequence[int] = (),
    n_paths: int = 1000,
    seed: int = 0,
    M: int = 2,
    jobs: int | None = None,
) -> StrongErrorResult:
    """Pathwise strong error of each level against a refined reference.

    The reference runs the same scheme ``_REF_OFFSET`` levels finer; each
    coarser level is driven by block sums of the reference increments,
    added up as the reference run reads them, so all paths share one
    Brownian skeleton and the measured error is pathwise.  Fits
    ``log E|psi(X_ref(T)) - psi(X_l(T))|^2`` against ``log h_l``.
    """
    levels = sorted(int(lv) for lv in level_sweep)
    if len(levels) < 3:
        raise ValueError("level_sweep needs >= 3 levels")
    ref_level = levels[-1] + _REF_OFFSET
    grid_ref = GridSpec.for_problem(problem, theta=theta, level=ref_level, M=M)
    n_ref = grid_ref.total_steps_N
    grids = {
        lv: GridSpec.for_problem(problem, theta=theta, level=lv, M=M)
        for lv in levels
    }

    eps = problem.noise_scale

    def terminal_payoff(name: str, grid: GridSpec,
                        dw: np.ndarray) -> np.ndarray:
        # One grid's payoffs; a stalled solve or a blown-up path is named
        # by the grid and the chunk.
        try:
            path = theta_em_path(problem, grid, noise=dw, full_path=False)
        except NonConvergence as exc:
            raise NonConvergence(f"{name}: {exc}", exc.iterations,
                                 exc.residual) from exc
        values = psi.eval(path.terminal)
        _refuse_blown_up(name, values)
        return values

    def chunk(a: int, b: int) -> list[np.ndarray]:
        stream = NoiseStream(
            master_seed=_cell_seed(seed, 0),
            level=ref_level,
            path_index=np.arange(a, b),
            dim=problem.dim_noise,
            n_steps=n_ref,
        )
        sums = {lv: np.empty((grids[lv].total_steps_N, b - a,
                              problem.dim_noise)) for lv in levels}
        # The levels are driven by block sums of the reference increments,
        # added up as the reference reads them.  At eps = 0 it gets the
        # stream, which then draws nothing (an iterator is read to its end).
        reference = _stream_increments(
            stream, n_ref, np.sqrt(grid_ref.step_h),
            [(M ** (ref_level - lv), sums[lv]) for lv in levels])
        psi_ref = terminal_payoff(
            f"rates-strong reference level {ref_level} (eps {eps:g}), "
            f"paths [{a}, {b})", grid_ref, reference if eps else stream)
        errors_sq = []
        for lv in levels:
            psi_lv = terminal_payoff(
                f"rates-strong level {lv} (eps {eps:g}), paths [{a}, {b})",
                grids[lv], sums[lv])
            diff = psi_ref - psi_lv
            errors_sq.append(diff * diff)
        return errors_sq

    chunks = _run_chunks(
        chunk, f"rates-strong levels {levels[0]}..{ref_level} (eps {eps:g})",
        0, n_paths, _STRONG_CHUNK_PATHS, jobs)
    h_values = [grids[lv].step_h for lv in levels]
    # Each level's per-chunk sums, added in chunk order.
    errors = [sum(float(np.sum(part)) for part in parts) / n_paths
              for parts in zip(*chunks)]
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
