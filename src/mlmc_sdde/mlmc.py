"""Multilevel Monte Carlo estimation of E[psi(X(T))] over coupled pairs.

The estimator telescopes

    E[psi(X_L(T))] = E[psi(X_b(T))]
                     + sum_{l=b+1}^{L} E[psi(X_l(T)) - psi(X_{l-1}(T))]

with the base term from plain theta-EM Monte Carlo at the coarsest level
``b`` and each correction term from :func:`coupling.simulate_coupled`
pairs sharing one increment stream.  Per-level statistics are accumulated
chunk by chunk, in chunk order on the calling thread, with a numerically
stable pairwise merge, so that sharded and serial runs agree to high
relative accuracy.  The package's one chunk runner and one thread map
live here too; the sweeps of :mod:`mlmc_sdde.analysis` thread their cells,
but MLMC runs on one thread: on 2 cores, two threads over the chunks of a
5-level run with 20 000 samples per level took 2.14 s against 1.80 s.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .coupling import LevelPair, coupled_payoff_delta, simulate_coupled
from .model import Payoff, SddeProblem
from .rng import NoiseStream
from .scheme import (
    AdmissibilityError,
    GridSpec,
    NonConvergence,
    taming_for_level,
    theta_em_path,
)

__all__ = [
    "LevelStats",
    "MlmcEstimate",
    "estimate_level",
    "single_level_estimate",
    "mlmc_estimate",
    "CHUNK_SIZE",
]

# Paths are always processed in fixed chunks of this many indices and the
# per-chunk statistics merged in chunk order, so the result is a pure
# function of (seed, sample count).  Read at call time.
CHUNK_SIZE = 4096


@dataclass(frozen=True)
class LevelStats:
    """Streaming-mergable moments of one level's payoff differences.

    ``mean_delta``/``var_delta`` describe ``psi(fine) - psi(coarse)`` on a
    difference level, or ``psi(path)`` itself on the base level of a
    telescoping estimate.  ``var_delta`` is the unbiased sample variance
    (zero when fewer than two samples were seen).  ``cost_units`` counts
    time steps taken (fine plus coarse) across all samples.
    """

    level: int
    samples: int
    mean_delta: float
    var_delta: float
    mean_fine: float
    cost_units: float

    def __post_init__(self):
        if self.samples < 0:
            raise ValueError(f"samples must be >= 0, got {self.samples}")
        if self.var_delta < 0.0:
            raise ValueError(f"var_delta must be >= 0, got {self.var_delta}")

    @classmethod
    def from_samples(cls, level: int, deltas: np.ndarray, fines: np.ndarray,
                     cost_per_sample: float) -> "LevelStats":
        """Two-pass statistics of one chunk of payoff samples."""
        deltas = np.asarray(deltas, dtype=float).reshape(-1)
        fines = np.asarray(fines, dtype=float).reshape(-1)
        if deltas.shape != fines.shape:
            raise ValueError("deltas and fines must have the same length")
        if not (np.all(np.isfinite(deltas)) and np.all(np.isfinite(fines))):
            raise ValueError(f"level {level}: non-finite payoff samples")
        n = deltas.size
        if n == 0:
            return cls(level, 0, 0.0, 0.0, 0.0, 0.0)

        def mean_of(vals: np.ndarray) -> float:
            # A constant sample averages to that constant exactly; the
            # general pairwise sum would round it by a few ulp.
            lo, hi = vals.min(), vals.max()
            return float(lo) if lo == hi else float(np.mean(vals))

        mean = mean_of(deltas)
        if n >= 2 and deltas.min() != deltas.max():
            var = max(float(np.var(deltas, ddof=1)), 0.0)
        else:
            var = 0.0
        return cls(
            level=level,
            samples=n,
            mean_delta=mean,
            var_delta=var,
            mean_fine=mean_of(fines),
            cost_units=float(cost_per_sample) * n,
        )

    def merge(self, other: "LevelStats") -> "LevelStats":
        """Combine with stats over a disjoint sample, stably.

        Uses the parallel mean/M2 update: with ``d = mean_b - mean_a`` and
        ``n = n_a + n_b``,

            mean = mean_a + d * n_b / n
            M2   = M2_a + M2_b + d^2 * n_a * n_b / n

        which matches a recomputation over the concatenated sample to
        rounding (exercised by the tests at 1e-12 relative).
        """
        if other.level != self.level:
            raise ValueError(
                f"cannot merge stats for level {self.level} with level "
                f"{other.level}"
            )
        na, nb = self.samples, other.samples
        if nb == 0:
            return self
        if na == 0:
            return other
        n = na + nb
        d = other.mean_delta - self.mean_delta
        mean = self.mean_delta + d * nb / n
        m2 = (self.var_delta * (na - 1) + other.var_delta * (nb - 1)
              + d * d * na * nb / n)
        df = other.mean_fine - self.mean_fine
        return LevelStats(
            level=self.level,
            samples=n,
            mean_delta=mean,
            var_delta=max(m2 / (n - 1), 0.0),
            mean_fine=self.mean_fine + df * nb / n,
            cost_units=self.cost_units + other.cost_units,
        )


@dataclass(frozen=True)
class MlmcEstimate:
    """Assembled telescoping estimate.

    ``levels[0]`` holds the base-level plain Monte Carlo statistics (its
    delta is the payoff itself); subsequent entries hold the coupled
    difference statistics.  ``value = base_level_mean + sum of the
    difference means`` and ``std_error**2 = sum over all levels (base
    included) of var_delta / samples``.
    """

    value: float
    levels: tuple[LevelStats, ...]
    base_level_mean: float
    total_cost: float
    std_error: float
    warnings: tuple[str, ...] = ()


def _refuse_blown_up(where: str, *samples: np.ndarray) -> None:
    """Raise ``ValueError`` naming ``where`` if any path's sample is not
    finite; ``samples`` hold one value per path along their last axis."""
    finite = np.ones(np.shape(samples[0])[-1], dtype=bool)
    for values in samples:
        values = np.asarray(values)
        finite &= np.isfinite(values).reshape(-1, finite.size).all(axis=0)
    bad = finite.size - int(np.count_nonzero(finite))
    if bad:
        raise ValueError(
            f"{where}: {bad} non-finite samples (the paths blew up)")


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


def _run_chunks(chunk_fn: Callable[[int, int], tuple[np.ndarray, ...]],
                where: str, start: int, stop: int, chunk_size: int,
                jobs: int | None = None) -> list[tuple[np.ndarray, ...]]:
    """Run ``chunk_fn(a, b)`` on the ``[a, b)`` chunks of ``[start, stop)``,
    each ``chunk_size`` long but the last.

    ``chunk_fn`` returns per-path samples, one value per path along their
    last axis.  A blown-up sample is refused, and a solver failure
    re-raised unless its message names the chunk's path range already,
    both naming ``"{where}, paths [{a}, {b})"``.  Returns copies of each
    chunk's samples, in chunk order, so no chunk's path buffer outlives it.
    """
    def run(a: int, b: int) -> tuple[np.ndarray, ...]:
        name = f"{where}, paths [{a}, {b})"
        try:
            samples = chunk_fn(a, b)
        except NonConvergence as exc:
            if f"paths [{a}, {b})" in str(exc):
                raise
            raise NonConvergence(f"{name}: {exc}", exc.iterations,
                                 exc.residual) from exc
        _refuse_blown_up(name, *samples)
        return tuple(np.array(values, dtype=float) for values in samples)

    return _run_cells([lambda a=a: run(a, min(a + chunk_size, stop))
                       for a in range(start, stop, chunk_size)], jobs)


def _level_paths(problem: SddeProblem, level: int, M: int, theta: float,
                 delta: float | None, seed: int, a: int, b: int, *,
                 full_path: bool):
    """Theta-EM paths ``[a, b)`` of one level on the substreams
    ``(seed, level, path)``, tamed by the level's rule when ``delta`` is
    set."""
    grid = GridSpec.for_problem(problem, theta=theta, level=level, M=M)
    stream = NoiseStream(master_seed=seed, level=level,
                         path_index=np.arange(a, b), dim=problem.dim_noise,
                         n_steps=grid.total_steps_N)
    return theta_em_path(problem, grid, noise=stream,
                         taming=taming_for_level(problem, level, M, delta),
                         full_path=full_path)


def _fold(chunk_fn: Callable[[int, int], tuple[np.ndarray, np.ndarray]],
          level: int, cost: float, start: int,
          n_samples: int) -> LevelStats:
    """The statistics of the ``(deltas, fines)`` chunks of the paths
    ``[start, start + n_samples)``, in chunks of ``CHUNK_SIZE``, merged in
    chunk order."""
    chunks = _run_chunks(chunk_fn, f"level {level}", start,
                         start + n_samples, CHUNK_SIZE)
    return reduce(LevelStats.merge, [
        LevelStats.from_samples(level, deltas, fines, cost)
        for deltas, fines in chunks])


def estimate_level(
    problem: SddeProblem,
    psi: Payoff,
    level: int,
    M: int = 2,
    theta: float = 0.0,
    delta: float | None = None,
    n_samples: int = 2,
    seed: int = 0,
    *,
    sample_offset: int = 0,
) -> LevelStats:
    """Statistics of ``psi(fine(T)) - psi(coarse(T))`` over coupled pairs.

    Runs ``n_samples`` independent pairs on the substreams
    ``(seed, level, sample_offset .. sample_offset + n_samples - 1)`` and
    returns their :class:`LevelStats`.  ``delta`` switches on drift taming
    with that exponent.  Failures are re-raised with the failing level and
    path range attached.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    pair = LevelPair.for_problem(problem, level, M=M, theta=theta, delta=delta)

    def chunk_fn(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        stream = pair.noise_stream(seed, np.arange(a, b), problem.dim_noise)
        return coupled_payoff_delta(
            simulate_coupled(problem, pair, stream, full_path=False), psi)

    return _fold(chunk_fn, level, pair.cost_per_path, sample_offset,
                 n_samples)


def single_level_estimate(
    problem: SddeProblem,
    psi: Payoff,
    level: int,
    M: int = 2,
    theta: float = 0.0,
    delta: float | None = None,
    n_samples: int = 2,
    seed: int = 0,
    *,
    sample_offset: int = 0,
) -> LevelStats:
    """Plain theta-EM Monte Carlo of ``psi`` at one level.

    Returned as a :class:`LevelStats` whose delta IS the payoff, so it can
    serve as the base term of a telescoping estimate or as a brute-force
    oracle.  Substreams are ``(seed, level, path)`` with one draw per step.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")

    def chunk_fn(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        path = _level_paths(problem, level, M, theta, delta, seed, a, b,
                            full_path=False)
        vals = psi.eval(path.terminal)
        return vals, vals

    # A path costs the M**level steps of its grid.
    return _fold(chunk_fn, level, float(M ** level), sample_offset,
                 n_samples)


def mlmc_estimate(
    problem: SddeProblem,
    psi: Payoff,
    base_level: int,
    max_level: int,
    M: int = 2,
    theta: float = 0.0,
    delta: float | None = None,
    samples_per_level: Sequence[int] | None = None,
    target_se: float | None = None,
    seed: int = 0,
    *,
    n_pilot: int = 100,
    sample_cap: int = 2_000_000,
) -> MlmcEstimate:
    """Telescoping MLMC estimate of ``E[psi(X(T))]``.

    Exactly one of ``samples_per_level`` (explicit counts, base level
    first) and ``target_se`` must be given.  With ``target_se``, a pilot of
    ``n_pilot`` samples per level measures variances and samples are
    allocated proportionally to ``sqrt(var/cost)`` (the classic
    cost-weighted rule), capped at ``sample_cap`` samples per level.  The
    allocation is repeated from the merged statistics, topping levels up,
    until the target is met or no level below the cap wants more; a cap
    that leaves the target unmet is reported in ``warnings`` rather than
    raised.
    """
    if base_level > max_level:
        raise ValueError(
            f"base_level {base_level} exceeds max_level {max_level}"
        )
    if delta is not None and base_level < 2:
        raise AdmissibilityError(
            f"tamed estimates need base_level >= 2, got {base_level} "
            "(the coarse member of the first coupled pair tames with the "
            "two-coarser step, which must exist)"
        )
    if (samples_per_level is None) == (target_se is None):
        raise ValueError(
            "exactly one of samples_per_level and target_se is required"
        )

    levels = list(range(base_level, max_level + 1))

    def run(level: int, n: int, offset: int) -> LevelStats:
        # Looked up at call time, so a rebound module global is seen.
        fn = single_level_estimate if level == base_level else estimate_level
        return fn(
            problem, psi, level, M=M, theta=theta, delta=delta,
            n_samples=n, seed=seed, sample_offset=offset,
        )

    warnings: list[str] = []

    if samples_per_level is not None:
        counts = [int(n) for n in samples_per_level]
        if len(counts) != len(levels):
            raise ValueError(
                f"samples_per_level has {len(counts)} entries for "
                f"{len(levels)} levels"
            )
        if any(n < 2 for n in counts):
            raise ValueError("every level needs at least 2 samples")
        stats = [run(lv, n, 0) for lv, n in zip(levels, counts)]
    else:
        if not target_se > 0.0:
            raise ValueError(f"target_se must be > 0, got {target_se}")
        pilot_n = max(int(n_pilot), 2)
        cap = int(sample_cap)
        stats = [run(lv, pilot_n, 0) for lv in levels]
        cost_per = [s.cost_units / s.samples for s in stats]
        target_var = target_se * target_se
        while True:
            weight_sum = sum(
                math.sqrt(s.var_delta * c) for s, c in zip(stats, cost_per)
            )
            grew = False
            for i, lv in enumerate(levels):
                v = stats[i].var_delta
                want = 2 if v == 0.0 else math.ceil(
                    math.sqrt(v / cost_per[i]) * weight_sum / target_var
                )
                want = min(max(want, 2), cap)
                have = stats[i].samples
                if want > have:
                    extra = run(lv, want - have, have)
                    stats[i] = stats[i].merge(extra)
                    grew = True
            achieved_var = sum(s.var_delta / s.samples for s in stats)
            if achieved_var <= target_var * (1.0 + 1e-9) or not grew:
                break
        if achieved_var > target_var * (1.0 + 1e-9):
            capped = [str(s.level) for s in stats if s.samples >= cap]
            where = (f" at the per-level sample cap {sample_cap} (level "
                     f"{', '.join(capped)})" if capped else "")
            warnings.append(
                f"target standard error {target_se:g} not met: achieved "
                f"{math.sqrt(achieved_var):g}{where}"
            )

    base = stats[0]
    value = base.mean_delta + sum(s.mean_delta for s in stats[1:])
    variance = sum(s.var_delta / s.samples for s in stats)
    return MlmcEstimate(
        value=value,
        levels=tuple(stats),
        base_level_mean=base.mean_delta,
        total_cost=sum(s.cost_units for s in stats),
        std_error=math.sqrt(variance),
        warnings=tuple(warnings),
    )
