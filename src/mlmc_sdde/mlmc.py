"""Multilevel Monte Carlo estimation of E[psi(X(T))] over coupled pairs.

The estimator telescopes

    E[psi(X_L(T))] = E[psi(X_b(T))]
                     + sum_{l=b+1}^{L} E[psi(X_l(T)) - psi(X_{l-1}(T))]

with the base term from plain theta-EM Monte Carlo at the coarsest level
``b`` and each correction term from :func:`coupling.simulate_coupled`
pairs sharing one increment stream.  Both are folds of one
:class:`coupling.LevelPair` plan, the base level's without a coarse
member.  Per-level statistics are accumulated chunk by chunk, in chunk
order on the calling thread, with a numerically stable pairwise merge,
so that sharded and serial runs agree to high relative accuracy.

The package's one chunk runner and one thread map live here too.  The
chunk runner folds the chunks of a run in order on the calling thread,
for MLMC levels and the strong-error sweep of :mod:`mlmc_sdde.analysis`
alike: on 2 cores, threads over the chunks of MLMC levels were slower
than one thread, and over the chunks of the default strong-error sweep
they gained nothing and held more memory.  Only the independent cells of
the moment, variance and deviation sweeps run on the thread map.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence

import numpy as np

from .coupling import LevelPair
from .model import Payoff, SddeProblem
from .scheme import NonConvergence

__all__ = ["LevelStats", "MlmcEstimate", "estimate_level",
           "single_level_estimate", "mlmc_estimate"]

# Paths are always processed in fixed chunks and the per-chunk statistics
# merged in chunk order, so the result is a pure function of (seed, sample
# count).  _chunk_width sizes every chunk, of an MLMC level and of a sweep
# or CLI cell alike, from these two: a wider chunk spreads the fixed cost
# of each step over more paths, and the state budget (64 MiB of float64)
# bounds what a deep level's delay windows hold.  With tau = 1/4 and T = 1
# at M = 2 that is 8192 paths up to level 11, then half as many per
# level: 4096 at level 12, 1024 at level 14.  Read at call time.
CHUNK_SIZE = 8192
CHUNK_STATES = 2**23

# The pilot samples per level and the per-level sample cap of a target-SE
# estimate.  Read at call time.
PILOT_SAMPLES = 100
SAMPLE_CAP = 2_000_000


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
            raise ValueError(f"cannot merge stats for level {self.level} "
                             f"with level {other.level}")
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
    """Assembled telescoping estimate, with its totals derived from
    ``levels``.

    ``levels[0]`` holds the base-level plain Monte Carlo statistics (its
    delta is the payoff itself); subsequent entries hold the coupled
    difference statistics.  ``value = base_level_mean + sum of the
    difference means``, ``variance = std_error**2 = sum over all levels
    (base included) of var_delta / samples`` and ``total_cost`` sums the
    levels' ``cost_units``.
    """

    levels: tuple[LevelStats, ...]
    warnings: tuple[str, ...] = ()

    @property
    def base_level_mean(self) -> float:
        return self.levels[0].mean_delta

    @property
    def value(self) -> float:
        return self.base_level_mean + sum(s.mean_delta
                                          for s in self.levels[1:])

    @property
    def variance(self) -> float:
        return sum(s.var_delta / s.samples for s in self.levels)

    @property
    def std_error(self) -> float:
        return math.sqrt(self.variance)

    @property
    def total_cost(self) -> float:
        return sum(s.cost_units for s in self.levels)


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
                where: str, start: int, stop: int,
                chunk_size: int) -> list[tuple[np.ndarray, ...]]:
    """Run ``chunk_fn(a, b)`` on the ``[a, b)`` chunks of ``[start, stop)``,
    each ``chunk_size`` long but the last, in order on the calling thread.

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
            raise exc.within(name) from exc
        _refuse_blown_up(name, *samples)
        return tuple(np.array(values, dtype=float) for values in samples)

    return [run(a, min(a + chunk_size, stop))
            for a in range(start, stop, chunk_size)]


def _chunk_width(plan: LevelPair, *, full_path: bool = False) -> int:
    """The paths per chunk of ``plan``'s runs with ``full_path``:
    ``CHUNK_SIZE``, halved (down to 1) while that many paths would store
    more than ``CHUNK_STATES`` states.  A path stores its members' delay
    windows, ``m + 1`` rows each, and with ``full_path`` their ``N`` steps
    too, each row of the problem's ``dim_state`` components."""
    rows = sum(grid.steps_per_delay_m + 1 + full_path * grid.total_steps_N
               for grid, _, _ in plan.members)
    width = CHUNK_SIZE
    while width > 1 and width * rows * plan.problem.dim_state > CHUNK_STATES:
        width //= 2
    return width


def _fold(plan: LevelPair, psi: Payoff, seed: int, start: int,
          n_samples: int) -> LevelStats:
    """The statistics of :meth:`LevelPair.payoffs` over the paths
    ``[start, start + n_samples)``, in chunks of :func:`_chunk_width`,
    merged in chunk order; at least 2 samples, else ``ValueError``."""
    if n_samples < 2:
        raise ValueError(f"n_samples must be >= 2, got {n_samples}")
    chunks = _run_chunks(
        lambda a, b: plan.payoffs(psi, seed, a, b),
        f"level {plan.level}", start, start + n_samples, _chunk_width(plan))
    return reduce(LevelStats.merge, [
        LevelStats.from_samples(plan.level, deltas, fines, plan.cost_per_path)
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
    plan = LevelPair.for_problem(problem, level, M=M, theta=theta, delta=delta)
    return _fold(plan, psi, seed, sample_offset, n_samples)


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
    oracle.  Substreams are ``(seed, level, path)`` with one draw per step,
    and a path costs the steps of its grid.  It folds the plan of
    :func:`estimate_level` without a coarse member.
    """
    plan = LevelPair.for_problem(problem, level, M=M, theta=theta,
                                 delta=delta, coupled=False)
    return _fold(plan, psi, seed, sample_offset, n_samples)


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
) -> MlmcEstimate:
    """Telescoping MLMC estimate of ``E[psi(X(T))]``.

    Exactly one of ``samples_per_level`` (explicit counts, base level
    first) and ``target_se`` must be given.  One loop runs the levels in
    rounds.  The first round runs every level once, with the given counts
    or with a pilot of ``PILOT_SAMPLES`` samples.  With ``target_se``, each
    later round allocates samples proportionally to ``sqrt(var/cost)``
    (the classic cost-weighted rule) from the merged statistics, capped at
    ``SAMPLE_CAP`` samples per level, and tops up the levels that want
    more, by at least 2 samples.  The rounds stop once a top-up round
    meets the target or no level below the cap wants more; a cap that
    leaves the target unmet is reported in ``warnings`` rather than
    raised.  Both constants are read at call time.
    """
    if base_level > max_level:
        raise ValueError(
            f"base_level {base_level} exceeds max_level {max_level}")
    if (samples_per_level is None) == (target_se is None):
        raise ValueError(
            "exactly one of samples_per_level and target_se is required")

    levels = list(range(base_level, max_level + 1))
    if target_se is None:
        counts = [int(n) for n in samples_per_level]
        if len(counts) != len(levels):
            raise ValueError(f"samples_per_level has {len(counts)} entries "
                             f"for {len(levels)} levels")
        if any(n < 2 for n in counts):
            raise ValueError("every level needs at least 2 samples")
    else:
        if not target_se > 0.0:
            raise ValueError(f"target_se must be > 0, got {target_se}")
        counts = [PILOT_SAMPLES] * len(levels)
        target_var = target_se * target_se

    stats: list[LevelStats | None] = [None] * len(levels)
    allocated = False
    while True:
        grew = False
        for i, (level, n) in enumerate(zip(levels, counts)):
            have = 0 if stats[i] is None else stats[i].samples
            if n > have:
                # Looked up at call time, so a rebound module global is seen.
                # A top-up of one would be refused, so it draws two.
                fn = single_level_estimate if i == 0 else estimate_level
                extra = fn(problem, psi, level, M=M, theta=theta,
                           delta=delta, n_samples=max(n - have, 2),
                           seed=seed, sample_offset=have)
                stats[i] = extra if have == 0 else stats[i].merge(extra)
                grew = True
        estimate = MlmcEstimate(tuple(stats))
        # The pilot is always followed by one allocation by the rule.
        met = target_se is None or (
            allocated and estimate.variance <= target_var * (1.0 + 1e-9))
        if met or not grew:
            break
        cost = [s.cost_units / s.samples for s in stats]
        weight_sum = sum(math.sqrt(s.var_delta * c)
                         for s, c in zip(stats, cost))
        counts = [2 if s.var_delta == 0.0 else math.ceil(
            math.sqrt(s.var_delta / c) * weight_sum / target_var)
            for s, c in zip(stats, cost)]
        counts = [min(max(n, 2), SAMPLE_CAP) for n in counts]
        allocated = True

    if met:
        return estimate
    capped = [str(s.level) for s in stats if s.samples >= SAMPLE_CAP]
    where = (f" at the per-level sample cap {SAMPLE_CAP} (level "
             f"{', '.join(capped)})" if capped else "")
    return MlmcEstimate(estimate.levels, (
        f"target standard error {target_se:g} not met: achieved "
        f"{estimate.std_error:g}{where}",))
