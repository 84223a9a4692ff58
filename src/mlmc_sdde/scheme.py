"""Theta Euler-Maruyama stepping on delay-aligned grids.

One step of the scheme on a grid with step ``h`` and delay offset ``m``
advances

    X_{n+1} = X_n + (1-theta) h f(X_n, X_{n-m}) + theta h f(X_{n+1}, X_{n+1-m})
              + eps g(X_n, X_{n-m}) dW_n,        dW_n = sqrt(h) xi_n,

with ``xi_n`` i.i.d. standard normal vectors.  ``theta = 0`` is the
explicit Euler-Maruyama scheme and is computed in exactly that closed
form; ``theta > 0`` solves the implicit relation with a fixed-point (for
one coordinate, secant) iteration that falls back to a damped Newton
method.  Because ``m >= 1``, the delayed argument ``X_{n+1-m}`` of the
implicit stage is always a value already computed, so the solve is a
plain nonlinear equation in ``X_{n+1}`` only.  The solve returns the
array it last evaluated the drift at, with ``X_{n+1-m}``; those are the
arguments of the next step's first drift evaluation, so the step loop
reuses that value, bit for bit what a fresh call would return.

Drift taming replaces ``f`` by ``f / (1 + h_c^delta |f|)`` for a coarse
step size ``h_c`` and an exponent ``delta`` in (0, 1/2].  The tamed drift
is bounded by ``h_c^-delta``, which keeps explicit steps of one-sided
Lipschitz drifts from blowing up while leaving the drift essentially
unchanged wherever ``|f|`` is moderate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Generator, Iterable, Iterator

import numpy as np

from .model import GlobalLipschitz, OneSidedLipschitz, SddeProblem, derived_constants
from .rng import NoiseStream

__all__ = [
    "AdmissibilityError",
    "NonConvergence",
    "GridSpec",
    "DelayBuffer",
    "TamedDrift",
    "tame_drift",
    "level_step",
    "taming_for_level",
    "check_admissibility",
    "implicit_step_solve",
    "theta_em_path",
]


class AdmissibilityError(ValueError):
    """A grid/theta/taming combination violates a step-size restriction."""


class NonConvergence(RuntimeError):
    """The implicit stage solver failed to reach tolerance.

    Attributes
    ----------
    iterations : int
        Iterations spent before giving up.
    residual : float
        Largest remaining residual norm across the batch.
    """

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual

    def __reduce__(self):
        return type(self), (self.args[0], self.iterations, self.residual)

    def within(self, where: str) -> "NonConvergence":
        """This error with ``"{where}: "`` put before its message, with
        the same ``iterations`` and ``residual``."""
        return type(self)(f"{where}: {self}", self.iterations, self.residual)


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid aligned with the delay.

    ``step_h * steps_per_delay_m`` must equal the delay and
    ``step_h * total_steps_N`` the horizon, both to within one floating
    point rounding unit; alignment is what lets delayed lookups be plain
    integer index shifts.
    """

    step_h: float
    steps_per_delay_m: int
    total_steps_N: int
    theta: float

    def __post_init__(self):
        if not self.step_h > 0.0:
            raise ValueError(f"step_h must be > 0, got {self.step_h}")
        if int(self.steps_per_delay_m) < 1:
            raise ValueError("steps_per_delay_m must be >= 1")
        if int(self.total_steps_N) < 1:
            raise ValueError("total_steps_N must be >= 1")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")

    @classmethod
    def for_problem(cls, problem: SddeProblem, *, theta: float, level: int,
                    M: int = 2) -> "GridSpec":
        """The delay-aligned grid of ``level`` for ``problem``, with step
        :func:`level_step`.

        Raises ``ValueError``, naming ``level`` and ``M``, when the implied
        step counts are not within one rounding unit of integers.
        """
        if level < 0:
            raise ValueError("level must be >= 0")
        if M < 2:
            raise ValueError(f"M must be >= 2, got {M}")
        step_h = level_step(problem, level, M)
        where = f"level {level} (M = {M}): "
        m = _near_int(problem.delay / step_h, where + "delay / step_h")
        N = _near_int(problem.horizon / step_h, where + "horizon / step_h")
        grid = cls(step_h=step_h, steps_per_delay_m=m, total_steps_N=N,
                   theta=theta)
        grid.validate_against(problem)
        return grid

    def validate_against(self, problem: SddeProblem) -> None:
        """Check delay and horizon alignment against ``problem``."""
        m, N, h = self.steps_per_delay_m, self.total_steps_N, self.step_h
        if abs(m * h - problem.delay) > np.spacing(problem.delay):
            raise ValueError(
                f"grid misaligned with delay: m*h = {m * h!r} "
                f"vs tau = {problem.delay!r}"
            )
        if abs(N * h - problem.horizon) > np.spacing(problem.horizon):
            raise ValueError(
                f"grid misaligned with horizon: N*h = {N * h!r} "
                f"vs T = {problem.horizon!r}"
            )


def _near_int(x: float, what: str) -> int:
    n = int(round(x))
    if n < 1 or abs(x - n) > 1e-9 * max(1.0, abs(x)):
        raise ValueError(f"{what} = {x!r} is not a positive integer")
    return n


class DelayBuffer:
    """Path storage indexed by grid step.

    A full path holds the history too: ``values`` has shape
    ``(N + m + 1, a)`` for a single path or ``(N + m + 1, P, a)`` for a
    batch of ``P`` paths, and the state at grid index ``n``, ``-m <= n <=
    N``, is ``values[m + n]``.  A delay window holds only grid indices
    ``N - m .. N`` in order, shaped ``(m + 1, a)`` or ``(m + 1, P, a)``.
    Either way ``total_steps`` is ``N`` and ``terminal`` the state at
    grid index ``N``.
    """

    def __init__(self, values: np.ndarray, m: int, step_h: float,
                 total_steps: int):
        self.values = values
        self.m = int(m)
        self.step_h = float(step_h)
        self.total_steps = int(total_steps)

    @property
    def terminal(self) -> np.ndarray:
        return self.values[-1]


def tame_drift(fvals: np.ndarray, h_coarse: float, delta: float) -> np.ndarray:
    """Scale drift values down to norm at most ``h_coarse**-delta``.

    Applies ``f -> f / (1 + h_coarse^delta |f|)`` with the Euclidean norm
    over the last axis.  Leaves direction unchanged and is the identity
    at ``f = 0``.  The result is a new array; ``fvals`` is never written.
    """
    f = np.asarray(fvals, dtype=float)
    if f.shape[-1] == 1:
        # sqrt(f*f) is |f| unless f*f over- or underflows; an underflowed
        # norm leaves 1 + h^delta |f| = 1 either way.
        norm = np.abs(f)
    else:
        with np.errstate(over="ignore"):
            norm = np.sqrt(np.add.reduce(f * f, axis=-1, keepdims=True))
        _rescue_overflowed_norms(f, norm)
    norm *= h_coarse**delta
    norm += 1.0
    return np.divide(f, norm, out=norm if norm.shape == f.shape else None)


def _rescue_overflowed_norms(f: np.ndarray, norm: np.ndarray) -> None:
    # Rows of finite values whose squared norm overflowed get their norm
    # from the row scaled by its largest entry.
    rows = np.flatnonzero(np.isinf(norm))
    if rows.size:
        fb = f.reshape(-1, f.shape[-1])[rows]
        scale = np.abs(fb).max(axis=-1)
        keep = np.isfinite(scale)
        fb = fb[keep] / scale[keep, None]
        norm.reshape(-1)[rows[keep]] = scale[keep] * np.sqrt(
            np.add.reduce(fb * fb, axis=-1))


@dataclass(frozen=True)
class TamedDrift:
    """A drift together with its taming step size and exponent.

    Calling the object evaluates ``base`` and applies :func:`tame_drift`
    with ``h_coarse**delta``.  ``delta`` must lie in (0, 1/2]; the value
    1/2 is the natural default and smaller values trade bias for a
    stronger bound on the tamed drift.
    """

    base: Callable[[np.ndarray, np.ndarray], np.ndarray]
    h_coarse: float
    delta: float = 0.5

    def __post_init__(self):
        if not self.h_coarse > 0.0:
            raise ValueError(f"h_coarse must be > 0, got {self.h_coarse}")
        if not 0.0 < self.delta <= 0.5:
            raise ValueError(f"delta must lie in (0, 1/2], got {self.delta}")

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return tame_drift(self.base(x, y), self.h_coarse, self.delta)

    @property
    def bound(self) -> float:
        """Upper bound ``h_coarse**-delta`` on the tamed drift norm."""
        return self.h_coarse ** (-self.delta)


def level_step(problem: SddeProblem, level: int, M: int) -> float:
    """The grid step ``T M^-level`` of ``level``."""
    return problem.horizon * float(M) ** (-level)


def taming_for_level(
    problem: SddeProblem, level: int, M: int, delta: float | None
) -> TamedDrift | None:
    """The taming of the level-``level`` grid; ``None`` when ``delta`` is.

    A grid of ``level`` tames with the step of the level below,
    ``h_coarse = level_step(problem, level - 1, M)``.  So the fine member
    of a coupled pair at level ``l`` tames with the pair's coarse step and
    the coarse member with the step of level ``l - 2``.
    """
    if delta is None:
        return None
    return TamedDrift(base=problem.drift, delta=delta,
                      h_coarse=level_step(problem, level - 1, M))


def check_admissibility(
    problem: SddeProblem, grid: GridSpec, taming: TamedDrift | None = None
) -> None:
    """Raise :class:`AdmissibilityError` if step-size restrictions fail.

    Global Lipschitz drift, theta > 0:
        ``theta * h < 1 / max(alpha_bar, 6 beta)`` with
        ``alpha_bar = 1/2 + alpha^2`` and ``beta`` the growth constant.
    Global Lipschitz drift, theta = 0:
        ``h < 1``.
    One-sided Lipschitz drift (requires taming):
        ``theta * h_coarse < 2 / alpha1`` for the taming step ``h_coarse``,
        plus ``h < 1``.  Untamed stepping of a one-sided problem is only
        admitted for theta = 0, where it runs without any moment
        guarantee (useful precisely to demonstrate blow-up).
    """
    theta, h = grid.theta, grid.step_h
    reg = problem.regularity
    if isinstance(reg, GlobalLipschitz):
        if theta == 0.0:
            if not h < 1.0:
                raise AdmissibilityError(
                    f"h = {h} >= 1 (explicit scheme requires h < 1)"
                )
            return
        cap = derived_constants(problem)["step_cap"]
        if not theta * h < cap:
            raise AdmissibilityError(
                f"theta*h = {theta * h} >= 1/max(alpha_bar, 6*beta) = {cap} "
                "(implicit scheme requires theta*h < 1/max(alpha_bar, 6*beta))"
            )
        return
    assert isinstance(reg, OneSidedLipschitz)
    if not h < 1.0:
        raise AdmissibilityError(f"h = {h} >= 1 (requires h < 1)")
    if taming is None:
        if theta > 0.0:
            raise AdmissibilityError(
                "implicit stepping of a one-sided Lipschitz drift requires "
                "drift taming (theta > 0 without taming is not admissible)"
            )
        return
    cap = 2.0 / reg.alpha1
    if not theta * taming.h_coarse < cap:
        raise AdmissibilityError(
            f"theta*h_coarse = {theta * taming.h_coarse} >= 2/alpha1 = {cap} "
            "(tamed implicit scheme requires theta*h_coarse < 2/alpha1)"
        )


def implicit_step_solve(
    y_target: np.ndarray,
    delayed: np.ndarray,
    drift: Callable[[np.ndarray, np.ndarray], np.ndarray],
    theta: float,
    h: float,
    x0: np.ndarray | None = None,
    tol_abs: float = 1e-13,
    max_iter: int = 200,
) -> np.ndarray:
    """Solve ``x - theta h f(x, delayed) = y_target`` for ``x``.

    Iterates ``g(x) = y + theta h f(x, d)`` while it contracts, and
    switches to a damped Newton method with finite-difference Jacobians
    when it stalls or diverges.  States of two or more coordinates take
    the plain steps ``x <- g(x)``.  One coordinate takes, after a first
    plain step, the secant steps ``x <- g_k - gamma (g_k - g_{k-1})`` on
    ``r = x - theta h f - y``, ``gamma = r_k / (r_k - r_{k-1})``, in every
    row whose residual changed without growing.  Should that run miss the
    tolerance within ``max_iter`` iterations, the solve starts again from
    ``x0`` (or ``y_target``) with plain steps and the same Newton fallback,
    and that run decides: it converges wherever the plain iteration
    converges, and its :class:`NonConvergence` is the one raised.

    The residual is measured as ``max_batch |(x - theta h f(x, d)) - y|``
    and must fall below ``tol_abs``; the step size is never adapted here.
    The returned array is the last one the drift was evaluated at, with
    ``delayed`` as its second argument, which lets the step loop reuse
    that evaluation; it is ``x0`` itself when ``x0`` already meets the
    tolerance.  No input and no array the drift returned is ever written.
    """
    y = np.asarray(y_target, dtype=float)
    d = np.asarray(delayed, dtype=float)
    th = theta * h
    if th == 0.0:
        return y.copy()
    x = y.copy() if x0 is None else np.asarray(x0, dtype=float)
    if y.shape[-1] > 1:
        return _iterate(y, d, drift, th, x, tol_abs, max_iter, secant=False)
    try:
        return _iterate(y, d, drift, th, x, tol_abs, max_iter, secant=True)
    except NonConvergence:
        return _iterate(y, d, drift, th, x, tol_abs, max_iter, secant=False)


def _iterate(y, d, drift, th, x, tol_abs, max_iter, secant):
    # An array is written only while it is formed, and only one made
    # here; once kept (as x, or as the previous g and r) it is not
    # written again.  So no input and no array the drift returned is
    # written.
    fp_budget = min(60, max_iter)
    prev_res = np.inf
    used = 0
    g_prev = r_prev = sq_prev = None
    for _ in range(fp_budget):
        t = drift(x, d) * th
        r = x - t
        r -= y
        sq = _row_sum(r * r)
        res = math.sqrt(sq.max(initial=0.0))
        used += 1
        if res <= tol_abs:
            return x
        if not math.isfinite(res) or res > 4.0 * prev_res:
            break  # diverging, hand over to Newton
        if res > 0.9 * prev_res and used >= 5:
            break  # too slow, hand over to Newton
        prev_res = res
        g = t
        g += y
        if r_prev is None:
            x = g
        else:
            # One coordinate, every r finite: a row whose residual rose or
            # did not change gets dr = inf, so gamma = 0, the plain step.
            dr = r - r_prev
            plain = sq > sq_prev
            plain |= dr == 0.0
            np.copyto(dr, np.inf, where=plain)
            gamma = np.divide(r, dr, out=dr)
            dg = g - g_prev
            dg *= gamma
            x = np.subtract(g, dg, out=dg)
        if secant:
            g_prev, r_prev, sq_prev = g, r, sq
    if not np.all(np.isfinite(x)):
        x = y.copy()
    return _newton_solve(y, d, drift, th, x, tol_abs, max_iter - used, used)


def _row_sum(v: np.ndarray) -> np.ndarray:
    """Sums over the last axis, kept as an axis of length 1.

    For squares this is the squared row norm, and the square root of its
    maximum is the largest row norm bit for bit: sqrt is monotone and
    correctly rounded.
    """
    return np.add.reduce(v, axis=-1, keepdims=True) if v.shape[-1] > 1 else v


def _newton_solve(y, d, drift, th, x, tol_abs, budget, used):
    # Damped Newton on r(x) = x - th*f(x, d) - y with FD Jacobians,
    # vectorised over the batch.
    a = y.shape[-1]
    eye = np.eye(a)
    sqrt_eps = math.sqrt(np.finfo(float).eps)
    res = np.inf
    for _ in range(max(budget, 1)):
        fx = drift(x, d)
        r = x - th * fx
        r -= y
        rn = np.sqrt(_row_sum(r * r))
        res = float(np.max(rn, initial=0.0))
        used += 1
        if res <= tol_abs:
            return x
        if not math.isfinite(res):
            break
        jac = np.empty(x.shape + (a,))
        for j in range(a):
            dx = sqrt_eps * np.maximum(1.0, np.abs(x[..., j]))
            xp = x.copy()
            xp[..., j] += dx
            jac[..., j] = (drift(xp, d) - fx) / dx[..., None]
        amat = eye - th * jac
        try:
            step = np.linalg.solve(amat, -r[..., None])[..., 0]
        except np.linalg.LinAlgError:
            break
        lam = np.ones(rn.shape)
        x_new = x + step
        for _ in range(25):
            r_new = x_new - th * drift(x_new, d)
            r_new -= y
            rn_new = np.sqrt(_row_sum(r_new * r_new))
            bad = ~(rn_new <= np.maximum(1.0 - 0.25 * lam, 0.0) * rn + tol_abs)
            bad &= rn > tol_abs
            if not np.any(bad & (lam > 1e-6)):
                break
            lam = np.where(bad, 0.5 * lam, lam)
            x_new = x + lam * step
        x = x_new
    raise NonConvergence(
        f"implicit stage stalled at residual {res:.3e} after {used} "
        f"iterations (tolerance {tol_abs:.1e})",
        iterations=used,
        residual=res,
    )


class _LastDrift:
    """A drift that remembers its last evaluation: argument and value."""

    def __init__(self, drift):
        self.drift = drift
        self.x = self.value = None

    def __call__(self, x, y):
        self.value = self.drift(x, y)
        self.x = x
        return self.value


def _step(x, x_del, x_del_next, h, theta, drift, diffusion, eps, dw, fx):
    """Advance one grid step of the theta scheme; a ``dw`` of ``None``, or
    any ``dw`` at ``eps = 0``, runs the drift-only step.

    ``fx`` is ``f(x, x_del)`` when the previous step's solve already
    evaluated it, else ``None``.  Returns ``X_{n+1}`` and, when the
    implicit stage returned the array the drift saw last,
    ``f(X_{n+1}, x_del_next)``, else ``None``.  Those arguments are bit
    for bit the next step's ``x`` and ``x_del``, so reusing the value is
    exact.
    """
    if fx is None:
        fx = drift(x, x_del)
    base = x + (1.0 - theta) * h * fx if theta > 0.0 else x + h * fx
    if dw is not None and eps != 0.0:
        gx = diffusion(x, x_del)
        if gx.shape[-1] == 1:
            # The einsum's bits: it adds the one product to +0.0, which
            # turns a product of -0.0 into +0.0.
            gdw = gx[..., 0] * dw
            gdw += 0.0
        else:
            gdw = np.einsum("...ij,...j->...i", gx, dw)
        base = base + eps * gdw
    if theta == 0.0:
        return base, None
    x0 = base + theta * h * fx
    last = _LastDrift(drift)
    x_next = implicit_step_solve(base, x_del_next, last, theta, h, x0=x0)
    return x_next, last.value if x_next is last.x else None


# The normals of one block of a streamed NoiseStream (256 KiB of float64);
# a run holds one block at a time, since the driver lets go of the last
# row of a block before the next block is drawn.
_BLOCK_DRAWS = 2**15


def _stream_increments(noise: NoiseStream,
                       n_steps: int) -> Iterator[np.ndarray]:
    """The draws of steps ``0 .. n_steps - 1`` of ``noise``, one ``(P, d)``
    array per step; read ``_BLOCK_DRAWS // (P d)`` steps (at least one) at
    a time, the one place the package draws normals."""
    block = max(1, _BLOCK_DRAWS // max(1, noise.n_paths * noise.dim))
    for start in range(0, n_steps, block):
        draws = noise.gaussian_increment(
            range(start, min(start + block, n_steps)))
        yield from draws
        del draws  # hold no view of this block while drawing the next


def _steps(
    problem: SddeProblem,
    grid: GridSpec,
    taming: TamedDrift | None,
    n_paths: int | None,
    where: str = "",
    *,
    full_path: bool = True,
) -> Generator[DelayBuffer | None, np.ndarray | None, None]:
    """Stepper of the ``N`` theta-steps of ``grid`` from the problem's
    history: the one step loop of the package.

    Priming it with ``next`` refuses a grid misaligned with the problem
    (``ValueError``) or one that breaks a step-size restriction
    (:class:`AdmissibilityError`) and writes the history.  Each ``send``
    of a Brownian increment, shaped ``(n_paths, d)``, then runs one step;
    ``None``, or any increment when the problem's eps is 0, runs the
    drift-only step.  The ``send`` of step ``N`` returns the path, every
    earlier one ``None``.  ``n_paths=None`` is one path stored without
    the batch axis.  ``full_path=False`` keeps only a ring of the last
    ``m + 1`` states, which ends ordered as grid indices ``N - m .. N``;
    the arithmetic, and so every state, is that of the full path.  A
    :class:`NonConvergence` is re-raised with ``where``, the step and its
    time prefixed to the message.
    """
    grid.validate_against(problem)
    check_admissibility(problem, grid, taming)
    h, m, N = grid.step_h, grid.steps_per_delay_m, grid.total_steps_N
    a = problem.dim_state
    eps = problem.noise_scale
    drift = taming if taming is not None else problem.drift

    hist = np.asarray(problem.initial_segment(h * np.arange(-m, 1)),
                      dtype=float)
    if hist.shape != (m + 1, a):
        raise ValueError(
            f"initial segment returned shape {hist.shape}, "
            f"expected {(m + 1, a)}"
        )
    # Grid index n lives in row (n + off) % rows; the offset puts grid
    # index N in the last row.  Row n - m, read last by step n, is the
    # one step n writes.
    rows = N + m + 1 if full_path else m + 1
    off = rows - 1 - N
    values = np.empty((rows, 1 if n_paths is None else n_paths, a))
    values[(np.arange(-m, 1) + off) % rows] = hist[:, None, :]

    fx = None
    for n in range(N):
        dw = yield
        try:
            values[(n + 1 + off) % rows], fx = _step(
                values[(n + off) % rows], values[(n - m + off) % rows],
                values[(n + 1 - m + off) % rows],
                h, grid.theta, drift, problem.diffusion, eps, dw, fx,
            )
        except NonConvergence as exc:
            raise exc.within(f"{where}step {n} (t = {n * h:.6g})") from None

    if n_paths is None:
        values = values[:, 0, :]
    yield DelayBuffer(values, m=m, step_h=h, total_steps=N)


def _lockstep(problem: SddeProblem, members: list,
              noise: NoiseStream | Iterable[np.ndarray] | None, *,
              full_path: bool) -> list[DelayBuffer]:
    """The paths of ``members``, each a ``(grid, taming, where)`` of a
    :func:`_steps` stepper, stepped in lockstep on ``noise``: the one
    driver of every level run and the one reader of its noise.

    ``noise`` comes in three forms:

    * a :class:`NoiseStream` of the problem's noise dimension whose
      ``n_steps`` covers the finest grid, else ``ValueError``.  Its paths
      are the batch, one path included.  Each draw is scaled by the
      square root of the finest step.  The stream is read a block of
      steps at a time, and not at all when the problem's eps is 0.
    * the Brownian increments ``dW`` themselves, already scaled: any
      iterable of ``(P, d)`` arrays, one per fine step, a ``(N, P, d)``
      array included, taken as they are and read as the steps run.  The
      first array sets the batch size ``P``.  Exactly ``N`` of them are
      needed, else ``ValueError``, at eps = 0 too, where the steps ignore
      them; its message ends with the shape received at the first
      wrong step, or ``none``, and that step.
    * ``None``, which reads nothing and runs the drift-only steps,
      whatever the problem's eps.

    Every member is primed, finest first, before any draw is read.  The
    finest grid takes draw ``j`` at step ``j``; a grid ``q`` times coarser
    takes the sum of draws ``nq .. nq + q - 1``, added left to right, at
    step ``n``, as soon as the last of them is read.
    """
    N, dnoise = members[0][0].total_steps_N, problem.dim_noise
    n_paths, draws, scale = None, None, 1.0
    if isinstance(noise, NoiseStream):
        if noise.dim != dnoise:
            raise ValueError(f"noise stream dim {noise.dim} != problem "
                             f"dim_noise {dnoise}")
        if noise.n_steps < N:
            raise ValueError(f"stream covers {noise.n_steps} fine steps, "
                             f"grid needs {N}")
        n_paths = noise.n_paths
        if problem.noise_scale:
            draws = _stream_increments(noise, N)
        scale = math.sqrt(members[0][0].step_h)
    elif noise is not None:
        draws = iter(noise)
        first = next(draws, None)  # its length is the batch size P
        n_paths = len(first) if np.ndim(first) == 2 else None
        draws = itertools.chain([first], draws)
    steppers = [_steps(problem, grid, taming, n_paths, where,
                       full_path=full_path)
                for grid, taming, where in members]
    for stepper in steppers:
        next(stepper)
    shape = (1 if n_paths is None else n_paths, dnoise)
    qs = [N // grid.total_steps_N for grid, _, _ in members]
    sums, paths = [None] * len(members), [None] * len(members)
    for j in range(N + 1):  # draw N, past the last step, must not exist
        xi = dw = None  # hold no row of a block while the next is drawn
        if draws is not None:
            xi = next(draws, None)
        if j == N or draws is not None and np.shape(xi) != shape:
            break
        for k, (stepper, q) in enumerate(zip(steppers, qs)):
            if q > 1 and xi is not None:
                # A copy, so that no view of a draw block outlives it.
                if j % q:
                    sums[k] += xi
                else:
                    sums[k] = xi.copy()
            if j % q == q - 1:
                dw = xi if q == 1 else sums[k]
                paths[k] = stepper.send(
                    dw if dw is None or scale == 1.0 else scale * dw)
    if j < N or xi is not None:
        # Without a 2-D first increment the batch size is unknown.
        want = (f"= ({n_paths}, {dnoise})" if n_paths is not None
                else f"with d = {dnoise}")
        got = "none" if xi is None else np.shape(xi)
        raise ValueError(f"noise must give N = {N} increments of shape (P, d) "
                         f"{want}, got {got} at step {j}")
    return paths


def theta_em_path(
    problem: SddeProblem,
    grid: GridSpec,
    noise: NoiseStream | Iterable[np.ndarray] | None = None,
    taming: TamedDrift | None = None,
    *,
    full_path: bool = True,
) -> DelayBuffer:
    """Simulate one batch of theta-EM paths on a delay-aligned grid.

    Parameters
    ----------
    problem, grid
        Problem instance and grid; the grid is validated against the
        problem and the step-size restrictions.
    noise : NoiseStream or iterable of increments or None
        A stream, whose ``range`` of paths is the batch (step ``j``
        consumes draw ``j``, so the stream of a coupled pair at this
        grid's level drives the pair's fine member identically), the
        increments ``dW`` themselves, one ``(P, d)`` array per step, or
        ``None`` for the drift-only skeleton, in the forms that the
        scheme's one driver, ``_lockstep``, reads and checks (see its
        docstring and the ``scheme`` section of README.md).
    taming : TamedDrift, optional
        Drift replacement for one-sided problems.
    full_path : bool, keyword-only
        ``True`` (default) returns the history plus the computed path.
        ``False`` returns only the delay window of the last ``m + 1``
        states, bit for bit the tail of the full path, so a run that
        reads only ``terminal`` holds ``O(m P)`` states, not ``O(N P)``.

    Returns
    -------
    DelayBuffer
        History plus computed path, shape ``(N + m + 1, P, a)`` for the
        ``P`` paths of a stream or of the increments, or ``(N + m + 1,
        a)`` on ``None``; with ``full_path=False`` the first axis has
        length ``m + 1``.
    """
    return _lockstep(problem, [(grid, taming, "")], noise,
                     full_path=full_path)[0]
