"""Problem definitions for delay SDEs with a small-noise parameter.

The central object is :class:`SddeProblem`, describing

    dX(t) = f(X(t), X(t - tau)) dt + eps * g(X(t), X(t - tau)) dW(t),  t in [0, T],
    X(t)  = xi(t),                                                     t in [-tau, 0],

with state dimension ``a``, driving dimension ``d``, delay ``tau > 0``,
horizon ``T > 0`` and noise scale ``eps``.  Coefficient callables must
broadcast over leading batch axes: ``drift(x, y)`` maps arrays of shape
``(..., a)`` to ``(..., a)`` and ``diffusion(x, y)`` maps them to
``(..., a, d)``.  The initial segment ``xi`` maps an array of times of
shape ``(k,)`` to states of shape ``(k, a)``.

A problem also declares what regularity its coefficients satisfy, either
:class:`GlobalLipschitz` (joint Lipschitz constant for drift and diffusion)
or :class:`OneSidedLipschitz` (one-sided/monotone drift with polynomial
growth, square-bounded diffusion).  Declared constants are contracts used
by step-size admissibility checks; they are spot-checked by the test
suite, not verified symbolically.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GlobalLipschitz",
    "OneSidedLipschitz",
    "SddeProblem",
    "Payoff",
    "derived_constants",
    "builtin_problem",
    "builtin_payoff",
    "BUILTIN_PROBLEMS",
    "BUILTIN_PAYOFFS",
]


@dataclass(frozen=True)
class GlobalLipschitz:
    """Joint global Lipschitz regularity.

    ``alpha > 1`` bounds both coefficients:
    ``|f(x,y)-f(u,v)| + |g(x,y)-g(u,v)| <= alpha * (|x-u| + |y-v|)``.
    """

    alpha: float

    def __post_init__(self):
        if not self.alpha > 1.0:
            raise ValueError(f"alpha must be > 1, got {self.alpha}")


@dataclass(frozen=True)
class OneSidedLipschitz:
    """One-sided Lipschitz drift with polynomially bounded differences.

    For all states and all eps in [0, 1]:

      2<x-u, f(x,y)-f(u,v)> + (p-1)*eps^2*|g(x,y)-g(u,v)|^2
          <= alpha1 * (|x-u|^2 + |y-v|^2)
      |f(x,y)-f(u,v)| <= alpha2 * (1 + |x|^r + |u|^r + |y|^r + |v|^r)
                                * (|x-u| + |y-v|)
      |g(x,y)|^2 <= alpha3 * (1 + |x|^2 + |y|^2)

    ``growth_r`` is the polynomial degree ``r`` and ``p`` the moment order
    the constants were declared for.
    """

    alpha1: float
    alpha2: float
    alpha3: float
    growth_r: float
    p: float = 2.0

    def __post_init__(self):
        if not self.alpha1 > 1.0:
            raise ValueError(f"alpha1 must be > 1, got {self.alpha1}")
        if not self.alpha2 > 1.0:
            raise ValueError(f"alpha2 must be > 1, got {self.alpha2}")
        if not self.alpha3 > 0.0:
            raise ValueError(f"alpha3 must be > 0, got {self.alpha3}")
        if not self.growth_r >= 0.0:
            raise ValueError(f"growth_r must be >= 0, got {self.growth_r}")
        if not self.p >= 2.0:
            raise ValueError(f"p must be >= 2, got {self.p}")


Regularity = GlobalLipschitz | OneSidedLipschitz


@dataclass(frozen=True)
class SddeProblem:
    """A delay SDE instance together with its declared regularity.

    Parameters
    ----------
    dim_state : int
        State dimension ``a >= 1``.
    dim_noise : int
        Driving Brownian dimension ``d >= 1``.
    drift : callable
        ``f(x, y) -> (..., a)`` for ``x``, ``y`` of shape ``(..., a)``.
    diffusion : callable
        ``g(x, y) -> (..., a, d)``.
    delay : float
        Lag ``tau > 0``.
    horizon : float
        Final time ``T > 0``.
    noise_scale : float
        ``eps`` in ``[0, 1]``.  The nominal regime is ``eps in (0, 1)``;
        both endpoints are accepted because they are useful in practice
        (``eps = 0`` gives the deterministic skeleton, ``eps = 1`` the
        unit-noise equation) and every bound degrades continuously.
    initial_segment : callable
        ``xi(t) -> (k, a)`` for time arrays ``t`` of shape ``(k,)`` with
        entries in ``[-tau, 0]``.
    regularity : GlobalLipschitz | OneSidedLipschitz
        Declared coefficient regularity.
    name : str
        Optional label; builtin problems carry their registry name.  No
        computation or output reads it.
    """

    dim_state: int
    dim_noise: int
    drift: Callable[[np.ndarray, np.ndarray], np.ndarray]
    diffusion: Callable[[np.ndarray, np.ndarray], np.ndarray]
    delay: float
    horizon: float
    noise_scale: float
    initial_segment: Callable[[np.ndarray], np.ndarray]
    regularity: Regularity
    name: str = "custom"

    def __post_init__(self):
        if self.dim_state < 1:
            raise ValueError(f"dim_state must be >= 1, got {self.dim_state}")
        if self.dim_noise < 1:
            raise ValueError(f"dim_noise must be >= 1, got {self.dim_noise}")
        if not self.delay > 0.0:
            raise ValueError(f"delay must be > 0, got {self.delay}")
        if not self.horizon > 0.0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")
        if not 0.0 <= self.noise_scale <= 1.0:
            raise ValueError(
                f"noise_scale must lie in [0, 1], got {self.noise_scale}"
            )

    def with_noise_scale(self, eps: float) -> "SddeProblem":
        """Copy of this problem with a different ``eps``."""
        return dataclasses.replace(self, noise_scale=eps)

    def history_state(self, t: float) -> np.ndarray:
        """Initial-segment value xi(t) as a flat state vector."""
        return np.asarray(
            self.initial_segment(np.asarray([t], dtype=float)), dtype=float
        ).reshape(self.dim_state)


@dataclass(frozen=True)
class Payoff:
    """Scalar functional of the terminal state.

    ``eval`` maps states of shape ``(..., a)`` to values of shape
    ``(...,)``; ``name`` labels the payoff in the run summary.
    """

    eval: Callable[[np.ndarray], np.ndarray]
    name: str = "payoff"


def derived_constants(problem: SddeProblem) -> dict:
    """Constants derived from a problem's declared regularity.

    Global Lipschitz case: with ``alpha`` declared and

        beta      = max(alpha, |f(0,0)|, |g(0,0)|)
        alpha_bar = 1/2 + alpha**2

    linear growth ``|f(x,y)| + |g(x,y)| <= beta * (1 + |x| + |y|)`` holds,
    and ``alpha_bar`` with ``6*beta`` drive implicit-step admissibility.

    One-sided case:

        alpha1_bar = max(alpha1, |f(0,0)|^2 / 2)

    bounds the tamed drift's monotone growth.
    """
    zero = np.zeros((1, problem.dim_state))
    f00 = float(np.linalg.norm(problem.drift(zero, zero)))
    g00 = float(np.linalg.norm(problem.diffusion(zero, zero)))
    reg = problem.regularity
    if isinstance(reg, GlobalLipschitz):
        beta = max(reg.alpha, f00, g00)
        alpha_bar = 0.5 + reg.alpha**2
        return {
            "f00": f00,
            "g00": g00,
            "beta": beta,
            "alpha_bar": alpha_bar,
            "step_cap": 1.0 / max(alpha_bar, 6.0 * beta),
        }
    return {
        "f00": f00,
        "g00": g00,
        "alpha1_bar": max(reg.alpha1, 0.5 * f00**2),
    }


# ---------------------------------------------------------------------------
# Builtin problems
# ---------------------------------------------------------------------------

def _constant_segment(x0: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))

    def xi(t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        return np.broadcast_to(x0, t.shape + x0.shape).copy()

    return xi


def _builtin(name: str, drift, diffusion, regularity: Regularity, x0, tau,
             horizon, eps) -> SddeProblem:
    """A builtin problem: one state and one noise coordinate, started
    from the constant segment ``x0``."""
    return SddeProblem(
        dim_state=1,
        dim_noise=1,
        drift=drift,
        diffusion=diffusion,
        delay=float(tau),
        horizon=float(horizon),
        noise_scale=float(eps),
        initial_segment=_constant_segment(np.asarray([x0])),
        regularity=regularity,
        name=name,
    )


def _linear_scalar(*, a1=-1.0, a2=0.5, b1=0.1, b2=0.1, x0=1.0,
                   tau=0.25, horizon=1.0, eps=0.1) -> SddeProblem:
    """Scalar linear drift and linear diffusion.

    f(x, y) = a1*x + a2*y, g(x, y) = b1*x + b2*y.  The declared Lipschitz
    constant is max(|a1|,|a2|) + max(|b1|,|b2|), floored just above 1.
    """
    a1, a2, b1, b2 = float(a1), float(a2), float(b1), float(b2)

    def drift(x, y):
        return a1 * x + a2 * y

    def diffusion(x, y):
        return (b1 * x + b2 * y)[..., None]

    alpha = max(abs(a1), abs(a2)) + max(abs(b1), abs(b2))
    return _builtin("linear_scalar", drift, diffusion,
                    GlobalLipschitz(alpha=max(alpha, 1.0 + 1e-9)),
                    x0, tau, horizon, eps)


def _additive_noise(*, a1=-1.0, a2=0.5, g0=1.0, x0=1.0,
                    tau=0.25, horizon=1.0, eps=0.1) -> SddeProblem:
    """Scalar linear drift with state-independent diffusion g(x, y) = g0."""
    a1, a2, g0 = float(a1), float(a2), float(g0)

    def drift(x, y):
        return a1 * x + a2 * y

    def diffusion(x, y):
        shape = np.broadcast_shapes(x.shape, y.shape) + (1,)
        out = np.empty(shape, dtype=float)
        out[...] = g0
        return out

    alpha = max(abs(a1), abs(a2))
    return _builtin("additive_noise", drift, diffusion,
                    GlobalLipschitz(alpha=max(alpha, 1.0 + 1e-9)),
                    x0, tau, horizon, eps)


def _cubic_onesided(*, c=0.5, sigma=0.5, x0=5.0,
                    tau=0.25, horizon=1.0, eps=0.1) -> SddeProblem:
    """Cubic mean-reverting drift, one-sided Lipschitz only.

    f(x, y) = -x^3 + c*y, g(x, y) = sigma*sqrt(1 + x^2).  The drift is not
    globally Lipschitz; explicit stepping without taming blows up for
    moderately large initial data, which is exactly the behaviour the
    tamed variant is there to remove.  Declared constants (for p = 2):

        alpha1 = 1.5   since 2<dx, df> + eps^2|dg|^2
                         <= (c + sigma^2) dx^2 + c dy^2 for any eps <= 1
        alpha2 = 1.5   since |x^3 - u^3| <= 1.5 (1 + x^2 + u^2) |x - u|
        alpha3 = sigma^2, growth_r = 2
    """
    c, sigma = float(c), float(sigma)
    if not (c + sigma**2) <= 1.5:
        raise ValueError(
            "declared alpha1 = 1.5 requires c + sigma^2 <= 1.5, "
            f"got c={c}, sigma={sigma}"
        )

    def drift(x, y):
        return c * y - x * x * x

    def diffusion(x, y):
        del y
        return (sigma * np.sqrt(1.0 + x**2))[..., None]

    return _builtin("cubic_onesided", drift, diffusion, OneSidedLipschitz(
        alpha1=1.5, alpha2=1.5, alpha3=sigma**2, growth_r=2.0, p=2.0
    ), x0, tau, horizon, eps)


def _zero_dynamics(*, x0=1.0, tau=0.25, horizon=1.0, eps=0.1) -> SddeProblem:
    """f = 0 and g = 0; every exact path equals the initial value."""

    def drift(x, y):
        return np.zeros(np.broadcast_shapes(x.shape, y.shape), dtype=float)

    def diffusion(x, y):
        return np.zeros(np.broadcast_shapes(x.shape, y.shape) + (1,), dtype=float)

    return _builtin("zero_dynamics", drift, diffusion,
                    GlobalLipschitz(alpha=1.0 + 1e-9), x0, tau, horizon, eps)


BUILTIN_PROBLEMS: dict[str, Callable[..., SddeProblem]] = {
    "linear_scalar": _linear_scalar,
    "additive_noise": _additive_noise,
    "cubic_onesided": _cubic_onesided,
    "zero_dynamics": _zero_dynamics,
}


def builtin_problem(name: str, **overrides) -> SddeProblem:
    """Construct a builtin problem by name.

    Coefficient overrides are keyword arguments; each builtin documents its
    own set (for instance ``builtin_problem("linear_scalar", a1=-0.25)``).
    Unknown names raise ``KeyError`` listing the registry.
    """
    try:
        factory = BUILTIN_PROBLEMS[name]
    except KeyError:
        raise KeyError(
            f"unknown problem {name!r}; available: "
            + ", ".join(sorted(BUILTIN_PROBLEMS))
        ) from None
    return factory(**overrides)


# ---------------------------------------------------------------------------
# Builtin payoffs
# ---------------------------------------------------------------------------

def _identity_payoff() -> Payoff:
    def ev(x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=float)[..., 0]

    return Payoff(eval=ev, name="identity")


def _smooth_bounded_payoff() -> Payoff:
    # tanh of the first coordinate: |psi'| <= 1, |psi''| <= 4/(3*sqrt(3)) < 1.
    def ev(x: np.ndarray) -> np.ndarray:
        return np.tanh(np.asarray(x, dtype=float)[..., 0])

    return Payoff(eval=ev, name="tanh")


BUILTIN_PAYOFFS: dict[str, Callable[[], Payoff]] = {
    "identity": _identity_payoff,
    "tanh": _smooth_bounded_payoff,
}


def builtin_payoff(name: str) -> Payoff:
    """Construct a builtin payoff by name (``identity`` or ``tanh``)."""
    try:
        return BUILTIN_PAYOFFS[name]()
    except KeyError:
        raise KeyError(
            f"unknown payoff {name!r}; available: "
            + ", ".join(sorted(BUILTIN_PAYOFFS))
        ) from None
