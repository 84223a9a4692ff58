"""The implicit stage solver and drift taming against reference copies.

``reference_implicit_step_solve``, ``_reference_newton_solve`` and
``reference_tame_drift`` below are the straightforward numpy versions the
package used before its solver and taming were rewritten.  Taming makes
the same floating-point operations in the same order, so it must agree
bit for bit; it differs on purpose only where ``|f|^2`` overflows, which
the reference gets wrong (see ``test_tame_drift_survives_an_overflowing_
square``).  For states of two coordinates the solver takes the
reference's plain fixed-point steps and must agree bit for bit too.  For
one coordinate it accelerates them with the secant method, so it is held
to properties instead: every solution it returns meets the tolerance on
the reference's own residual, it converges wherever the reference does,
on equations with one root it finds the reference's root, and it fails
with the reference's message.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_sdde import scheme
from mlmc_sdde.scheme import (
    NonConvergence,
    TamedDrift,
    implicit_step_solve,
    tame_drift,
)

# ---------------------------------------------------------------------------
# Reference copies
# ---------------------------------------------------------------------------


def reference_tame_drift(fvals, h_coarse, delta):
    f = np.asarray(fvals, dtype=float)
    norm = np.linalg.norm(f, axis=-1, keepdims=True)
    return f / (1.0 + h_coarse**delta * norm)


def reference_implicit_step_solve(y_target, delayed, drift, theta, h,
                                  x0=None, tol_abs=1e-13, max_iter=200):
    y = np.asarray(y_target, dtype=float)
    d = np.asarray(delayed, dtype=float)
    th = theta * h
    if th == 0.0:
        return y.copy()

    x = y.copy() if x0 is None else np.asarray(x0, dtype=float).copy()
    fp_budget = min(60, max_iter)
    prev_res = np.inf
    used = 0
    for _ in range(fp_budget):
        fx = drift(x, d)
        res_vec = x - th * fx - y
        res = float(np.max(np.linalg.norm(res_vec, axis=-1), initial=0.0))
        used += 1
        if res <= tol_abs:
            return x
        if not np.isfinite(res) or res > 4.0 * prev_res:
            break  # diverging, hand over to Newton
        if res > 0.9 * prev_res and used >= 5:
            break  # too slow, hand over to Newton
        prev_res = res
        x = y + th * fx
    if not np.all(np.isfinite(x)):
        x = y.copy()
    return _reference_newton_solve(y, d, drift, th, x, tol_abs,
                                   max_iter - used, used)


def _reference_newton_solve(y, d, drift, th, x, tol_abs, budget, used):
    a = y.shape[-1]
    eye = np.eye(a)
    sqrt_eps = math.sqrt(np.finfo(float).eps)
    res = np.inf
    for _ in range(max(budget, 1)):
        fx = drift(x, d)
        r = x - th * fx - y
        rn = np.linalg.norm(r, axis=-1)
        res = float(np.max(rn, initial=0.0))
        used += 1
        if res <= tol_abs:
            return x
        if not np.isfinite(res):
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
            rn_new = np.linalg.norm(x_new - th * drift(x_new, d) - y, axis=-1)
            bad = ~(rn_new <= np.maximum(1.0 - 0.25 * lam, 0.0) * rn + tol_abs)
            bad &= rn > tol_abs
            if not np.any(bad & (lam > 1e-6)):
                break
            lam = np.where(bad, 0.5 * lam, lam)
            x_new = x + lam[..., None] * step
        x = x_new
    raise NonConvergence(
        f"implicit stage stalled at residual {res:.3e} after {used} "
        f"iterations (tolerance {tol_abs:.1e})",
        iterations=used,
        residual=res,
    )


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


def _outcome(solve, *args, **kwargs):
    """The solution, or the (iterations, residual, message) of a failure."""
    try:
        return solve(*args, **kwargs)
    except NonConvergence as exc:
        return (exc.iterations, exc.residual, str(exc))


_FAILURE = re.compile(r"implicit stage stalled at residual (\S+) after "
                      r"(\d+) iterations \(tolerance (\S+)\)")


def _assert_solver_properties(got, want, y, d, drift, th, tol_abs,
                              one_root):
    """``got`` (the solver's outcome) against ``want`` (the reference's).

    A solution meets ``tol_abs`` on the reference's residual formula; the
    solver converges wherever the reference does; on an equation with one
    root both find it to within ``10 tol_abs`` (the residual bounds the
    distance to the root on these families); a failure carries the
    reference's message format.
    """
    if isinstance(got, tuple):
        assert isinstance(want, tuple), f"only the solver failed: {got}"
        match = _FAILURE.fullmatch(got[2])
        assert match, got[2]
        assert int(match[2]) == got[0]
        assert float(match[3]) == float(f"{tol_abs:.1e}")
        assert match[1] == f"{got[1]:.3e}"
        return
    with np.errstate(all="ignore"):
        res_vec = got - th * drift(got, d) - y  # the reference's formula
        res = np.max(np.linalg.norm(res_vec, axis=-1), initial=0.0)
    assert res <= tol_abs
    if one_root and not isinstance(want, tuple):
        assert np.max(np.abs(got - want), initial=0.0) <= 10.0 * tol_abs


# Drift families, each a function of (a, c) returning the untamed drift.
# ``linear`` contracts and converges by fixed point, ``cubic`` falls back
# to Newton once th*x^2 is large, and ``quadratic`` has no root for many
# inputs (x - th*(x^2 + c) = y), so the solve fails.  ``linear`` and
# ``cubic`` give x - th*f(x) = y exactly one root, tamed or not;
# ``quadratic`` has zero, two or, tamed with a small h_coarse^delta, three.
def _linear(a, c):
    mix = np.array([[-1.0, 0.3], [0.2, -0.8]])[:a, :a]
    return lambda x, y: x @ mix.T + c * y


def _cubic(a, c):
    if a == 1:
        return lambda x, y: -(x**3) + c * y
    return lambda x, y: -(x**3) + 0.25 * x[..., ::-1] + c * y


def _quadratic(a, c):
    return lambda x, y: x**2 + abs(c) + 0.5


DRIFTS = {"linear": _linear, "cubic": _cubic, "quadratic": _quadratic}
ONE_ROOT = ("linear", "cubic")

SHAPES = ("flat1", "flat2", "col1", "col2")  # (1,), (2,), (P, 1), (P, 2)


def _shape(kind, n_paths):
    a = int(kind[-1])
    return (a,) if kind.startswith("flat") else (n_paths, a)


# ---------------------------------------------------------------------------
# The solver against the reference
# ---------------------------------------------------------------------------

values = st.floats(-6.0, 6.0, allow_nan=False, allow_infinity=False)


@st.composite
def stage_equations(draw, shapes=SHAPES):
    """A stage equation, its drift and the settings of one solve.

    ``drift`` is the package's and ``ref_drift`` the reference's version
    of the same (possibly tamed) drift.
    """
    shape = _shape(draw(st.sampled_from(shapes)), draw(st.integers(1, 9)))
    arrays = st.lists(values, min_size=math.prod(shape),
                      max_size=math.prod(shape))
    y = np.array(draw(arrays)).reshape(shape)
    d = np.array(draw(arrays)).reshape(shape)
    x0 = np.array(draw(arrays)).reshape(shape) if draw(st.booleans()) else None
    family = draw(st.sampled_from(sorted(DRIFTS)))
    base = DRIFTS[family](shape[-1], draw(st.floats(-2.0, 2.0)))
    drift = ref_drift = base
    if draw(st.booleans()):
        h_coarse = draw(st.floats(1e-3, 1.0))
        delta = draw(st.floats(0.05, 0.5))
        drift = TamedDrift(base, h_coarse=h_coarse, delta=delta)

        def ref_drift(x, yy):
            return reference_tame_drift(base(x, yy), h_coarse, delta)

    return dict(y=y, d=d, drift=drift, ref_drift=ref_drift,
                theta=draw(st.floats(0.0, 1.0)), h=draw(st.floats(1e-3, 1.0)),
                x0=x0, max_iter=draw(st.integers(1, 80)),
                tol_abs=draw(st.sampled_from([1e-13, 1e-10, 1e-6])),
                one_root=family in ONE_ROOT)


def _solve(solve, eq, drift):
    with np.errstate(all="ignore"):
        return _outcome(solve, eq["y"], eq["d"], drift, eq["theta"], eq["h"],
                        x0=eq["x0"], tol_abs=eq["tol_abs"],
                        max_iter=eq["max_iter"])


@settings(max_examples=300, deadline=None)
@given(eq=stage_equations())
def test_solver_agrees_with_reference(eq):
    want = _solve(reference_implicit_step_solve, eq, eq["ref_drift"])
    got = _solve(implicit_step_solve, eq, eq["drift"])
    _assert_solver_properties(got, want, eq["y"], eq["d"], eq["drift"],
                              eq["theta"] * eq["h"], eq["tol_abs"],
                              eq["one_root"])


@settings(max_examples=300, deadline=None)
@given(eq=stage_equations(shapes=("flat2", "col2")))
def test_solver_is_the_reference_for_two_coordinates(eq):
    # The secant step is the secant method for one coordinate only; states
    # of two take the reference's plain steps, and fail as it fails.  Both
    # get the same drift, so only the solvers are compared.
    want = _solve(reference_implicit_step_solve, eq, eq["drift"])
    got = _solve(implicit_step_solve, eq, eq["drift"])
    if isinstance(want, tuple):
        assert repr(got) == repr(want)
    else:
        assert _same_bits(got, want)


@pytest.mark.parametrize("kind", SHAPES)
@pytest.mark.parametrize("seed", range(4))
def test_solver_stops_on_the_reference_residual(kind, seed):
    # With the tolerance set to the reference's fixed-point residual at
    # iteration k, the reference stops exactly there; the solver must stop
    # on a point whose residual, computed the reference's way, is within
    # that tolerance too, which a residual summed in another order can
    # miss by a rounding.
    shape = _shape(kind, 7)
    rng = np.random.default_rng(seed)
    y = rng.uniform(-3.0, 3.0, shape) * 10.0 ** rng.integers(-3, 3, shape)
    d = rng.uniform(-3.0, 3.0, shape)
    drift, th = DRIFTS["linear"](shape[-1], 0.5), 0.3  # contracts
    x = y.copy()
    for _ in range(5):
        fx = drift(x, d)
        tol = float(np.max(np.linalg.norm(x - th * fx - y, axis=-1),
                           initial=0.0))
        want = _outcome(reference_implicit_step_solve, y, d, drift, th, 1.0,
                        tol_abs=tol)
        got = _outcome(implicit_step_solve, y, d, drift, th, 1.0,
                       tol_abs=tol)
        assert _same_bits(want, x)
        _assert_solver_properties(got, want, y, d, drift, th, tol, True)
        x = y + th * fx


class _NewtonSpy:
    def __init__(self, monkeypatch):
        self.calls = 0
        self._newton = scheme._newton_solve
        monkeypatch.setattr(scheme, "_newton_solve", self)

    def __call__(self, *args):
        self.calls += 1
        return self._newton(*args)


@pytest.mark.parametrize("kind", SHAPES)
@pytest.mark.parametrize("regime", ["fixed_point", "newton", "fails"])
def test_each_solver_regime_matches_reference(monkeypatch, kind, regime):
    shape = _shape(kind, 5)
    rng = np.random.default_rng(SHAPES.index(kind))
    y = rng.uniform(-2.0, 2.0, shape)
    d = rng.uniform(-2.0, 2.0, shape)
    # Per regime: drift family, theta, h and the stage right-hand side.
    family, theta, h, rhs = {
        "fixed_point": ("linear", 0.5, 0.2, y),
        # th * 3x^2 > 1 near the root: the fixed-point map expands
        "newton": ("cubic", 1.0, 0.5, 4.0 + np.abs(y)),
        # x - (x^2 + 1) <= -0.75 < rhs: no root
        "fails": ("quadratic", 1.0, 1.0, np.abs(y)),
    }[regime]
    drift = DRIFTS[family](shape[-1], 0.5)
    spy = _NewtonSpy(monkeypatch)
    want = _outcome(reference_implicit_step_solve, rhs, d, drift, theta, h)
    got = _outcome(implicit_step_solve, rhs, d, drift, theta, h)
    _assert_solver_properties(got, want, rhs, d, drift, theta * h, 1e-13,
                              family in ONE_ROOT)
    assert (spy.calls > 0) == (regime != "fixed_point")
    assert isinstance(got, tuple) == (regime == "fails")


finite_or_special = st.one_of(
    st.floats(-1e150, 1e150),
    st.sampled_from([0.0, -0.0, 5e-324, -1e-160, math.inf, -math.inf,
                     math.nan]),
)


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(SHAPES),
    n_paths=st.integers(1, 9),
    h_coarse=st.floats(1e-6, 4.0),
    delta=st.floats(0.01, 0.5),
)
def test_tame_drift_matches_reference_bitwise(data, kind, n_paths, h_coarse,
                                              delta):
    shape = _shape(kind, n_paths)
    f = np.array(data.draw(st.lists(finite_or_special,
                                    min_size=math.prod(shape),
                                    max_size=math.prod(shape)))).reshape(shape)
    snapshot = f.copy()
    with np.errstate(all="ignore"):
        want = reference_tame_drift(f, h_coarse, delta)
        got = tame_drift(f, h_coarse, delta)
    assert _same_bits(got, want)
    assert _same_bits(f, snapshot)


def test_tame_drift_survives_an_overflowing_square():
    # |f|^2 overflows: the reference divides by infinity and returns 0.
    cap = 0.25**-0.5
    got = tame_drift(np.array([[1e200]]), 0.25, 0.5)
    assert got[0, 0] == pytest.approx(cap, rel=1e-12)
    got = tame_drift(np.array([[-1e200], [3.0]]), 0.25, 0.5)
    assert got[0, 0] == pytest.approx(-cap, rel=1e-12)
    assert got[1, 0] == 3.0 / (1.0 + 0.5 * 3.0)
    pair = tame_drift(np.array([[1e200, 1.0], [3.0, 4.0]]), 0.25, 0.5)
    assert pair[0, 0] == pytest.approx(cap, rel=1e-12)
    assert pair[0, 1] == pytest.approx(cap * 1e-200, rel=1e-12)
    # rows whose square does not overflow keep the reference's bits
    assert _same_bits(pair[1], reference_tame_drift([3.0, 4.0], 0.25, 0.5))
    both = tame_drift(np.array([1e300, -1e300]), 0.25, 0.5)
    assert both == pytest.approx([cap / math.sqrt(2), -cap / math.sqrt(2)],
                                 rel=1e-12)


# ---------------------------------------------------------------------------
# Aliasing: the solver writes only into arrays it owns
# ---------------------------------------------------------------------------


def _watched(drift):
    """Wrap ``drift``; keep every output with a copy taken at return."""
    seen = []

    def wrapped(x, y):
        out = drift(x, y)
        seen.append((out, np.array(out, copy=True)))
        return out

    return wrapped, seen


@pytest.mark.parametrize("kind", SHAPES)
@pytest.mark.parametrize("tamed", [False, True])
@pytest.mark.parametrize("which", ["returns_x", "returns_y", "cached"])
def test_solver_writes_no_input_and_no_drift_output(kind, tamed, which):
    shape = _shape(kind, 6)
    rng = np.random.default_rng(11)
    y = rng.normal(size=shape)
    d = rng.normal(size=shape)
    x0 = rng.normal(size=shape)
    cache = rng.normal(size=shape)
    base = {"returns_x": lambda x, yy: x,
            "returns_y": lambda x, yy: yy,
            "cached": lambda x, yy: cache}[which]
    watched_base, seen_base = _watched(base)
    inner = (TamedDrift(watched_base, h_coarse=0.25, delta=0.5) if tamed
             else watched_base)
    drift, seen = _watched(inner)
    inputs = [(arr, arr.copy()) for arr in (y, d, x0, cache)]

    got = implicit_step_solve(y, d, drift, 0.5, 0.5, x0=x0)

    def ref_drift(x, yy):
        out = base(x, yy)
        return reference_tame_drift(out, 0.25, 0.5) if tamed else out

    want = reference_implicit_step_solve(y.copy(), d.copy(), ref_drift,
                                         0.5, 0.5, x0=x0.copy())
    _assert_solver_properties(got, want, y, d, ref_drift, 0.25, 1e-13, True)
    for arr, snapshot in inputs:
        assert _same_bits(arr, snapshot)
    assert seen and seen_base
    for out, snapshot in seen + seen_base:
        assert _same_bits(out, snapshot)
    assert not any(np.shares_memory(got, arr) for arr, _ in inputs)
