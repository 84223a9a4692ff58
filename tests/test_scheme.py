"""Tests for grids, taming, the implicit stage solver and path simulation.

Solver answers are checked against two independent oracles: the exact
closed form for linear drifts, and interval bisection for the scalar
cubic drift (whose implicit-stage residual is strictly increasing, so the
root is unique and bisection cannot lie).  Path values for the explicit
scheme and for the tamed implicit scheme are checked bit for bit against
hand-rolled loops.
"""

import dataclasses
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_sdde.model import SddeProblem, GlobalLipschitz, builtin_problem, derived_constants
from mlmc_sdde import scheme
from mlmc_sdde.rng import NoiseStream
from mlmc_sdde.scheme import (
    AdmissibilityError,
    DelayBuffer,
    GridSpec,
    NonConvergence,
    TamedDrift,
    check_admissibility,
    implicit_step_solve,
    level_step,
    tame_drift,
    taming_for_level,
    theta_em_path,
)

# ---------------------------------------------------------------------------
# Grid construction and alignment
# ---------------------------------------------------------------------------

def test_grid_for_level_powers_of_two():
    p = builtin_problem("linear_scalar")  # tau = 0.25, T = 1
    g = GridSpec.for_problem(p, theta=0.5, level=4, M=2)
    assert g.step_h == 2.0**-4
    assert g.steps_per_delay_m == 4
    assert g.total_steps_N == 16
    assert g.theta == 0.5


def test_grid_explicit_step():
    p = builtin_problem("linear_scalar", tau=0.3, horizon=0.9)
    g = GridSpec.for_problem(p, theta=0.0, level=2, M=3)
    assert (g.steps_per_delay_m, g.total_steps_N) == (3, 9)
    # 3 * 0.1 sits one rounding unit above 0.3; accepted by design
    GridSpec(step_h=0.1, steps_per_delay_m=3, total_steps_N=9,
             theta=0.0).validate_against(p)


def test_grid_misalignment_rejected():
    p = builtin_problem("linear_scalar")  # tau = 0.25
    with pytest.raises(ValueError):
        GridSpec.for_problem(p, theta=0.0, level=1, M=3)  # 0.25*3 = 0.75
    with pytest.raises(ValueError):
        GridSpec(step_h=0.125, steps_per_delay_m=3, total_steps_N=8,
                 theta=0.0).validate_against(p)


def test_path_refuses_a_grid_built_for_another_horizon():
    grid = GridSpec.for_problem(builtin_problem("linear_scalar", horizon=1.0),
                                theta=0.0, level=3)
    with pytest.raises(ValueError, match="misaligned with horizon"):
        theta_em_path(builtin_problem("linear_scalar", horizon=2.0), grid)


def test_path_refuses_a_grid_built_for_another_delay():
    grid = GridSpec.for_problem(builtin_problem("linear_scalar", tau=0.25),
                                theta=0.0, level=3)
    with pytest.raises(ValueError, match="misaligned with delay"):
        theta_em_path(builtin_problem("linear_scalar", tau=0.5), grid)


@pytest.mark.parametrize("M", [2, 3, 4])
def test_level_step_is_the_grid_and_taming_step(M):
    p = builtin_problem("linear_scalar", tau=1.0, horizon=1.0)
    for level in range(1, 5):
        h = level_step(p, level, M)
        assert h == GridSpec.for_problem(p, theta=0.0, level=level,
                                         M=M).step_h
        assert (taming_for_level(p, level, M, 0.5).h_coarse
                == level_step(p, level - 1, M))


def test_grid_validates_fields():
    with pytest.raises(ValueError):
        GridSpec(step_h=0.1, steps_per_delay_m=0, total_steps_N=1, theta=0.0)
    with pytest.raises(ValueError):
        GridSpec(step_h=0.1, steps_per_delay_m=1, total_steps_N=1, theta=1.5)
    with pytest.raises(ValueError):
        GridSpec(step_h=-0.1, steps_per_delay_m=1, total_steps_N=1, theta=0.0)


# ---------------------------------------------------------------------------
# Derived constants and admissibility
# ---------------------------------------------------------------------------

def test_derived_constants_linear_defaults():
    # alpha = max(1,0.5) + max(0.1,0.1) = 1.1; f(0,0) = g(0,0) = 0
    p = builtin_problem("linear_scalar")
    c = derived_constants(p)
    assert c["beta"] == pytest.approx(1.1)
    assert c["alpha_bar"] == pytest.approx(0.5 + 1.1**2)
    assert c["step_cap"] == pytest.approx(1.0 / 6.6)


def test_admissibility_global_implicit():
    p = builtin_problem("linear_scalar")
    ok = GridSpec(step_h=0.125, steps_per_delay_m=2, total_steps_N=8,
                  theta=0.5)
    check_admissibility(p, ok)  # 0.0625 < 1/6.6
    bad = GridSpec(step_h=0.25, steps_per_delay_m=1, total_steps_N=4,
                   theta=1.0)
    with pytest.raises(AdmissibilityError, match="theta\\*h"):
        check_admissibility(p, bad)  # 0.25 >= 1/6.6


def test_admissibility_global_explicit():
    p = builtin_problem("linear_scalar", tau=2.0, horizon=4.0)
    bad = GridSpec(step_h=2.0, steps_per_delay_m=1, total_steps_N=2,
                   theta=0.0)
    with pytest.raises(AdmissibilityError, match="h = 2.0"):
        check_admissibility(p, bad)


def test_admissibility_onesided():
    p = builtin_problem("cubic_onesided")
    g = GridSpec(step_h=0.125, steps_per_delay_m=2, total_steps_N=8,
                 theta=0.5)
    with pytest.raises(AdmissibilityError, match="taming"):
        check_admissibility(p, g)  # implicit untamed: rejected
    explicit = GridSpec(step_h=0.125, steps_per_delay_m=2, total_steps_N=8,
                        theta=0.0)
    check_admissibility(p, explicit)  # explicit untamed: allowed, no guarantee
    tame = TamedDrift(p.drift, h_coarse=0.25, delta=0.25)
    check_admissibility(p, g, taming=tame)  # 0.5*0.25 < 2/1.5
    too_big = TamedDrift(p.drift, h_coarse=32.0, delta=0.25)
    with pytest.raises(AdmissibilityError, match="2/alpha1"):
        check_admissibility(p, g, taming=too_big)


# ---------------------------------------------------------------------------
# Taming
# ---------------------------------------------------------------------------

def test_tame_drift_bound_and_direction():
    f = np.array([[3.0, 4.0], [0.0, 0.0], [-1e12, 0.0]])
    out = tame_drift(f, h_coarse=0.25, delta=0.5)
    norms = np.linalg.norm(out, axis=-1)
    cap = 0.25**-0.5
    assert np.all(norms <= np.minimum(np.linalg.norm(f, axis=-1), cap) + 1e-12)
    np.testing.assert_array_equal(out[1], 0.0)
    # direction preserved
    assert out[0, 0] > 0 and out[0, 1] > 0 and out[2, 0] < 0
    ratio = out[0, 1] / out[0, 0]
    assert ratio == pytest.approx(4.0 / 3.0)


@settings(max_examples=200, deadline=None)
@given(
    fx=st.floats(-1e6, 1e6, allow_nan=False),
    fy=st.floats(-1e6, 1e6, allow_nan=False),
    h=st.floats(1e-6, 0.999),
    delta=st.floats(0.01, 0.5),
)
def test_tame_drift_norm_property(fx, fy, h, delta):
    f = np.array([fx, fy])
    out = tame_drift(f, h, delta)
    n_out = np.linalg.norm(out)
    n_in = np.linalg.norm(f)
    assert n_out <= min(n_in, h**-delta) * (1 + 1e-12)
    # exact scalar identity: |f_h| = |f| / (1 + h^delta |f|)
    assert n_out == pytest.approx(n_in / (1.0 + h**delta * n_in), rel=1e-12)


def test_tamed_drift_object():
    p = builtin_problem("cubic_onesided")
    tame = TamedDrift(p.drift, h_coarse=0.25, delta=0.25)
    x = np.array([[10.0]])
    y = np.array([[0.0]])
    raw = p.drift(x, y)
    expected = raw / (1.0 + 0.25**0.25 * np.abs(raw))
    np.testing.assert_allclose(tame(x, y), expected, rtol=1e-15)
    assert tame.bound == pytest.approx(0.25**-0.25)
    with pytest.raises(ValueError):
        TamedDrift(p.drift, h_coarse=0.25, delta=0.75)
    with pytest.raises(ValueError):
        TamedDrift(p.drift, h_coarse=0.0, delta=0.25)


# ---------------------------------------------------------------------------
# Implicit stage solver
# ---------------------------------------------------------------------------

def test_solver_matches_linear_closed_form():
    a1, a2 = -1.0, 0.5

    def drift(x, y):
        return a1 * x + a2 * y

    rng = np.random.default_rng(3)
    for _ in range(200):
        yt = rng.normal(size=(1,))
        d = rng.normal(size=(1,))
        theta = rng.uniform(0.05, 1.0)
        h = rng.uniform(0.001, 0.4)
        got = implicit_step_solve(yt, d, drift, theta, h)
        exact = (yt + theta * h * a2 * d) / (1.0 - theta * h * a1)
        assert abs(got[0] - exact[0]) < 1e-10


def test_solver_matches_bisection_on_cubic():
    c = 0.5

    def drift(x, y):
        return -(x**3) + c * y

    def bisect_root(yt, d, th):
        # residual r(x) = x + th*x^3 - th*c*d - yt is strictly increasing
        def r(x):
            return x - th * (-(x**3) + c * d) - yt

        lo, hi = -50.0, 50.0
        assert r(lo) < 0 < r(hi)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if r(mid) < 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    rng = np.random.default_rng(4)
    for _ in range(200):
        yt = rng.uniform(-8, 8)
        d = rng.uniform(-8, 8)
        theta = rng.uniform(0.05, 1.0)
        h = rng.uniform(0.001, 0.5)
        got = implicit_step_solve(np.array([yt]), np.array([d]), drift,
                                  theta, h)
        assert abs(got[0] - bisect_root(yt, d, theta * h)) < 1e-10


def test_solver_matches_matrix_closed_form():
    A = np.array([[-1.0, 0.3], [0.2, -0.8]])
    B = np.array([[0.1, 0.0], [0.05, 0.2]])

    def drift(x, y):
        return x @ A.T + y @ B.T

    rng = np.random.default_rng(5)
    yt = rng.normal(size=(64, 2))
    d = rng.normal(size=(64, 2))
    theta, h = 0.7, 0.2
    got = implicit_step_solve(yt, d, drift, theta, h)
    lhs = np.eye(2) - theta * h * A
    exact = np.linalg.solve(lhs, (yt + theta * h * d @ B.T).T).T
    np.testing.assert_allclose(got, exact, atol=1e-10)


def test_solver_batched_equals_rowwise():
    def drift(x, y):
        return -(x**3) + 0.5 * y

    rng = np.random.default_rng(6)
    yt = rng.uniform(-5, 5, size=(32, 1))
    d = rng.uniform(-5, 5, size=(32, 1))
    batch = implicit_step_solve(yt, d, drift, 0.5, 0.3)
    for i in range(32):
        row = implicit_step_solve(yt[i], d[i], drift, 0.5, 0.3)
        assert abs(batch[i, 0] - row[0]) < 1e-11


def test_solver_theta_zero_is_identity():
    yt = np.array([1.5, -2.0])
    got = implicit_step_solve(yt, yt, lambda x, y: x, 0.0, 0.1)
    np.testing.assert_array_equal(got, yt)


def test_solver_reports_nonconvergence():
    # x - x^2 = 1 has no real root: the residual never reaches zero
    def drift(x, y):
        return x**2

    with pytest.raises(NonConvergence) as exc_info:
        implicit_step_solve(np.array([1.0]), np.array([0.0]), drift,
                            1.0, 1.0, max_iter=50)
    err = exc_info.value
    assert err.iterations <= 50
    assert err.residual > 0


def test_nonconvergence_survives_pickling():
    err = NonConvergence("stalled", iterations=7, residual=1.0)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is NonConvergence
    assert (str(back), back.iterations, back.residual) == ("stalled", 7, 1.0)


# ---------------------------------------------------------------------------
# Path simulation
# ---------------------------------------------------------------------------

def test_explicit_path_matches_hand_rolled_loop_bitwise():
    a1, a2, b1, b2, eps, x0 = -1.0, 0.5, 0.1, 0.1, 0.3, 1.0
    p = builtin_problem("linear_scalar", eps=eps)
    g = GridSpec.for_problem(p, theta=0.0, level=3)
    h, m, N = g.step_h, g.steps_per_delay_m, g.total_steps_N
    stream = NoiseStream(master_seed=77, level=3, paths=range(4, 5), dim=1,
                         n_steps=N)
    path = theta_em_path(p, g, noise=stream)

    sqh = math.sqrt(h)
    vals = np.full(N + m + 1, x0)
    for n in range(N):
        x = vals[m + n]
        y = vals[n]
        dw = sqh * stream.gaussian_increment(range(n, n + 1))[0, 0, 0]
        fx = a1 * x + a2 * y
        gx = b1 * x + b2 * y
        vals[m + n + 1] = (x + h * fx) + eps * (gx * dw)

    np.testing.assert_array_equal(path.values[:, 0, 0], vals)


def test_zero_noise_equals_skeleton_bitwise():
    p = builtin_problem("linear_scalar", eps=0.0)
    g = GridSpec.for_problem(p, theta=0.5, level=4)
    stream = NoiseStream(master_seed=1, level=0,
                         paths=range(3), dim=1, n_steps=16)
    with_stream = theta_em_path(p, g, noise=stream)
    skeleton = theta_em_path(p, g, noise=None)
    assert with_stream.values.shape == (16 + 4 + 1, 3, 1)
    for i in range(3):
        np.testing.assert_array_equal(
            with_stream.values[:, i, :], skeleton.values
        )


def test_zero_dynamics_path_is_constant():
    p = builtin_problem("zero_dynamics", x0=2.5, eps=0.5)
    for theta in (0.0, 0.5, 1.0):
        g = GridSpec.for_problem(p, theta=theta, level=3)
        stream = NoiseStream(master_seed=9, level=3, paths=range(1), dim=1,
                             n_steps=8)
        path = theta_em_path(p, g, noise=stream)
        rows = g.total_steps_N + g.steps_per_delay_m + 1
        np.testing.assert_array_equal(path.values,
                                      np.full((rows, 1, 1), 2.5))


def test_implicit_path_satisfies_stage_equation():
    p = builtin_problem("linear_scalar", eps=0.2)
    g = GridSpec.for_problem(p, theta=0.5, level=4)
    h, m, N = g.step_h, g.steps_per_delay_m, g.total_steps_N
    stream = NoiseStream(master_seed=21, level=4,
                         paths=range(8), dim=1, n_steps=N)
    path = theta_em_path(p, g, noise=stream)
    V = path.values
    sqh = math.sqrt(h)
    for n in range(N):
        x, y = V[m + n], V[n]
        xn, yn = V[m + n + 1], V[n + 1]
        dw = sqh * stream.gaussian_increment(range(n, n + 1))[0]
        lhs = xn - g.theta * h * p.drift(xn, yn)
        rhs = (
            x + (1 - g.theta) * h * p.drift(x, y)
            + p.noise_scale * p.diffusion(x, y)[..., 0] * dw
        )
        np.testing.assert_allclose(lhs, rhs, atol=5e-12)


@pytest.mark.parametrize("full_path", [True, False])
def test_implicit_steps_reuse_the_stage_drift_exactly(monkeypatch, full_path):
    # Step n + 1 starts from f(X_{n+1}, X_{n+1-m}), which the stage solve
    # of step n evaluated last.  The run must equal, bit for bit, a loop
    # that calls the drift afresh at every step, and N implicit steps must
    # make N - 1 fewer drift calls than the solves' evaluations plus N.
    calls = {"all": 0, "solve": 0}
    in_solve = [False]
    cubic = builtin_problem("cubic_onesided", eps=0.5)

    def drift(x, y):
        calls["all"] += 1
        calls["solve"] += in_solve[0]
        return cubic.drift(x, y)

    p = dataclasses.replace(cubic, drift=drift)
    g = GridSpec.for_problem(p, theta=0.5, level=5)
    taming = taming_for_level(p, 5, 2, 0.5)
    h, m, N, theta = g.step_h, g.steps_per_delay_m, g.total_steps_N, g.theta
    dw = math.sqrt(h) * np.random.default_rng(3).standard_normal((N, 6, 1))
    solve = scheme.implicit_step_solve

    def counted_solve(*args, **kwargs):
        in_solve[0] = True
        try:
            return solve(*args, **kwargs)
        finally:
            in_solve[0] = False

    monkeypatch.setattr(scheme, "implicit_step_solve", counted_solve)
    path = theta_em_path(p, g, noise=dw, taming=taming, full_path=full_path)
    assert calls["solve"] >= N
    assert calls["all"] == calls["solve"] + N - (N - 1)

    vals = np.empty((N + m + 1, 6, 1))
    vals[:m + 1] = p.initial_segment(h * np.arange(-m, 1))[:, None, :]
    for n in range(N):
        x, x_del = vals[m + n], vals[n]
        fx = taming(x, x_del)
        base = x + (1.0 - theta) * h * fx
        base = base + p.noise_scale * np.einsum(
            "...ij,...j->...i", p.diffusion(x, x_del), dw[n])
        vals[m + n + 1] = solve(base, vals[n + 1], taming, theta, h,
                                x0=base + theta * h * fx)
    want = vals if full_path else vals[-(m + 1):]
    assert path.values.shape == want.shape
    assert path.values.tobytes() == want.tobytes()


def _einsum_calls(monkeypatch):
    calls = []
    einsum = np.einsum

    def spy(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    return calls


def test_two_noise_components_step_through_einsum(monkeypatch):
    # A diffusion of two noise columns takes its product g(x, y) dW by
    # einsum; the run equals, bit for bit, the hand-rolled implicit loop
    # of the test above.
    def drift(x, y):
        return -x + 0.5 * np.sin(y)

    def diffusion(x, y):
        return np.stack([0.3 * x + 0.1 * y, 0.2 * np.cos(y)], axis=-1)

    p = SddeProblem(
        dim_state=1, dim_noise=2, drift=drift, diffusion=diffusion,
        delay=0.25, horizon=1.0, noise_scale=0.5,
        initial_segment=lambda t: (1.0 + t)[:, None],
        regularity=GlobalLipschitz(alpha=1.1), name="two-noise",
    )
    g = GridSpec.for_problem(p, theta=0.5, level=5)
    h, m, N, theta = g.step_h, g.steps_per_delay_m, g.total_steps_N, g.theta
    dw = math.sqrt(h) * np.random.default_rng(5).standard_normal((N, 6, 2))
    vals = np.empty((N + m + 1, 6, 1))
    vals[:m + 1] = p.initial_segment(h * np.arange(-m, 1))[:, None, :]
    for n in range(N):
        x, x_del = vals[m + n], vals[n]
        fx = drift(x, x_del)
        base = x + (1.0 - theta) * h * fx
        base = base + p.noise_scale * np.einsum(
            "...ij,...j->...i", diffusion(x, x_del), dw[n])
        vals[m + n + 1] = implicit_step_solve(base, vals[n + 1], drift,
                                              theta, h,
                                              x0=base + theta * h * fx)
    calls = _einsum_calls(monkeypatch)
    path = theta_em_path(p, g, noise=dw)
    assert calls == ["...ij,...j->...i"] * N
    assert path.values.tobytes() == vals.tobytes()


def test_one_noise_component_product_is_the_einsum_bitwise(monkeypatch):
    # With one noise column the step multiplies g(x, y)[..., 0] by dW,
    # with the einsum's bits, signed zeros too: einsum adds the product to
    # +0.0, so a step from x = -0.0 with a product of -0.0 ends at +0.0.
    def drift(x, y):
        return -0.0 * np.abs(x)  # -0.0 wherever x is finite

    def diffusion(x, y):
        return x[..., None] * (1.0 + y[..., None] ** 2)

    x = np.array([[-0.0], [0.0], [-0.0], [1.5], [-2.0], [0.25]])
    y = np.array([[1.0], [-1.0], [0.0], [0.5], [3.0], [-0.75]])
    dw = np.array([[0.5], [0.5], [-0.0], [-1.25], [0.0], [2.0]])
    want = x + 0.1 * drift(x, y) + 0.3 * np.einsum(
        "...ij,...j->...i", diffusion(x, y), dw)
    assert np.signbit(want[0, 0]) == np.signbit(0.0)  # the einsum's +0.0
    calls = _einsum_calls(monkeypatch)
    got, fx = scheme._step(x, y, y, 0.1, 0.0, drift, diffusion, 0.3, dw,
                           None)
    assert calls == [] and fx is None
    assert got.tobytes() == want.tobytes()


def test_history_occupies_buffer_head():
    def xi(t):
        return (1.0 + t)[:, None]  # linear-in-time history

    p = builtin_problem("linear_scalar")
    p = SddeProblem(
        dim_state=1, dim_noise=1, drift=p.drift, diffusion=p.diffusion,
        delay=0.25, horizon=1.0, noise_scale=0.0, initial_segment=xi,
        regularity=GlobalLipschitz(alpha=1.1), name="lin-hist",
    )
    g = GridSpec.for_problem(p, theta=0.0, level=2)
    path = theta_em_path(p, g)
    m, N = g.steps_per_delay_m, g.total_steps_N
    # grid index n lives at values[m + n]: -m is the head, N the terminal
    assert (m, N) == (1, 4) and path.values.shape == (m + N + 1, 1)
    assert path.values[m - 1][0] == pytest.approx(1.0 - 0.25)
    assert path.values[m + 0][0] == pytest.approx(1.0)
    assert -m * path.step_h == pytest.approx(-0.25)
    assert (path.values.shape[0] - 1 - m) * path.step_h == pytest.approx(1.0)


def test_increment_array_drive_matches_stream_drive(monkeypatch):
    # A stream, drawn here three steps at a time with a short last block,
    # its increments in one array, and an iterator over that array's rows
    # drive the same paths bit for bit, explicit and tamed implicit, whole
    # paths and delay windows.
    blocks = []
    draw = NoiseStream.gaussian_increment

    def spy(self, steps):
        blocks.append(len(steps))
        return draw(self, steps)

    monkeypatch.setattr(scheme, "_BLOCK_DRAWS", 18)
    cub = builtin_problem("cubic_onesided")
    for p, theta, level, taming in [
            (builtin_problem("linear_scalar", eps=0.4), 0.0, 3, None),
            (cub, 0.5, 4, taming_for_level(cub, 4, 2, 0.5))]:
        g = GridSpec.for_problem(p, theta=theta, level=level)
        N = g.total_steps_N
        stream = NoiseStream(master_seed=5, level=level,
                             paths=range(6), dim=1, n_steps=N)
        dw = math.sqrt(g.step_h) * stream.gaussian_increment(range(N))
        for full_path in (True, False):
            with monkeypatch.context() as patch:
                patch.setattr(NoiseStream, "gaussian_increment", spy)
                blocks.clear()
                runs = [theta_em_path(p, g, noise=noise, taming=taming,
                                      full_path=full_path)
                        for noise in (stream, dw, iter(dw))]
            assert blocks == [3] * (N // 3) + [N % 3] and N % 3
            for run in runs[1:]:
                np.testing.assert_array_equal(run.values, runs[0].values)


@pytest.mark.parametrize("theta", [0.0, 0.5])
def test_path_takes_increments_from_any_iterable_of_rows(theta):
    # Increments are taken as they are, one (P, d) array per step: a list,
    # a generator and an (N, P, d) array of the same rows run the same
    # path, and an (N, d) array, whose rows are not (P, d), is refused.
    p = builtin_problem("linear_scalar", eps=0.4)
    g = GridSpec.for_problem(p, theta=theta, level=3)
    N = g.total_steps_N
    dw = 0.3 * np.random.default_rng(2).standard_normal((N, 3, 1))
    runs = [theta_em_path(p, g, noise=noise).values
            for noise in (dw, list(dw), (row for row in dw))]
    assert runs[0].shape == (N + g.steps_per_delay_m + 1, 3, 1)
    for run in runs[1:]:
        np.testing.assert_array_equal(run, runs[0])
    with pytest.raises(ValueError, match=rf"N = {N} .* shape \(P, d\)"):
        theta_em_path(p, g, noise=dw[:, 0])


def test_path_rejects_mismatched_noise():
    p = builtin_problem("linear_scalar")
    g = GridSpec.for_problem(p, theta=0.0, level=3)
    wrong_dim = NoiseStream(master_seed=0, level=0, paths=range(1), dim=2,
                            n_steps=8)
    with pytest.raises(ValueError, match="dim"):
        theta_em_path(p, g, noise=wrong_dim)
    short = NoiseStream(master_seed=0, level=0, paths=range(1), dim=1,
                        n_steps=7)
    with pytest.raises(ValueError, match="^stream covers 7 fine steps, "
                                         "grid needs 8$"):
        theta_em_path(p, g, noise=short)
    # An N mismatch of a 2-D array: its rows are (1,) increments.
    with pytest.raises(ValueError, match=r"with d = 1, got \(1,\) at step 0$"):
        theta_em_path(p, g, noise=np.zeros((4, 1)))
    # Iterators of too few, too many or wrongly shaped increments; the
    # grid needs N = 8 of shape (P, 1).  Every refusal ends with the shape
    # received, or none, and the step it arrived at.
    row, row3 = np.zeros((2, 1)), np.zeros((3, 1))
    for rows, want, end in (
            ([row] * 7, "(2, 1)", "none at step 7"),
            ([row] * 9, "(2, 1)", "(2, 1) at step 8"),
            ([row] * 3 + [row3] * 5, "(2, 1)", "(3, 1) at step 3"),
            ([row3] * 4 + [row] * 4, "(3, 1)", "(2, 1) at step 4"),
            ([row3] * 7, "(3, 1)", "none at step 7"),
            ([row3] * 9, "(3, 1)", "(3, 1) at step 8"),
            ([np.zeros((2, 2))] * 8, "(2, 1)", "(2, 2) at step 0")):
        with pytest.raises(ValueError, match="^" + re.escape(
                f"noise must give N = 8 increments of shape (P, d) = {want}, "
                f"got {end}") + "$"):
            theta_em_path(p, g, noise=iter(rows))
    with pytest.raises(ValueError, match=r"N = 8 .* shape \(P, d\) with "
                                         r"d = 1, got none at step 0$"):
        theta_em_path(p, g, noise=iter([]))
    # At eps = 0 the steps ignore the increments, which are still checked.
    quiet = builtin_problem("linear_scalar", eps=0.0)
    for noise, end in ((np.zeros((7, 2, 1)), "none at step 7"),
                       (iter([row] * 9), r"\(2, 1\) at step 8"),
                       (iter([row] * 4 + [np.zeros((2,))] + [row] * 3),
                        r"\(2,\) at step 4")):
        with pytest.raises(ValueError, match=(
                rf"^noise must give N = 8 increments of shape \(P, d\) = "
                rf"\(2, 1\), got {end}$")):
            theta_em_path(quiet, g, noise=noise)


def test_increments_without_a_batch_axis_are_named_by_their_shape():
    # A first increment that is not 2-D leaves the batch size unknown; the
    # message used to print P = 1, a batch size nobody gave, and now names
    # the shape it received and the step, as every refusal does.
    p = builtin_problem("linear_scalar")
    g = GridSpec.for_problem(p, theta=0.0, level=3)
    for noise, got in ((np.zeros((8, 3)), r"\(3,\)"), (iter([]), "none")):
        with pytest.raises(ValueError, match=(
                r"^noise must give N = 8 increments of shape \(P, d\) "
                rf"with d = 1, got {got} at step 0$")):
            theta_em_path(p, g, noise=noise)


def test_single_step_second_moment_scaling():
    # max_n E|X_{n+1} - X_n|^2 scales like h^2 without noise and like h
    # with order-one additive noise.
    levels = np.arange(2, 7)

    def max_rms_increment(problem, n_paths):
        out = []
        for lvl in levels:
            g = GridSpec.for_problem(problem, theta=0.0, level=int(lvl))
            stream = NoiseStream(
                master_seed=100 + int(lvl), level=int(lvl),
                paths=range(n_paths), dim=1,
                n_steps=g.total_steps_N,
            )
            path = theta_em_path(problem, g, noise=stream)
            steps = path.values[g.steps_per_delay_m:]
            inc = np.diff(steps, axis=0)
            out.append(np.max(np.mean(np.sum(inc**2, axis=-1), axis=-1)))
        return np.array(out)

    hs = 2.0 ** -levels.astype(float)

    skel = builtin_problem("linear_scalar", eps=0.0)
    moments = max_rms_increment(skel, 1)
    slope = np.polyfit(np.log(hs), np.log(moments), 1)[0]
    assert abs(slope - 2.0) < 0.2

    noisy = builtin_problem("additive_noise", eps=1.0)
    moments = max_rms_increment(noisy, 4000)
    slope = np.polyfit(np.log(hs), np.log(moments), 1)[0]
    assert abs(slope - 1.0) < 0.2


def test_second_moment_stays_bounded_on_long_run():
    p = builtin_problem("linear_scalar", eps=0.5, tau=0.25, horizon=4.0)
    g = GridSpec.for_problem(p, theta=0.5, level=6)  # h = 4/64
    stream = NoiseStream(master_seed=17, level=0,
                         paths=range(2000), dim=1,
                         n_steps=g.total_steps_N)
    path = theta_em_path(p, g, noise=stream)
    second_moment = np.mean(path.values[..., 0] ** 2, axis=-1)
    assert np.all(np.isfinite(second_moment))
    # contractive drift, small noise: far below the initial square
    assert second_moment[-1] < 1.0


# ---------------------------------------------------------------------------
# Delay-window runs
# ---------------------------------------------------------------------------

def _window_cases():
    lin = builtin_problem("linear_scalar", eps=0.3)
    cub = builtin_problem("cubic_onesided")
    g_lin = GridSpec.for_problem(lin, theta=0.0, level=4)
    g_cub = GridSpec.for_problem(cub, theta=0.5, level=4)
    # Level 3: N = 8, m = 2, so the ring of m + 1 rows wraps mid-cycle.
    g_3 = GridSpec.for_problem(lin, theta=0.0, level=3)
    batch = NoiseStream(master_seed=5, level=4, paths=range(6),
                        dim=1, n_steps=16)
    rng = np.random.default_rng(0)
    return {
        "explicit": (lin, g_lin, batch, None),
        "tamed-implicit": (cub, g_cub, batch,
                           TamedDrift(cub.drift, h_coarse=2.0**-3,
                                      delta=0.5)),
        # A one-path stream, batched like any other.
        "scalar-path": (lin, g_lin, NoiseStream(master_seed=5, level=4,
                                                paths=range(3, 4), dim=1,
                                                n_steps=16), None),
        "array-noise": (lin, g_lin, 0.25 * rng.standard_normal((16, 4, 1)),
                        None),
        "zero-eps": (builtin_problem("linear_scalar", eps=0.0), g_lin, batch,
                     None),
        "skeleton": (lin, g_lin, None, None),
        "ring-wraps": (lin, g_3, 0.3 * rng.standard_normal((8, 3, 1)), None),
    }


@pytest.mark.parametrize("case", list(_window_cases()))
def test_window_run_is_tail_of_full_run_bitwise(case):
    problem, grid, noise, taming = _window_cases()[case]
    full = theta_em_path(problem, grid, noise=noise, taming=taming)
    window = theta_em_path(problem, grid, noise=noise, taming=taming,
                           full_path=False)
    m = grid.steps_per_delay_m
    assert window.values.shape == full.values[-(m + 1):].shape
    np.testing.assert_array_equal(window.values, full.values[-(m + 1):])
    np.testing.assert_array_equal(window.terminal, full.terminal)
    assert (window.total_steps, window.m, window.step_h) == (
        full.total_steps, full.m, full.step_h)


def test_window_run_memory_is_order_m_not_n():
    # The reference shape of the default strong-error sweep: level 10,
    # N = 1024, m = 256, 2500 paths; a full path holds 24.4 MiB of states.
    p = builtin_problem("linear_scalar", eps=1e-4)
    g = GridSpec.for_problem(p, theta=0.0, level=10)
    dw = np.sqrt(g.step_h) * np.random.default_rng(1).standard_normal(
        (g.total_steps_N, 2500, 1))
    peaks = {}
    for full_path in (True, False):
        tracemalloc.start()
        try:
            theta_em_path(p, g, noise=dw, full_path=full_path)
            peaks[full_path] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[True] > 24 * 2**20
    assert peaks[False] < 12 * 2**20
