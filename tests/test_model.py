"""Problem registry, declared-regularity spot checks, derived constants."""

import numpy as np
import pytest

from mlmc_sdde.model import (
    BUILTIN_PAYOFFS,
    BUILTIN_PROBLEMS,
    GlobalLipschitz,
    OneSidedLipschitz,
    SddeProblem,
    builtin_payoff,
    builtin_problem,
    derived_constants,
)

RNG = np.random.default_rng(20260817)


# ---------------------------------------------------------------------------
# Registry and construction
# ---------------------------------------------------------------------------

def test_registry_names():
    assert set(BUILTIN_PROBLEMS) == {
        "linear_scalar", "additive_noise", "cubic_onesided", "zero_dynamics",
    }
    assert set(BUILTIN_PAYOFFS) == {"identity", "tanh"}


@pytest.mark.parametrize("name", sorted(BUILTIN_PROBLEMS))
def test_builtins_construct(name):
    prob = builtin_problem(name)
    assert prob.name == name
    assert prob.dim_state == 1 and prob.dim_noise == 1
    assert prob.delay == 0.25 and prob.horizon == 1.0
    x = RNG.normal(size=(7, 1))
    y = RNG.normal(size=(7, 1))
    assert prob.drift(x, y).shape == (7, 1)
    assert prob.diffusion(x, y).shape == (7, 1, 1)


def test_unknown_problem_lists_registry():
    with pytest.raises(KeyError, match="linear_scalar"):
        builtin_problem("no_such_problem")
    with pytest.raises(KeyError, match="tanh"):
        builtin_payoff("no_such_payoff")


def test_coefficient_overrides_change_dynamics():
    base = builtin_problem("linear_scalar")
    hot = builtin_problem("linear_scalar", a1=-0.25, a2=0.125, b1=1.0, b2=0.25)
    x = np.array([[2.0]]); y = np.array([[1.0]])
    assert hot.drift(x, y)[0, 0] == -0.25 * 2.0 + 0.125 * 1.0
    assert base.drift(x, y)[0, 0] == -2.0 + 0.5
    assert hot.regularity.alpha == 0.25 + 1.0


def test_with_noise_scale_copies():
    prob = builtin_problem("linear_scalar", eps=0.3)
    other = prob.with_noise_scale(0.0)
    assert other.noise_scale == 0.0 and prob.noise_scale == 0.3
    assert other.drift is prob.drift


def test_history_state():
    prob = builtin_problem("linear_scalar", x0=2.5)
    np.testing.assert_array_equal(prob.history_state(-0.1), [2.5])
    np.testing.assert_array_equal(prob.history_state(0.0), [2.5])


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eps", [-0.1, 1.1, 2.0])
def test_noise_scale_range_rejected(eps):
    with pytest.raises(ValueError, match="noise_scale"):
        builtin_problem("linear_scalar", eps=eps)


@pytest.mark.parametrize("eps", [0.0, 1.0, 0.5])
def test_noise_scale_edges_accepted(eps):
    assert builtin_problem("linear_scalar", eps=eps).noise_scale == eps


def test_positive_delay_and_horizon_required():
    with pytest.raises(ValueError, match="delay"):
        builtin_problem("linear_scalar", tau=0.0)
    with pytest.raises(ValueError, match="horizon"):
        builtin_problem("linear_scalar", horizon=-1.0)


def test_regularity_validation():
    with pytest.raises(ValueError, match="alpha"):
        GlobalLipschitz(alpha=1.0)
    with pytest.raises(ValueError, match="alpha1"):
        OneSidedLipschitz(alpha1=0.5, alpha2=2.0, alpha3=1.0, growth_r=2.0)
    with pytest.raises(ValueError, match="alpha3"):
        OneSidedLipschitz(alpha1=1.5, alpha2=2.0, alpha3=0.0, growth_r=2.0)
    with pytest.raises(ValueError, match="growth_r"):
        OneSidedLipschitz(alpha1=1.5, alpha2=2.0, alpha3=1.0, growth_r=-1.0)
    with pytest.raises(ValueError, match="p"):
        OneSidedLipschitz(alpha1=1.5, alpha2=2.0, alpha3=1.0, growth_r=2.0, p=1.0)


def test_cubic_guard_on_declared_constants():
    with pytest.raises(ValueError, match="c \\+ sigma\\^2"):
        builtin_problem("cubic_onesided", c=1.4, sigma=0.5)


# ---------------------------------------------------------------------------
# Declared regularity spot checks (sampled, vectorized)
# ---------------------------------------------------------------------------

def _sample_pairs(n, scale=10.0):
    pts = RNG.uniform(-scale, scale, size=(4, n, 1))
    return pts[0], pts[1], pts[2], pts[3]  # x, y, u, v


@pytest.mark.parametrize("name", ["linear_scalar", "additive_noise"])
def test_global_lipschitz_bound_sampled(name):
    prob = builtin_problem(name)
    alpha = prob.regularity.alpha
    x, y, u, v = _sample_pairs(100_000)
    df = np.linalg.norm(prob.drift(x, y) - prob.drift(u, v), axis=-1)
    dg = np.linalg.norm(
        prob.diffusion(x, y) - prob.diffusion(u, v), axis=(-2, -1))
    rhs = alpha * (np.linalg.norm(x - u, axis=-1) + np.linalg.norm(y - v, axis=-1))
    assert np.all(df + dg <= rhs * (1 + 1e-12) + 1e-12)


def test_one_sided_bound_sampled_worst_case_noise():
    prob = builtin_problem("cubic_onesided")
    reg = prob.regularity
    x, y, u, v = _sample_pairs(100_000, scale=8.0)
    df = prob.drift(x, y) - prob.drift(u, v)
    dg = prob.diffusion(x, y) - prob.diffusion(u, v)
    dx = x - u
    dy = y - v
    # eps = 1 is the worst case of the eps-dependent term for eps in [0, 1].
    lhs = (2.0 * np.sum(dx * df, axis=-1)
           + (reg.p - 1.0) * 1.0**2 * np.sum(dg * dg, axis=(-2, -1)))
    rhs = reg.alpha1 * (np.sum(dx * dx, axis=-1) + np.sum(dy * dy, axis=-1))
    assert np.all(lhs <= rhs * (1 + 1e-12) + 1e-12)


def test_polynomial_drift_difference_bound_sampled():
    prob = builtin_problem("cubic_onesided")
    reg = prob.regularity
    x, y, u, v = _sample_pairs(100_000, scale=8.0)
    df = np.linalg.norm(prob.drift(x, y) - prob.drift(u, v), axis=-1)
    r = reg.growth_r
    poly = (1.0
            + np.linalg.norm(x, axis=-1) ** r + np.linalg.norm(u, axis=-1) ** r
            + np.linalg.norm(y, axis=-1) ** r + np.linalg.norm(v, axis=-1) ** r)
    rhs = reg.alpha2 * poly * (
        np.linalg.norm(x - u, axis=-1) + np.linalg.norm(y - v, axis=-1))
    assert np.all(df <= rhs * (1 + 1e-12) + 1e-12)


def test_diffusion_square_growth_sampled():
    prob = builtin_problem("cubic_onesided")
    reg = prob.regularity
    x, y, _, _ = _sample_pairs(100_000, scale=8.0)
    g2 = np.sum(prob.diffusion(x, y) ** 2, axis=(-2, -1))
    rhs = reg.alpha3 * (1.0 + np.sum(x * x, axis=-1) + np.sum(y * y, axis=-1))
    assert np.all(g2 <= rhs * (1 + 1e-12))


# ---------------------------------------------------------------------------
# Derived constants
# ---------------------------------------------------------------------------

def test_derived_constants_global():
    prob = builtin_problem("linear_scalar")  # alpha = 1 + 0.1 = 1.1
    c = derived_constants(prob)
    assert c["f00"] == 0.0 and c["g00"] == 0.0
    assert c["beta"] == 1.1
    assert c["alpha_bar"] == 0.5 + 1.1**2
    assert c["step_cap"] == 1.0 / (6.0 * 1.1)


def test_derived_constants_one_sided():
    prob = builtin_problem("cubic_onesided")
    c = derived_constants(prob)
    assert c["f00"] == 0.0
    assert c["g00"] == 0.5  # sigma * sqrt(1 + 0)
    assert c["alpha1_bar"] == 1.5
    assert "step_cap" not in c


def test_derived_constants_nonzero_origin():
    prob = builtin_problem("additive_noise", g0=2.0)
    c = derived_constants(prob)
    assert c["g00"] == 2.0
    assert c["beta"] == max(prob.regularity.alpha, 2.0)


# ---------------------------------------------------------------------------
# Payoffs
# ---------------------------------------------------------------------------

def test_identity_payoff_eval():
    psi = builtin_payoff("identity")
    x = RNG.normal(size=(5, 3, 1))
    np.testing.assert_array_equal(psi.eval(x), x[..., 0])


@pytest.mark.parametrize("name", sorted(BUILTIN_PAYOFFS))
def test_builtin_payoffs_return_new_arrays(name):
    # A payoff kept past its run must not keep the path it was read from.
    x = RNG.normal(size=(5, 3, 2))
    values = builtin_payoff(name).eval(x)
    assert not np.shares_memory(values, x)


def test_tanh_payoff_bounded_and_smooth():
    psi = builtin_payoff("tanh")
    x = RNG.normal(size=(1000, 1)) * 50.0
    vals = psi.eval(x)
    assert vals.shape == (1000,)
    assert np.all(np.abs(vals) <= 1.0)
    np.testing.assert_allclose(psi.eval(np.array([0.3])), np.tanh(0.3))
