"""Tests for rate fitting, skeletons, and the sweep experiments.

Slope windows here are deliberately wider than the headline acceptance
runs because these use small path counts; the tight checks live in
tests/test_acceptance.py.  Exact checks (skeleton oracles, record
schemas, worker-count invariance) are the load-bearing part.
"""

import tracemalloc

import numpy as np
import pytest

from mlmc_sdde import analysis, cli, coupling, scheme
from mlmc_sdde.analysis import (
    EnvelopeFit,
    RateFit,
    coupled_moment_rates,
    coupled_variance_rates,
    deterministic_skeleton,
    envelope_fit,
    small_noise_deviation,
    strong_error_rate,
)
from mlmc_sdde.coupling import LevelPair
from mlmc_sdde.mlmc import single_level_estimate
from mlmc_sdde.model import builtin_payoff, builtin_problem
from mlmc_sdde.rng import NoiseStream
from mlmc_sdde.scheme import GridSpec, taming_for_level, theta_em_path

EPS_WINDOW = (0.0625, 0.08838834764831845, 0.125,
              0.17677669529663687, 0.25)

RECORD_KEYS = ("experiment", "level", "h", "eps", "theta", "delta",
               "statistic", "value", "samples", "seed")


def _strong_noise_problem(eps=1e-4):
    # Linear problem with diffusion large relative to drift, so the
    # noise-driven term of each bound can dominate inside [1/16, 1/4].
    return builtin_problem("linear_scalar", a1=-0.25, a2=0.125,
                           b1=1.0, b2=0.25, eps=eps)


# ---------------------------------------------------------------------------
# RateFit
# ---------------------------------------------------------------------------

def test_rate_fit_recovers_exact_power_law():
    x = [0.5, 0.25, 0.125, 0.0625]
    y = [3.0 * v**2.5 for v in x]
    fit = RateFit.from_data(x, y)
    assert fit.slope == pytest.approx(2.5, abs=1e-10)
    assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-10)
    assert fit.r_squared == 1.0
    assert len(fit.points) == 4
    lx, ly = fit.points[0]
    assert lx == pytest.approx(np.log(0.5)) and ly == pytest.approx(np.log(y[0]))


def test_rate_fit_validation():
    with pytest.raises(ValueError, match="3 points"):
        RateFit.from_data([1.0, 0.5], [1.0, 0.5])
    with pytest.raises(ValueError, match="positive"):
        RateFit.from_data([1.0, 0.5, 0.25], [1.0, -0.5, 0.25])
    with pytest.raises(ValueError, match="positive"):
        RateFit.from_data([1.0, 0.0, 0.25], [1.0, 0.5, 0.25])
    with pytest.raises(ValueError, match="equal length"):
        RateFit.from_data([1.0, 0.5, 0.25], [1.0, 0.5])
    # One distinct x is a vertical design: lstsq used to return its
    # minimum-norm answer as a slope.
    with pytest.raises(ValueError, match="2 distinct x, got 0.1 only"):
        RateFit.from_data([0.1, 0.1, 0.1], [1.0, 2.0, 3.0])


def test_rate_fit_r_squared_stays_in_unit_interval():
    rng = np.random.default_rng(0)
    x = np.exp(rng.normal(size=12))
    y = np.exp(rng.normal(size=12))  # no relationship at all
    fit = RateFit.from_data(x, y)
    assert 0.0 <= fit.r_squared <= 1.0


# ---------------------------------------------------------------------------
# Envelope fit
# ---------------------------------------------------------------------------

def test_envelope_fit_dominates_data():
    x = np.array([0.01, 0.02, 0.05, 0.1, 0.2])
    wiggle = np.array([1.02, 0.97, 1.01, 0.99, 1.03])
    y = (2.0 * x + 0.5 * x**2) * wiggle
    fit = envelope_fit([x, x**2], y)
    assert isinstance(fit, EnvelopeFit)
    assert fit.dominates(y)
    assert np.all(np.asarray(fit.fitted) >= y - 1e-15)
    assert fit.scale >= 1.0 - 1e-12
    assert fit.r_squared > 0.9
    assert fit.coefficients[0] > 0.0


def test_envelope_fit_rejects_vanishing_basis():
    with pytest.raises(ValueError, match="vanished"):
        envelope_fit([[0.0, 0.0, 0.0]], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="matching lengths"):
        envelope_fit([[1.0, 2.0]], [1.0, 2.0, 3.0])


# ---------------------------------------------------------------------------
# Deterministic skeleton
# ---------------------------------------------------------------------------

def test_skeleton_zero_dynamics_is_constant():
    problem = builtin_problem("zero_dynamics")
    grid = GridSpec.for_problem(problem, theta=0.0, level=3)
    path = deterministic_skeleton(problem, grid)
    assert np.all(path.values == problem.initial_segment(np.array([0.0]))[0])


@pytest.mark.parametrize("theta", [0.0, 0.5])
def test_skeleton_matches_zero_noise_scheme_bitwise(theta):
    problem = builtin_problem("linear_scalar").with_noise_scale(0.0)
    grid = GridSpec.for_problem(problem, theta=theta, level=4)
    skeleton = deterministic_skeleton(problem, grid)
    stream = NoiseStream(master_seed=9, level=4, paths=range(3),
                         dim=problem.dim_noise,
                         n_steps=grid.total_steps_N)
    driven = theta_em_path(problem, grid, noise=stream)
    for p in range(3):
        assert np.array_equal(driven.values[:, p, :], skeleton.values)


@pytest.mark.parametrize("level", [3, 4, 5])
def test_skeleton_fully_implicit_linear_closed_form(level):
    # At theta = 1 the linear stage equation solves in closed form:
    # z_{n+1} = (z_n + h a2 z_{n+1-m}) / (1 - h a1).
    problem = builtin_problem("linear_scalar")
    a1, a2 = -1.0, 0.5
    grid = GridSpec.for_problem(problem, theta=1.0, level=level)
    path = deterministic_skeleton(problem, grid)
    h, m, n_steps = grid.step_h, grid.steps_per_delay_m, grid.total_steps_N
    z = np.empty(n_steps + m + 1)
    z[: m + 1] = 1.0
    for n in range(n_steps):
        z[m + n + 1] = (z[m + n] + h * a2 * z[n + 1]) / (1.0 - h * a1)
    assert np.abs(path.values[:, 0] - z).max() <= 1e-12


@pytest.mark.parametrize("name, theta, delta", [
    ("cubic_onesided", 0.5, 0.5),
    ("linear_scalar", 0.0, None),
    ("linear_scalar", 1.0, None),
])
def test_plan_run_without_noise_is_the_skeleton_of_its_level(name, theta,
                                                             delta):
    # The deviation sweep takes its skeleton from the base-level plan; it
    # is the skeleton of the plan's grid tamed by the level's rule.
    problem = builtin_problem(name)
    level, M = 4, 2
    plan = LevelPair.for_problem(problem, level, M=M, theta=theta,
                                 delta=delta, coupled=False)
    ran = plan.run(None, full_path=True)
    skeleton = deterministic_skeleton(
        problem, plan.grid_fine, taming_for_level(problem, level, M, delta))
    assert (ran.m, ran.total_steps) == (skeleton.m, skeleton.total_steps)
    np.testing.assert_array_equal(ran.values, skeleton.values)


# ---------------------------------------------------------------------------
# Small-noise deviation
# ---------------------------------------------------------------------------

def test_deviation_untamed_slope_two_and_exact_zero():
    problem = builtin_problem("linear_scalar")
    result = small_noise_deviation(
        problem, level=5, theta=0.0,
        eps_sweep=[0.0, 0.002, 0.005, 0.01, 0.02, 0.05],
        n_paths=600, seed=11,
    )
    assert result.deviation_sq[0] == 0.0  # eps = 0 reproduces the skeleton
    assert abs(result.fit.slope - 2.0) <= 0.3
    assert result.fit.r_squared >= 0.95
    assert result.envelope is None
    assert len(result.records) == 6
    assert result.records[0]["eps"] == 0.0
    assert result.records[0]["value"] == 0.0


def test_deviation_tamed_envelope_floor():
    problem = builtin_problem("cubic_onesided")
    result = small_noise_deviation(
        problem, level=5, theta=0.0, delta=0.25,
        eps_sweep=[0.002, 0.005, 0.01, 0.02, 0.05],
        n_paths=400, seed=5,
    )
    env = result.envelope
    assert env is not None
    assert env.dominates(result.deviation_sq)
    assert env.coefficients[1] > 0.0  # the eps^2 term carries the data
    assert env.scale <= 1.1
    assert env.r_squared >= 0.9
    assert abs(result.fit.slope - 2.0) <= 0.35


def test_deviation_validation():
    problem = builtin_problem("linear_scalar")
    with pytest.raises(ValueError, match="decade"):
        small_noise_deviation(problem, level=4,
                              eps_sweep=[0.01, 0.02, 0.05], n_paths=8)
    with pytest.raises(ValueError, match="decade"):
        small_noise_deviation(problem, level=4,
                              eps_sweep=[0.0, 0.01, 0.1], n_paths=8)
    with pytest.raises(ValueError, match=">= 0"):
        small_noise_deviation(problem, level=4,
                              eps_sweep=[-0.01, 0.01, 0.1], n_paths=8)
    # At eps 1e-170 the deviation underflows to 0.  The cell used to pass
    # the decade check and then drop out of the fit, which ran over
    # 0.01-0.012 alone (slope 1.50 here, against 2).
    with pytest.raises(ValueError, match="^deviation: deviation_sup_sq is 0 "
                                         "at eps 1e-170; the eps fit takes "
                                         "its log$"):
        small_noise_deviation(problem, level=4,
                              eps_sweep=[1e-170, 0.01, 0.011, 0.012])


# ---------------------------------------------------------------------------
# Coupled moment rates
# ---------------------------------------------------------------------------

def test_moment_rates_drift_and_noise_regimes():
    problem = _strong_noise_problem(eps=1e-4)
    result = coupled_moment_rates(
        problem, theta=0.0, level_sweep=[3, 4, 5, 6, 7],
        eps_sweep=EPS_WINDOW, n_paths=1000, seed=7,
    )
    # Drift-dominated level sweep at eps = 1e-4: quadratic in h.
    assert abs(result.h_slope.slope - 2.0) <= 0.4
    assert result.h_slope.r_squared >= 0.9
    # Noise-dominated eps sweep at the finest level: quartic in eps.
    assert abs(result.eps_slope.slope - 4.0) <= 0.7
    assert result.eps_slope.r_squared >= 0.85
    # Untamed fits use the fine step as the x variable.
    assert result.h_values == tuple(2.0**-l for l in [3, 4, 5, 6, 7])
    # Terminal-node variants ride along and cannot exceed the sup.
    assert all(t <= s for t, s in zip(result.h_terminal, result.h_sup))
    assert len(result.records) == 2 * (5 + 5)
    stats = {r["statistic"] for r in result.records}
    assert stats == {"coupled_sup_sq_moment", "coupled_terminal_sq_moment"}


def test_moment_rates_tamed_uses_coarse_step_axis():
    problem = builtin_problem("cubic_onesided")
    result = coupled_moment_rates(
        problem, theta=0.0, delta=0.25, level_sweep=[3, 4, 5],
        eps_sweep=[0.01, 0.02, 0.05], n_paths=200, seed=9,
    )
    assert result.h_values == tuple(2.0 ** -(l - 1) for l in [3, 4, 5])
    assert all(r["delta"] == 0.25 for r in result.records)
    assert all(v > 0.0 for v in result.h_sup)


def test_moment_rates_validation():
    problem = builtin_problem("linear_scalar")
    with pytest.raises(ValueError, match="level_sweep"):
        coupled_moment_rates(problem, level_sweep=[3, 4],
                             eps_sweep=[0.1, 0.2, 0.4], n_paths=8)
    with pytest.raises(ValueError, match="eps_sweep"):
        coupled_moment_rates(problem, level_sweep=[3, 4, 5],
                             eps_sweep=[0.1, 0.2], n_paths=8)


@pytest.mark.parametrize("eps", [0.0, -0.125, float("nan")])
@pytest.mark.parametrize("experiment", ["rates-moment", "rates-variance"])
def test_two_sweeps_refuse_a_noise_scale_not_above_zero(experiment, eps,
                                                        monkeypatch):
    # The eps fit takes logs, so a scale <= 0 is refused, naming the sweep
    # and the value, before any cell runs.
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(analysis, "_run_cells", no_cells)
    with pytest.raises(ValueError, match=f"^{experiment}: eps_sweep needs "
                                         f"noise scales > 0, got {eps:g}$"):
        _SWEEPS[experiment](builtin_problem("linear_scalar"),
                            builtin_payoff("identity"), 8,
                            eps_sweep=[0.125, eps, 0.25])


@pytest.mark.parametrize("experiment, sweep, got, run", [
    ("rates-moment", "eps_sweep", "0.1, 0.1, 0.1",
     lambda p, psi: coupled_moment_rates(p, level_sweep=[3, 4, 5],
                                         eps_sweep=[0.1, 0.1, 0.1],
                                         n_paths=8)),
    ("rates-moment", "level_sweep", "4, 4, 4",
     lambda p, psi: coupled_moment_rates(p, level_sweep=[4, 4, 4],
                                         eps_sweep=[0.1, 0.2, 0.4],
                                         n_paths=8)),
    ("rates-variance", "level_sweep", "5, 5, 5",
     lambda p, psi: coupled_variance_rates(p, psi, level_sweep=[5, 5, 5],
                                           eps_sweep=[0.1, 0.2, 0.4],
                                           n_paths=8)),
    ("rates-strong", "level_sweep", "3, 3, 3",
     lambda p, psi: strong_error_rate(p, psi, level_sweep=[3, 3, 3],
                                      n_paths=8)),
], ids=["moment-eps", "moment-level", "variance-level", "strong-level"])
def test_sweeps_refuse_fewer_than_two_distinct_values(experiment, sweep, got,
                                                      run, monkeypatch):
    # A rate needs two distinct x; the eps sweep (0.1, 0.1, 0.1) used to
    # run and report lstsq's minimum-norm answer as its slope.
    _no_sweep_work(monkeypatch)
    with pytest.raises(ValueError, match=f"^{experiment}: {sweep} needs >= 3 "
                                         f"values, >= 2 of them distinct, "
                                         f"got {got}$"):
        run(builtin_problem("linear_scalar"), builtin_payoff("identity"))


def test_repeated_sweep_values_are_replicates():
    # Two distinct values suffice; a repeated scale or level of a coupled
    # sweep runs as its own cell.  A repeated level used to run on the
    # seed of its first run, a copy.
    problem, psi = builtin_problem("linear_scalar"), builtin_payoff("tanh")
    sweeps = dict(level_sweep=[3, 3, 4], eps_sweep=[0.1, 0.1, 0.2],
                  n_paths=8)
    result = coupled_moment_rates(problem, **sweeps)
    assert result.eps_values == (0.1, 0.1, 0.2)
    assert result.eps_sup[0] != result.eps_sup[1]
    assert len(result.h_values) == 3
    assert result.h_sup[0] != result.h_sup[1]
    variance = coupled_variance_rates(problem, psi, **sweeps)
    assert variance.eps_coupled[0] != variance.eps_coupled[1]
    assert variance.h_coupled[0] != variance.h_coupled[1]
    # The strong sweep runs every level on one reference path, so there a
    # repeated level is a copy.
    strong = strong_error_rate(problem, psi, level_sweep=[3, 3, 4],
                               n_paths=8)
    assert strong.errors_sq[0] == strong.errors_sq[1]


def test_a_coupled_sweep_builds_one_plan_per_level(monkeypatch):
    # Each noise cell used to build the finest level's pair plan again.
    built = []
    original = LevelPair.for_problem

    def spy(*args, **kwargs):
        plan = original(*args, **kwargs)
        built.append(plan.level)
        return plan

    monkeypatch.setattr(analysis.LevelPair, "for_problem", spy)
    for sweep in ("rates-moment", "rates-variance"):
        built.clear()
        _SWEEPS[sweep](builtin_problem("linear_scalar"),
                       builtin_payoff("identity"), 8,
                       eps_sweep=(0.05, 0.1, 0.2, 0.3, 0.4))
        assert built == [3, 4, 5], sweep


@pytest.mark.parametrize("experiment, stat", [
    ("rates-moment", "coupled_sup_sq_moment"),
    ("rates-variance", "var_delta_coupled"),
    ("rates-strong", "strong_error_sq"),
])
def test_a_zero_statistic_names_the_experiment_and_the_level(experiment,
                                                             stat):
    # Without dynamics every statistic is 0; the fits used to fail with
    # only "rate regression requires positive x and y".
    with pytest.raises(ValueError, match=f"^{experiment}: {stat} is 0 at "
                                         "level 3; the h fit takes its log$"):
        _SWEEPS[experiment](builtin_problem("zero_dynamics"),
                            builtin_payoff("identity"), 8)


def test_a_zero_statistic_of_the_noise_sweep_names_its_scale(monkeypatch):
    def cell_samples(plan, *args, **kwargs):
        # Payoff differences of variance 0 at eps 0.2 only.
        spread = 0.0 if plan.problem.noise_scale == 0.2 else 1.0
        return np.array([0.0, spread]), np.array([0.0, 1.0])

    monkeypatch.setattr(analysis, "_cell_samples", cell_samples)
    with pytest.raises(ValueError, match="^rates-variance: var_delta_coupled "
                                         "is 0 at eps 0.2; the eps fit "
                                         "takes its log$"):
        _SWEEPS["rates-variance"](builtin_problem("linear_scalar"),
                                  builtin_payoff("identity"), 8)


def _no_sweep_work(monkeypatch):
    # A refused sweep runs no cell and builds no level run, not even the
    # deviation skeleton.
    def refuse(*args, **kwargs):
        raise AssertionError("a sweep did work before refusing")

    monkeypatch.setattr(analysis, "_run_cells", refuse)
    monkeypatch.setattr(analysis.LevelPair, "for_problem", refuse)


@pytest.mark.parametrize("experiment, eps, need", [
    ("deviation", float("nan"), ">= 0"),
    ("deviation", -0.125, ">= 0"),
    ("deviation", 1.5, "<= 1"),
    ("rates-moment", 1.5, "<= 1"),
    ("rates-variance", 1.5, "<= 1"),
])
def test_sweeps_refuse_a_noise_scale_out_of_range_before_any_work(
        experiment, eps, need, monkeypatch):
    # A problem takes a noise scale in [0, 1]; the deviation sweep used to
    # run its skeleton and the cells before the bad scale, then failed
    # without naming the experiment.
    _no_sweep_work(monkeypatch)
    with pytest.raises(ValueError, match=f"^{experiment}: eps_sweep needs "
                                         f"noise scales {need}, got {eps:g}$"):
        _SWEEPS[experiment](builtin_problem("linear_scalar"),
                            builtin_payoff("identity"), 8,
                            eps_sweep=[0.01, 0.1, 1.0, eps])


# ---------------------------------------------------------------------------
# Coupled variance rates
# ---------------------------------------------------------------------------

def test_variance_rates_coupled_beats_uncoupled_pointwise():
    problem = builtin_problem("linear_scalar", eps=0.05)
    psi = builtin_payoff("tanh")
    result = coupled_variance_rates(
        problem, psi, theta=0.0, level_sweep=[3, 4, 5],
        eps_sweep=[0.05, 0.1, 0.2], n_paths=800, seed=3,
    )
    for coupled, uncoupled in zip(result.h_coupled + result.eps_coupled,
                                  result.h_uncoupled + result.eps_uncoupled):
        assert coupled < uncoupled
    assert result.h_slope.slope > 1.2  # coupling variance decays with h
    assert result.h_slope.r_squared >= 0.8
    assert len(result.records) == 2 * (3 + 3)
    stats = {r["statistic"] for r in result.records}
    assert stats == {"var_delta_coupled", "var_delta_uncoupled"}


@pytest.mark.parametrize("name, theta, delta", [
    ("linear_scalar", 0.0, None),
    ("cubic_onesided", 0.5, 0.5),
])
def test_uncoupled_baseline_is_the_members_variances(name, theta, delta):
    problem = builtin_problem(name)
    psi = builtin_payoff("tanh")
    level, n, seed = 4, 20000, 11
    # The first cell of level 4 runs on the sweep's seed.
    result = coupled_variance_rates(
        problem, psi, theta, delta, level_sweep=[level - 1, level, level],
        eps_sweep=[0.05, 0.05, 0.1], n_paths=n, seed=seed)
    cell = (result.h_coupled[1], result.h_uncoupled[1])
    # The cell's numbers are the variances of the pairs' payoffs at its
    # seed: the difference, and the fine plus the coarse member.
    deltas, fines = LevelPair.for_problem(
        problem, level, M=2, theta=theta, delta=delta).payoffs(psi, seed, 0, n)
    coarse = fines - deltas
    assert cell == (float(np.var(deltas, ddof=1)),
                    float(np.var(fines, ddof=1) + np.var(coarse, ddof=1)))
    # Reference: independent runs of the two levels, the coarse one on
    # another seed.  Var psi_f comes from the same paths on both sides (a
    # pair's fine member is the level run at its seed), so the two differ
    # by two independent estimates of Var psi_c from n samples each.  Each
    # has standard error Var psi_c * sqrt((kappa - 1) / n), kappa the
    # kurtosis of psi_c (about 3 and 5 here: 1.0% and 1.4% at n = 20000),
    # so their difference has sqrt(2) times that; allow four of those.
    fine_ref = single_level_estimate(problem, psi, level, 2, theta, delta,
                                     n, seed).var_delta
    coarse_ref = single_level_estimate(problem, psi, level - 1, 2, theta,
                                       delta, n, seed + 1).var_delta
    kappa = np.mean((coarse - coarse.mean()) ** 4) / np.var(coarse) ** 2
    tol = 4.0 * np.sqrt(2.0) * coarse_ref * np.sqrt((kappa - 1.0) / n)
    assert cell[1] == pytest.approx(fine_ref + coarse_ref, rel=0, abs=tol)


def test_variance_rates_refuse_a_noise_free_level_sweep(monkeypatch):
    # Without noise the coupled payoff variance is exactly 0, so the h fit
    # failed on its log after every cell had run; the moment sweep keeps
    # running, its skeleton differences being positive.
    _no_sweep_work(monkeypatch)
    with pytest.raises(ValueError, match="^rates-variance: the level sweep "
                                         "needs a noise scale > 0, got 0$"):
        _SWEEPS["rates-variance"](builtin_problem("linear_scalar", eps=0.0),
                                  builtin_payoff("identity"), 8)


def test_variance_rates_validation():
    problem = builtin_problem("linear_scalar")
    psi = builtin_payoff("identity")
    with pytest.raises(ValueError, match="level_sweep"):
        coupled_variance_rates(problem, psi, level_sweep=[3],
                               eps_sweep=[0.1, 0.2, 0.4], n_paths=8)
    with pytest.raises(ValueError, match="eps_sweep"):
        coupled_variance_rates(problem, psi, level_sweep=[3, 4, 5],
                               eps_sweep=[], n_paths=8)


# ---------------------------------------------------------------------------
# Strong error against the refined reference
# ---------------------------------------------------------------------------

def test_strong_error_slope_and_reference_level(monkeypatch):
    problem = builtin_problem("linear_scalar", eps=1e-4)
    psi = builtin_payoff("identity")
    monkeypatch.setattr(analysis, "_STRONG_CHUNK_PATHS", 256)
    result = strong_error_rate(
        problem, psi, theta=0.0, level_sweep=[3, 4, 5],
        n_paths=600, seed=13,
    )
    assert result.ref_level == 8
    assert abs(result.fit.slope - 2.0) <= 0.5
    assert result.fit.r_squared >= 0.85
    assert result.errors_sq[0] > result.errors_sq[1] > result.errors_sq[2]
    assert result.h_values == (0.125, 0.0625, 0.03125)
    assert [r["statistic"] for r in result.records] == ["strong_error_sq"] * 3


def test_strong_error_chunking_does_not_change_results(monkeypatch):
    problem = builtin_problem("linear_scalar", eps=1e-4)
    psi = builtin_payoff("identity")
    kwargs = dict(theta=0.0, level_sweep=[3, 4, 5], n_paths=300, seed=13)
    monkeypatch.setattr(analysis, "_STRONG_CHUNK_PATHS", 97)
    small = strong_error_rate(problem, psi, **kwargs)
    monkeypatch.setattr(analysis, "_STRONG_CHUNK_PATHS", 10_000)
    big = strong_error_rate(problem, psi, **kwargs)
    for a, b in zip(small.errors_sq, big.errors_sq):
        assert a == pytest.approx(b, rel=1e-10)


def test_strong_error_increments_do_not_depend_on_chunk_size(monkeypatch):
    # Each level's increments are block sums of the reference increments;
    # they must be the same numbers whether a chunk holds one path or all.
    # Every level runs through its plan, whose base level calls
    # coupling.theta_em_path.
    original = coupling.theta_em_path
    per_grid = {}

    def record(problem, grid, noise=None, taming=None, **kwargs):
        # The reference increments arrive as an iterator: materialize them.
        dw = np.array(list(noise))
        per_grid.setdefault(grid.total_steps_N, []).append(dw)
        return original(problem, grid, noise=iter(dw), taming=taming,
                        **kwargs)

    monkeypatch.setattr(coupling, "theta_em_path", record)
    problem = builtin_problem("linear_scalar", eps=1e-4)
    psi = builtin_payoff("identity")
    runs = []
    for size in (1, 2, 5):
        per_grid.clear()
        monkeypatch.setattr(analysis, "_STRONG_CHUNK_PATHS", size)
        strong_error_rate(problem, psi, level_sweep=[3, 4, 5], n_paths=5,
                          seed=13)
        runs.append({n: np.concatenate(arrs, axis=1)
                     for n, arrs in per_grid.items()})
    assert sorted(runs[0]) == [8, 16, 32, 256]
    for other in runs[1:]:
        assert sorted(other) == sorted(runs[0])
        for n, dw in runs[0].items():
            assert dw.shape == (n, 5, 1)
            np.testing.assert_array_equal(other[n], dw)


def test_strong_error_chunk_holds_less_than_the_reference_increments():
    # One chunk of levels 3..5 against reference level 8: the reference
    # increments stream through the step loop, so the chunk never holds
    # all n_ref x P of them at once.  It holds the reference's delay
    # window (m_ref + 1 rows of P paths), the finest level's block sums
    # (N_finest rows), one draw block and a few step temporaries: 16 rows
    # cover the last.  The reference's payoffs are a copy, so its window
    # is gone before the levels run, and each coarser level's sums are
    # formed from the finer ones, which are dropped once summed.  A chunk
    # that held the sums of every level would hold sum(N_l) rows.
    problem = builtin_problem("linear_scalar", eps=1e-4)
    psi = builtin_payoff("identity")
    n_ref, m_ref, n_finest = 2**8, 2**6, 2**5
    n_paths = analysis._STRONG_CHUNK_PATHS
    tracemalloc.start()
    try:
        strong_error_rate(problem, psi, level_sweep=[3, 4, 5],
                          n_paths=n_paths, seed=13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_ref * n_paths * 8
    block_rows = max(1, scheme._BLOCK_DRAWS // n_paths)
    bound = (m_ref + 1 + n_finest + block_rows + 16) * n_paths * 8
    assert peak <= bound, (peak, bound)


def test_strong_error_tames_each_level_by_its_own_rule():
    # Implicit steps of the one-sided drift are admissible only tamed; the
    # reference and every level tame with the step of the level below
    # their own, on the reference increments and nested block sums.
    problem = builtin_problem("cubic_onesided")
    psi = builtin_payoff("identity")
    levels, M, theta, delta, n_paths, seed = [3, 4, 5], 2, 0.5, 0.5, 20, 13
    result = strong_error_rate(problem, psi, theta=theta, delta=delta,
                               level_sweep=levels, n_paths=n_paths,
                               seed=seed)
    ref = result.ref_level
    grids = {lv: GridSpec.for_problem(problem, theta=theta, level=lv, M=M)
             for lv in (ref, *levels)}
    n_ref = grids[ref].total_steps_N
    stream = NoiseStream(master_seed=seed, level=ref,
                         paths=range(n_paths),
                         dim=problem.dim_noise, n_steps=n_ref)
    dw = stream.gaussian_increment(range(n_ref)).reshape(
        n_ref, n_paths, problem.dim_noise) * np.sqrt(grids[ref].step_h)

    def payoff(lv, increments):
        path = theta_em_path(problem, grids[lv], noise=increments,
                             taming=taming_for_level(problem, lv, M, delta),
                             full_path=False)
        return psi.eval(path.terminal)

    psi_ref = payoff(ref, dw)
    expected, finer = [], ref
    for lv in reversed(levels):
        # The finest level sums the reference increments, each coarser
        # level the next finer level's, left to right, as the sweep does.
        q = M ** (finer - lv)
        sums = dw[::q].copy()
        for i in range(1, q):
            sums += dw[i::q]
        dw, finer = sums, lv
        diff = psi_ref - payoff(lv, sums)
        expected.append(float(np.sum(diff * diff)) / n_paths)
    assert result.errors_sq == tuple(expected[::-1])
    assert [r["delta"] for r in result.records] == [delta] * len(levels)


@pytest.mark.parametrize("name, theta, delta", [
    ("linear_scalar", 0.0, None), ("cubic_onesided", 0.5, 0.5)])
def test_strong_error_at_zero_eps_is_the_skeleton_difference(
        name, theta, delta, monkeypatch):
    # At eps = 0 the reference and every level run on the chunk's stream,
    # which draws nothing, so each error is the squared payoff difference
    # of two skeletons, each the noise-free run of its level's plan.  Eight
    # equal values sum and divide by 8 exactly, so the mean is that square.
    problem = builtin_problem(name, eps=0.0)
    psi = builtin_payoff("tanh")
    levels, M = [3, 4, 5], 2
    draws = []
    monkeypatch.setattr(NoiseStream, "gaussian_increment",
                        lambda self, j: draws.append(j))
    result = strong_error_rate(problem, psi, theta=theta, delta=delta,
                               level_sweep=levels, n_paths=8, seed=3, M=M)
    assert draws == []

    def skeleton_payoff(level):
        plan = LevelPair.for_problem(problem, level, M=M, theta=theta,
                                     delta=delta, coupled=False)
        return psi.eval(plan.run(None).terminal)

    psi_ref = skeleton_payoff(result.ref_level)
    expected = []
    for lv in levels:
        diff = psi_ref - skeleton_payoff(lv)
        expected.append(float(diff * diff))
    assert all(e > 0.0 for e in expected)
    assert result.errors_sq == tuple(expected)


def test_strong_error_validation():
    problem = builtin_problem("linear_scalar")
    psi = builtin_payoff("identity")
    with pytest.raises(ValueError, match="level_sweep"):
        strong_error_rate(problem, psi, level_sweep=[3, 4], n_paths=8)


_SWEEPS = {
    "deviation": lambda p, psi, n, eps_sweep=(0.01, 0.03, 0.1):
        small_noise_deviation(p, level=4, eps_sweep=eps_sweep, n_paths=n),
    "rates-moment": lambda p, psi, n, eps_sweep=(0.1, 0.2, 0.4):
        coupled_moment_rates(p, level_sweep=[3, 4, 5], eps_sweep=eps_sweep,
                             n_paths=n),
    "rates-variance": lambda p, psi, n, eps_sweep=(0.1, 0.2, 0.4):
        coupled_variance_rates(p, psi, level_sweep=[3, 4, 5],
                               eps_sweep=eps_sweep, n_paths=n),
    "rates-strong": lambda p, psi, n: strong_error_rate(
        p, psi, level_sweep=[3, 4, 5], n_paths=n),
}


@pytest.mark.parametrize("n_paths", [0, 1])
@pytest.mark.parametrize("experiment", list(_SWEEPS))
def test_sweeps_refuse_fewer_than_two_paths(experiment, n_paths):
    # Sample means and variances need two paths; without the check one
    # path gave NaN variances and none failed inside the fits.
    with pytest.raises(ValueError, match=f"^{experiment}: n_paths must be "
                                         f">= 2, got {n_paths}$"):
        _SWEEPS[experiment](builtin_problem("linear_scalar"),
                            builtin_payoff("identity"), n_paths)


def test_cell_seeds_wrap_at_the_top_of_the_seed_range():
    stride, top = 1_000_003, 2**64 - 1
    assert analysis._cell_seed(7, 3, 2) == 7 + 3 * stride + 2
    assert analysis._cell_seed(top, 0) == top
    assert analysis._cell_seed(top, 4, 1) == 4 * stride
    # A seed outside the range is left for the stream to refuse.
    for seed in (-1, top + 1):
        assert analysis._cell_seed(seed, 1) == seed
        with pytest.raises(ValueError, match="master_seed"):
            strong_error_rate(builtin_problem("linear_scalar"),
                              builtin_payoff("identity"),
                              level_sweep=[3, 4, 5], n_paths=4, seed=seed)


# ---------------------------------------------------------------------------
# Worker-count invariance and record schema
# ---------------------------------------------------------------------------

def test_sweeps_are_invariant_under_jobs(monkeypatch):
    problem = _strong_noise_problem(eps=0.05)
    psi = builtin_payoff("tanh")
    mom = dict(theta=0.0, level_sweep=[3, 4, 5],
               eps_sweep=[0.05, 0.1, 0.2], n_paths=120, seed=21)
    a = coupled_moment_rates(problem, **mom)
    b = coupled_moment_rates(problem, jobs=4, **mom)
    assert a.h_sup == b.h_sup and a.eps_sup == b.eps_sup

    var = coupled_variance_rates(problem, psi, jobs=3, **mom)
    var_seq = coupled_variance_rates(problem, psi, **mom)
    assert var.h_coupled == var_seq.h_coupled
    assert var.eps_uncoupled == var_seq.eps_uncoupled

    dev_kw = dict(level=4, theta=0.0,
                  eps_sweep=[0.005, 0.01, 0.02, 0.05], n_paths=90, seed=2)
    d1 = small_noise_deviation(problem, **dev_kw)
    d2 = small_noise_deviation(problem, jobs=4, **dev_kw)
    assert d1.deviation_sq == d2.deviation_sq

    monkeypatch.setattr(analysis, "_STRONG_CHUNK_PATHS", 64)
    se_kw = dict(theta=0.0, level_sweep=[3, 4, 5], n_paths=200, seed=1)
    s1 = strong_error_rate(problem, psi, **se_kw)
    s2 = strong_error_rate(problem, psi, **se_kw)
    assert s1.errors_sq == s2.errors_sq


# ---------------------------------------------------------------------------
# Chunked cells
# ---------------------------------------------------------------------------

def _record_chunking(monkeypatch):
    """Wrap the chunk runner; returns the list of ``(where, paths, chunk
    size)`` it is called with."""
    seen = []
    original = analysis._run_chunks

    def recording(chunk_fn, where, start, stop, chunk_size):
        seen.append((where, stop - start, chunk_size))
        return original(chunk_fn, where, start, stop, chunk_size)

    monkeypatch.setattr(analysis, "_run_chunks", recording)
    return seen


def test_cell_chunks_bound_memory_and_keep_values(monkeypatch):
    # Level 4 at M = 4 has 256 fine steps, so a budget of 2**18 draws runs
    # the 4000 paths of a cell in chunks of 1024.
    problem = _strong_noise_problem(eps=0.1)
    psi = builtin_payoff("tanh")
    # A 1024-path chunk of the terminal-only coupled cell holds, in float64
    # rows of 1024 paths, the 64 coarse increments, the delay windows of
    # both members (m + 1 = 65 and 17 rows) and 16 rows of one step's
    # temporaries, plus the one draw block the fine member reads.
    pair_chunk = 8 * (1024 * (64 + 65 + 17 + 16) + scheme._BLOCK_DRAWS)
    pair = LevelPair.for_problem(problem, 4, M=4, theta=0.0)
    cells = [
        ("rates-variance", lambda c: coupling.coupled_payoff_delta(c, psi),
         False, lambda whole_peak: pair_chunk),
        ("rates-moment", analysis._pair_sq,
         True, lambda whole_peak: whole_peak / 2.5),
    ]

    def traced(experiment, read, full_path):
        tracemalloc.start()
        try:
            value = analysis._cell_samples(pair, 5, 4000, experiment, read,
                                           full_path=full_path)
            return value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for experiment, read, full_path, bound in cells:
        whole, whole_peak = traced(experiment, read, full_path)
        seen = _record_chunking(monkeypatch)
        monkeypatch.setattr(analysis, "_CHUNK_DRAWS", 2**18)
        chunked, chunked_peak = traced(experiment, read, full_path)
        monkeypatch.undo()
        assert [size for _, _, size in seen] == [1024]
        assert len(chunked) == len(whole)
        assert all(np.array_equal(c, w) for c, w in zip(chunked, whole))
        assert chunked_peak <= bound(whole_peak), (
            experiment, chunked_peak, whole_peak)


def test_multi_chunk_cells_equal_one_batch_at_theta_zero(monkeypatch,
                                                         tmp_path):
    # The parameters of test_sweeps_are_invariant_under_jobs, with one
    # path more, so every chunk size below leaves a short last chunk.
    problem = _strong_noise_problem(eps=0.05)
    psi = builtin_payoff("tanh")
    mom = dict(theta=0.0, level_sweep=[3, 4, 5],
               eps_sweep=[0.05, 0.1, 0.2], n_paths=121, seed=21)
    dev = dict(level=4, theta=0.0,
               eps_sweep=[0.005, 0.01, 0.02, 0.05], n_paths=121, seed=2)

    def run_all(tag):
        out = [coupled_moment_rates(problem, **mom).records,
               coupled_variance_rates(problem, psi, **mom).records,
               small_noise_deviation(problem, **dev).records]
        for experiment in ("path", "coupled"):
            csv = tmp_path / f"{experiment}-{tag}.csv"
            assert cli.main(["--experiment", experiment, "--base-level", "3",
                             "--samples", "121", "--out", str(csv)]) == 0
            out.append(csv.read_bytes())
        return out

    whole = run_all("whole")
    seen = _record_chunking(monkeypatch)
    # 192 draws: 48 paths per chunk at level 2 down to 6 at level 5.
    monkeypatch.setattr(analysis, "_CHUNK_DRAWS", 192)
    chunked = run_all("chunked")
    assert chunked == whole
    assert len(seen) == 6 + 6 + 4 + 2
    for where, paths, size in seen:
        assert -(-paths // size) >= 3 and paths % size, where


def test_records_share_one_canonical_schema():
    problem = _strong_noise_problem(eps=0.05)
    psi = builtin_payoff("tanh")
    runs = [
        small_noise_deviation(problem, level=4, theta=0.0,
                              eps_sweep=[0.005, 0.01, 0.05],
                              n_paths=40, seed=1).records,
        coupled_moment_rates(problem, theta=0.0, level_sweep=[3, 4, 5],
                             eps_sweep=[0.05, 0.1, 0.2],
                             n_paths=40, seed=1).records,
        coupled_variance_rates(problem, psi, theta=0.0,
                               level_sweep=[3, 4, 5],
                               eps_sweep=[0.05, 0.1, 0.2],
                               n_paths=40, seed=1).records,
        strong_error_rate(problem, psi, theta=0.0, level_sweep=[3, 4, 5],
                          n_paths=40, seed=1).records,
    ]
    for records in runs:
        assert len(records) > 0
        for rec in records:
            assert tuple(rec.keys()) == RECORD_KEYS
            assert isinstance(rec["value"], float)
            assert rec["samples"] == 40
