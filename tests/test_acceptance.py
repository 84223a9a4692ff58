"""Acceptance suite: one test per headline requirement, at desk scale.

Every test here runs a complete check at its stated tolerance -- taming
inequalities, exact degeneracies of the stepping scheme, implicit-stage
solver oracles, strong and coupled convergence rates in step size and
noise scale, tamed-scheme stability against explicit blow-up, estimator
consistency, and CLI determinism.  Sample sizes, seeds, and tolerances
are frozen inline so a run is reproducible bit for bit.

Three targets depend on the regime in which they are checked; the
reasons, in short:

* ``test_criterion_04b``: at unit noise the mean-square strong error falls
  like h^2 for additive noise and like h for state-dependent noise.  With a
  constant diffusion the Milstein correction g*g' vanishes, so theta EM has
  strong order 1 there; with state-dependent diffusion it has order 1/2.
* ``test_criterion_06a``: the coupled-payoff variance falls like h^2 at
  eps = 1e-5.  At eps = 0 the coupled difference is deterministic, so the
  variance is eps^2 V1(h) + O(eps^3), and V1(h) is of order h^2 because the
  coarse member freezes the diffusion over M fine steps; an eps-free h^4
  term cannot exist.
* ``test_criterion_07a``: the tamed envelope C1*sqrt(h) + C2*eps^2*h is
  fitted where its leading term is visible -- taming not saturated, by a
  rule on the initial data stated in the test -- and jointly over the h and
  eps sweeps, so that C2 is identifiable.  At the default x0 = 5 taming is
  saturated and the coupled moment rises with level; criterion 07b keeps
  checking that those moments stay bounded.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from mlmc_sdde import (
    GridSpec,
    LevelPair,
    NoiseStream,
    TamedDrift,
    builtin_payoff,
    builtin_problem,
    coupled_moment_rates,
    coupled_variance_rates,
    derived_constants,
    deterministic_skeleton,
    envelope_fit,
    estimate_level,
    implicit_step_solve,
    mlmc_estimate,
    simulate_coupled,
    single_level_estimate,
    strong_error_rate,
    tame_drift,
    theta_em_path,
)
from mlmc_sdde import cli

LEVELS = (3, 4, 5, 6, 7)
# Noise scales from 1/16 to 1/4, a factor sqrt(2) apart: small enough to
# stay in the noise-dominated regime at level 7, wide enough to regress on.
EPS_WINDOW = (0.0625, 0.08838834764831845, 0.125, 0.17677669529663687, 0.25)
# A weakly contracting drift with strong delay feedback in the diffusion;
# used where the eps-carrying terms must dominate the deterministic ones.
STRONG_NOISE = dict(a1=-0.25, a2=0.125, b1=1.0, b2=0.25)

IDENTITY = builtin_payoff("identity")
TANH = builtin_payoff("tanh")


# ---------------------------------------------------------------------------
# Criterion 1: taming inequalities, 1e5 random pairs, zero violations, < 5 s
# ---------------------------------------------------------------------------

def test_criterion_01_taming_inequalities_zero_violations():
    problem = builtin_problem("cubic_onesided")
    reg = problem.regularity
    consts = derived_constants(problem)
    alpha1 = reg.alpha1
    alpha1_bar = consts["alpha1_bar"]
    alpha2_bar = (reg.alpha2 + consts["f00"]) ** (2 * reg.p)
    growth_exp = 2.0 * (reg.growth_r + 1.0) * reg.p

    started = time.perf_counter()
    rng = np.random.default_rng(20260817)
    combos = [(2.0 ** -k, delta) for k in (2, 3, 4, 5, 6)
              for delta in (0.25, 0.5)]
    pairs_per_combo = 10_000
    violations = {"bound": 0, "one_sided": 0, "monotone": 0, "distance": 0}

    for h, delta in combos:
        scale = rng.choice([0.5, 3.0, 12.0], size=(pairs_per_combo, 1))
        x, y, xb, yb = (rng.normal(0.0, 1.0, size=(pairs_per_combo, 1)) * scale
                        for _ in range(4))
        f, fb = problem.drift(x, y), problem.drift(xb, yb)
        fh, fhb = tame_drift(f, h, delta), tame_drift(fb, h, delta)

        # |f_h| never exceeds |f| nor h^-delta.
        norm_f = np.abs(f[:, 0])
        norm_fh = np.abs(fh[:, 0])
        cap = np.minimum(norm_f, h ** -delta)
        violations["bound"] += int(np.sum(norm_fh > cap * (1 + 1e-12) + 1e-12))

        # Taming preserves the one-sided condition with the same constant.
        lhs = ((x - xb) * (fh - fhb)).sum(axis=-1)
        rhs = 0.5 * alpha1 * (((x - xb) ** 2).sum(axis=-1)
                              + ((y - yb) ** 2).sum(axis=-1))
        slack = 1e-9 * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
        violations["one_sided"] += int(np.sum(lhs > rhs + slack))

        # Tamed drift keeps monotone quadratic growth.
        lhs = (x * fh).sum(axis=-1)
        rhs = alpha1_bar * (1.0 + (x * x).sum(axis=-1) + (y * y).sum(axis=-1))
        slack = 1e-9 * np.maximum(1.0, rhs)
        violations["monotone"] += int(np.sum(lhs > rhs + slack))

        # Taming bias decays like h^(delta p) against polynomial growth.
        lhs = np.abs((f - fh)[:, 0]) ** reg.p
        rhs = alpha2_bar * h ** (delta * reg.p) * (
            1.0 + np.abs(x[:, 0]) ** growth_exp + np.abs(y[:, 0]) ** growth_exp
        )
        slack = 1e-9 * np.maximum(1.0, rhs)
        violations["distance"] += int(np.sum(lhs > rhs + slack))

    elapsed = time.perf_counter() - started
    total_pairs = len(combos) * pairs_per_combo
    assert total_pairs == 100_000
    assert violations == {"bound": 0, "one_sided": 0, "monotone": 0,
                          "distance": 0}, (
        f"taming inequality violations over {total_pairs} pairs: {violations}"
    )
    assert elapsed < 5.0, f"taming property sweep took {elapsed:.2f}s (cap 5s)"


# ---------------------------------------------------------------------------
# Criterion 2: exact degeneracies of the stepping scheme, < 10 s
# ---------------------------------------------------------------------------

def test_criterion_02_degeneracy_suite():
    started = time.perf_counter()

    # (a) theta = 0 is bit for bit the explicit Euler-Maruyama closed form.
    a1, a2, b1, b2, eps, x0 = -1.0, 0.5, 0.1, 0.1, 0.3, 1.0
    problem = builtin_problem("linear_scalar", eps=eps)
    grid = GridSpec.for_problem(problem, theta=0.0, level=3)
    h, m, n_steps = grid.step_h, grid.steps_per_delay_m, grid.total_steps_N
    stream = NoiseStream(master_seed=314, level=3, paths=range(11, 12),
                         dim=1, n_steps=n_steps)
    path = theta_em_path(problem, grid, noise=stream)
    sqh = math.sqrt(h)
    vals = np.full(n_steps + m + 1, x0)
    for n in range(n_steps):
        x, y = vals[m + n], vals[n]
        dw = sqh * stream.gaussian_increment(n)[0, 0]
        vals[m + n + 1] = (x + h * (a1 * x + a2 * y)) + eps * ((b1 * x + b2 * y) * dw)
    np.testing.assert_array_equal(path.values[:, 0, 0], vals)

    # (b) eps = 0 with a live noise stream is bit for bit the skeleton.
    problem0 = builtin_problem("linear_scalar", eps=0.0)
    grid0 = GridSpec.for_problem(problem0, theta=0.5, level=4)
    stream0 = NoiseStream(master_seed=99, level=4, paths=range(3),
                          dim=1, n_steps=grid0.total_steps_N)
    noisy = theta_em_path(problem0, grid0, noise=stream0)
    skeleton = deterministic_skeleton(problem0, grid0)
    for i in range(3):
        np.testing.assert_array_equal(noisy.values[:, i, :], skeleton.values)

    # (c) zero dynamics: the path is constant for explicit and implicit theta.
    frozen = builtin_problem("zero_dynamics", x0=2.5, eps=0.7)
    for theta in (0.0, 0.5, 1.0):
        grid_z = GridSpec.for_problem(frozen, theta=theta, level=3)
        stream_z = NoiseStream(master_seed=5, level=3, paths=range(4),
                               dim=1, n_steps=grid_z.total_steps_N)
        path_z = theta_em_path(frozen, grid_z, noise=stream_z)
        assert np.all(path_z.values == 2.5)

    # (d) zero drift + additive noise: fine and coarse coincide at coarse
    #     nodes because the coarse member consumes the summed increments.
    pure = builtin_problem("additive_noise", a1=0.0, a2=0.0, eps=0.3)
    pair = LevelPair.for_problem(pure, level=4, M=2, theta=0.0)
    stream_p = pair.noise_stream(master_seed=7, paths=range(256))
    coupled = simulate_coupled(pair, stream_p)
    diff = np.abs(coupled.state_difference())
    ref = 1.0 + np.abs(coupled.coarse_on_grid)
    assert np.max(diff / ref) <= 1e-12, (
        f"additive zero-drift pair differs at coarse nodes by "
        f"{np.max(diff / ref):.3e} relative"
    )

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"degeneracy suite took {elapsed:.2f}s (cap 10s)"


# ---------------------------------------------------------------------------
# Criterion 3: implicit-stage solver oracles, 1e3 random instances, < 10 s
# ---------------------------------------------------------------------------

def test_criterion_03_implicit_solver_oracles():
    started = time.perf_counter()
    rng = np.random.default_rng(424242)

    # Linear stage equations against the closed-form solution, in 10
    # batched groups of 100 instances (one random theta, h per group).
    worst_linear = 0.0
    for _ in range(10):
        theta = float(rng.uniform(0.1, 1.0))
        h = float(rng.uniform(0.05, 0.5))
        a1c = rng.uniform(-3.0, -0.1, size=(100, 1))
        a2c = rng.uniform(-1.0, 1.0, size=(100, 1))
        y = rng.normal(0.0, 2.0, size=(100, 1))
        d = rng.normal(0.0, 2.0, size=(100, 1))

        def drift(x, dl, a1c=a1c, a2c=a2c):
            return a1c * x + a2c * dl

        solved = implicit_step_solve(y, d, drift, theta, h)
        closed = (y + theta * h * a2c * d) / (1.0 - theta * h * a1c)
        err = np.abs(solved - closed) / np.maximum(1.0, np.abs(closed))
        worst_linear = max(worst_linear, float(err.max()))
    assert worst_linear <= 1e-10, (
        f"linear stage solve deviates from closed form by {worst_linear:.3e}"
    )

    # Tamed cubic stage equations against a bisection oracle, again 10
    # groups of 100.  theta*h stays well below 2/alpha1 so the stage map
    # is strictly monotone and the bracketed root is unique.
    cubic = builtin_problem("cubic_onesided")
    worst_cubic = 0.0
    for _ in range(10):
        theta = float(rng.uniform(0.1, 0.8))
        h = float(rng.uniform(0.01, 0.5))
        h_coarse = float(rng.uniform(h, 2.0 * h))
        delta = float(rng.uniform(0.05, 0.5))
        tamed = TamedDrift(cubic.drift, h_coarse=h_coarse, delta=delta)
        y = rng.normal(0.0, 2.0, size=(100, 1))
        d = rng.normal(0.0, 2.0, size=(100, 1))

        solved = implicit_step_solve(y, d, tamed, theta, h)

        th = theta * h
        bracket = np.abs(y) + th * tamed.bound + 1.0
        lo, hi = -bracket, bracket.copy()
        for _ in range(120):
            mid = 0.5 * (lo + hi)
            residual = mid - th * tamed(mid, d) - y
            above = residual > 0.0
            hi = np.where(above, mid, hi)
            lo = np.where(above, lo, mid)
        root = 0.5 * (lo + hi)
        err = np.abs(solved - root) / np.maximum(1.0, np.abs(root))
        worst_cubic = max(worst_cubic, float(err.max()))
    assert worst_cubic <= 1e-10, (
        f"tamed cubic stage solve deviates from bisection by {worst_cubic:.3e}"
    )

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"solver oracle suite took {elapsed:.2f}s (cap 10s)"


# ---------------------------------------------------------------------------
# Criterion 4: strong error rate in h at small and at unit noise
# ---------------------------------------------------------------------------

def test_criterion_04a_strong_error_slope_small_noise():
    problem = builtin_problem("linear_scalar", eps=1e-4)
    result = strong_error_rate(problem, IDENTITY, theta=0.0,
                               level_sweep=LEVELS, n_paths=10_000, seed=0)
    slope, r2 = result.fit.slope, result.fit.r_squared
    assert r2 >= 0.9, f"strong-error fit at eps=1e-4 has r^2 {r2:.4f} < 0.9"
    assert 1.7 <= slope <= 2.3, (
        f"strong-error h-slope at eps=1e-4: {slope:.4f}, required 2 +/- 0.3"
    )


def test_criterion_04b_strong_error_slope_unit_additive_noise():
    # Mean-square error ~ h^(2 * strong order).  A constant diffusion makes
    # the Milstein correction g*g' vanish, so theta EM has strong order 1
    # (slope 2); a state-dependent diffusion leaves it at order 1/2 (slope 1).
    cases = (
        ("additive", builtin_problem("additive_noise").with_noise_scale(1.0),
         2.0),
        ("state-dependent",
         builtin_problem("linear_scalar", eps=1.0, **STRONG_NOISE), 1.0),
    )
    for noise, problem, target in cases:
        result = strong_error_rate(problem, IDENTITY, theta=0.0,
                                   level_sweep=LEVELS, n_paths=10_000, seed=0)
        slope, r2 = result.fit.slope, result.fit.r_squared
        assert r2 >= 0.9, (
            f"strong-error fit at eps=1 ({noise} noise) has r^2 {r2:.4f} < 0.9"
        )
        assert target - 0.3 <= slope <= target + 0.3, (
            f"strong-error h-slope at eps=1 ({noise} noise): {slope:.4f}, "
            f"required {target:g} +/- 0.3 (mean-square order twice the "
            f"strong order: 1 for additive, 1/2 for state-dependent noise)"
        )


# ---------------------------------------------------------------------------
# Criterion 5: coupled second moment, slopes in h and in eps
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def moment_rates():
    problem = builtin_problem("linear_scalar", eps=1e-4, **STRONG_NOISE)
    return coupled_moment_rates(problem, theta=0.0, level_sweep=LEVELS,
                                eps_sweep=EPS_WINDOW, n_paths=10_000, seed=0)


def test_criterion_05a_coupled_moment_h_slope(moment_rates):
    slope, r2 = moment_rates.h_slope.slope, moment_rates.h_slope.r_squared
    assert r2 >= 0.9, f"coupled-moment h fit has r^2 {r2:.4f} < 0.9"
    assert 1.7 <= slope <= 2.3, (
        f"coupled second-moment h-slope at eps=1e-4: {slope:.4f}, "
        f"required 2 +/- 0.3"
    )


def test_criterion_05b_coupled_moment_eps_slope(moment_rates):
    slope, r2 = moment_rates.eps_slope.slope, moment_rates.eps_slope.r_squared
    assert r2 >= 0.9, f"coupled-moment eps fit has r^2 {r2:.4f} < 0.9"
    assert 3.6 <= slope <= 4.4, (
        f"coupled second-moment eps-slope at fixed h: {slope:.4f}, "
        f"required 4 +/- 0.4"
    )


# ---------------------------------------------------------------------------
# Criterion 6: coupled-payoff variance, slopes and envelope comparison
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def variance_rates():
    problem = builtin_problem("linear_scalar", eps=1e-5, **STRONG_NOISE)
    return coupled_variance_rates(problem, TANH, theta=0.0, level_sweep=LEVELS,
                                  eps_sweep=EPS_WINDOW, n_paths=20_000, seed=0)


def test_criterion_06a_coupled_variance_h_slope(variance_rates):
    slope, r2 = variance_rates.h_slope.slope, variance_rates.h_slope.r_squared
    assert r2 >= 0.9, f"coupled-variance h fit has r^2 {r2:.4f} < 0.9"
    assert 1.5 <= slope <= 2.5, (
        f"coupled-payoff variance h-slope at eps=1e-5: {slope:.4f}, required "
        f"2 +/- 0.5; the variance is eps^2 V1(h) + O(eps^3) with V1(h) of "
        f"order h^2, because the coarse member freezes the diffusion over M "
        f"fine steps"
    )


def test_criterion_06b_coupled_variance_eps_slope(variance_rates):
    slope = variance_rates.eps_slope.slope
    r2 = variance_rates.eps_slope.r_squared
    assert r2 >= 0.9, f"coupled-variance eps fit has r^2 {r2:.4f} < 0.9"
    assert 3.5 <= slope <= 4.5, (
        f"coupled-payoff variance eps-slope at fixed h: {slope:.4f}, "
        f"required 4 +/- 0.5"
    )


def test_criterion_06c_coupled_variance_below_uncoupled(variance_rates):
    h_pairs = list(zip(variance_rates.h_coupled, variance_rates.h_uncoupled))
    eps_pairs = list(zip(variance_rates.eps_coupled,
                         variance_rates.eps_uncoupled))
    bad = [(c, u) for c, u in h_pairs + eps_pairs if not c < u]
    assert not bad, (
        f"coupled variance not below uncoupled variance at {len(bad)} sweep "
        f"points: {bad}"
    )


# ---------------------------------------------------------------------------
# Criterion 7: tamed regime on the cubic problem
# ---------------------------------------------------------------------------

TAMED_EPS = 1e-4
TAMED_DELTA = 0.25
TAMED_EPS_SWEEP = (0.0625, 0.125, 0.25)


@pytest.fixture(scope="module")
def tamed_rates():
    # Default x0 = 5: h^delta * |f(xi, xi)| is 43..87 over the taming steps,
    # so the tamed drift sits at its cap h^-delta and the coupled moment
    # rises with level.  Criterion 07b checks that it stays bounded there.
    problem = builtin_problem("cubic_onesided", eps=TAMED_EPS)
    return coupled_moment_rates(problem, theta=0.0, delta=TAMED_DELTA,
                                level_sweep=LEVELS,
                                eps_sweep=TAMED_EPS_SWEEP,
                                n_paths=4000, seed=0)


@pytest.fixture(scope="module")
def tamed_envelope_rates():
    # The envelope's leading term is visible only where taming is not
    # saturated.  Regime rule, fixed before any simulation: h^delta *
    # |f(xi, xi)| <= 0.1 at the largest step of the h axis, the taming step
    # h_{l-1} = 2^-2 of level 3.  x0 = 0.5 gives 0.088 (x0 = 1 gives 0.35).
    # theta = 1/2, because at theta = 0 the O(h) explicit drift error has
    # the opposite sign to the O(h^delta) taming mismatch and cancels it
    # near level 5.
    problem = builtin_problem("cubic_onesided", eps=TAMED_EPS, x0=0.5)
    xi = problem.history_state(0.0)
    h_max = problem.horizon * 2.0 ** -(LEVELS[0] - 1)
    taming_ratio = h_max ** TAMED_DELTA * float(
        np.max(np.abs(problem.drift(xi, xi))))
    assert taming_ratio <= 0.1, f"taming saturated: {taming_ratio:.3f}"
    return coupled_moment_rates(problem, theta=0.5, delta=TAMED_DELTA,
                                level_sweep=LEVELS,
                                eps_sweep=TAMED_EPS_SWEEP,
                                n_paths=4000, seed=0)


def test_criterion_07a_tamed_moment_envelope(tamed_envelope_rates):
    rates = tamed_envelope_rates
    # One joint axis: the h sweep at eps = 1e-4, then the eps sweep at the
    # finest taming step.  Alone, the h sweep leaves C2 unidentified (its
    # eps^2*h column is 1e-8*h).
    n_h, n_eps = len(rates.h_values), len(rates.eps_values)
    h = np.concatenate([rates.h_values, np.full(n_eps, rates.h_values[-1])])
    eps = np.concatenate([np.full(n_h, TAMED_EPS), rates.eps_values])
    moments = np.concatenate([rates.h_sup, rates.eps_sup])
    envelope = envelope_fit([np.sqrt(h), eps ** 2 * h], moments)
    c1, c2 = envelope.coefficients
    assert envelope.dominates(moments)
    assert c1 > 0.0 and c2 > 0.0 and envelope.r_squared >= 0.85, (
        f"tamed coupled-moment envelope C1*sqrt(h) + C2*eps^2*h over the "
        f"joint h and eps sweeps: fitted C1={c1:.4g}, C2={c2:.4g}, "
        f"r^2={envelope.r_squared:.4g}; required positive constants with "
        f"r^2 >= 0.85"
    )


def test_criterion_07b_tamed_moments_bounded(tamed_rates):
    problem = builtin_problem("cubic_onesided", eps=1e-4)
    sups = []
    for level in LEVELS:
        grid = GridSpec.for_problem(problem, theta=0.0, level=level)
        taming = TamedDrift(problem.drift,
                            h_coarse=problem.horizon * 2.0 ** -(level - 1),
                            delta=0.25)
        stream = NoiseStream(master_seed=0, level=level,
                             paths=range(4000), dim=1,
                             n_steps=grid.total_steps_N)
        path = theta_em_path(problem, grid, noise=stream, taming=taming)
        body = path.values[grid.steps_per_delay_m:]
        sups.append(float(np.mean(np.max((body * body).sum(axis=-1), axis=0))))
    assert np.all(np.isfinite(sups)) and max(sups) <= 100.0, (
        f"tamed path second moments across levels {LEVELS}: {sups}"
    )
    # The sweep also feeds the coupled fixture; make sure it stayed finite.
    assert np.all(np.isfinite(tamed_rates.h_sup))


def test_criterion_07c_untamed_explicit_explodes():
    problem = builtin_problem("cubic_onesided", eps=1e-4)
    grid = GridSpec.for_problem(problem, theta=0.0, level=3)
    stream = NoiseStream(master_seed=0, level=3, paths=range(4000),
                         dim=1, n_steps=grid.total_steps_N)
    with np.errstate(over="ignore", invalid="ignore"):
        path = theta_em_path(problem, grid, noise=stream, taming=None)
        magnitude = np.abs(path.values)
        overflowed = bool(np.any(~np.isfinite(path.values)))
        peak = float(np.nanmax(magnitude[np.isfinite(magnitude)], initial=0.0))
    assert overflowed or peak > 1e10, (
        f"untamed explicit stepping stayed bounded (peak {peak:.3e}) on the "
        f"cubic problem at h=2^-3 where blow-up is required"
    )


# ---------------------------------------------------------------------------
# Criterion 8: estimator consistency and shard-merge algebra
# ---------------------------------------------------------------------------

def test_criterion_08a_mlmc_matches_single_level_three_seeds():
    problem = builtin_problem("linear_scalar")
    for seed in (1, 2, 3):
        est = mlmc_estimate(problem, TANH, 3, 7, theta=0.0,
                            samples_per_level=[8000, 4000, 2000, 1000, 500],
                            seed=seed)
        mc = single_level_estimate(problem, TANH, 7, theta=0.0,
                                   n_samples=20_000, seed=seed + 100)
        mc_se = math.sqrt(mc.var_delta / mc.samples)
        gap = abs(est.value - mc.mean_fine)
        combined = math.hypot(est.std_error, mc_se)
        assert gap <= 3.0 * combined, (
            f"seed {seed}: multilevel value {est.value:.6f} and single-level "
            f"value {mc.mean_fine:.6f} differ by {gap:.2e} > 3 combined "
            f"standard errors ({3 * combined:.2e})"
        )


def test_criterion_08b_shard_merge_associative():
    problem = builtin_problem("linear_scalar")

    def shard(n_samples, offset):
        return estimate_level(problem, TANH, level=4, theta=0.0,
                              n_samples=n_samples, seed=11,
                              sample_offset=offset)

    a, b, c = shard(600, 0), shard(500, 600), shard(400, 1100)
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    bulk = shard(1500, 0)

    assert left.samples == right.samples == bulk.samples == 1500
    for field in ("mean_delta", "var_delta", "mean_fine", "cost_units"):
        lv, rv, bv = (getattr(s, field) for s in (left, right, bulk))
        scale = max(1e-30, abs(lv), abs(rv))
        assert abs(lv - rv) / scale <= 1e-12, (
            f"{field}: merge order changes the result, {lv!r} vs {rv!r}"
        )
        scale = max(1e-30, abs(lv), abs(bv))
        assert abs(lv - bv) / scale <= 1e-12, (
            f"{field}: sharded merge {lv!r} differs from one-shot {bv!r}"
        )


# ---------------------------------------------------------------------------
# Criterion 9: CLI byte-identity across --jobs and across reruns
# ---------------------------------------------------------------------------

def test_criterion_09_cli_byte_identical_across_jobs(tmp_path):
    outs = [tmp_path / f"moment-{tag}.csv" for tag in ("j1", "j4", "j4-again")]
    for out, jobs in zip(outs, ("1", "4", "4")):
        rc = cli.main(["--experiment", "rates-moment", "--out", str(out),
                       "--jobs", jobs])
        assert rc == 0
    first = outs[0].read_bytes()
    assert first and first == outs[1].read_bytes() == outs[2].read_bytes()

    outs = [tmp_path / f"deviation-{tag}.csv" for tag in ("j1", "j3")]
    for out, jobs in zip(outs, ("1", "3")):
        rc = cli.main(["--experiment", "deviation", "--out", str(out),
                       "--jobs", jobs])
        assert rc == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
