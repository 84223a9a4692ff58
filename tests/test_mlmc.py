"""Level statistics, stable merging, and the telescoping estimator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_sdde import mlmc
from mlmc_sdde.coupling import LevelPair, coupled_payoff_delta, simulate_coupled
from mlmc_sdde.mlmc import (
    LevelStats,
    MlmcEstimate,
    estimate_level,
    mlmc_estimate,
    single_level_estimate,
)
from mlmc_sdde.model import builtin_payoff, builtin_problem
from mlmc_sdde.rng import NoiseStream
from mlmc_sdde.scheme import AdmissibilityError, GridSpec, theta_em_path

TANH = builtin_payoff("tanh")
IDENT = builtin_payoff("identity")


# ---------------------------------------------------------------------------
# LevelStats basics and the stable merge
# ---------------------------------------------------------------------------

def test_from_samples_two_pass_values():
    vals = np.array([1.0, 2.0, 4.0, 7.0])
    fines = np.array([0.5, 0.5, 1.0, 1.0])
    s = LevelStats.from_samples(3, vals, fines, cost_per_sample=24.0)
    assert s.level == 3 and s.samples == 4
    assert s.mean_delta == vals.mean()
    assert s.var_delta == np.var(vals, ddof=1)
    assert s.mean_fine == fines.mean()
    assert s.cost_units == 96.0


def test_from_samples_degenerate_sizes():
    s0 = LevelStats.from_samples(2, [], [], 10.0)
    assert s0.samples == 0 and s0.var_delta == 0.0
    s1 = LevelStats.from_samples(2, [3.0], [3.0], 10.0)
    assert s1.samples == 1 and s1.var_delta == 0.0 and s1.mean_delta == 3.0
    merged = s0.merge(s1)
    assert merged.samples == 1 and merged.mean_delta == 3.0


def test_validation():
    with pytest.raises(ValueError, match="samples"):
        LevelStats(1, -1, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="var_delta"):
        LevelStats(1, 2, 0.0, -1e-9, 0.0, 0.0)
    with pytest.raises(ValueError, match="level"):
        LevelStats(1, 2, 0.0, 0.0, 0.0, 0.0).merge(
            LevelStats(2, 2, 0.0, 0.0, 0.0, 0.0))
    with pytest.raises(ValueError, match="same length"):
        LevelStats.from_samples(1, [1.0, 2.0], [1.0], 1.0)
    for deltas, fines in (([1.0, np.nan], [1.0, 2.0]),
                          ([1.0, 2.0], [1.0, -np.inf])):
        with pytest.raises(ValueError, match="level 1: non-finite"):
            LevelStats.from_samples(1, deltas, fines, 1.0)


def _close(a, b, scale):
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12 * scale)


@settings(max_examples=200, deadline=None)
@given(
    data=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        min_size=2, max_size=60,
    ),
    cut=st.integers(0, 59),
)
def test_merge_matches_concatenation(data, cut):
    cut = min(cut, len(data))
    arr = np.asarray(data)
    whole = LevelStats.from_samples(4, arr, arr, 3.0)
    left = LevelStats.from_samples(4, arr[:cut], arr[:cut], 3.0)
    right = LevelStats.from_samples(4, arr[cut:], arr[cut:], 3.0)
    merged = left.merge(right)
    scale = float(np.mean(arr * arr)) + 1e-300
    assert merged.samples == whole.samples
    assert merged.cost_units == whole.cost_units
    assert _close(merged.mean_delta, whole.mean_delta, math.sqrt(scale))
    assert _close(merged.var_delta, whole.var_delta, scale)
    assert _close(merged.mean_fine, whole.mean_fine, math.sqrt(scale))


@settings(max_examples=100, deadline=None)
@given(
    chunks=st.lists(
        st.lists(st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
                 min_size=1, max_size=20),
        min_size=3, max_size=3,
    ),
)
def test_merge_associativity(chunks):
    a, b, c = (
        LevelStats.from_samples(7, np.asarray(ch), np.asarray(ch), 2.0)
        for ch in chunks
    )
    left = a.merge(b).merge(c)
    right = a.merge(b.merge(c))
    allv = np.concatenate([np.asarray(ch) for ch in chunks])
    scale = float(np.mean(allv * allv)) + 1e-300
    assert left.samples == right.samples
    assert _close(left.mean_delta, right.mean_delta, math.sqrt(scale))
    assert _close(left.var_delta, right.var_delta, scale)


# ---------------------------------------------------------------------------
# estimate_level
# ---------------------------------------------------------------------------

def test_zero_dynamics_level_is_exactly_zero():
    prob = builtin_problem("zero_dynamics")
    s = estimate_level(prob, TANH, level=3, theta=0.5, n_samples=16, seed=5)
    assert s.mean_delta == 0.0 and s.var_delta == 0.0
    assert s.samples == 16
    assert s.cost_units == 16 * (8 + 4)


def test_streaming_matches_two_pass_oracle(monkeypatch):
    prob = builtin_problem("linear_scalar", eps=0.4)
    n = 1337  # not a multiple of the chunk size
    monkeypatch.setattr(mlmc, "CHUNK_SIZE", 256)
    s = estimate_level(prob, TANH, level=4, theta=0.0, n_samples=n, seed=9)
    pair = LevelPair.for_problem(prob, 4, theta=0.0)
    coupled = simulate_coupled(
        prob, pair, pair.noise_stream(9, np.arange(n), 1))
    deltas, fines = coupled_payoff_delta(coupled, TANH)
    assert s.samples == n
    assert math.isclose(s.mean_delta, float(np.mean(deltas)), rel_tol=1e-12)
    assert math.isclose(s.var_delta, float(np.var(deltas, ddof=1)),
                        rel_tol=1e-12)
    assert math.isclose(s.mean_fine, float(np.mean(fines)), rel_tol=1e-12)


def test_sample_offset_continues_the_stream(monkeypatch):
    prob = builtin_problem("linear_scalar", eps=0.3)
    monkeypatch.setattr(mlmc, "CHUNK_SIZE", 100)
    whole = estimate_level(prob, TANH, level=3, n_samples=300, seed=2)
    first = estimate_level(prob, TANH, level=3, n_samples=100, seed=2)
    rest = estimate_level(prob, TANH, level=3, n_samples=200, seed=2,
                          sample_offset=100)
    merged = first.merge(rest)
    assert merged.samples == whole.samples
    assert math.isclose(merged.mean_delta, whole.mean_delta, rel_tol=1e-12)
    assert math.isclose(merged.var_delta, whole.var_delta, rel_tol=1e-12)


def test_variance_decreases_with_level():
    prob = builtin_problem("linear_scalar", eps=0.1)
    v = [
        estimate_level(prob, TANH, level=lv, theta=0.0, n_samples=2000,
                       seed=77).var_delta
        for lv in (3, 4, 5)
    ]
    assert v[0] > v[1] > v[2] > 0.0


def test_small_sample_count_rejected():
    prob = builtin_problem("linear_scalar")
    with pytest.raises(ValueError, match="n_samples"):
        estimate_level(prob, TANH, level=3, n_samples=1)
    with pytest.raises(ValueError, match="n_samples"):
        single_level_estimate(prob, TANH, level=3, n_samples=0)


# ---------------------------------------------------------------------------
# single_level_estimate
# ---------------------------------------------------------------------------

def test_single_level_matches_direct_monte_carlo(monkeypatch):
    prob = builtin_problem("linear_scalar", eps=0.2)
    n = 700
    monkeypatch.setattr(mlmc, "CHUNK_SIZE", 128)
    s = single_level_estimate(prob, TANH, level=5, theta=0.5, n_samples=n,
                              seed=21)
    grid = GridSpec.for_problem(prob, theta=0.5, level=5)
    stream = NoiseStream(master_seed=21, level=5, path_index=np.arange(n),
                         dim=1, n_steps=grid.total_steps_N)
    path = theta_em_path(prob, grid, noise=stream)
    vals = TANH.eval(path.terminal)
    assert math.isclose(s.mean_delta, float(vals.mean()), rel_tol=1e-12)
    assert math.isclose(s.var_delta, float(np.var(vals, ddof=1)),
                        rel_tol=1e-12)
    assert s.cost_units == n * grid.total_steps_N


# ---------------------------------------------------------------------------
# mlmc_estimate
# ---------------------------------------------------------------------------

def test_zero_dynamics_estimate_is_exact():
    prob = builtin_problem("zero_dynamics", x0=1.0)
    est = mlmc_estimate(prob, TANH, base_level=3, max_level=5,
                        target_se=1e-3, seed=4)
    assert est.value == pytest.approx(math.tanh(1.0), rel=1e-12)
    assert est.std_error == 0.0
    assert est.warnings == ()
    assert est.base_level_mean == est.value
    assert [s.samples for s in est.levels] == [100, 100, 100]


def test_single_level_telescoping_equals_plain_mc():
    prob = builtin_problem("linear_scalar", eps=0.2)
    est = mlmc_estimate(prob, TANH, base_level=5, max_level=5,
                        samples_per_level=[3000], seed=13)
    mc = single_level_estimate(prob, TANH, level=5, n_samples=3000, seed=13)
    assert math.isclose(est.value, mc.mean_delta, rel_tol=1e-12)
    assert math.isclose(est.std_error,
                        math.sqrt(mc.var_delta / mc.samples), rel_tol=1e-12)
    assert est.total_cost == mc.cost_units


def test_value_is_base_plus_corrections():
    prob = builtin_problem("linear_scalar", eps=0.3)
    est = mlmc_estimate(prob, TANH, base_level=3, max_level=5,
                        samples_per_level=[500, 300, 200], seed=6)
    expect = est.base_level_mean + sum(s.mean_delta for s in est.levels[1:])
    assert est.value == expect
    var = sum(s.var_delta / s.samples for s in est.levels)
    assert math.isclose(est.std_error, math.sqrt(var), rel_tol=1e-12)
    assert [s.samples for s in est.levels] == [500, 300, 200]
    base_cost = 500 * 8
    pair_costs = 300 * (16 + 8) + 200 * (32 + 16)
    assert est.total_cost == base_cost + pair_costs


def test_agrees_with_brute_force_on_additive_noise():
    prob = builtin_problem("additive_noise", eps=0.5)
    est = mlmc_estimate(prob, TANH, base_level=3, max_level=6,
                        samples_per_level=[4000, 2000, 1000, 500], seed=11)
    brute = single_level_estimate(prob, TANH, level=6, n_samples=100_000,
                                  seed=101)
    se = math.sqrt(est.std_error**2 + brute.var_delta / brute.samples)
    assert abs(est.value - brute.mean_delta) <= 3.0 * se


def test_variance_dominance_small_noise():
    prob = builtin_problem("linear_scalar", eps=0.05)
    for level in (3, 4):
        vd = estimate_level(prob, TANH, level=level, n_samples=1500,
                            seed=8).var_delta
        vf = single_level_estimate(prob, TANH, level=level, n_samples=1500,
                                   seed=8).var_delta
        assert vd / vf < 0.1


def test_auto_allocation_meets_target():
    prob = builtin_problem("linear_scalar", eps=0.2)
    est = mlmc_estimate(prob, TANH, base_level=3, max_level=5,
                        target_se=5e-4, seed=19)
    assert est.std_error <= 5e-4 * (1 + 1e-9)
    assert est.warnings == ()
    # classic allocation puts most samples where variance/cost is largest
    assert est.levels[0].samples > est.levels[-1].samples
    assert all(s.samples >= 100 for s in est.levels)


def test_auto_allocation_tops_up_until_target_met():
    # One allocation from the pilot variances left this seed at SE 1.057e-3
    # with every level far below the cap; re-allocating from the merged
    # statistics and topping up meets the target.
    prob = builtin_problem("linear_scalar", eps=0.2)
    est = mlmc_estimate(prob, TANH, base_level=3, max_level=5,
                        target_se=1e-3, seed=13)
    assert est.std_error <= 1e-3 * (1 + 1e-9)
    assert est.warnings == ()
    assert est.levels[0].samples > 272  # what the one-shot allocation took


def test_auto_allocation_cap_warns():
    prob = builtin_problem("linear_scalar", eps=0.2)
    est = mlmc_estimate(prob, TANH, base_level=3, max_level=4,
                        target_se=1e-6, seed=19, n_pilot=50, sample_cap=200)
    assert est.std_error > 1e-6
    assert len(est.warnings) == 1
    assert "not met" in est.warnings[0]
    assert "sample cap 200" in est.warnings[0]
    assert all(s.samples <= 200 for s in est.levels)


def test_argument_validation():
    prob = builtin_problem("linear_scalar")
    with pytest.raises(ValueError, match="base_level"):
        mlmc_estimate(prob, TANH, base_level=5, max_level=4, target_se=0.1)
    with pytest.raises(ValueError, match="exactly one"):
        mlmc_estimate(prob, TANH, base_level=3, max_level=4)
    with pytest.raises(ValueError, match="exactly one"):
        mlmc_estimate(prob, TANH, base_level=3, max_level=4,
                      samples_per_level=[10, 10], target_se=0.1)
    with pytest.raises(ValueError, match="entries"):
        mlmc_estimate(prob, TANH, base_level=3, max_level=4,
                      samples_per_level=[10])
    with pytest.raises(ValueError, match="at least 2"):
        mlmc_estimate(prob, TANH, base_level=3, max_level=4,
                      samples_per_level=[10, 1])
    with pytest.raises(ValueError, match="target_se"):
        mlmc_estimate(prob, TANH, base_level=3, max_level=4, target_se=0.0)


def test_tamed_base_level_floor():
    prob = builtin_problem("cubic_onesided")
    with pytest.raises(AdmissibilityError, match="base_level >= 2"):
        mlmc_estimate(prob, TANH, base_level=1, max_level=4, delta=0.25,
                      target_se=0.1)


def test_tamed_mlmc_runs():
    prob = builtin_problem("cubic_onesided", eps=0.05)
    est = mlmc_estimate(prob, TANH, base_level=3, max_level=5, delta=0.25,
                        samples_per_level=[400, 200, 100], seed=23)
    assert math.isfinite(est.value) and math.isfinite(est.std_error)
    assert len(est.levels) == 3
