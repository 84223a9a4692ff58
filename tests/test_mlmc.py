"""Level statistics, stable merging, and the telescoping estimator."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlmc_sdde import mlmc, scheme
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
    coupled = simulate_coupled(pair, pair.noise_stream(9, range(n)))
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


def test_chunks_run_in_order_on_the_calling_thread():
    calls = []

    def chunk(a, b):
        calls.append((a, b, threading.get_ident()))
        return (np.arange(a, b, dtype=float),)

    chunks = mlmc._run_chunks(chunk, "level 3", 5, 15, 4)
    here = threading.get_ident()
    assert calls == [(5, 9, here), (9, 13, here), (13, 15, here)]
    assert [c[0].tolist() for c in chunks] == [
        [5.0, 6.0, 7.0, 8.0], [9.0, 10.0, 11.0, 12.0], [13.0, 14.0]]


class _Widths(Exception):
    """Raised by the ``_run_chunks`` spy once it has seen a width."""


@pytest.fixture
def fold_widths(monkeypatch):
    """The chunk width a fold asks ``_run_chunks`` for, by fold call; the
    spy stops the fold before any path runs."""
    def spy(chunk_fn, where, start, stop, chunk_size):
        raise _Widths(chunk_size)

    monkeypatch.setattr(mlmc, "_run_chunks", spy)

    def width(fold, *args, **kwargs):
        with pytest.raises(_Widths) as caught:
            fold(*args, **kwargs)
        return caught.value.args[0]

    return width


@pytest.mark.parametrize("level, width", [
    (7, 8192), (8, 8192), (9, 8192), (12, 4096), (13, 2048), (14, 1024),
    (16, 256)])
def test_levels_with_small_delay_windows_fold_wider_chunks(fold_widths,
                                                           level, width):
    # At tau = 1/4 a pair's windows hold (2^(l-2) + 1 + 2^(l-3) + 1) rows:
    # 8192 paths of them are at most 2^23 states up to level 11, and each
    # level beyond halves the width.  A base level of the same level holds
    # fewer rows (2^(l-2) + 1), and takes the same width here.
    p = builtin_problem("linear_scalar")
    assert fold_widths(estimate_level, p, TANH, level, n_samples=10) == width
    assert fold_widths(single_level_estimate, p, TANH, level,
                       n_samples=10) == width
    assert fold_widths(estimate_level, builtin_problem("cubic_onesided"),
                       TANH, level, n_samples=10, **_TAMED) == width


def test_a_patched_chunk_size_sets_the_width(monkeypatch, fold_widths):
    # A patched CHUNK_SIZE is the width wherever the windows fit the state
    # budget at that width (at 256 paths, level 12's 1538 rows do), and it
    # halves where they do not (level 9's 194 rows at 2^16 paths).
    p = builtin_problem("linear_scalar")
    monkeypatch.setattr(mlmc, "CHUNK_SIZE", 256)
    assert [fold_widths(estimate_level, p, TANH, level, n_samples=10)
            for level in (3, 12)] == [256, 256]
    monkeypatch.setattr(mlmc, "CHUNK_SIZE", 2**16)
    assert [fold_widths(estimate_level, p, TANH, level, n_samples=10)
            for level in (3, 7, 9)] == [2**16, 2**16, 2**15]
    monkeypatch.setattr(mlmc, "CHUNK_SIZE", 1)
    assert fold_widths(estimate_level, p, TANH, 3, n_samples=10) == 1


def test_a_wide_tamed_chunk_holds_its_windows_and_few_rows_more():
    # One 8192-path chunk of the level-7 tamed pair holds its two delay
    # windows (33 + 17 rows of 8192 states), one draw block
    # (_BLOCK_DRAWS / 8192 = 4 rows) and the temporaries of a step, its
    # stage solve and the tamed drift, which 24 rows cover.
    p = builtin_problem("cubic_onesided")
    pair = LevelPair.for_problem(p, 7, **_TAMED)
    paths = 8192
    assert mlmc._chunk_width(pair, full_path=False) == paths
    pair.payoffs(TANH, 3, 0, 2)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        pair.payoffs(TANH, 3, 0, paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    windows = sum(grid.steps_per_delay_m + 1 for grid, _, _ in pair.members)
    assert windows == 50
    block_rows = scheme._BLOCK_DRAWS // paths
    bound = (windows + block_rows + 24) * paths * 8
    assert peak <= bound, (peak, bound)


@pytest.mark.parametrize("name, kwargs", [
    ("linear_scalar", {}), ("cubic_onesided", dict(theta=0.5, delta=0.5))],
    ids=["linear_scalar", "tamed"])
def test_a_deep_chunk_stays_inside_the_state_budget(monkeypatch, name,
                                                    kwargs):
    # With a budget of 2^18 states, the level-10 pair's 257 + 129 window
    # rows fit 512 paths and not 1024, so its fold runs 512-path chunks.
    # A fold of two of them holds at most the budget, one draw block
    # (_BLOCK_DRAWS / 512 = 64 rows) and 24 rows of a step's temporaries;
    # one 1024-path chunk would hold 386 window rows of 1024 states.
    monkeypatch.setattr(mlmc, "CHUNK_STATES", 2**18)
    p = builtin_problem(name)
    pair = LevelPair.for_problem(p, 10, **kwargs)
    assert mlmc._chunk_width(pair) == 512
    pair.payoffs(TANH, 3, 0, 2)  # imports and caches outside the trace
    tracemalloc.start()
    try:
        estimate_level(p, TANH, 10, n_samples=1024, seed=3, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = 8 * (mlmc.CHUNK_STATES
                 + 512 * (scheme._BLOCK_DRAWS // 512 + 24))
    assert peak <= bound, (peak, bound)


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
    stream = NoiseStream(master_seed=21, level=5, paths=range(n),
                         dim=1, n_steps=grid.total_steps_N)
    path = theta_em_path(prob, grid, noise=stream)
    vals = TANH.eval(path.terminal)
    assert math.isclose(s.mean_delta, float(vals.mean()), rel_tol=1e-12)
    assert math.isclose(s.var_delta, float(np.var(vals, ddof=1)),
                        rel_tol=1e-12)
    assert s.cost_units == n * grid.total_steps_N


# A base level runs alone, so it is not held to what only a coupled pair
# needs: a level below it, a level two below it when tamed, and a delay
# offset that M divides.
@pytest.mark.parametrize("problem, kwargs, pair_error, stats", [
    (builtin_problem("linear_scalar", tau=0.5), dict(level=1),
     "divisible", (0.5557862725022141, 2.1625160226919078e-05, 16.0)),
    (builtin_problem("linear_scalar", tau=0.5, horizon=0.5), dict(level=0),
     "level >= 1", (0.6364225739608151, 6.902607489962909e-05, 8.0)),
    (builtin_problem("cubic_onesided", tau=0.5, x0=1.0),
     dict(level=1, theta=0.0, delta=0.5),
     "tamed pair", (0.6620787426739845, 0.00021303059247358716, 16.0)),
], ids=["odd-delay-offset", "level-0", "tamed-level-1"])
def test_base_level_skips_the_pair_checks(problem, kwargs, pair_error,
                                          stats):
    s = single_level_estimate(problem, TANH, n_samples=8, seed=3, **kwargs)
    assert (s.mean_delta, s.var_delta, s.cost_units) == stats
    assert s.samples == 8
    with pytest.raises(ValueError, match=pair_error):
        estimate_level(problem, TANH, n_samples=8, seed=3, **kwargs)


@pytest.mark.parametrize("eps", [0.1, 1.0])
@pytest.mark.parametrize("theta", [0.0, 0.5])
def test_level_means_equal_the_noise_free_skeleton(theta, eps):
    # On a linear problem the theta scheme is linear in the state and its
    # increments have mean zero, so the mean of a level's identity payoff
    # is exactly its drift-only skeleton x_l(T), and that of a pair
    # x_l(T) - x_{l-1}(T), for every theta and eps.
    prob = builtin_problem("linear_scalar", eps=eps)

    def skeleton(level):
        plan = LevelPair.for_problem(prob, level, theta=theta, coupled=False)
        return float(plan.run(None).terminal[0])

    for level in (3, 4, 5, 6):
        estimate = single_level_estimate if level == 3 else estimate_level
        exact = skeleton(level) - (skeleton(level - 1) if level > 3 else 0.0)
        z = []
        for seed in range(10):
            s = estimate(prob, IDENT, level=level, theta=theta,
                         n_samples=2000, seed=seed)
            z.append((s.mean_delta - exact)
                     / math.sqrt(s.var_delta / s.samples))
        assert max(abs(v) for v in z) <= 5.0, (level, z)
        assert abs(sum(z)) / math.sqrt(len(z)) <= 4.0, (level, z)


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


def test_target_se_estimate_is_pinned(monkeypatch):
    # Sample counts and values of the target-SE loop, pinned bit for bit:
    # a top-up round on the base level, then a cap that stops the rounds.
    prob = builtin_problem("linear_scalar", eps=0.2)
    est = mlmc_estimate(prob, TANH, base_level=3, max_level=5,
                        target_se=1e-3, seed=13)
    assert [s.samples for s in est.levels] == [382, 100, 100]
    assert est.value == 0.5638227570297695
    assert est.std_error == 0.0009310926782063493
    monkeypatch.setattr(mlmc, "PILOT_SAMPLES", 50)
    monkeypatch.setattr(mlmc, "SAMPLE_CAP", 200)
    est = mlmc_estimate(prob, TANH, base_level=3, max_level=4,
                        target_se=1e-6, seed=19)
    assert [s.samples for s in est.levels] == [200, 200]
    assert est.value == 0.5621830344867679


def test_top_up_of_one_sample_draws_two():
    # After the pilot of 100 the rule asks the base level for 101 samples;
    # a top-up of 1 would fall below the floor of 2, so it draws 2.
    prob = builtin_problem("linear_scalar", eps=0.2)
    est = mlmc_estimate(prob, TANH, base_level=3, max_level=5,
                        target_se=0.001945, seed=13)
    assert [s.samples for s in est.levels] == [102, 100, 100]
    assert est.warnings == ()
    assert est.std_error <= 0.001945


def test_pilot_is_always_followed_by_one_allocation():
    # A target equal to the pilot's own SE is met by the pilot, but the
    # rule's counts still run: uniform counts are not the cost-weighted
    # optimum, so the base level wants more than the pilot gave it.
    prob = builtin_problem("linear_scalar", eps=0.2)
    pilot = mlmc_estimate(prob, TANH, base_level=3, max_level=5,
                          samples_per_level=[100, 100, 100], seed=13)
    est = mlmc_estimate(prob, TANH, base_level=3, max_level=5,
                        target_se=pilot.std_error, seed=13)
    assert [s.samples for s in est.levels] == [108, 100, 100]
    assert est.std_error < pilot.std_error


def test_auto_allocation_cap_warns(monkeypatch):
    monkeypatch.setattr(mlmc, "PILOT_SAMPLES", 50)
    monkeypatch.setattr(mlmc, "SAMPLE_CAP", 200)
    prob = builtin_problem("linear_scalar", eps=0.2)
    est = mlmc_estimate(prob, TANH, base_level=3, max_level=4,
                        target_se=1e-6, seed=19)
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
    # A tamed base level tames with the step of the level below it, so
    # base level 0 is refused and base level 1 runs.
    short = builtin_problem("cubic_onesided", tau=0.5, horizon=0.5)
    with pytest.raises(AdmissibilityError,
                       match="tamed base level needs level >= 1"):
        mlmc_estimate(short, TANH, base_level=0, max_level=3, theta=0.5,
                      delta=0.5, samples_per_level=[8] * 4)
    est = mlmc_estimate(builtin_problem("cubic_onesided", tau=0.5), TANH,
                        base_level=1, max_level=4, theta=0.5, delta=0.5,
                        samples_per_level=[200] * 4)
    assert [s.level for s in est.levels] == [1, 2, 3, 4]
    assert math.isfinite(est.value) and math.isfinite(est.std_error)


# Every tamed plan's coarsest member tames with the step of the level
# below it, which must be a level: a tamed base level needs level >= 1 and
# a tamed pair level >= 2.  At tau = T = 0.5 level 0 has a grid, and level
# 1 an M-divisible delay offset, so only that floor refuses these.
_SHORT_CUBIC = builtin_problem("cubic_onesided", tau=0.5, horizon=0.5)
_TAMED = dict(theta=0.5, delta=0.5)


@pytest.mark.parametrize("call, plan", [
    (lambda: single_level_estimate(_SHORT_CUBIC, TANH, 0, n_samples=10,
                                   **_TAMED), "base level"),
    (lambda: estimate_level(_SHORT_CUBIC, TANH, 1, n_samples=10, **_TAMED),
     "pair"),
    (lambda: mlmc_estimate(_SHORT_CUBIC, TANH, 0, 3,
                           samples_per_level=[10] * 4, **_TAMED),
     "base level"),
    (lambda: LevelPair.for_problem(_SHORT_CUBIC, 0, coupled=False, **_TAMED),
     "base level"),
    (lambda: LevelPair.for_problem(_SHORT_CUBIC, 1, **_TAMED), "pair"),
], ids=["single_level_estimate", "estimate_level", "mlmc_estimate",
        "for_problem-base", "for_problem-pair"])
def test_tamed_plan_below_the_floor_is_refused_before_any_path(
        monkeypatch, call, plan):
    def fail(*args, **kwargs):
        raise AssertionError("ran past the tamed floor")

    monkeypatch.setattr(mlmc, "_run_chunks", fail)
    monkeypatch.setattr(GridSpec, "for_problem", fail)
    floor = 1 if plan == "base level" else 2
    with pytest.raises(AdmissibilityError,
                       match=f"a tamed {plan} needs level >= {floor}: its "
                       "coarsest member tames with the step of level -1"):
        call()


def test_tamed_base_level_one_estimate_is_the_sum_of_its_levels():
    p = builtin_problem("cubic_onesided", tau=0.5)
    est = mlmc_estimate(p, TANH, 1, 4, samples_per_level=[50] * 4, seed=4,
                        **_TAMED)
    levels = (single_level_estimate(p, TANH, 1, n_samples=50, seed=4,
                                    **_TAMED),
              *(estimate_level(p, TANH, level, n_samples=50, seed=4,
                               **_TAMED) for level in (2, 3, 4)))
    assert est.levels == levels
    assert est.value == levels[0].mean_delta + sum(
        s.mean_delta for s in levels[1:])
    assert math.isfinite(est.value)


def test_tamed_mlmc_runs():
    prob = builtin_problem("cubic_onesided", eps=0.05)
    est = mlmc_estimate(prob, TANH, base_level=3, max_level=5, delta=0.25,
                        samples_per_level=[400, 200, 100], seed=23)
    assert math.isfinite(est.value) and math.isfinite(est.std_error)
    assert len(est.levels) == 3
