"""Tests for coupled fine/coarse pairs.

The load-bearing checks are exactness ones: with zero drift and additive
noise both members integrate the same Brownian sums, so they must agree
at coarse nodes to accumulation error; and the pair's members must
reproduce standalone single-grid runs driven by the same stream, which is
what makes multilevel differences telescope.
"""

import math
import tracemalloc

import numpy as np
import pytest

from mlmc_sdde import scheme
from mlmc_sdde.analysis import strong_error_rate
from mlmc_sdde.coupling import (
    CoupledPair,
    LevelPair,
    coupled_payoff_delta,
    simulate_coupled,
)
from mlmc_sdde.mlmc import estimate_level
from mlmc_sdde.model import builtin_payoff, builtin_problem
from mlmc_sdde.rng import NoiseStream
from mlmc_sdde.scheme import (
    AdmissibilityError,
    GridSpec,
    taming_for_level,
    theta_em_path,
)


def _stream_for(pair, seed=0, paths=np.arange(16)):
    return pair.noise_stream(seed, paths)


# ---------------------------------------------------------------------------
# LevelPair construction
# ---------------------------------------------------------------------------

def test_level_pair_grids():
    p = builtin_problem("linear_scalar")  # tau=0.25, T=1
    pair = LevelPair.for_problem(p, level=4, M=2, theta=0.5)
    assert pair.grid_fine.step_h == 2.0**-4
    assert pair.grid_coarse.step_h == 2.0**-3
    assert pair.grid_fine.steps_per_delay_m == 4
    assert pair.grid_coarse.steps_per_delay_m == 2
    assert pair.grid_coarse.total_steps_N == 8
    assert pair.cost_per_path == 16 + 8


def test_level_pair_delay_divisibility():
    p = builtin_problem("linear_scalar")
    # level 2: the coarse grid cannot align with tau (m would be 0.5)
    with pytest.raises(ValueError, match="divisible"):
        LevelPair.for_problem(p, level=2, M=2)
    LevelPair.for_problem(p, level=3, M=2)  # m_fine = 2: fine
    # The same refusal reaches an MLMC level: at tau = 0.5 level 1 has
    # m_fine = 1, and M = 2 does not divide it.
    with pytest.raises(ValueError, match="not divisible by M = 2; the "
                       "coarse grid cannot align with the delay"):
        estimate_level(builtin_problem("linear_scalar", tau=0.5),
                       builtin_payoff("tanh"), level=1, n_samples=8)


def test_level_pair_tamed_needs_level_two():
    p = builtin_problem("cubic_onesided", tau=0.5, horizon=1.0)
    with pytest.raises(ValueError, match="tamed"):
        LevelPair.for_problem(p, level=1, M=2, delta=0.25)
    pair = LevelPair.for_problem(p, level=2, M=2, delta=0.25)
    # The fine member tames with the pair's coarse step, the coarse member
    # with the step of the level below it.
    t_f = taming_for_level(p, pair.level, pair.M, pair.delta)
    t_c = taming_for_level(p, pair.level - 1, pair.M, pair.delta)
    assert t_f.h_coarse == pair.grid_coarse.step_h
    assert t_c.h_coarse == 2 * pair.grid_coarse.step_h
    assert taming_for_level(builtin_problem("linear_scalar"), 2, 2,
                            0.25) is not None
    untamed = LevelPair.for_problem(p, level=2, M=2)
    assert taming_for_level(p, untamed.level, untamed.M, untamed.delta) is None


def test_level_pair_rejects_bad_m():
    p = builtin_problem("linear_scalar")
    with pytest.raises(ValueError):
        LevelPair.for_problem(p, level=3, M=1)
    with pytest.raises(ValueError):
        LevelPair.for_problem(p, level=0, M=2)


# ---------------------------------------------------------------------------
# Exactness checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("M", [2, 4])
@pytest.mark.parametrize("theta", [0.0, 0.5])
def test_zero_drift_additive_pair_agrees_at_coarse_nodes(M, theta):
    # With f = 0 and g constant both members are partial sums of the same
    # Brownian increments; any discrepancy is pure accumulation error.
    p = builtin_problem("additive_noise", a1=0.0, a2=0.0, g0=1.0, eps=0.9,
                        tau=0.25, horizon=1.0)
    level = 3 if M == 2 else 2
    pair = LevelPair.for_problem(p, level=level, M=M, theta=theta)
    stream = _stream_for(pair, seed=11)
    out = simulate_coupled(pair, stream)
    diff = np.abs(out.state_difference())
    scale = 1.0 + np.abs(out.coarse_on_grid)
    assert np.max(diff / scale) < 1e-12


@pytest.mark.parametrize("name, M, level, theta, delta, paths", [
    ("linear_scalar", 2, 4, 0.0, None, np.arange(8)),
    ("linear_scalar", 2, 4, 0.5, None, np.arange(8)),
    ("linear_scalar", 4, 3, 0.0, None, np.arange(8)),
    ("linear_scalar", 4, 3, 0.5, None, np.arange(8)),
    ("cubic_onesided", 2, 4, 0.5, 0.5, np.arange(8)),
    ("linear_scalar", 2, 4, 0.5, None, 5),
    # 3000 paths are drawn 21 steps at a time, so the draw blocks end
    # inside the 4-step blocks of the coarse increments.
    ("linear_scalar", 4, 3, 0.0, None, np.arange(3000)),
], ids=["0.0", "0.5", "M4-0.0", "M4-0.5", "tamed-0.5", "scalar-path",
        "M4-block-edge"])
def test_pair_members_match_standalone_paths_bitwise(name, M, level, theta,
                                                     delta, paths):
    p = builtin_problem(name, eps=0.3)
    pair = LevelPair.for_problem(p, level=level, M=M, theta=theta,
                                 delta=delta)
    stream = _stream_for(pair, seed=42, paths=paths)
    out = simulate_coupled(pair, stream)

    fine_alone = theta_em_path(p, pair.grid_fine, noise=stream,
                               taming=taming_for_level(p, level, M, delta))
    np.testing.assert_array_equal(out.fine.values, fine_alone.values)

    # coarse member: same scheme driven by the summed increments, added
    # left to right over the M fine steps of each coarse step
    xi = stream.gaussian_increment(range(pair.grid_fine.total_steps_N))
    csum = xi[0::M].copy()
    for k in range(1, M):
        csum = csum + xi[k::M]
    dw = math.sqrt(pair.grid_fine.step_h) * csum
    if np.ndim(paths) == 0:
        # One path index draws (N, d): run it as a batch of one path.
        dw = dw[:, None]
    coarse_alone = theta_em_path(
        p, pair.grid_coarse, noise=dw,
        taming=taming_for_level(p, level - 1, M, delta))
    alone = coarse_alone.values
    np.testing.assert_array_equal(out.coarse.values,
                                  alone[:, 0] if np.ndim(paths) == 0 else alone)
    assert out.fine.values.shape[1:] == ((1,) if np.ndim(paths) == 0
                                         else (len(paths), 1))


def test_pair_skeleton_matches_single_grid_skeletons():
    p = builtin_problem("linear_scalar", eps=0.0)
    pair = LevelPair.for_problem(p, level=5, M=2, theta=0.5)
    stream = pair.noise_stream(0, 0)
    out = simulate_coupled(pair, stream)
    fine_skel = theta_em_path(p, pair.grid_fine)
    coarse_skel = theta_em_path(p, pair.grid_coarse)
    np.testing.assert_array_equal(out.fine.values, fine_skel.values)
    np.testing.assert_array_equal(out.coarse.values, coarse_skel.values)


def test_fine_on_coarse_grid_alignment():
    p = builtin_problem("linear_scalar", eps=0.2)
    pair = LevelPair.for_problem(p, level=3, M=2)
    stream = _stream_for(pair, seed=3, paths=np.arange(4))
    out = simulate_coupled(pair, stream)
    fg = out.fine_on_coarse_grid
    n_coarse = pair.grid_coarse.total_steps_N
    assert fg.shape == out.coarse_on_grid.shape == (n_coarse + 1, 4, 1)
    m = out.fine.m
    np.testing.assert_array_equal(fg[0], out.fine.values[m + 0])
    np.testing.assert_array_equal(fg[-1], out.fine.terminal)
    for n in range(n_coarse + 1):
        np.testing.assert_array_equal(fg[n], out.fine.values[m + n * pair.M])


def test_coupled_payoff_delta_recomputes():
    p = builtin_problem("linear_scalar", eps=0.4)
    pair = LevelPair.for_problem(p, level=3, M=2, theta=0.5)
    stream = _stream_for(pair, seed=9, paths=np.arange(32))
    out = simulate_coupled(pair, stream)
    payoff = builtin_payoff("tanh")
    delta, fine = coupled_payoff_delta(out, payoff)
    np.testing.assert_array_equal(
        delta,
        np.tanh(out.fine.terminal[..., 0]) - np.tanh(out.coarse.terminal[..., 0]),
    )
    np.testing.assert_array_equal(fine, np.tanh(out.fine.terminal[..., 0]))
    assert delta.shape == (32,)


# ---------------------------------------------------------------------------
# Stream layout validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, theta, delta", [
    ("linear_scalar", 0.0, None), ("linear_scalar", 0.5, None),
    ("cubic_onesided", 0.0, 0.25), ("cubic_onesided", 0.5, 0.5)])
def test_fine_member_is_the_single_level_path_of_its_level(name, theta,
                                                           delta):
    # A pair's stream and a single-level stream of the same (seed, level)
    # are one stream, so the fine member is the single-level path.
    p = builtin_problem(name, eps=0.3)
    pair = LevelPair.for_problem(p, level=4, M=2, theta=theta, delta=delta)
    grid = pair.grid_fine
    paths = np.arange(5, 12)
    out = simulate_coupled(pair, pair.noise_stream(8, paths))
    single = NoiseStream(master_seed=8, level=4, path_index=paths, dim=1,
                         n_steps=grid.total_steps_N)
    alone = theta_em_path(p, grid, noise=single,
                          taming=taming_for_level(p, 4, 2, delta))
    assert np.all(np.isfinite(alone.values))
    np.testing.assert_array_equal(out.fine.values, alone.values)


@pytest.mark.parametrize("name, theta, delta", [
    ("linear_scalar", 0.0, None), ("linear_scalar", 0.5, None),
    ("cubic_onesided", 0.0, 0.25), ("cubic_onesided", 0.5, 0.5)])
def test_base_plan_payoffs_are_the_fines_of_the_pair(name, theta, delta):
    # The base plan of a level runs the pair's fine member alone, so its
    # payoffs are the pair's fine payoffs, bit for bit, at its own cost.
    p = builtin_problem(name, eps=0.3)
    psi = builtin_payoff("tanh")
    pair = LevelPair.for_problem(p, level=4, M=2, theta=theta, delta=delta)
    base = LevelPair.for_problem(p, level=4, M=2, theta=theta, delta=delta,
                                 coupled=False)
    assert base.grid_coarse is None and base.grid_fine == pair.grid_fine
    assert (base.cost_per_path, pair.cost_per_path) == (16, 16 + 8)
    deltas, fines = base.payoffs(psi, 8, 5, 12)
    assert deltas is fines and deltas.shape == (7,)
    np.testing.assert_array_equal(deltas,
                                  pair.payoffs(psi, 8, 5, 12)[1])


def test_simulate_coupled_validates_stream():
    p = builtin_problem("linear_scalar")
    pair = LevelPair.for_problem(p, level=3, M=2)
    bad_dim = NoiseStream(master_seed=0, level=3, path_index=0, dim=2,
                          n_steps=8)
    with pytest.raises(ValueError, match="dim"):
        simulate_coupled(pair, bad_dim)
    short = NoiseStream(master_seed=0, level=3, path_index=0, dim=1,
                        n_steps=4)
    with pytest.raises(ValueError, match="fine steps"):
        simulate_coupled(pair, short)
    with pytest.raises(TypeError):
        simulate_coupled(pair, np.zeros((4, 2, 1)))
    base = LevelPair.for_problem(p, level=3, M=2, coupled=False)
    with pytest.raises(ValueError, match="no coarse member"):
        simulate_coupled(base, _stream_for(base))


@pytest.mark.parametrize("name, theta, delta", [
    ("linear_scalar", 0.0, None), ("cubic_onesided", 0.5, 0.5)])
def test_an_empty_stream_batch_runs_to_empty_paths(name, theta, delta):
    p = builtin_problem(name)
    pair = LevelPair.for_problem(p, level=4, M=2, theta=theta, delta=delta)
    empty = pair.noise_stream(3, np.arange(0))
    alone = theta_em_path(p, pair.grid_fine, noise=empty,
                          taming=taming_for_level(p, 4, 2, delta))
    out = simulate_coupled(pair, empty)
    m, N = pair.grid_fine.steps_per_delay_m, pair.grid_fine.total_steps_N
    assert alone.values.shape == out.fine.values.shape == (N + m + 1, 0, 1)
    assert out.coarse.values.shape == (N // 2 + m // 2 + 1, 0, 1)


def _count_draws(monkeypatch):
    """The argument tuples of every ``NoiseStream.gaussian_increment``
    call from now on, in a list that fills as they are made."""
    calls = []
    original = NoiseStream.gaussian_increment

    def counting(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(NoiseStream, "gaussian_increment", counting)
    return calls


def test_simulate_coupled_refuses_an_inadmissible_coarse_member(monkeypatch):
    # At theta = 1, level 3: theta*h_fine = 1/8 is below 1/6.6, theta*h_coarse
    # = 1/4 is not, so only the coarse member fails, and it is refused
    # before the pair makes its first draw.
    p = builtin_problem("linear_scalar")
    pair = LevelPair.for_problem(p, level=3, M=2, theta=1.0)
    stream = _stream_for(pair)
    theta_em_path(p, pair.grid_fine, noise=stream)
    with pytest.raises(AdmissibilityError, match="theta\\*h"):
        theta_em_path(p, pair.grid_coarse, noise=stream)
    calls = _count_draws(monkeypatch)
    with pytest.raises(AdmissibilityError, match="theta\\*h"):
        simulate_coupled(pair, stream)
    assert calls == []


def test_simulate_coupled_refuses_an_untamed_implicit_onesided_pair():
    p = builtin_problem("cubic_onesided")
    pair = LevelPair.for_problem(p, level=3, M=2, theta=0.5)
    with pytest.raises(AdmissibilityError, match="taming"):
        simulate_coupled(pair, _stream_for(pair))


# ---------------------------------------------------------------------------
# Behavioural checks
# ---------------------------------------------------------------------------

def test_pair_difference_shrinks_with_level():
    p = builtin_problem("linear_scalar", eps=0.1)
    sups = []
    for level in (3, 5, 7):
        pair = LevelPair.for_problem(p, level=level, M=2, theta=0.5)
        stream = pair.noise_stream(7, np.arange(256))
        out = simulate_coupled(pair, stream)
        diff = out.state_difference()
        sups.append(np.max(np.mean(np.sum(diff**2, axis=-1), axis=-1)))
    assert sups[0] > sups[1] > sups[2]
    # two levels apart: mean-square difference should drop by roughly
    # M^2 per level; leave generous slack, this is a smoke test
    assert sups[2] < sups[0] / 4


def test_tamed_pair_stays_bounded_where_untamed_explodes():
    p = builtin_problem("cubic_onesided", x0=5.0, eps=1e-4)
    pair = LevelPair.for_problem(p, level=4, M=2, theta=0.0, delta=0.25)
    stream = pair.noise_stream(1, np.arange(64))
    out = simulate_coupled(pair, stream)
    assert np.all(np.isfinite(out.fine.values))
    assert np.all(np.isfinite(out.coarse.values))
    assert np.max(np.abs(out.fine.values)) < 50.0

    untamed_grid = GridSpec.for_problem(p, theta=0.0, level=3)
    single = NoiseStream(master_seed=1, level=3, path_index=np.arange(4),
                         dim=1, n_steps=untamed_grid.total_steps_N)
    with np.errstate(over="ignore", invalid="ignore"):
        wild = theta_em_path(p, untamed_grid, noise=single)
        biggest = np.nanmax(np.abs(wild.values))
    assert not biggest < 1e10


# ---------------------------------------------------------------------------
# Within-coarse-interval shape of the fine path
# ---------------------------------------------------------------------------

def _interval_stat(problem, level, n_paths, seed, squared):
    """Worst within-coarse-interval fine-path increment statistic.

    For every coarse step n and substep offset 1 <= k <= M this looks at
    the fine increments X(nM + k) - X(nM); ``squared`` selects between
    the mean squared increment and the absolute mean increment, both
    maximised over (n, k).
    """
    pair = LevelPair.for_problem(problem, level, M=2, theta=0.0)
    stream = pair.noise_stream(seed, np.arange(n_paths))
    coupled = simulate_coupled(pair, stream)
    vf = coupled.fine.values[coupled.fine.m:]
    base = vf[:-1:pair.M]
    worst = 0.0
    for k in range(1, pair.M + 1):
        inc = vf[k::pair.M] - base
        if squared:
            val = float(np.sum(inc * inc, axis=-1).mean(axis=1).max())
        else:
            val = float(np.abs(inc.mean(axis=1)).max())
        worst = max(worst, val)
    return worst


def _loglog_slope(xs, ys):
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    r2 = 1.0 - np.sum(resid**2) / np.sum((ly - ly.mean()) ** 2)
    return slope, r2


def test_interval_drift_mean_scales_like_coarse_step():
    # The mean fine-path displacement inside one coarse interval is a pure
    # drift effect and shrinks linearly with the coarse step M*h_l.
    problem = builtin_problem("linear_scalar")
    levels = [3, 4, 5, 6]
    xs = [2 * 2.0**-level for level in levels]
    ys = [_interval_stat(problem, level, 100_000, 42, squared=False)
          for level in levels]
    slope, r2 = _loglog_slope(xs, ys)
    assert abs(slope - 1.0) <= 0.3
    assert r2 >= 0.9


def test_interval_increment_second_moment_scaling():
    # Squared fine increments within a coarse interval: drift-only paths
    # scale like h^2, noise-dominated paths like h.
    levels = [3, 4, 5, 6]
    xs = [2 * 2.0**-level for level in levels]

    drift_only = builtin_problem("linear_scalar").with_noise_scale(0.0)
    ys = [_interval_stat(drift_only, level, 64, 1, squared=True)
          for level in levels]
    slope, r2 = _loglog_slope(xs, ys)
    assert abs(slope - 2.0) <= 0.3
    assert r2 >= 0.9

    noisy = builtin_problem("additive_noise").with_noise_scale(1.0)
    ys = [_interval_stat(noisy, level, 20_000, 2, squared=True)
          for level in levels]
    slope, r2 = _loglog_slope(xs, ys)
    assert abs(slope - 1.0) <= 0.3
    assert r2 >= 0.9


# ---------------------------------------------------------------------------
# Delay-window pairs and drift-only pairs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name, M, level, theta, delta, eps", [
    ("linear_scalar", 2, 3, 0.0, None, 0.3),
    ("linear_scalar", 4, 2, 0.0, None, 0.3),
    ("cubic_onesided", 2, 4, 0.5, 0.5, 0.1),
    ("linear_scalar", 2, 4, 0.5, None, 0.0),
])
def test_window_pair_is_tail_of_full_pair_bitwise(name, M, level, theta,
                                                  delta, eps):
    p = builtin_problem(name, eps=eps)
    pair = LevelPair.for_problem(p, level=level, M=M, theta=theta,
                                 delta=delta)
    for paths in (np.arange(5), 2):
        stream = _stream_for(pair, seed=9, paths=paths)
        full = simulate_coupled(pair, stream)
        window = simulate_coupled(pair, stream, full_path=False)
        for f, w in ((full.fine, window.fine), (full.coarse, window.coarse)):
            np.testing.assert_array_equal(w.values, f.values[-(f.m + 1):])
            np.testing.assert_array_equal(w.terminal, f.terminal)
            assert (w.total_steps, w.m, w.step_h) == (
                f.total_steps, f.m, f.step_h)
        with pytest.raises(ValueError, match="window"):
            window.state_difference()


@pytest.mark.parametrize("level", [7, 10])
def test_window_pair_memory_does_not_grow_with_its_steps(level):
    # The members step in lockstep and the coarse member takes each sum as
    # soon as its M draws are read, so a pair holds its two delay windows,
    # one draw block (_BLOCK_DRAWS / paths = 8 rows at 4096 paths) and a
    # few step temporaries, whatever its step count: 16 rows cover the
    # temporaries.  A pair that stored the coarse sums of the whole path
    # would hold N_c more rows, and one that kept a row of the last block
    # while drawing the next would hold two blocks.
    p = builtin_problem("linear_scalar")
    pair = LevelPair.for_problem(p, level=level, M=2)
    paths = 4096
    stream = _stream_for(pair, paths=np.arange(paths))
    tracemalloc.start()
    try:
        simulate_coupled(pair, stream, full_path=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m_f = pair.grid_fine.steps_per_delay_m
    m_c = pair.grid_coarse.steps_per_delay_m
    block_rows = scheme._BLOCK_DRAWS // paths
    bound = (m_f + 1 + m_c + 1 + block_rows + 16) * paths * 8
    assert peak <= bound, (peak, bound)


def _drift_only_pair(p):
    pair = LevelPair.for_problem(p, level=5, M=2, theta=0.5)
    simulate_coupled(pair, _stream_for(pair))


def _drift_only_strong_sweep(p):
    strong_error_rate(p, builtin_payoff("identity"), level_sweep=[3, 4, 5],
                      n_paths=1000)


@pytest.mark.parametrize("run", [_drift_only_pair, _drift_only_strong_sweep],
                         ids=["pair", "strong-sweep"])
def test_drift_only_runs_draw_nothing(monkeypatch, run):
    calls = _count_draws(monkeypatch)
    run(builtin_problem("linear_scalar", eps=0.0))
    assert calls == []
