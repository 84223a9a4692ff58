"""Tests for rate fitting, skeletons, and the sweep experiments.

Slope windows here are deliberately wider than the headline acceptance
runs because these use small path counts; the tight checks live in
tests/test_acceptance.py.  Exact checks (skeleton oracles, record
schemas, worker-count invariance) are the load-bearing part.
"""

import tracemalloc

import numpy as np
import pytest

from mlmc_sdde import analysis, cli, scheme
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
from mlmc_sdde.model import builtin_payoff, builtin_problem
from mlmc_sdde.rng import NoiseStream
from mlmc_sdde.scheme import GridSpec, theta_em_path

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
    stream = NoiseStream(master_seed=9, level=4, path_index=np.arange(3),
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
    original = analysis.theta_em_path
    per_grid = {}

    def record(problem, grid, noise=None, taming=None, **kwargs):
        # The reference increments arrive as an iterator: materialize them.
        dw = np.array(list(noise))
        per_grid.setdefault(grid.total_steps_N, []).append(dw)
        return original(problem, grid, noise=iter(dw), taming=taming,
                        **kwargs)

    monkeypatch.setattr(analysis, "theta_em_path", record)
    problem = builtin_problem("linear_scalar", eps=1e-4)
    psi = builtin_payoff("identity")
    runs = []
    for size in (1, 2, 5):
        per_grid.clear()
        monkeypatch.setattr(analysis, "_STRONG_CHUNK_PATHS", size)
        strong_error_rate(problem, psi, level_sweep=[3, 4, 5], n_paths=5,
                          seed=13, jobs=1)
        runs.append({n: np.concatenate(arrs, axis=1)
                     for n, arrs in per_grid.items()})
    assert sorted(runs[0]) == [8, 16, 32, 256]
    for other in runs[1:]:
        assert sorted(other) == sorted(runs[0])
        for n, dw in runs[0].items():
            assert dw.shape == (n, 5, 1)
            np.testing.assert_array_equal(other[n], dw)


def test_strong_error_chunk_holds_less_than_the_reference_increments(
        monkeypatch):
    # One 2500-path chunk of levels 3..5 against reference level 8: the
    # reference increments stream through the step loop, so the chunk
    # never holds all n_ref x P of them at once.
    problem = builtin_problem("linear_scalar", eps=1e-4)
    psi = builtin_payoff("identity")
    n_ref, n_paths = 2**8, 2500
    monkeypatch.setattr(analysis, "_STRONG_CHUNK_PATHS", n_paths)
    tracemalloc.start()
    try:
        strong_error_rate(problem, psi, level_sweep=[3, 4, 5],
                          n_paths=n_paths, seed=13, jobs=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n_ref * n_paths * 8


def test_strong_error_validation():
    problem = builtin_problem("linear_scalar")
    psi = builtin_payoff("identity")
    with pytest.raises(ValueError, match="level_sweep"):
        strong_error_rate(problem, psi, level_sweep=[3, 4], n_paths=8)


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
    s2 = strong_error_rate(problem, psi, jobs=4, **se_kw)
    assert s1.errors_sq == s2.errors_sq


# ---------------------------------------------------------------------------
# Chunked cells
# ---------------------------------------------------------------------------

def _record_chunking(monkeypatch):
    """Wrap the chunk runner; returns the list of ``(where, paths, chunk
    size)`` it is called with."""
    seen = []
    original = analysis._run_chunks

    def recording(chunk_fn, where, start, stop, chunk_size, jobs=None):
        seen.append((where, stop - start, chunk_size))
        return original(chunk_fn, where, start, stop, chunk_size, jobs)

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
    cells = [
        (analysis._coupled_payoff_var,
         (problem, psi, 4, 4, 0.0, None, 4000, 5),
         lambda whole_peak: pair_chunk),
        (analysis._pair_sq_moments,
         (problem, 4, 4, 0.0, None, 4000, 5),
         lambda whole_peak: whole_peak / 2.5),
    ]

    def traced(fn, args):
        tracemalloc.start()
        try:
            value = fn(*args)
            return value, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for fn, args, bound in cells:
        whole, whole_peak = traced(fn, args)
        seen = _record_chunking(monkeypatch)
        monkeypatch.setattr(analysis, "_CHUNK_DRAWS", 2**18)
        chunked, chunked_peak = traced(fn, args)
        monkeypatch.undo()
        assert [size for _, _, size in seen] == [1024]
        assert chunked == whole
        assert chunked_peak <= bound(whole_peak), (
            fn.__name__, chunked_peak, whole_peak)


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
    assert len(seen) == 2 * 6 + 2 * 6 + 4 + 2
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
