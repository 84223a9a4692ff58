"""Tests for the counter-based noise source.

The primary oracle is a deliberately plain pure-integer Philox-4x64-10,
written and frozen against the reference known-answer vectors before the
vectorised implementation existed.  numpy's Philox bit generator serves as
a second, independent cross-check; its ``random_raw`` output for counter
``c`` equals the reference block at counter ``c + 1`` because numpy
advances the counter before generating.
"""

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from mlmc_sdde.analysis import strong_error_rate
from mlmc_sdde.coupling import LevelPair, simulate_coupled
from mlmc_sdde.model import builtin_payoff, builtin_problem
from mlmc_sdde.rng import (
    _SEQUENCE_MIN_STEPS,
    NoiseStream,
    philox_words,
    uniforms_from_words,
)
from mlmc_sdde.scheme import GridSpec, theta_em_path

# ---------------------------------------------------------------------------
# Pure-integer oracle (frozen)
# ---------------------------------------------------------------------------

_M0 = 0xD2E7470EE14C6C93
_M1 = 0xCA5A826395121157
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_MASK = (1 << 64) - 1


def philox_oracle(ctr, key):
    ctr = list(ctr)
    key = list(key)
    for r in range(10):
        if r > 0:
            key[0] = (key[0] + _W0) & _MASK
            key[1] = (key[1] + _W1) & _MASK
        lo0, hi0 = (_M0 * ctr[0]) & _MASK, ((_M0 * ctr[0]) >> 64) & _MASK
        lo1, hi1 = (_M1 * ctr[2]) & _MASK, ((_M1 * ctr[2]) >> 64) & _MASK
        ctr = [hi1 ^ ctr[1] ^ key[0], lo1, hi0 ^ ctr[3] ^ key[1], lo0]
    return tuple(ctr)


# Reference known-answer vectors (counter, key) -> block words.
_KAT = [
    (
        (0, 0, 0, 0),
        (0, 0),
        (0x16554D9ECA36314C, 0xDB20FE9D672D0FDC,
         0xD7E772CEE186176B, 0x7E68B68AEC7BA23B),
    ),
    (
        (_MASK, _MASK, _MASK, _MASK),
        (_MASK, _MASK),
        (0x87B092C3013FE90B, 0x438C3C67BE8D0224,
         0x9CC7D7C69CD777B6, 0xA09CAEBF594F0BA0),
    ),
    (
        (0x243F6A8885A308D3, 0x13198A2E03707344,
         0xA4093822299F31D0, 0x082EFA98EC4E6C89),
        (0x452821E638D01377, 0xBE5466CF34E90C6C),
        (0xA528F45403E61D95, 0x38C72DBD566E9788,
         0xA5A1610E72FD18B5, 0x57BD43B5E52B7FE6),
    ),
]


def test_oracle_matches_reference_vectors():
    for ctr, key, expected in _KAT:
        assert philox_oracle(ctr, key) == expected


def test_vectorised_block_matches_oracle_on_kat():
    for ctr, key, expected in _KAT:
        got = philox_words(tuple(np.uint64(w) for w in ctr), key)
        assert tuple(int(w) for w in got) == expected


def test_vectorised_block_matches_oracle_batched():
    rng = np.random.default_rng(7)
    ctrs = rng.integers(0, 2**63, size=(64, 4), dtype=np.uint64)
    key = (12345, 678)
    got = philox_words((ctrs[:, 0], ctrs[:, 1], ctrs[:, 2], ctrs[:, 3]), key)
    for i in range(len(ctrs)):
        assert tuple(int(w) for w in got[i]) == philox_oracle(
            [int(w) for w in ctrs[i]], key
        )


def test_numpy_philox_cross_check():
    # numpy generates at counter + 1, so compare against the next block.
    def incr(c):
        c = list(c)
        for i in range(4):
            c[i] = (c[i] + 1) & _MASK
            if c[i]:
                break
        return c

    for ctr, key in [((0, 0, 0, 0), (0, 0)),
                     ((9, 8, 7, 6), (5, 4)),
                     ((_MASK, 0, 0, 0), (1, 2))]:
        raw = Philox(
            counter=np.array(ctr, dtype=np.uint64),
            key=np.array(key, dtype=np.uint64),
        ).random_raw(4)
        ref = philox_oracle(incr(ctr), key)
        assert tuple(int(w) for w in raw) == ref


# ---------------------------------------------------------------------------
# Word -> uniform -> normal mapping
# ---------------------------------------------------------------------------

def test_uniforms_strictly_inside_unit_interval():
    words = np.array([0, 1, 2**63, _MASK], dtype=np.uint64)
    u = uniforms_from_words(words)
    assert u[0] == 2.0**-53
    assert u[-1] == 1.0 - 2.0**-53
    assert np.all(u > 0.0) and np.all(u < 1.0)
    # top 52 bits only: words differing in the low 12 bits collide
    assert uniforms_from_words(np.uint64(4095)) == u[0]


def test_increment_equals_ndtri_of_oracle_words():
    stream = NoiseStream(master_seed=42, level=2, path_index=7, dim=4,
                         substeps=2)
    got = stream.gaussian_increment(3, 1)
    words = philox_oracle((3, 1, 7, 0), (42, 2))
    expected = ndtri(((np.array(words, dtype=np.uint64) >> np.uint64(12))
                      .astype(float) + 0.5) * 2.0**-52)
    np.testing.assert_array_equal(got, expected)


def test_multiblock_dimension_layout():
    # dim > 4 spills into block 1; leading components must not move.
    s5 = NoiseStream(master_seed=2**63, level=9, path_index=123456, dim=5)
    s4 = NoiseStream(master_seed=2**63, level=9, path_index=123456, dim=4)
    z5 = s5.gaussian_increment(5, 0)
    z4 = s4.gaussian_increment(5, 0)
    np.testing.assert_array_equal(z5[:4], z4)
    w = philox_oracle((5, 0, 123456, 1), (2**63, 9))
    u0 = ((w[0] >> 12) + 0.5) * 2.0**-52
    assert z5[4] == ndtri(u0)


# ---------------------------------------------------------------------------
# Stream addressing semantics
# ---------------------------------------------------------------------------

def test_query_order_is_irrelevant():
    stream = NoiseStream(master_seed=11, level=3, path_index=0, dim=2,
                         substeps=4, n_steps=8)
    addresses = [(n, k) for n in range(8) for k in range(4)]
    forward = {a: stream.gaussian_increment(*a) for a in addresses}
    rng = np.random.default_rng(0)
    for a in rng.permutation(len(addresses)):
        n, k = addresses[a]
        np.testing.assert_array_equal(
            stream.gaussian_increment(n, k), forward[(n, k)]
        )


def test_distinct_coordinates_give_distinct_draws():
    base = dict(master_seed=5, level=1, path_index=3, dim=3, substeps=2)
    z = NoiseStream(**base).gaussian_increment(1, 1)
    for change in [dict(master_seed=6), dict(level=2), dict(path_index=4)]:
        other = NoiseStream(**{**base, **change}).gaussian_increment(1, 1)
        assert not np.array_equal(z, other)
    s = NoiseStream(**base)
    assert not np.array_equal(z, s.gaussian_increment(1, 0))
    assert not np.array_equal(z, s.gaussian_increment(0, 1))


def test_batch_rows_match_scalar_streams():
    batch = NoiseStream(master_seed=9, level=4,
                        path_index=np.arange(17, 25), dim=3, substeps=2)
    z = batch.gaussian_increment(6, 1)
    assert z.shape == (8, 3)
    for i, p in enumerate(range(17, 25)):
        single = NoiseStream(master_seed=9, level=4, path_index=p,
                             dim=3, substeps=2)
        np.testing.assert_array_equal(z[i], single.gaussian_increment(6, 1))


def test_coarse_increment_is_bitexact_sum_of_fine_draws():
    stream = NoiseStream(master_seed=1234, level=5,
                         path_index=np.arange(64), dim=2, substeps=4)
    total = stream.gaussian_increment(2, 0)
    for k in range(1, 4):
        total = total + stream.gaussian_increment(2, k)
    np.testing.assert_array_equal(stream.coarse_increment(2), total)
    np.testing.assert_array_equal(stream.coarse_increment(2, 4), total)


def test_fine_step_flat_indexing():
    stream = NoiseStream(master_seed=3, level=0, path_index=5, dim=1,
                         substeps=4)
    np.testing.assert_array_equal(
        stream.fine_step(11), stream.gaussian_increment(2, 3)
    )
    np.testing.assert_array_equal(
        stream.fine_step(0), stream.gaussian_increment(0, 0)
    )


def test_out_of_range_requests_raise():
    stream = NoiseStream(master_seed=0, level=0, path_index=0, dim=1,
                         substeps=2, n_steps=4)
    with pytest.raises(IndexError):
        stream.gaussian_increment(4, 0)
    with pytest.raises(IndexError):
        stream.gaussian_increment(-1, 0)
    with pytest.raises(IndexError):
        stream.gaussian_increment(0, 2)
    with pytest.raises(IndexError):
        stream.fine_step(-1)
    for steps, k in ((range(2, 5), 0), (range(-1, 2), 0), (range(4), 2)):
        with pytest.raises(IndexError):
            stream.gaussian_increment(steps, k)
    with pytest.raises(ValueError):
        stream.gaussian_increment(range(0, 4, 2), 0)
    with pytest.raises(ValueError):
        NoiseStream(master_seed=-1, level=0, path_index=0, dim=1)
    with pytest.raises(ValueError):
        NoiseStream(master_seed=0, level=-1, path_index=0, dim=1)
    with pytest.raises(ValueError):
        NoiseStream(master_seed=0, level=0, path_index=-2, dim=1)


def test_moments_are_standard_normal():
    stream = NoiseStream(master_seed=2025, level=0,
                         path_index=np.arange(20000), dim=2, substeps=2)
    draws = np.stack([stream.gaussian_increment(n, k)
                      for n in range(3) for k in range(2)])
    flat = draws.reshape(-1)
    n = flat.size
    assert abs(flat.mean()) < 4.0 / np.sqrt(n)
    assert abs(flat.var() - 1.0) < 0.02
    # draws at different addresses are uncorrelated
    a = draws[0].reshape(-1)
    b = draws[3].reshape(-1)
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 0.03
    # and so are components within one draw
    corr2 = np.corrcoef(draws[0][:, 0], draws[0][:, 1])[0, 1]
    assert abs(corr2) < 0.03


# ---------------------------------------------------------------------------
# Step ranges: the reference and numpy's C Philox give the same draws
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("length", [1, _SEQUENCE_MIN_STEPS - 1,
                                    _SEQUENCE_MIN_STEPS, 70])
@pytest.mark.parametrize("dim", [1, 4, 5])
@pytest.mark.parametrize("paths", [np.arange(6), np.array([0, 5, 6, 7, 100]),
                                   9], ids=["consecutive", "gaps", "scalar"])
@pytest.mark.parametrize("seed, start", [(77, 3), (_MASK, 0)])
def test_step_range_equals_stacked_steps(length, dim, paths, seed, start):
    # With seed 2**64 - 1, start 0, substep 0 and path 0 the C generator
    # starts one below counter zero: the decrement borrows through all
    # four words.
    stream = NoiseStream(master_seed=seed, level=4, path_index=paths,
                         dim=dim, substeps=3)
    steps = range(start, start + length)
    for k in (0, 2):
        got = stream.gaussian_increment(steps, k)
        want = np.stack([stream.gaussian_increment(n, k) for n in steps])
        assert got.shape == want.shape
        assert np.array_equal(got, want)


def test_every_draw_passes_through_gaussian_increment_once(monkeypatch):
    # Wrap the public method the way an outside tracer would; the summed
    # sizes must equal the closed-form draw count of each consumer.
    sizes = []
    original = NoiseStream.gaussian_increment

    def counted(self, n, k=0):
        out = original(self, n, k)
        sizes.append(out.size)
        return out

    monkeypatch.setattr(NoiseStream, "gaussian_increment", counted)
    prob = builtin_problem("linear_scalar")
    paths = np.arange(5)

    grid = GridSpec.for_problem(prob, theta=0.0, level=6)
    stream = NoiseStream(master_seed=1, level=6, path_index=paths, dim=1,
                         n_steps=grid.total_steps_N)
    theta_em_path(prob, grid, noise=stream)
    assert sum(sizes) == paths.size * 64

    sizes.clear()
    pair = LevelPair.for_problem(prob, 6)
    simulate_coupled(prob, pair, pair.noise_stream(1, paths, 1))
    assert sum(sizes) == paths.size * 64

    sizes.clear()
    result = strong_error_rate(prob, builtin_payoff("identity"),
                               level_sweep=(3, 4, 5), n_paths=paths.size)
    assert result.ref_level == 8
    assert sum(sizes) == paths.size * 2**8
