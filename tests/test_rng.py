"""Tests for the counter-based noise source.

The primary oracle is a deliberately plain pure-integer Philox-4x64-10,
written and frozen against the reference known-answer vectors.  The
stream's words come from numpy's Philox bit generator; its ``random_raw``
output for counter ``c`` equals the reference block at counter ``c + 1``
because numpy advances the counter before generating, so the stream
positions it one below the block it wants.
"""

import numpy as np
import pytest
from numpy.random import Philox
from scipy.special import ndtri

from mlmc_sdde import mlmc
from mlmc_sdde.analysis import strong_error_rate
from mlmc_sdde.coupling import LevelPair, simulate_coupled
from mlmc_sdde.mlmc import estimate_level
from mlmc_sdde.model import builtin_payoff, builtin_problem
from mlmc_sdde.rng import NoiseStream, _seek, uniforms_from_words
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


def _stream_block(ctr, key):
    """Block at ``ctr`` from numpy's Philox positioned through ``state``,
    the way the stream positions it."""
    gen = Philox(key=key[0] | key[1] << 64)
    _seek(gen, gen.state, sum(w << (64 * i) for i, w in enumerate(ctr)))
    return tuple(int(w) for w in gen.random_raw(4))


def test_vectorised_block_matches_oracle_on_kat():
    # Counter (0, 0, 0, 0) is positioned one below it: the decrement
    # borrows through all four words.
    for ctr, key, expected in _KAT:
        assert _stream_block(ctr, key) == expected


def test_vectorised_block_matches_oracle_batched():
    rng = np.random.default_rng(7)
    ctrs = rng.integers(0, 2**63, size=(64, 4), dtype=np.uint64)
    key = (12345, 678)
    for ctr in ctrs:
        ctr = [int(w) for w in ctr]
        assert _stream_block(ctr, key) == philox_oracle(ctr, key)


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


def _oracle_normal(seed, level, path, step, comp, dim):
    # Draw comp of path at step is word i % 4 of block (i // 4, step, 0, 0),
    # i = path * dim + comp.
    i = path * dim + comp
    word = philox_oracle((i // 4, step, 0, 0), (seed, level))[i % 4]
    return ndtri(((word >> 12) + 0.5) * 2.0**-52)


def test_increment_equals_ndtri_of_oracle_words():
    # Path 0 at step 0 positions the generator one below counter zero.
    paths = np.arange(6)
    for dim in (1, 3, 5, 9):
        for seed in (42, _MASK):
            got = NoiseStream(master_seed=seed, level=2, path_index=paths,
                              dim=dim).gaussian_increment(range(3))
            assert got.shape == (3, 6, dim)
            want = [[[_oracle_normal(seed, 2, p, j, c, dim)
                      for c in range(dim)] for p in range(6)]
                    for j in range(3)]
            np.testing.assert_array_equal(got, want)


def test_multiblock_dimension_layout():
    # The components of consecutive paths fill consecutive words of
    # consecutive blocks with no padding, so a path of dim > 4 straddles
    # blocks and starts wherever the previous path ended.
    step, key = 5, (2**63, 9)
    for dim in (5, 9):
        z = NoiseStream(master_seed=key[0], level=key[1],
                        path_index=np.arange(3, 7),
                        dim=dim).gaussian_increment(step)
        lo, hi = 3 * dim, 7 * dim
        words = [w for b in range(lo // 4, -(-hi // 4))
                 for w in philox_oracle((b, step, 0, 0), key)]
        skip = lo % 4
        expected = ndtri(uniforms_from_words(
            np.array(words[skip:skip + hi - lo], dtype=np.uint64)))
        np.testing.assert_array_equal(z.reshape(-1), expected)
        single = NoiseStream(master_seed=key[0], level=key[1],
                             path_index=123456, dim=dim)
        np.testing.assert_array_equal(
            single.gaussian_increment(step),
            [_oracle_normal(*key, 123456, step, c, dim) for c in range(dim)])


# ---------------------------------------------------------------------------
# Stream addressing semantics
# ---------------------------------------------------------------------------

def test_query_order_is_irrelevant():
    stream = NoiseStream(master_seed=11, level=3, path_index=0, dim=2,
                         n_steps=32)
    forward = {j: stream.gaussian_increment(j) for j in range(32)}
    rng = np.random.default_rng(0)
    for j in rng.permutation(32):
        np.testing.assert_array_equal(stream.gaussian_increment(int(j)),
                                      forward[j])


def test_distinct_coordinates_give_distinct_draws():
    base = dict(master_seed=5, level=1, path_index=3, dim=3)
    z = NoiseStream(**base).gaussian_increment(3)
    for change in [dict(master_seed=6), dict(level=2), dict(path_index=4)]:
        other = NoiseStream(**{**base, **change}).gaussian_increment(3)
        assert not np.array_equal(z, other)
    s = NoiseStream(**base)
    assert not np.array_equal(z, s.gaussian_increment(2))
    assert not np.array_equal(z, s.gaussian_increment(4))


def test_batch_rows_match_scalar_streams():
    batch = NoiseStream(master_seed=9, level=4,
                        path_index=np.arange(17, 25), dim=3)
    z = batch.gaussian_increment(13)
    assert z.shape == (8, 3)
    for i, p in enumerate(range(17, 25)):
        single = NoiseStream(master_seed=9, level=4, path_index=p, dim=3)
        np.testing.assert_array_equal(z[i], single.gaussian_increment(13))


@pytest.mark.parametrize("dim", [1, 3, 4, 5, 9])
def test_sub_batch_draws_equal_rows_of_the_full_batch(dim):
    # Chunk boundaries never change a draw, including batches that start
    # in the middle of a block and scalar paths.
    full = NoiseStream(master_seed=_MASK, level=6, path_index=np.arange(13),
                       dim=dim).gaussian_increment(range(4))
    for a, b in [(0, 13), (1, 2), (1, 4), (2, 7), (3, 13), (5, 6), (6, 11),
                 (12, 13)]:
        part = NoiseStream(master_seed=_MASK, level=6,
                           path_index=np.arange(a, b), dim=dim)
        np.testing.assert_array_equal(part.gaussian_increment(range(4)),
                                      full[:, a:b])
    for p in (0, 1, 5, 12):
        scalar = NoiseStream(master_seed=_MASK, level=6, path_index=p,
                             dim=dim)
        np.testing.assert_array_equal(scalar.gaussian_increment(range(4)),
                                      full[:, p])


def test_estimate_level_draws_do_not_depend_on_chunk_size(monkeypatch):
    original = NoiseStream.gaussian_increment
    per_path = {}

    def record(self, j):
        out = original(self, j)
        for i, p in enumerate(np.atleast_1d(self.path_index)):
            per_path.setdefault(int(p), []).append(out[:, i].copy())
        return out

    monkeypatch.setattr(NoiseStream, "gaussian_increment", record)
    problem = builtin_problem("linear_scalar", eps=0.2)
    psi = builtin_payoff("identity")
    draws = []
    for size in (1, 3, 4096):
        per_path.clear()
        monkeypatch.setattr(mlmc, "CHUNK_SIZE", size)
        estimate_level(problem, psi, 4, n_samples=10, seed=3,
                       sample_offset=5)
        assert sorted(per_path) == list(range(5, 15))
        draws.append({p: np.concatenate(d) for p, d in per_path.items()})
    for other in draws[1:]:
        for p in range(5, 15):
            np.testing.assert_array_equal(other[p], draws[0][p])


def test_out_of_range_requests_raise():
    stream = NoiseStream(master_seed=0, level=0, path_index=0, dim=1,
                         n_steps=4)
    with pytest.raises(IndexError):
        stream.gaussian_increment(4)
    with pytest.raises(IndexError):
        stream.gaussian_increment(-1)
    for steps in (range(2, 5), range(-1, 2)):
        with pytest.raises(IndexError):
            stream.gaussian_increment(steps)
    with pytest.raises(ValueError):
        stream.gaussian_increment(range(0, 4, 2))
    with pytest.raises(ValueError):
        NoiseStream(master_seed=-1, level=0, path_index=0, dim=1)
    with pytest.raises(ValueError):
        NoiseStream(master_seed=0, level=-1, path_index=0, dim=1)
    with pytest.raises(ValueError):
        NoiseStream(master_seed=0, level=0, path_index=-2, dim=1)


def test_gapped_batch_and_block_counter_overflow_raise():
    for paths in (np.array([0, 2]), np.array([3, 2]), np.array([4, 4])):
        with pytest.raises(ValueError, match="consecutive"):
            NoiseStream(master_seed=0, level=0, path_index=paths, dim=1)
    # Block counters are one word: (max path + 1) * dim <= 4 * 2**64.
    with pytest.raises(ValueError, match="block counter"):
        NoiseStream(master_seed=0, level=0, path_index=2**63 - 1, dim=9)
    with pytest.raises(ValueError, match="block counter"):
        NoiseStream(master_seed=0, level=0, path_index=np.uint64(_MASK),
                    dim=5)
    last = NoiseStream(master_seed=1, level=2, path_index=np.uint64(_MASK),
                       dim=4)
    np.testing.assert_array_equal(
        last.gaussian_increment(7),
        [_oracle_normal(1, 2, _MASK, 7, c, 4) for c in range(4)])


def test_moments_are_standard_normal():
    stream = NoiseStream(master_seed=2025, level=0,
                         path_index=np.arange(20000), dim=2)
    draws = stream.gaussian_increment(range(6))
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
# Step ranges equal the stacked single steps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("length", [1, 31, 32, 63, 64, 70])
@pytest.mark.parametrize("dim", [1, 4, 5])
@pytest.mark.parametrize("paths", [np.arange(6), np.array([0, 5, 6, 7, 100]),
                                   9], ids=["consecutive", "gaps", "scalar"])
@pytest.mark.parametrize("seed, start", [(77, 3), (_MASK, 0)])
def test_step_range_equals_stacked_steps(length, dim, paths, seed, start):
    if np.ndim(paths) and np.any(np.diff(paths) != 1):
        # Draws come one run of consecutive paths at a time.
        with pytest.raises(ValueError, match="consecutive"):
            NoiseStream(master_seed=seed, level=4, path_index=paths, dim=dim)
        return
    stream = NoiseStream(master_seed=seed, level=4, path_index=paths,
                         dim=dim)
    steps = range(start, start + length)
    got = stream.gaussian_increment(steps)
    want = np.stack([stream.gaussian_increment(j) for j in steps])
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_every_draw_passes_through_gaussian_increment_once(monkeypatch):
    # Wrap the public method the way an outside tracer would; the summed
    # sizes must equal the closed-form draw count of each consumer.
    sizes = []
    original = NoiseStream.gaussian_increment

    def counted(self, j):
        out = original(self, j)
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
