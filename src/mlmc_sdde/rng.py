"""Counter-based Gaussian noise with coordinate addressing.

Every normal variate used by a simulation is a pure function of the tuple
``(master_seed, level, path_index, step, substep, component)``.  That makes
runs reproducible independently of execution order or worker count, lets a
coarse path consume exactly the sum of its fine path's increments, and lets
independent estimator shards draw disjoint path ranges without
communication.

The word generator is Philox-4x64 with 10 rounds.  Counter layout per
128-bit block: ``(step, substep, path_index, block)`` where ``block``
indexes groups of four output words for noise dimensions above four.  The
key is ``(master_seed, level)``.  Words map to uniforms in (0, 1) via the
top 52 bits, ``u = ((w >> 12) + 0.5) * 2**-52`` (both endpoints of the
word range land strictly inside the unit interval, with one bit to spare
so the rounding of ``+ 0.5`` is exact), and uniforms map to normals
through the inverse normal CDF (``scipy.special.ndtri``); the
inverse-CDF transform is chosen over rejection samplers because it
consumes a fixed number of words per variate, which the addressing scheme
requires.

There is one stream and two ways to compute its words.  The reference,
:func:`philox_words`, runs the ten rounds in numpy over every requested
``(step, path)`` counter, a cache-sized tile of counters at a time with
in-place ufuncs.  A request for a range of at least
``_SEQUENCE_MIN_STEPS`` consecutive steps instead reads each
``(path, substep, block)`` sequence from numpy's C implementation of the
same generator, ``numpy.random.Philox``: its counter is set to one before
the first block (numpy increments before generating) and one
``random_raw`` call returns the whole sequence, because consecutive steps
are consecutive counters.  Positioning the generator costs a few
microseconds per sequence, so short ranges stay on the tiled reference,
which the C path only beats from about 64 steps on.  Both paths give the
same words bit for bit, and the word-to-normal mapping is the same
elementwise arithmetic on both, so the draws never depend on which path
ran.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

__all__ = ["NoiseStream", "philox_words", "uniforms_from_words"]

_M0 = np.uint64(0xD2E7470EE14C6C93)
_M1 = np.uint64(0xCA5A826395121157)
_M0_HI, _M0_LO = np.uint64(0xD2E7470E), np.uint64(0xE14C6C93)
_M1_HI, _M1_LO = np.uint64(0xCA5A8263), np.uint64(0x95121157)
_W0 = 0x9E3779B97F4A7C15
_W1 = 0xBB67AE8584CAA73B
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = np.uint64(0xFFFFFFFF)
_SH32 = np.uint64(32)
_INV52 = 2.0**-52
_MOD256 = 1 << 256
# Counters per tile of the reference rounds: nine uint64 scratch rows of
# this length (1.1 MiB) stay inside a 2 MiB L2.  Reference draws at 16
# steps x 4096 paths by tile size (2-vCPU Intel Xeon, 2 MiB L2 per core,
# numpy 2.4.6): 4096 -> 283, 8192 -> 225, 16384 -> 189, 32768 -> 181,
# 65536 -> 211 ns/draw.
_TILE = 1 << 14

# Ranges of at least this many steps read their words from numpy's C
# Philox, one call per (path, substep, block) sequence.  Measured per draw
# at 4096 paths, dim 1, on the host above (min of 15 runs; from 32 steps
# on the median of three such): the C path costs 1116, 595, 340, 242,
# 204, 130 and 145 ns at 8, 16, 32, 48, 64, 80 and 96 steps, the tiled
# reference 160-210 ns at each length (193 at 64 steps, within the noise
# of the C path there).
_SEQUENCE_MIN_STEPS = 64
# Words per staging batch of sequences (512 KiB), small enough to stay in
# cache while the batch is copied into the step-major output.
_STAGE_WORDS = 1 << 16


def _mul_hi(a_hi: np.uint64, a_lo: np.uint64, b: np.ndarray,
            hi: np.ndarray, lo: np.ndarray, t: np.ndarray,
            u: np.ndarray) -> None:
    """High 64 bits of ``a * b`` into ``hi``, ``a = a_hi << 32 | a_lo``.

    Schoolbook product over 32-bit limbs in 14 in-place ufunc calls;
    ``lo``, ``t`` and ``u`` are scratch.  No partial sum overflows:
    (2**32 - 1)**2 + 2 * (2**32 - 1) < 2**64.
    """
    np.bitwise_and(b, _MASK32, out=lo)
    np.right_shift(b, _SH32, out=hi)
    np.multiply(lo, a_lo, out=t)
    t >>= _SH32
    lo *= a_hi
    lo += t                          # a_hi * b_lo + (a_lo * b_lo >> 32)
    np.bitwise_and(lo, _MASK32, out=t)
    np.multiply(hi, a_lo, out=u)
    t += u                           # low half of the middle terms
    t >>= _SH32
    lo >>= _SH32
    hi *= a_hi
    hi += lo
    hi += t


def _philox_into(out: np.ndarray, counter, key) -> None:
    """Philox-4x64-10 words of the broadcast ``counter`` into ``out``.

    ``out`` has shape ``(rows, cols, width)`` with ``width <= 4``, where
    the counter words broadcast to ``(rows, cols)``; the first ``width``
    words of each block are written.  The rounds run over tiles of at
    most ``_TILE`` counters in preallocated scratch, so the working set
    stays in cache and no temporary of the full size is made.
    """
    rows, cols, width = out.shape
    if not out.size:
        return
    src = [np.broadcast_to(w, (rows, cols)) for w in counter]
    scratch = np.empty((9, min(_TILE, rows * cols)), dtype=np.uint64)
    k0, k1 = int(key[0]) & _MASK64, int(key[1]) & _MASK64
    keys = []
    for _ in range(10):
        keys.append((np.uint64(k0), np.uint64(k1)))
        k0, k1 = (k0 + _W0) & _MASK64, (k1 + _W1) & _MASK64
    if cols >= _TILE:
        tiles = [(r, r + 1, c, min(c + _TILE, cols))
                 for r in range(rows) for c in range(0, cols, _TILE)]
    else:
        step = _TILE // cols
        tiles = [(r, min(r + step, rows), 0, cols)
                 for r in range(0, rows, step)]
    for r0, r1, c0, c1 in tiles:
        shape = (r1 - r0, c1 - c0)
        bufs = list(scratch[:, :shape[0] * shape[1]])
        for buf, w in zip(bufs, src):
            np.copyto(buf.reshape(shape), w[r0:r1, c0:c1])
        x0, x1, x2, x3, hi0, hi1, lo, t, u = bufs
        # One round: (x0, x1, x2, x3) <- (hi1 ^ x1 ^ k0, lo1, hi0 ^ x3 ^ k1,
        # lo0) with (hi0, lo0) = M0 * x0 and (hi1, lo1) = M1 * x2; the new
        # words are computed in the old buffers, which are then renamed.
        for rk0, rk1 in keys:
            _mul_hi(_M0_HI, _M0_LO, x0, hi0, lo, t, u)
            _mul_hi(_M1_HI, _M1_LO, x2, hi1, lo, t, u)
            x1 ^= hi1
            x1 ^= rk0
            x3 ^= hi0
            x3 ^= rk1
            x0 *= _M0
            x2 *= _M1
            x0, x1, x2, x3 = x1, x2, x3, x0
        for j, word in enumerate((x0, x1, x2, x3)[:width]):
            np.copyto(out[r0:r1, c0:c1, j], word.reshape(shape))


def philox_words(counter, key) -> np.ndarray:
    """Philox-4x64-10 block function, vectorised over trailing axes.

    Parameters
    ----------
    counter : array_like
        Four uint64 words; entries may be arrays, they broadcast together.
    key : (int, int)
        Two uint64 key words.

    Returns
    -------
    ndarray, shape broadcast(counter) + (4,)
        The four output words of each block.
    """
    c = [np.asarray(w, dtype=np.uint64) for w in counter]
    if len(c) != 4:
        raise ValueError("counter must have four words")
    bshape = np.broadcast_shapes(*(w.shape for w in c))
    # Rows merge the leading axes; that reshape is a view except for
    # counters of three or more axes broadcast in different patterns.
    rows = math.prod(bshape[:-1])
    cols = bshape[-1] if bshape else 1
    out = np.empty((rows, cols, 4), dtype=np.uint64)
    _philox_into(out, [np.broadcast_to(w, bshape).reshape(rows, cols)
                       for w in c], key)
    return out.reshape(bshape + (4,))


def uniforms_from_words(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to floats strictly inside (0, 1)."""
    w = np.asarray(words, dtype=np.uint64)
    return ((w >> np.uint64(12)).astype(np.float64) + 0.5) * _INV52


def _as_path_array(path_index) -> tuple[np.ndarray, bool]:
    scalar = np.isscalar(path_index) or np.ndim(path_index) == 0
    arr = np.atleast_1d(np.asarray(path_index))
    if arr.ndim != 1:
        raise ValueError("path_index must be a scalar or a 1-d array")
    if not np.issubdtype(arr.dtype, np.integer):
        raise TypeError("path_index must be integer-valued")
    if arr.size and int(arr.min()) < 0:
        raise ValueError("path_index must be non-negative")
    return arr.astype(np.uint64), scalar


def _normals_in_place(words: np.ndarray) -> np.ndarray:
    """Map uint64 ``words`` of shape (count, ...) to normals in place.

    One step at a time, so the only temporaries are one step in size.
    """
    normals = words.view(np.float64)
    for step in range(words.shape[0]):
        normals[step] = ndtri(uniforms_from_words(words[step]))
    return normals


def _reference_normals(key, start: int, count: int, k: int,
                       paths: np.ndarray, dim: int) -> np.ndarray:
    """Draws for steps ``start .. start + count - 1``, shape (count, P, dim),
    from the tiled reference rounds of :func:`philox_words`."""
    out = np.empty((count, paths.size, dim), dtype=np.uint64)
    steps = np.arange(start, start + count, dtype=np.uint64)[:, None]
    for block, lo in enumerate(range(0, dim, 4)):
        _philox_into(out[:, :, lo:lo + 4],
                     (steps, np.uint64(k), paths, np.uint64(block)), key)
    return _normals_in_place(out)


def _sequence_normals(key, start: int, count: int, k: int,
                      paths: np.ndarray, dim: int) -> np.ndarray:
    """Same draws as :func:`_reference_normals`, from numpy's C Philox.

    Each ``(path, block)`` sequence of ``count`` consecutive counters is
    one ``random_raw`` call into a small staging buffer, copied to the
    output a batch of paths at a time, then converted in place.
    """
    out = np.empty((count, paths.size, dim), dtype=np.uint64)
    gen = Philox(counter=_MOD256 - 1,
                 key=(key[0] & _MASK64) | (key[1] & _MASK64) << 64)
    next_counter = 0  # numpy increments the counter before each block
    batch = max(1, _STAGE_WORDS // (4 * count))
    stage = np.empty((min(batch, paths.size), count, 4), dtype=np.uint64)
    path_list = paths.tolist()
    for block, lo in enumerate(range(0, dim, 4)):
        width = min(4, dim - lo)
        base = start + (k << 64) + (block << 192)
        for a in range(0, len(path_list), batch):
            group = path_list[a:a + batch]
            for i, p in enumerate(group):
                first = base + (p << 128)
                gen.advance((first - next_counter) % _MOD256)
                stage[i] = gen.random_raw(4 * count).reshape(count, 4)
                next_counter = first + count
            out[:, a:a + len(group), lo:lo + width] = (
                stage[:len(group), :, :width].transpose(1, 0, 2))
    return _normals_in_place(out)


@dataclass(frozen=True)
class NoiseStream:
    """Addressable source of standard normal increments.

    Parameters
    ----------
    master_seed : int
        Experiment seed, first key word.
    level : int
        Level tag, second key word.  Streams with different levels are
        independent even for the same seed.
    path_index : int or ndarray of int
        Sample path (or batch of paths) this stream draws for.
    dim : int
        Number of normal components per increment.
    substeps : int
        Fine substeps per coarse step; 1 for a single-grid stream.
    n_steps : int, optional
        Number of coarse steps on the declared grid.  When set, requests
        outside ``0 <= step < n_steps`` raise ``IndexError``.

    Notes
    -----
    ``gaussian_increment(n, k)`` returns the i.i.d. N(0, I_dim) vector
    attached to substep ``k`` of coarse step ``n``; for a batch
    ``path_index`` of shape (P,) the result has shape (P, dim).  The
    object holds no mutable state, so draws may be requested in any order
    and from any thread with identical results.
    """

    master_seed: int
    level: int
    path_index: Union[int, np.ndarray]
    dim: int
    substeps: int = 1
    n_steps: int | None = None

    def __post_init__(self):
        if not 0 <= int(self.master_seed) <= _MASK64:
            raise ValueError("master_seed must fit in an unsigned 64-bit word")
        if int(self.level) < 0:
            raise ValueError("level must be non-negative")
        if int(self.dim) < 1:
            raise ValueError("dim must be >= 1")
        if int(self.substeps) < 1:
            raise ValueError("substeps must be >= 1")
        if self.n_steps is not None and int(self.n_steps) < 1:
            raise ValueError("n_steps must be >= 1 when given")
        _as_path_array(self.path_index)  # validate eagerly

    # -- addressing ---------------------------------------------------

    def _check(self, n: int, k: int) -> None:
        if not 0 <= k < self.substeps:
            raise IndexError(
                f"substep {k} outside [0, {self.substeps}) for this stream"
            )
        if not 0 <= n <= _MASK64 or (
            self.n_steps is not None and n >= self.n_steps
        ):
            bound = self.n_steps if self.n_steps is not None else "inf"
            raise IndexError(f"step {n} outside [0, {bound}) for this stream")

    def gaussian_increment(self, n: int | range, k: int = 0) -> np.ndarray:
        """N(0, I_dim) vector for substep ``k`` of coarse step ``n``.

        ``n`` may also be a ``range`` of consecutive steps; the result is
        then the per-step draws stacked along a new leading axis, equal
        bit for bit to ``np.stack([gaussian_increment(i, k) for i in n])``.
        """
        k = int(k)
        paths, scalar = _as_path_array(self.path_index)
        key = (int(self.master_seed), int(self.level))
        if isinstance(n, range):
            if n.step != 1:
                raise ValueError(f"step range {n} must have step 1")
            if n:
                self._check(n.start, k)
                self._check(n[-1], k)
            draw = (_sequence_normals if len(n) >= _SEQUENCE_MIN_STEPS
                    else _reference_normals)
            z = draw(key, n.start, len(n), k, paths, self.dim)
            return z[:, 0] if scalar else z
        n = int(n)
        self._check(n, k)
        z = _reference_normals(key, n, 1, k, paths, self.dim)[0]
        return z[0] if scalar else z

    def coarse_increment(self, n: int, m: int | None = None) -> np.ndarray:
        """Elementwise sum of the ``m`` fine draws of coarse step ``n``.

        Equals ``sum_k gaussian_increment(n, k)`` accumulated in substep
        order, bit for bit.
        """
        m = self.substeps if m is None else int(m)
        if not 1 <= m <= self.substeps:
            raise ValueError(f"m must lie in [1, {self.substeps}], got {m}")
        out = self.gaussian_increment(n, 0)
        for k in range(1, m):
            out = out + self.gaussian_increment(n, k)
        return out

    def fine_step(self, j: int) -> np.ndarray:
        """Draw for flat fine-grid step ``j`` = ``n * substeps + k``."""
        j = int(j)
        if j < 0:
            raise IndexError(f"fine step {j} must be non-negative")
        return self.gaussian_increment(j // self.substeps, j % self.substeps)

    # -- helpers ------------------------------------------------------

    def with_paths(self, path_index) -> "NoiseStream":
        """Same stream identity, different path batch."""
        return NoiseStream(
            master_seed=self.master_seed,
            level=self.level,
            path_index=path_index,
            dim=self.dim,
            substeps=self.substeps,
            n_steps=self.n_steps,
        )

    @property
    def n_paths(self) -> int:
        arr, scalar = _as_path_array(self.path_index)
        return 1 if scalar else arr.size
