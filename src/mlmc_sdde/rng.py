"""Counter-based Gaussian noise with coordinate addressing.

Every normal variate used by a simulation is a pure function of the tuple
``(master_seed, level, path, step, component)``, where ``step`` is
the flat step of the finest grid the stream drives.  That makes runs
reproducible independently of execution order, chunking or worker count,
lets a coarse path consume exactly the sum of its fine path's increments,
and lets independent estimator shards draw disjoint path ranges without
communication.

The word generator is Philox-4x64 with 10 rounds (Salmon et al.,
*Parallel random numbers: as easy as 1, 2, 3*, SC'11), taken from numpy's
C implementation, ``numpy.random.Philox``.  The key is
``(master_seed, level)``.  The counters are laid out path-fastest: draw
``c`` of path ``p`` at step ``j`` is word ``i mod 4`` of the block at
counter ``(i // 4, j, 0, 0)``, with ``i = p * dim + c``.  A stream draws
for a ``range`` of consecutive paths, so its draws at one step are
consecutive words of consecutive blocks, and one ``random_raw`` call
returns them: the generator's documented ``state`` counter is set one
below the first block (numpy increments the counter before it
generates), and the batch's words are sliced out of the returned blocks,
from the middle of a block where the batch starts there.  The draws keep
the path axis for a range of one path too.

Words map to uniforms in (0, 1) via the top 52 bits,
``u = ((w >> 12) + 0.5) * 2**-52`` (both endpoints of the word range land
strictly inside the unit interval, with one bit to spare so the rounding
of ``+ 0.5`` is exact), and uniforms map to normals through the inverse
normal CDF (``scipy.special.ndtri``); the inverse-CDF transform is chosen
over rejection samplers because it consumes a fixed number of words per
variate, which the addressing scheme requires.  A call allocates one
float64 block for all its steps, and ``ndtri`` writes each step's
normals straight into that step's row; the caller owns the block and may
scale it in place.

A single-level stream and the stream of a coupled pair with the same
``(master_seed, level)`` are one stream: the fine member of a pair at
level ``l`` sees the same draws as a single-level path at level ``l``.
No estimator combines the two, so they need no separate counter space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

__all__ = ["NoiseStream", "uniforms_from_words"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_INV52 = 2.0**-52
_MOD256 = 1 << 256


def uniforms_from_words(words: np.ndarray) -> np.ndarray:
    """Map uint64 words to floats strictly inside (0, 1)."""
    w = np.asarray(words, dtype=np.uint64)
    return ((w >> np.uint64(12)).astype(np.float64) + 0.5) * _INV52


def _seek(gen: Philox, state: dict, counter: int) -> None:
    """Make the block at ``counter`` the next one ``gen`` generates.

    ``state`` is a state of ``gen`` with an empty word buffer; its
    counter is set one below ``counter`` (modulo 2**256), because numpy
    increments the counter before it generates.
    """
    below = (counter - 1) % _MOD256
    state["state"]["counter"] = np.array(
        [(below >> shift) & _MASK64 for shift in (0, 64, 128, 192)],
        dtype=np.uint64)
    gen.state = state


def _draws(key: tuple[int, int], steps: range, paths: range,
           dim: int) -> np.ndarray:
    """Normals of ``paths`` at ``steps``, shape (len(steps), len(paths),
    dim), in a new array: one ``random_raw`` call per step, whose words
    ``ndtri`` maps straight into that step's row."""
    width = len(paths) * dim
    first_block, skip = divmod(paths.start * dim, 4)
    n_words = 4 * -(-(skip + width) // 4)
    gen = Philox(key=key[0] | key[1] << 64)
    state = gen.state
    normals = np.empty((len(steps), width))
    for row, j in enumerate(steps):
        _seek(gen, state, first_block + (j << 64))
        ndtri(uniforms_from_words(gen.random_raw(n_words)[skip:skip + width]),
              out=normals[row])
    return normals.reshape(len(steps), len(paths), dim)


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
    paths : range
        The consecutive sample paths this stream draws for: a ``range`` of
        step 1 from a start >= 0, else ``TypeError`` (not a range) or
        ``ValueError``.  An empty range draws an empty batch.
    dim : int
        Number of normal components per increment.
    n_steps : int, optional
        Number of steps on the declared grid.  When set, requests outside
        ``0 <= step < n_steps`` raise ``IndexError``.

    Notes
    -----
    ``gaussian_increment(j)`` returns the i.i.d. N(0, I_dim) vectors of
    the ``P = len(paths)`` paths at step ``j``, shape (P, dim), one path
    included.  The object holds no mutable state, so draws may be
    requested in any order and from any thread with identical results.
    """

    master_seed: int
    level: int
    paths: range
    dim: int
    n_steps: int | None = None

    def __post_init__(self):
        if not 0 <= int(self.master_seed) <= _MASK64:
            raise ValueError("master_seed must fit in an unsigned 64-bit word")
        if int(self.level) < 0:
            raise ValueError("level must be non-negative")
        if int(self.dim) < 1:
            raise ValueError("dim must be >= 1")
        if self.n_steps is not None and int(self.n_steps) < 1:
            raise ValueError("n_steps must be >= 1 when given")
        if not isinstance(self.paths, range):
            raise TypeError(f"paths must be a range, got {self.paths!r}")
        if self.paths.step != 1 or self.paths.start < 0:
            raise ValueError(f"paths {self.paths} need step 1, start >= 0")
        if self.paths.stop * int(self.dim) > 4 << 64:
            raise ValueError(
                f"paths up to {self.paths.stop - 1} at dim {self.dim} "
                "overflow the 64-bit block counter")

    def _check(self, j: int) -> None:
        if not 0 <= j <= _MASK64 or (
            self.n_steps is not None and j >= self.n_steps
        ):
            bound = self.n_steps if self.n_steps is not None else "inf"
            raise IndexError(f"step {j} outside [0, {bound}) for this stream")

    def gaussian_increment(self, j: int | range) -> np.ndarray:
        """N(0, I_dim) vectors of the paths at step ``j``, shape
        (n_paths, dim).

        ``j`` may also be a ``range`` of consecutive steps; the result is
        then the per-step draws stacked along a new leading axis, equal
        bit for bit to ``np.stack([gaussian_increment(i) for i in j])``.
        Every call returns a new array, which the caller may overwrite.
        """
        steps = j if isinstance(j, range) else range(int(j), int(j) + 1)
        if steps.step != 1:
            raise ValueError(f"step range {steps} must have step 1")
        if steps:
            self._check(steps.start)
            self._check(steps[-1])
        z = _draws((int(self.master_seed), int(self.level)), steps,
                   self.paths, int(self.dim))
        return z if isinstance(j, range) else z[0]

    @property
    def n_paths(self) -> int:
        return len(self.paths)
