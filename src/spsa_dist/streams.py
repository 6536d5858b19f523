"""Deterministic, seekable uniform streams for replicated simulations.

Streams are built on the PCG64DXSM generator, which spends one 64-bit word on
each float64 draw and can jump to any word offset with ``advance``, so any
block of draws can be produced from its address without generating the draws
before it. An experiment uses one stream per randomness source (noise, one
perturbation stream per distribution), each addressed by
(master_seed, stream_tag).

Within a stream, draws are laid out iteration-major. For an experiment with
``n_reps`` replicates consuming ``words_per_rep`` draws per replicate per
iteration, the draws for iteration k occupy word offsets

    [k * n_reps * words_per_rep, (k + 1) * n_reps * words_per_rep)

and replicate r owns the ``words_per_rep`` consecutive draws starting at
``k * n_reps * words_per_rep + r * words_per_rep``. A draw fills the buffer
it is handed, whose shape (rows, words_per_rep) completes its address. As
every address is absolute, any split of the replicates into calls or workers
gives bit-identical draws, and any one replicate can be regenerated alone.

Seeding a generator costs about ten times a seek, so a :class:`Stream` is
opened once by its user and sought by every draw. A stream serves one thread
at a time: each replicate block of the experiment harness opens its own.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence

__all__ = [
    "NOISE_STREAM",
    "BERNOULLI_STREAM",
    "SEGMENTED_UNIFORM_STREAM",
    "Stream",
    "uniform_block",
]

NOISE_STREAM = 0
BERNOULLI_STREAM = 1
SEGMENTED_UNIFORM_STREAM = 2


class Stream:
    """The seeded generator of (master_seed, stream_tag) and the word offset
    it stands at; for one thread at a time.
    """

    def __init__(self, master_seed: int, stream_tag: int):
        self.generator = Generator(PCG64DXSM(SeedSequence((master_seed, stream_tag))))
        self.position = 0


def uniform_block(
    stream: Stream, *, n_reps: int, iteration: int, start: int, out: np.ndarray
) -> np.ndarray:
    """Fill ``out`` with the draws of replicates [start, start + rows) at one iteration.

    ``out`` is a C-contiguous float64 array of shape (rows, words_per_rep); any
    other ``out`` raises, as does an invalid address, before ``stream`` moves.
    The words depend only on the stream address, never on how the replicate
    range is split into calls or on their order. Returns ``out``.
    """
    # numpy fills a Fortran-ordered out in memory order, transposing the draws
    if out.ndim != 2 or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError("out must be a 2-D, C-contiguous float64 array")
    rows, words_per_rep = out.shape
    if start < 0 or start + rows > n_reps:
        raise ValueError("replicate range must satisfy 0 <= start <= start + rows <= n_reps")
    # a negative address would wrap to the far end of the stream
    if iteration < 0:
        raise ValueError(f"iteration must be nonnegative, got {iteration}")
    if words_per_rep < 1:
        raise ValueError(f"words_per_rep must be positive, got {words_per_rep}")
    offset = words_per_rep * (iteration * n_reps + start)
    # advance wraps modulo 2**128, so a negative distance seeks backwards
    stream.generator.bit_generator.advance(offset - stream.position)
    stream.generator.random(out=out)
    stream.position = offset + out.size
    return out
