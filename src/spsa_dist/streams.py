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
``k * n_reps * words_per_rep + r * words_per_rep``. Because every address is
absolute, splitting the replicate range into chunks (or across workers) in
any way reproduces bit-identical draws, and any single replicate can be
regenerated in isolation.

Seeding a generator costs about ten times a seek, so each thread keeps its
last few seeded generators, one per (master_seed, stream_tag), and seeks them.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.random import PCG64DXSM, Generator, SeedSequence

__all__ = [
    "NOISE_STREAM",
    "BERNOULLI_STREAM",
    "SEGMENTED_UNIFORM_STREAM",
    "uniform_block",
]

NOISE_STREAM = 0
BERNOULLI_STREAM = 1
SEGMENTED_UNIFORM_STREAM = 2

# Generators kept per thread: the three streams of two seeds.
_MEMO_SIZE = 6


class _Generators(threading.local):
    def __init__(self):
        # (master_seed, stream_tag) -> (generator, word position), least
        # recently used first
        self.memo: dict[tuple[int, int], tuple[Generator, int]] = {}


_generators = _Generators()


def uniform_block(
    master_seed: int,
    stream_tag: int,
    *,
    n_reps: int,
    words_per_rep: int,
    iteration: int,
    start: int,
    stop: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Uniform draws for replicates [start, stop) at one iteration.

    Returns an array of shape (stop - start, words_per_rep) whose values
    depend only on the stream address, never on how the replicate range is
    partitioned into calls or in which order the calls are made. With
    ``out``, a C-contiguous float64 array of that shape, the same words are
    written into it and ``out`` is returned; any other ``out`` raises.
    """
    if not 0 <= start <= stop <= n_reps:
        raise ValueError("replicate range must satisfy 0 <= start <= stop <= n_reps")
    # a negative address would wrap to the far end of the stream
    if iteration < 0:
        raise ValueError(f"iteration must be nonnegative, got {iteration}")
    if words_per_rep < 1:
        raise ValueError(f"words_per_rep must be positive, got {words_per_rep}")
    # numpy fills a Fortran-ordered out in memory order, transposing the draws
    if out is not None and not out.flags.c_contiguous:
        raise ValueError("out must be C-contiguous")
    offset = words_per_rep * (iteration * n_reps + start)
    count = (stop - start) * words_per_rep
    memo = _generators.memo
    key = (master_seed, stream_tag)
    # taken out while in use, so a draw that raises leaves no stale position
    gen, position = memo.pop(key, None) or (Generator(PCG64DXSM(SeedSequence(key))), 0)
    # advance wraps modulo 2**128, so a negative distance seeks backwards
    gen.bit_generator.advance(offset - position)
    if out is None:
        out = np.empty((stop - start, words_per_rep))
    gen.random((stop - start, words_per_rep), out=out)
    memo[key] = (gen, offset + count)
    if len(memo) > _MEMO_SIZE:
        del memo[next(iter(memo))]
    return out
