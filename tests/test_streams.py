import sys
import threading

import numpy as np
import pytest
from numpy.random import PCG64DXSM, Generator, SeedSequence

from spsa_dist import streams

N_REPS = 50
WORDS = 3


def oracle(seed, tag, *, iteration, start, stop, words_per_rep=WORDS):
    """The addressed block, read from word 0 of a freshly seeded generator."""
    first = words_per_rep * (iteration * N_REPS + start)
    words = Generator(PCG64DXSM(SeedSequence((seed, tag)))).random(
        words_per_rep * (iteration * N_REPS + stop)
    )
    return words[first:].reshape(stop - start, words_per_rep)


_local = threading.local()


def opened(seed, tag):
    """This thread's one stream (seed, tag): every draw of the thread seeks it
    from where the last one left it, also across tests."""
    owned = _local.__dict__.setdefault("streams", {})
    if (seed, tag) not in owned:
        owned[(seed, tag)] = streams.Stream(seed, tag)
    return owned[(seed, tag)]


def block(seed, tag, *, iteration, start, stop):
    out = np.empty((stop - start, WORDS))
    return streams.uniform_block(
        opened(seed, tag), n_reps=N_REPS, iteration=iteration, start=start, out=out
    )


def random_calls(rng, seeds, tags, n_calls):
    """(seed, tag, iteration, start, stop) addresses in a random order, so
    consecutive calls seek forwards, backwards and across streams."""
    calls = []
    for _ in range(n_calls):
        start, stop = sorted(rng.integers(0, N_REPS + 1, size=2).tolist())
        calls.append(
            (int(rng.choice(seeds)), int(rng.choice(tags)), int(rng.integers(0, 4)), start, stop)
        )
    return calls


def test_any_partition_of_the_replicates_gives_the_same_draws():
    rng = np.random.default_rng(0)
    for iteration in (0, 1, 7):
        whole = oracle(5, streams.NOISE_STREAM, iteration=iteration, start=0, stop=N_REPS)
        for _ in range(5):
            cuts = [0, *sorted(rng.integers(0, N_REPS + 1, size=4).tolist()), N_REPS]
            parts = [
                block(5, streams.NOISE_STREAM, iteration=iteration, start=a, stop=b)
                for a, b in zip(cuts, cuts[1:])
            ]
            assert np.concatenate(parts).tobytes() == whole.tobytes()


def test_any_call_order_gives_the_addressed_draws():
    rng = np.random.default_rng(1)
    calls = random_calls(rng, seeds=(0, 1, 2**64 - 1), tags=(0, 1, 2), n_calls=200)
    # the same address twice in a row is a zero seek, and a repeat after a
    # later address a backward one
    calls += [calls[-1], calls[0]]
    for seed, tag, iteration, start, stop in calls:
        got = block(seed, tag, iteration=iteration, start=start, stop=stop)
        assert got.shape == (stop - start, WORDS)
        want = oracle(seed, tag, iteration=iteration, start=start, stop=stop)
        assert got.tobytes() == want.tobytes()


def test_threads_at_once_each_get_the_addressed_draws():
    calls = random_calls(np.random.default_rng(2), seeds=(3, 4), tags=(0, 2), n_calls=2000)
    wanted = [
        oracle(seed, tag, iteration=k, start=start, stop=stop)
        for seed, tag, k, start, stop in calls
    ]
    # more threads than cores, each walking its own streams in its own order
    orders = [np.random.default_rng(i).permutation(len(calls)) for i in range(4)]
    barrier = threading.Barrier(len(orders))
    mismatches = []

    def run(order):
        barrier.wait(timeout=60)
        for i in order:
            seed, tag, k, start, stop = calls[i]
            if block(seed, tag, iteration=k, start=start, stop=stop).tobytes() != wanted[i].tobytes():
                mismatches.append(calls[i])

    threads = [threading.Thread(target=run, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


# a draw needs 0 <= start and start + rows <= n_reps, also when it has no rows
@pytest.mark.parametrize(
    "start, rows", [(-1, 2), (0, N_REPS + 1), (N_REPS - 1, 2), (N_REPS + 1, 0)]
)
def test_invalid_replicate_range_raises(start, rows):
    with pytest.raises(ValueError, match="replicate range"):
        block(0, 0, iteration=0, start=start, stop=start + rows)


@pytest.mark.parametrize(
    "words_per_rep, iteration, message", [(WORDS, -1, "iteration"), (0, 0, "words_per_rep")]
)
def test_invalid_address_raises(words_per_rep, iteration, message):
    with pytest.raises(ValueError, match=message):
        streams.uniform_block(
            opened(1, 0),
            n_reps=N_REPS,
            iteration=iteration,
            start=0,
            out=np.empty((2, words_per_rep)),
        )


def test_a_failed_draw_leaves_later_draws_addressed():
    block(7, 0, iteration=1, start=0, stop=4)
    stream = opened(7, 0)
    position = stream.position
    with pytest.raises(ValueError):
        # a zero word count fails before the seek
        streams.uniform_block(stream, n_reps=N_REPS, iteration=0, start=0, out=np.empty((2, 0)))
    assert stream.position == position
    got = block(7, 0, iteration=1, start=4, stop=9)
    assert got.tobytes() == oracle(7, 0, iteration=1, start=4, stop=9).tobytes()


def test_a_new_stream_starts_at_word_zero():
    stream = streams.Stream(2**64 - 1, streams.SEGMENTED_UNIFORM_STREAM)
    assert stream.position == 0
    out = streams.uniform_block(stream, n_reps=N_REPS, iteration=2, start=3, out=np.empty((2, 1)))
    assert stream.position == (2 * N_REPS + 3) + 2  # the word after the draw
    want = oracle(2**64 - 1, 2, iteration=2, start=3, stop=5, words_per_rep=1)
    assert out.tobytes() == want.tobytes()


def test_out_gets_the_same_words_under_any_partition():
    rng = np.random.default_rng(3)
    for iteration in (0, 2):
        whole = block(9, streams.SEGMENTED_UNIFORM_STREAM, iteration=iteration, start=0, stop=N_REPS)
        for _ in range(5):
            cuts = [0, *sorted(rng.integers(0, N_REPS + 1, size=4).tolist()), N_REPS]
            # one reused buffer, as a harness block fills it, filled part by part
            buffer = np.full((N_REPS, WORDS), np.nan)
            for a, b in zip(cuts, cuts[1:]):
                out = buffer[a:b]
                got = streams.uniform_block(
                    opened(9, streams.SEGMENTED_UNIFORM_STREAM),
                    n_reps=N_REPS,
                    iteration=iteration,
                    start=a,
                    out=out,
                )
                assert got is out
            assert buffer.tobytes() == whole.tobytes()


def test_out_of_any_shape_gets_the_addressed_words():
    for rows in range(N_REPS + 1):
        for words in range(1, 5):
            for start in sorted({0, (N_REPS - rows) // 2, N_REPS - rows}):
                out = np.full((rows, words), np.nan)
                assert streams.uniform_block(
                    opened(4, 2), n_reps=N_REPS, iteration=3, start=start, out=out
                ) is out
                want = oracle(
                    4, 2, iteration=3, start=start, stop=start + rows, words_per_rep=words
                )
                assert out.tobytes() == want.tobytes()


def test_row_slices_of_a_larger_buffer_get_the_addressed_words():
    # as a harness block refills its buffers, each time with its own number of rows
    buffer = np.full((N_REPS, WORDS), np.nan)
    rng = np.random.default_rng(4)
    for _ in range(50):
        rows = int(rng.integers(0, N_REPS + 1))
        start = int(rng.integers(0, N_REPS - rows + 1))
        iteration = int(rng.integers(0, 4))
        tail = buffer[rows:].tobytes()
        out = buffer[:rows]
        assert streams.uniform_block(
            opened(6, 0), n_reps=N_REPS, iteration=iteration, start=start, out=out
        ) is out
        want = oracle(6, 0, iteration=iteration, start=start, stop=start + rows)
        assert out.tobytes() == want.tobytes()
        assert buffer[rows:].tobytes() == tail


@pytest.mark.parametrize(
    "out",
    [
        np.empty((4, WORDS, 1)),
        np.empty(4 * WORDS),
        np.empty((4, WORDS), dtype=np.float32),
        np.empty((4, 2 * WORDS))[:, ::2],
        np.empty((WORDS, 4)).T,
    ],
    ids=["wrong_shape", "flat", "float32", "strided", "fortran_order"],
)
def test_a_wrong_out_raises_and_later_draws_stay_addressed(out):
    block(8, 1, iteration=0, start=0, stop=3)
    with pytest.raises(ValueError, match="out must be a 2-D, C-contiguous float64 array"):
        streams.uniform_block(opened(8, 1), n_reps=N_REPS, iteration=1, start=2, out=out)
    buffer = np.empty((4, WORDS))
    streams.uniform_block(opened(8, 1), n_reps=N_REPS, iteration=1, start=6, out=buffer)
    assert buffer.tobytes() == oracle(8, 1, iteration=1, start=6, stop=10).tobytes()
    assert block(8, 1, iteration=0, start=3, stop=5).tobytes() == (
        oracle(8, 1, iteration=0, start=3, stop=5).tobytes()
    )
