"""Monte Carlo harness comparing the two perturbation laws by MSE.

For each replicate the harness runs the optimizer once per distribution to
the largest requested iteration count, recording the squared error
||theta_k - theta*||^2 at every requested k from that single trajectory. The
two runs of a replicate share the same noise stream (common random numbers),
which holds one word per replicate and iteration for the N(0, 2 * sigma2)
difference of the two measurement noises, while each distribution draws its
p perturbation components from its own stream; this is the pairing behind
the matched-pairs t-test. The one-sided alternative is that the Bernoulli law
has the larger MSE, matching the convention that small p-values favor the
segmented uniform.

All randomness comes from the absolutely addressed streams in
:mod:`spsa_dist.streams`, and the squared errors reduce to moments over fixed
replicate segments, each taken within one row tile and combined in one fixed
sum, so results are bit-identical for a given (spec, master_seed) no matter
how many segments a block holds or how many threads run them, and identical
reruns produce byte-identical CSV files.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import streams, theory
from .core import ProblemConfig, GainSchedule, _sp_step, standard_normal_from_uniform
from .perturbations import BERNOULLI, SEGMENTED_UNIFORM

__all__ = [
    "CHUNK_SIZE",
    "WORKERS",
    "PAIRING_NOTE",
    "T_TEST_NOTE",
    "ExperimentSpec",
    "MseEstimate",
    "PairedComparison",
    "TTestResult",
    "TheoryComparison",
    "ExperimentResult",
    "DivergedRunError",
    "run_experiment",
    "paired_t_test",
    "compare_with_theory",
    "render_csv",
    "write_csv",
]

CHUNK_SIZE = 1 << 18
# Replicates per moment segment: segment j holds rows [j * S, (j + 1) * S).
_SEGMENT_ROWS = 1 << 8
# Float64 words per row tile of a block step: each (rows, p) temporary of a
# tile takes 512 KiB and stays in cache.
_TILE_WORDS = 1 << 16
# Threads that run replicate blocks: the CPUs this process may run on, so
# `taskset -c 0` makes a run serial.
WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)

PAIRING_NOTE = "shared noise stream per replicate; independent perturbation streams"
T_TEST_NOTE = "one-sided matched pairs; H1: mse(bernoulli) > mse(segmented_uniform)"


class DivergedRunError(RuntimeError):
    """A replicate produced a non-finite iterate; the experiment is aborted."""

    def __init__(self, replicate: int, distribution: str, iteration: int):
        self.replicate = replicate
        self.distribution = distribution
        self.iteration = iteration
        super().__init__(
            f"replicate {replicate} diverged under {distribution} at iteration {iteration}"
        )


@dataclass(frozen=True)
class ExperimentSpec:
    problem: ProblemConfig
    schedule_su: GainSchedule
    schedule_bern: GainSchedule
    k_values: tuple[int, ...]
    n_reps: int
    master_seed: int

    def __post_init__(self):
        object.__setattr__(self, "k_values", tuple(int(k) for k in self.k_values))
        if not self.k_values:
            raise ValueError("k_values must be non-empty")
        if any(k < 1 for k in self.k_values):
            raise ValueError("k_values must be positive integers")
        if list(self.k_values) != sorted(set(self.k_values)):
            raise ValueError("k_values must be strictly increasing")
        if self.n_reps < 2:
            raise ValueError("n_reps must be at least 2 (the t-test needs a variance)")
        if not 0 <= self.master_seed < 2**64:
            raise ValueError("master_seed must be a 64-bit nonnegative integer")


@dataclass(frozen=True)
class MseEstimate:
    distribution: str
    k: int
    mse: float
    std_error: float
    n_reps: int


@dataclass(frozen=True)
class PairedComparison:
    """Matched-pairs comparison at one k; mean_diff is MSE_bernoulli - MSE_su."""

    k: int
    mean_diff: float
    t_stat: float
    p_value: float
    n_pairs: int
    std_error: float  # of mean_diff, from the n-1 sample standard deviation


@dataclass(frozen=True)
class TTestResult:
    t_stat: float
    p_value: float
    degenerate: bool = False


@dataclass(frozen=True)
class TheoryComparison:
    """Monte Carlo vs closed-form one-step MSE difference (su minus bernoulli)."""

    mc_diff: float
    theory_diff: float
    paired_std_error: float
    consistent: bool


@dataclass(frozen=True)
class ExperimentResult:
    spec: ExperimentSpec
    estimates: tuple[MseEstimate, ...]
    comparisons: tuple[PairedComparison, ...]


def _t_test(n: int, mean: float, sd: float) -> TTestResult:
    """:func:`paired_t_test` from the count, mean and n-1 sample standard
    deviation of the differences, with the same degenerate and overflow rules.
    """
    if not (math.isfinite(mean) and math.isfinite(sd)):
        raise ValueError(f"paired_t_test: mean {mean}, standard deviation {sd}: float64 overflow")
    if sd == 0.0:
        if mean > 0.0:
            return TTestResult(t_stat=math.inf, p_value=0.0, degenerate=True)
        if mean < 0.0:
            return TTestResult(t_stat=-math.inf, p_value=1.0, degenerate=True)
        return TTestResult(t_stat=0.0, p_value=0.5, degenerate=True)
    # imported here, so commands that run no replicate load no scipy
    from scipy.special import stdtr

    t_stat = mean / (sd / math.sqrt(n))
    p_value = float(stdtr(n - 1, -t_stat))
    return TTestResult(t_stat=t_stat, p_value=p_value)


def paired_t_test(diffs) -> TTestResult:
    """Matched-pairs t-test on per-replicate differences.

    t = mean(d) / (sd(d) / sqrt(n)) with the n-1 sample standard deviation;
    the p-value is the upper tail of Student's t with n-1 degrees of freedom.
    Zero-variance input degenerates to p = 0 or 1 by the sign of the mean,
    p = 0.5 when the mean is zero as well. An inf or nan difference, or a mean
    or standard deviation that overflows, raises ValueError.
    """
    d = np.asarray(diffs, dtype=float)
    if d.ndim != 1 or d.size < 2:
        raise ValueError("paired_t_test needs a 1-D sample of size >= 2")
    bad = np.flatnonzero(~np.isfinite(d))
    if bad.size:
        raise ValueError(f"paired_t_test needs finite differences; got {d[bad[0]]} at index {bad[0]}")
    with np.errstate(over="ignore", invalid="ignore"):
        mean = float(d.mean())
        sd = float(d.std(ddof=1))
    return _t_test(d.size, mean, sd)


def _moments(values: np.ndarray, segment: int) -> np.ndarray:
    """Two-pass (mean, M2) of each run of ``segment`` values along the last
    axis of ``values`` (the last run may be shorter), stacked last: shape
    ``values.shape[:-1] + (runs, 2)``.

    A segment's moments come from its own values in replicate order, so
    their bits do not depend on which other segments share the call.
    """
    rows = values.shape[-1]
    full = rows - rows % segment
    runs = (values[..., :full].reshape(*values.shape[:-1], -1, segment), values[..., None, full:])
    moments = []
    with np.errstate(over="ignore", invalid="ignore"):
        for run in runs:
            if run.size:
                mean = run.sum(axis=-1) / run.shape[-1]
                dev = run - mean[..., None]
                dev *= dev
                moments.append(np.stack((mean, dev.sum(axis=-1)), axis=-1))
    return np.concatenate(moments, axis=-2)


def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Estimate the MSE of both laws at every requested k, with pairing.

    The replicates fall into segments of ``_SEGMENT_ROWS``, segment j holding
    replicates ``[j * S, (j + 1) * S)`` (the last may be shorter). The
    segments are split into ``min(n_segments, max(WORKERS, ceil(n_reps /
    CHUNK_SIZE)))`` blocks of whole segments, whose sizes differ by at most
    one segment, run on a pool of :data:`WORKERS` threads. Each block opens
    its own streams, and every draw has an absolute stream address, so neither
    the block sizes nor the worker count changes any squared error.

    Each iteration of a block is law-major, in tiles of ``_TILE_WORDS // p``
    rows rounded down to whole segments: the noise draws become the scaled
    noise differences in place, tile by tile; then, one law after the other,
    one shared words buffer is filled with the law's draws and the law steps
    all its tiles. The squared errors are not kept: at each requested k the
    block reduces them tile by tile to the mean and M2 of each segment, for
    each law and for the paired difference. A squared error sums its p
    squared components in index order, each pass running along a tile's
    rows, so its bits depend neither on the tile nor on numpy's pairwise
    summation of 8 or more terms. The segments then combine in
    one fixed sum, so every result is the same bits under any split. Besides
    tile-sized temporaries, a block holds 3p + 1 float64 per row (two
    iterates, the noise and the words), so memory is O(workers x block x p +
    n_reps / _SEGMENT_ROWS x len(k_values)).

    A non-finite iterate aborts the whole experiment with a
    :class:`DivergedRunError` naming the smallest diverging replicate, its
    first iteration and law: silent dropping would bias the estimates. Any
    other exception raised in a block stops the other blocks and reaches the
    caller unchanged. A law whose shift c_k * delta can round to 0 for some
    k < k_max raises ValueError before anything is allocated.
    """
    # Fixed processing order; also the row order of the output tables.
    laws = (
        (BERNOULLI, streams.BERNOULLI_STREAM, spec.schedule_bern),
        (SEGMENTED_UNIFORM, streams.SEGMENTED_UNIFORM_STREAM, spec.schedule_su),
    )
    k_max = spec.k_values[-1]
    for dist, _, schedule in laws:
        # c is positive, but for a subnormal c the shift c_k * delta can round to
        # 0, and the step would divide by it. Rounding is monotone, so every
        # shift is at least c_k times the law's smallest |delta|, its quantile at 1/2
        smallest = float(dist.deltas_from_uniforms(0.5))
        zero = next((k for k in range(k_max) if not schedule.gain_c(k) * smallest > 0.0), None)
        if zero is not None:
            what = "c_k underflows" if not schedule.gain_c(zero) > 0.0 else "c_k * delta rounds"
            raise ValueError(f"{dist.name}: {what} to 0 at k={zero} (c = {schedule.c!r})")
    problem = spec.problem
    evaluator = problem.loss.evaluator
    p = problem.p
    n = spec.n_reps
    noise_scale = math.sqrt(2.0 * problem.sigma2)
    theta_star = np.asarray(problem.theta_star)
    theta0 = np.asarray(problem.theta0)
    wanted = {k: index for index, k in enumerate(spec.k_values)}
    n_k = len(wanted)

    segment = _SEGMENT_ROWS
    n_segments = -(-n // segment)
    # (segment, k, series, (mean, M2)); the series are the Bernoulli and
    # segmented-uniform squared errors and their difference. Allocated before
    # any block starts, so a size the machine refuses fails at once.
    table = np.empty((n_segments, n_k, 3, 2))

    n_blocks = min(n_segments, max(WORKERS, -(-n // CHUNK_SIZE)))
    edges = [min(n, index * n_segments // n_blocks * segment) for index in range(n_blocks + 1)]
    # Every block sizes its buffers for the largest block, so a block can
    # reuse the heap chunks that an earlier one freed.
    block_rows = max(stop - start for start, stop in zip(edges, edges[1:]))
    # whole segments, so that each tile writes the moments of its own segments
    tile_rows = max(1, _TILE_WORDS // p // segment) * segment
    # Index of the lowest block that has diverged, or -1 once a block raised;
    # a block stops at its next iteration when this falls below its own index.
    first_failed = n_blocks
    lock = threading.Lock()

    def fail(index: int) -> None:
        nonlocal first_failed
        with lock:
            first_failed = min(first_failed, index)

    def run_block(index: int):
        try:
            # one error state per block: an overflow or inf - inf shows as a
            # non-finite iterate or squared error, and both are checked
            with np.errstate(over="ignore", invalid="ignore"):
                return step_block(index)
        except BaseException:
            fail(-1)
            raise

    def step_block(index: int):
        """Step one block, writing its segments' moments into ``table``;
        return its divergence record, or None.
        """
        start, stop = edges[index], edges[index + 1]
        rows = stop - start
        theta = {dist.name: np.tile(theta0, (block_rows, 1)) for dist, _, _ in laws}
        # The noise buffer becomes the scaled noise difference of each row,
        # and the one words buffer is refilled with each law's draws in turn.
        # The steps run over row tiles, whose temporaries stay in cache where
        # block-sized ones would go through memory (and, freed, be faulted
        # back in at the next iteration).
        noise = np.empty((block_rows, 1))
        words = np.empty((block_rows, p))
        diverged = None
        # the block's own streams, as a stream serves one thread at a time
        noise_stream = streams.Stream(spec.master_seed, streams.NOISE_STREAM)
        law_streams = {tag: streams.Stream(spec.master_seed, tag) for _, tag, _ in laws}

        def draw(stream, buffer, k):
            streams.uniform_block(stream, n_reps=n, iteration=k, start=start, out=buffer)

        for k in range(k_max):
            if first_failed < index:
                return diverged
            draw(noise_stream, noise[:rows], k)
            column = noise[:rows, 0]
            for a in range(0, rows, tile_rows):
                u = column[a : a + tile_rows]
                np.multiply(standard_normal_from_uniform(u), noise_scale, out=u)
            for dist, stream_tag, schedule in laws:
                draw(law_streams[stream_tag], words[:rows], k)
                c_k, a_k = schedule.gain_c(k), schedule.gain_a(k)
                for a in range(0, rows, tile_rows):
                    b = min(a + tile_rows, rows)
                    current = theta[dist.name][a:b]
                    # both laws' components are nonzero, so the step needs no check
                    shift = dist.deltas_from_uniforms(words[a:b])
                    shift *= c_k
                    _sp_step(evaluator, current, shift, noise[a:b, 0], a_k)
                    if not np.isfinite(current).all():
                        r = a + int(np.flatnonzero(~np.isfinite(current).all(axis=1))[0])
                        diverged = DivergedRunError(start + r, dist.name, k)
                        fail(index)
                        if r == 0:
                            return diverged
                        # only rows before r can still be the first to
                        # diverge, so the later law and iterations skip the rest
                        rows = r
                        break
            if (k + 1) in wanted and diverged is None:
                harvest(start, rows, theta, wanted[k + 1])
        return diverged

    def harvest(start: int, rows: int, theta: dict, col: int) -> None:
        """Write the segment moments of a block's squared errors into column
        ``col`` of ``table``, tile by tile; the temporaries go on return.
        """
        # a tile's Bernoulli and segmented-uniform squared errors, and their difference
        errors = np.empty((3, tile_rows))
        # a tile's theta - theta_star, one row per component
        components = np.empty((p, tile_rows))
        for a in range(0, rows, tile_rows):
            b = min(a + tile_rows, rows)
            tile = errors[:, : b - a]
            err = components[:, : b - a]
            for law, values in enumerate(theta.values()):
                np.subtract(values[a:b].T, theta_star[:, None], out=err)
                err *= err  # may overflow; checked after the merge
                # the components in index order, by hand: on a one-row tile
                # numpy's axis-0 sum goes pairwise over 8 or more terms
                total = tile[law]
                np.copyto(total, err[0])
                for component in err[1:]:
                    total += component
            np.subtract(tile[0], tile[1], out=tile[2])  # inf - inf is nan
            segments = slice((start + a) // segment, -(-(start + b) // segment))
            table[segments, col] = _moments(tile, segment).swapaxes(0, 1)

    # glibc hands a freed heap top over its trim threshold back to the kernel,
    # so each block iteration would fault its temporaries in again (1.6e4 in
    # place of 5e3 minor faults per run at 10^6 replicates, k <= 10, on the
    # bundled quadratic). Freeing one mapped 4 MiB array moves glibc's
    # thresholds to 4 MiB (mmap) and 8 MiB (trim).
    np.empty(1 << 19)
    with ThreadPoolExecutor(max_workers=min(WORKERS, n_blocks)) as pool:
        futures = [pool.submit(run_block, index) for index in range(n_blocks)]
        try:
            records = [future.result() for future in futures]
        except BaseException:
            fail(-1)
            raise
    # blocks before the lowest failing one ran clean, and it ran to its end,
    # so its record names the smallest diverging replicate
    if first_failed < n_blocks:
        raise records[first_failed]

    # Chan, Golub & LeVeque (1979): the moments of all n replicates from
    # those of the segments, with n_j replicates in segment j
    counts = np.minimum(segment, n - segment * np.arange(n_segments))[:, None, None]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = (counts * table[..., 0]).sum(axis=0) / n
        m2 = table[..., 1].sum(axis=0) + (counts * (table[..., 0] - mean) ** 2).sum(axis=0)
    sd = np.sqrt(m2 / (n - 1))
    estimates = []
    comparisons = []
    for col, k in enumerate(spec.k_values):
        for series, (dist, _, _) in enumerate(laws):
            mse = float(mean[col, series])
            std_error = float(sd[col, series] / math.sqrt(n))
            if not (math.isfinite(mse) and math.isfinite(std_error)):
                raise ValueError(
                    f"{dist.name} at k={k}: the squared errors overflow float64 "
                    f"(mse {mse}, std_error {std_error})"
                )
            estimates.append(
                MseEstimate(distribution=dist.name, k=k, mse=mse, std_error=std_error, n_reps=n)
            )
        mean_diff = float(mean[col, 2])
        paired_sd = float(sd[col, 2])
        t_res = _t_test(n, mean_diff, paired_sd)
        comparisons.append(
            PairedComparison(
                k=k,
                mean_diff=mean_diff,
                t_stat=t_res.t_stat,
                p_value=t_res.p_value,
                n_pairs=n,
                std_error=paired_sd / math.sqrt(n),
            )
        )
    return ExperimentResult(
        spec=spec,
        estimates=tuple(estimates),
        comparisons=tuple(comparisons),
    )


def compare_with_theory(spec: ExperimentSpec) -> TheoryComparison:
    """Check the k = 1 Monte Carlo MSE difference against the closed form.

    Only defined for quadratic losses (where the closed form is exact) and
    for specs that request exactly k = 1. Consistency means the paired Monte
    Carlo estimate of mse_su - mse_bernoulli lies within four paired standard
    errors of the analytic value.
    """
    if not spec.problem.loss.is_quadratic:
        raise ValueError("compare_with_theory requires a quadratic loss")
    if spec.k_values != (1,):
        raise ValueError("compare_with_theory requires k_values == (1,)")
    (paired,) = run_experiment(spec).comparisons
    mc_diff = -paired.mean_diff
    inp, _ = theory.condition_input_from_problem(
        spec.problem, spec.schedule_su, spec.schedule_bern
    )
    theory_diff = theory.condition_lhs_explicit(inp)
    consistent = abs(mc_diff - theory_diff) <= 4.0 * paired.std_error
    return TheoryComparison(
        mc_diff=mc_diff,
        theory_diff=theory_diff,
        paired_std_error=paired.std_error,
        consistent=consistent,
    )


def _format_number(value: float) -> str:
    return repr(float(value))


def _theory_lines(spec: ExperimentSpec) -> list[str]:
    """The CSV header's closed-form lines for ``spec``: the one-step condition
    of a quadratic loss, and none for any other loss.

    Gains the closed form cannot take, such as a c whose square underflows,
    raise ValueError, so the command line calls this before any replicate runs.
    """
    if not spec.problem.loss.is_quadratic:
        return []
    inp, source = theory.condition_input_from_problem(
        spec.problem, spec.schedule_su, spec.schedule_bern
    )
    report = theory.evaluate_condition(inp, quadratic=True, gradient_source=source)
    return [
        f"# theory_condition = {report.which_condition}",
        f"# theory_lhs_explicit = {_format_number(report.lhs_explicit)}",
        f"# theory_verdict = {report.verdict}",
    ]


def render_csv(result: ExperimentResult) -> str:
    """Render results as CSV text with a commented metadata header.

    MSE rows carry (mse, std_error); comparison rows are tagged with
    distribution "paired" and carry (mean_diff, t_stat, p_value). Output is a
    deterministic function of the result, so reruns of the same spec yield
    byte-identical files.
    """
    spec = result.spec
    problem = spec.problem
    lines = [
        "# spsa-dist experiment results",
        f"# loss = {problem.loss.name}",
        f"# dimension = {problem.p}",
        f"# theta0 = {', '.join(_format_number(v) for v in problem.theta0)}",
        f"# theta_star = {', '.join(_format_number(v) for v in problem.theta_star)}",
        f"# sigma2 = {_format_number(problem.sigma2)}",
        "# noise = gaussian",
        f"# gain_bernoulli_a = {_format_number(spec.schedule_bern.a)}",
        f"# gain_bernoulli_c = {_format_number(spec.schedule_bern.c)}",
        f"# gain_segmented_uniform_a = {_format_number(spec.schedule_su.a)}",
        f"# gain_segmented_uniform_c = {_format_number(spec.schedule_su.c)}",
        f"# k_values = {', '.join(str(k) for k in spec.k_values)}",
        f"# n_reps = {spec.n_reps}",
        f"# master_seed = {spec.master_seed}",
        f"# pairing = {PAIRING_NOTE}",
        f"# t_test = {T_TEST_NOTE}",
    ]
    lines += _theory_lines(spec)
    lines.append("k,distribution,mse,std_error,n_reps,mean_diff,t_stat,p_value")
    by_k: dict[int, list[MseEstimate]] = {}
    for est in result.estimates:
        by_k.setdefault(est.k, []).append(est)
    comparison_by_k = {cmp.k: cmp for cmp in result.comparisons}
    for k in spec.k_values:
        for est in by_k[k]:
            lines.append(
                f"{k},{est.distribution},{_format_number(est.mse)},"
                f"{_format_number(est.std_error)},{est.n_reps},,,"
            )
        cmp = comparison_by_k[k]
        lines.append(
            f"{k},paired,,,{cmp.n_pairs},{_format_number(cmp.mean_diff)},"
            f"{_format_number(cmp.t_stat)},{_format_number(cmp.p_value)}"
        )
    return "\n".join(lines) + "\n"


def write_csv(result: ExperimentResult, path_or_file) -> None:
    text = render_csv(result)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
        return
    with open(path_or_file, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(text)
