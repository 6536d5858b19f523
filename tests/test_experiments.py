import math
import platform
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from spsa_dist import experiments, streams
from spsa_dist.core import (
    GainSchedule,
    LossFunction,
    ProblemConfig,
    get_loss,
    sp_gradient,
    spsa_run,
    standard_normal_from_uniform,
)
from spsa_dist.experiments import (
    CHUNK_SIZE,
    DivergedRunError,
    ExperimentSpec,
    compare_with_theory,
    paired_t_test,
    render_csv,
    run_experiment,
    write_csv,
)
from spsa_dist.perturbations import BERNOULLI, SEGMENTED_UNIFORM
from spsa_dist.theory import condition_lhs_explicit, condition_input_from_problem

WORKER_COUNTS = (1, 2, 3)
LAWS = (
    (BERNOULLI, streams.BERNOULLI_STREAM),
    (SEGMENTED_UNIFORM, streams.SEGMENTED_UNIFORM_STREAM),
)
STREAM_TAGS = (streams.NOISE_STREAM, *(tag for _, tag in LAWS))
# float64 words per row tile of a block step: the default, and 7- and 1-row
# tiles at p = 2
TILE_WORDS = (experiments._TILE_WORDS, 14, 2)


def small_spec(quadratic_spec, *, k_values=(1,), n_reps=2000, **overrides):
    return replace(quadratic_spec, k_values=k_values, n_reps=n_reps, **overrides)


def cliff_spec(quadratic_spec, *, master_seed, p=2):
    """One step from (1, ..., 1) with c_0 = 1 on a loss that is infinite where
    all p coordinates exceed 1.5, so a row diverges iff all components of its
    perturbation exceed 0.5 in magnitude with the same sign.
    """

    def cliff(theta):
        return np.where((theta > 1.5).all(axis=-1), np.inf, (theta * theta).sum(axis=-1))

    problem = ProblemConfig(
        p=p,
        loss=LossFunction(name="cliff", evaluator=cliff, dimension=p),
        theta_star=(0.0,) * p,
        sigma2=1.0,
        theta0=(1.0,) * p,
    )
    gains = GainSchedule(a=0.1, c=1.0)
    return replace(
        quadratic_spec,
        problem=problem,
        schedule_su=gains,
        schedule_bern=gains,
        k_values=(1,),
        n_reps=200,
        master_seed=master_seed,
    )


def sum_of_squares(quadratic_spec, theta0):
    """The bundled quadratic's run on the sum of squares in len(theta0) dimensions."""
    p = len(theta0)

    def evaluator(theta):
        return (theta * theta).sum(axis=-1)

    problem = ProblemConfig(
        p=p,
        loss=LossFunction(name="sum_of_squares", evaluator=evaluator, dimension=p),
        theta_star=(0.0,) * p,
        sigma2=1.0,
        theta0=theta0,
    )
    return replace(quadratic_spec, problem=problem)


@pytest.fixture(scope="module")
def sum_of_squares_spec(quadratic_spec):
    """In three dimensions, where 2^16 // p rows are no whole number of segments."""
    return sum_of_squares(quadratic_spec, (0.3, -0.2, 0.5))


@pytest.fixture(scope="module")
def sum_of_squares_12_spec(quadratic_spec):
    """In twelve dimensions, where numpy sums a row of squared errors pairwise
    and the harness sums the components in index order.
    """
    return sum_of_squares(quadratic_spec, tuple(0.3 - 0.05 * i for i in range(12)))


def rebuilt_squared_errors(spec):
    """(law, k) -> every replicate's squared error at each requested k, rebuilt
    for all rows at once from the public stream addresses and
    :func:`sp_gradient`, without the harness.
    """
    problem = spec.problem
    n = spec.n_reps
    noise_scale = math.sqrt(2.0 * problem.sigma2)
    schedules = {"bernoulli": spec.schedule_bern, "segmented_uniform": spec.schedule_su}
    theta = {dist.name: np.tile(problem.theta0, (n, 1)) for dist, _ in LAWS}
    opened = {tag: streams.Stream(spec.master_seed, tag) for tag in STREAM_TAGS}
    errors = {}
    for k in range(spec.k_values[-1]):

        def draw(stream_tag, words_per_rep):
            return streams.uniform_block(
                opened[stream_tag],
                n_reps=n,
                iteration=k,
                start=0,
                out=np.empty((n, words_per_rep)),
            )

        noise = noise_scale * standard_normal_from_uniform(draw(streams.NOISE_STREAM, 1)[:, 0])
        for dist, stream_tag in LAWS:
            schedule = schedules[dist.name]
            delta = dist.deltas_from_uniforms(draw(stream_tag, problem.p))
            grad = sp_gradient(problem, theta[dist.name], schedule.gain_c(k), delta, noise)
            theta[dist.name] = theta[dist.name] - schedule.gain_a(k) * grad
            if k + 1 in spec.k_values:
                err = theta[dist.name] - np.asarray(problem.theta_star)
                err *= err
                # the components in index order, as the harness sums them
                errors[(dist.name, k + 1)] = sum(err[:, i] for i in range(problem.p))
    return errors


def harvested_squared_errors(spec, monkeypatch):
    """:func:`run_experiment` on ``spec``, and (law, k) -> every replicate's
    squared error at each requested k as the harness hands it to
    ``experiments._moments``.

    The tiles of a block follow each other in row order, so a tile's rows
    are placed from the ``start`` and ``iteration`` of its thread's last
    ``streams.uniform_block`` call and the tiles that thread reduced since.
    """
    errors = {
        (dist.name, k): np.full(spec.n_reps, np.nan) for dist, _ in LAWS for k in spec.k_values
    }
    local = threading.local()
    uniform_block = streams.uniform_block
    moments = experiments._moments

    def block_spy(*args, iteration, start, **kwargs):
        local.iteration, local.row = iteration, start
        return uniform_block(*args, iteration=iteration, start=start, **kwargs)

    def moments_spy(values, segment):
        rows = slice(local.row, local.row + values.shape[-1])
        for law, (dist, _) in enumerate(LAWS):
            errors[(dist.name, local.iteration + 1)][rows] = values[law]
        local.row = rows.stop
        return moments(values, segment)

    with monkeypatch.context() as patch:
        patch.setattr(streams, "uniform_block", block_spy)
        patch.setattr(experiments, "_moments", moments_spy)
        result = run_experiment(spec)
    return result, errors


def exact_mse(schedule, moments, k_max, sigma2, theta0):
    """E|theta_k - theta*|^2 for k = 1..k_max on the bundled quadratic (theta* = 0).

    An independent oracle: for a quadratic loss the second moment
    M_k = E[theta_k theta_k^T] obeys an exact linear recursion, so the expected
    MSE at every k is computable without simulation.
    """
    hessian = np.array([[2.0, -1.0], [-1.0, 2.0]])
    second_moment = np.outer(theta0, theta0)
    trace_by_k = {}
    for k in range(k_max):
        a_k = schedule.gain_a(k)
        c_k = schedule.gain_c(k)
        gram = hessian @ second_moment @ hessian
        cross = gram.copy()
        np.fill_diagonal(cross, moments.ratio_second * (np.trace(gram) - np.diag(gram)))
        contraction = np.eye(2) - a_k * hessian
        second_moment = (
            contraction @ second_moment @ contraction
            + a_k**2 * cross
            + a_k**2 * sigma2 * moments.inv_second / (2.0 * c_k**2) * np.eye(2)
        )
        trace_by_k[k + 1] = float(np.trace(second_moment))
    return trace_by_k


def exact_mse_by_law(spec, k_max):
    theta0 = np.asarray(spec.problem.theta0)
    return {
        "bernoulli": exact_mse(
            spec.schedule_bern, BERNOULLI.moments(), k_max, spec.problem.sigma2, theta0
        ),
        "segmented_uniform": exact_mse(
            spec.schedule_su, SEGMENTED_UNIFORM.moments(), k_max, spec.problem.sigma2, theta0
        ),
    }


def diverging_rows(spec, dist, stream_tag, iteration=0):
    """Replicates whose step at ``iteration`` under ``dist`` hits the cliff of
    :func:`cliff_spec`, given that their iterate is still at theta0 = (1, 1).
    """
    u = streams.uniform_block(
        streams.Stream(spec.master_seed, stream_tag),
        n_reps=spec.n_reps,
        iteration=iteration,
        start=0,
        out=np.empty((spec.n_reps, spec.problem.p)),
    )
    delta = dist.deltas_from_uniforms(u)
    schedule = {"bernoulli": spec.schedule_bern, "segmented_uniform": spec.schedule_su}[dist.name]
    reach = 0.5 / schedule.gain_c(iteration)
    return np.flatnonzero((delta > reach).all(axis=1) | (delta < -reach).all(axis=1))


def smallest_seed(make_spec, scenario, limit=5000):
    """``make_spec(seed)`` at the smallest seed whose draws set up ``scenario``.

    The divergence tests derive their seeds this way, so a change of the
    draws moves the seeds rather than silently dropping the scenario.
    """
    for seed in range(limit):
        spec = make_spec(seed)
        if scenario(spec):
            return spec
    raise AssertionError(f"no seed below {limit} sets up the scenario")


def sparse_cliff_spec(quadratic_spec, *, master_seed):
    """:func:`cliff_spec` in three dimensions with c_0 = 0.6 for the segmented
    uniform, so a row reaches the cliff with probability 1/4 under the
    Bernoulli law and about 1/18 under the segmented uniform.
    """
    spec = cliff_spec(quadratic_spec, master_seed=master_seed, p=3)
    return replace(spec, schedule_su=GainSchedule(a=0.1, c=0.6))


def diverging_report(spec, monkeypatch, chunk_sizes):
    """The (replicate, law, iteration) tuples that :func:`run_experiment` reports
    for ``spec`` under each chunk size, worker count and row tile size.

    Blocks are made of whole segments, so one-row segments let the chunk
    sizes split the replicates into blocks of that many rows.
    """
    monkeypatch.setattr(experiments, "_SEGMENT_ROWS", 1)
    reports = set()
    for tile_words in TILE_WORDS:
        monkeypatch.setattr(experiments, "_TILE_WORDS", tile_words)
        for workers in WORKER_COUNTS:
            monkeypatch.setattr(experiments, "WORKERS", workers)
            for chunk_size in chunk_sizes:
                monkeypatch.setattr(experiments, "CHUNK_SIZE", chunk_size)
                with pytest.raises(DivergedRunError) as info:
                    run_experiment(spec)
                err = info.value
                reports.add((err.replicate, err.distribution, err.iteration))
    return reports


def cliff_hits(spec):
    """(k, law) -> the replicates whose perturbation at k reaches the cliff."""
    return {
        (k, dist.name): set(diverging_rows(spec, dist, tag, iteration=k).tolist())
        for k in range(spec.k_values[-1])
        for dist, tag in (
            (BERNOULLI, streams.BERNOULLI_STREAM),
            (SEGMENTED_UNIFORM, streams.SEGMENTED_UNIFORM_STREAM),
        )
    }


@pytest.fixture(scope="module")
def frozen_cliff_spec(quadratic_spec):
    """:func:`cliff_spec` with a zero step gain, so every iterate stays at theta0
    and a row diverges at iteration k iff its perturbation there reaches the
    cliff; c_0 = 0.52 lets the Bernoulli law reach it at k = 0 only. The seed
    is the smallest that sets up the scenario of the two tests that use it.
    """
    frozen = GainSchedule(a=0.0, c=0.52)

    def make_spec(seed):
        return replace(
            cliff_spec(quadratic_spec, master_seed=seed),
            schedule_su=frozen,
            schedule_bern=frozen,
            k_values=(8,),
        )

    def scenario(spec):
        hits = cliff_hits(spec)
        return (
            3 in hits[(0, "bernoulli")]
            and [key for key, rows in hits.items() if 2 in rows] == [(5, "segmented_uniform")]
            and not any(rows & {0, 1} for rows in hits.values())
        )

    return smallest_seed(make_spec, scenario)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's heap trimming")
def test_block_iterations_do_not_refault_their_temporaries(fresh_python):
    # Without the threshold lift in run_experiment, the second quartic run takes
    # about 6000 minor page faults here (one block iteration's temporaries each
    # time). Stepping whole 2^18-row blocks in place of row tiles, the second
    # quadratic run took 4.4e4. The first two cases take about as many faults
    # without the lift on some machines; with four workers the second quadratic
    # run took 6-3600 with it and 9984-10837 without it, on one and on two cores.
    code = """
import resource
from dataclasses import replace
from spsa_dist import experiments
from spsa_dist.config import bundled_config_text, parse_config
from spsa_dist.experiments import run_experiment
{setup}
spec = replace(
    parse_config(bundled_config_text("{config}")).experiment, k_values=({k},), n_reps={n_reps}
)
run_experiment(spec)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_experiment(spec)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    for config, k, n_reps, setup, bound in (
        ("quartic", 50, 20000, "", 1000),
        ("quadratic", 5, 2**19, "", 10**4),
        ("quadratic", 5, 2**19, "experiments.WORKERS = 4", 6000),
    ):
        faults = int(fresh_python(code.format(config=config, k=k, n_reps=n_reps, setup=setup)))
        assert faults < bound, (config, setup, faults)


def traced_peak(function, *args):
    """The tracemalloc peak in bytes while ``function(*args)`` runs, and its result."""
    tracemalloc.start()
    try:
        result = function(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestPairedTTest:
    def test_constant_positive_diffs(self):
        res = paired_t_test((1.0, 1.0, 1.0, 1.0))
        assert res.t_stat == math.inf and res.p_value == 0.0 and res.degenerate

    def test_constant_negative_diffs(self):
        res = paired_t_test((-2.0, -2.0, -2.0))
        assert res.t_stat == -math.inf and res.p_value == 1.0 and res.degenerate

    def test_all_zero_diffs(self):
        res = paired_t_test((0.0, 0.0))
        assert res.t_stat == 0.0 and res.p_value == 0.5 and res.degenerate

    @pytest.mark.parametrize("bad", (math.inf, -math.inf, math.nan))
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite differences; got .* at index 1"):
            paired_t_test((1.0, bad, 2.0))

    def test_overflowing_spread_rejected(self):
        # finite differences with a positive mean whose standard deviation
        # overflows float64: no verdict, and no RuntimeWarning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="standard deviation inf: float64 overflow"):
                paired_t_test((1e308, -1e308, 1e308))

    @pytest.mark.parametrize("df", (1, 2, 9, 49, 19_999, 99_999, 999_999))
    def test_p_value_bits_equal_scipy_t_sf(self, df):
        # The CSV's byte identity rests on these bits, so no tolerance.
        n = df + 1
        z = np.random.default_rng(df).standard_normal(n)
        z = (z - z.mean()) / z.std(ddof=1)
        for target in (-40.0, -12.0, -3.0, -1.0, -0.1, 0.0, 0.1, 1.0, 3.0, 12.0, 40.0):
            res = paired_t_test(z + target / math.sqrt(n))
            assert res.t_stat == pytest.approx(target, abs=1e-6)
            assert res.p_value == stats.t.sf(res.t_stat, n - 1)

    def test_matches_scipy(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            x = rng.normal(0.1, 1.0, size=50)
            y = rng.normal(0.0, 1.0, size=50)
            res = paired_t_test(x - y)
            ref = stats.ttest_rel(x, y, alternative="greater")
            assert res.t_stat == pytest.approx(ref.statistic, abs=1e-12)
            assert res.p_value == pytest.approx(ref.pvalue, abs=1e-12)
            assert (res.p_value < 0.5) == (res.t_stat > 0)

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            paired_t_test((1.0,))


class TestSpecValidation:
    def test_invalid_specs(self, quadratic_spec):
        with pytest.raises(ValueError):
            replace(quadratic_spec, k_values=())
        with pytest.raises(ValueError):
            replace(quadratic_spec, k_values=(5, 1))
        with pytest.raises(ValueError):
            replace(quadratic_spec, k_values=(1, 1))
        with pytest.raises(ValueError):
            replace(quadratic_spec, k_values=(0,))
        with pytest.raises(ValueError):
            replace(quadratic_spec, n_reps=1)
        with pytest.raises(ValueError):
            replace(quadratic_spec, master_seed=-1)
        with pytest.raises(ValueError):
            replace(quadratic_spec, master_seed=2**64)


class TestRunExperiment:
    @pytest.mark.parametrize(
        "law, schedule", (("bernoulli", "schedule_bern"), ("segmented_uniform", "schedule_su"))
    )
    def test_underflowing_c_k_fails_before_any_loss_evaluation(
        self, quadratic_spec, law, schedule
    ):
        def never(theta):
            raise AssertionError("the loss was evaluated")

        problem = replace(
            quadratic_spec.problem, loss=LossFunction(name="never", evaluator=never, dimension=2)
        )
        if law == "bernoulli":
            # c_k = 5e-324 / (k + 1) ** 0.101 rounds to 0 from k = 956 on
            c, what = 5e-324, "c_k underflows"
        else:
            # c_k stays positive past k = 10^6, but c_k * SEGMENT_INNER, the
            # smallest shift, rounds to 0 from k = 956 on
            c, what = 1.5e-323, "c_k * delta rounds"
        spec = small_spec(
            quadratic_spec, k_values=(1000,), n_reps=10, problem=problem,
            **{schedule: GainSchedule(a=0.1, c=c)},
        )
        with pytest.raises(ValueError) as info:
            run_experiment(spec)
        assert str(info.value) == f"{law}: {what} to 0 at k=956 (c = {c!r})"
        # up to k_max = 956, every shift stays positive
        with pytest.raises(AssertionError, match="the loss was evaluated"):
            run_experiment(replace(spec, k_values=(956,)))

    def test_loss_value_with_a_trailing_axis_is_refused(self, quadratic_spec, monkeypatch):
        # (rows, 1) values would broadcast against the (rows,) noise into a
        # (rows, rows) array; the first loss call is refused, and no call is added
        shapes = []

        def column(theta):
            shapes.append(theta.shape)
            return (theta * theta).sum(axis=-1, keepdims=True)

        problem = replace(
            quadratic_spec.problem, loss=LossFunction(name="column", evaluator=column, dimension=2)
        )
        refusal = (
            "the loss returned shape {} for points of shape {}; "
            "it must return shape {}, one value per point"
        )
        monkeypatch.setattr(experiments, "WORKERS", 1)  # one block of 3000 rows
        rows = 3000
        theta, delta, noise = np.zeros((rows, 2)), np.ones((rows, 2)), np.zeros(rows)
        for step in (
            lambda: run_experiment(small_spec(quadratic_spec, n_reps=rows, problem=problem)),
            lambda: sp_gradient(problem, theta, 0.1, delta, noise),
        ):
            shapes.clear()
            with pytest.raises(ValueError) as info:
                step()
            assert str(info.value) == refusal.format((rows, 1), (rows, 2), (rows,))
            assert shapes == [(rows, 2)]
        with pytest.raises(ValueError) as info:
            spsa_run(problem, GainSchedule(a=0.1, c=0.1), BERNOULLI, 5, np.random.default_rng(0))
        assert str(info.value) == refusal.format((1,), (2,), ())

    def test_zero_step_size(self, quadratic_spec):
        frozen = GainSchedule(a=0.0, c=0.1)
        spec = small_spec(
            quadratic_spec, n_reps=2, schedule_su=frozen, schedule_bern=frozen
        )
        result = run_experiment(spec)
        start_error = float(
            np.sum((np.asarray(spec.problem.theta0) - np.asarray(spec.problem.theta_star)) ** 2)
        )
        for est in result.estimates:
            assert est.mse == start_error
        (cmp,) = result.comparisons
        assert cmp.mean_diff == 0.0
        assert cmp.p_value == 0.5

    def test_squared_errors_overflowing_every_row(self, quadratic_spec):
        # at 1e154 every row's squared error is inf, so the paired difference is
        # nan; the merge names the law and k instead of blaming the t-test, and
        # numpy warns about nothing on the way
        problem = replace(quadratic_spec.problem, theta0=(1e154, 1e154))
        spec = small_spec(quadratic_spec, n_reps=100, problem=problem)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                ValueError, match="bernoulli at k=1: the squared errors overflow float64"
            ):
                run_experiment(spec)

    @pytest.mark.parametrize(
        "spec_name", ("quadratic_spec", "quartic_spec", "sum_of_squares_12_spec")
    )
    def test_reproducible_and_chunk_invariant(self, request, spec_name, monkeypatch):
        spec = small_spec(request.getfixturevalue(spec_name), k_values=(1, 4), n_reps=3000)
        rebuilt = rebuilt_squared_errors(spec)
        # one-row segments, so that a chunk size of 100 makes 100-row blocks
        monkeypatch.setattr(experiments, "_SEGMENT_ROWS", 1)
        baseline = run_experiment(spec)
        assert render_csv(run_experiment(spec)) == render_csv(baseline)
        # every worker count and block size at the default and 7-row tiles;
        # 1-row tiles cost a second per run, so they get one split
        p = spec.problem.p
        splits = [
            (tile_words, workers, chunk_size)
            for tile_words in (experiments._TILE_WORDS, 7 * p)
            for workers in WORKER_COUNTS
            for chunk_size in (CHUNK_SIZE, 997, 100)
        ] + [(p, 3, 997)]
        for tile_words, workers, chunk_size in splits:
            monkeypatch.setattr(experiments, "_TILE_WORDS", tile_words)
            monkeypatch.setattr(experiments, "WORKERS", workers)
            monkeypatch.setattr(experiments, "CHUNK_SIZE", chunk_size)
            blocked, harvested = harvested_squared_errors(spec, monkeypatch)
            for key, values in rebuilt.items():
                assert np.array_equal(values, harvested[key])
            assert render_csv(baseline) == render_csv(blocked)

    def test_k_subset_harvests_same_errors(self, quadratic_spec):
        spec_all = small_spec(quadratic_spec, k_values=(1, 3), n_reps=500)
        spec_k1 = small_spec(quadratic_spec, k_values=(1,), n_reps=500)
        all_result = run_experiment(spec_all)
        k1_result = run_experiment(spec_k1)
        assert [est for est in all_result.estimates if est.k == 1] == list(k1_result.estimates)
        assert all_result.comparisons[:1] == k1_result.comparisons

    @pytest.mark.parametrize("spec_name", ("quadratic_spec", "quartic_spec"))
    def test_replicates_match_scalar_reconstruction(self, request, spec_name, monkeypatch):
        spec = small_spec(request.getfixturevalue(spec_name), k_values=(3,), n_reps=5)
        _, harvested = harvested_squared_errors(spec, monkeypatch)
        rebuilt = rebuilt_squared_errors(spec)
        problem = spec.problem
        noise_scale = math.sqrt(2.0 * problem.sigma2)
        opened = {tag: streams.Stream(spec.master_seed, tag) for tag in STREAM_TAGS}
        for replicate in range(spec.n_reps):
            theta = {
                "bernoulli": np.asarray(problem.theta0),
                "segmented_uniform": np.asarray(problem.theta0),
            }
            dists = {"bernoulli": BERNOULLI, "segmented_uniform": SEGMENTED_UNIFORM}
            tags = {
                "bernoulli": streams.BERNOULLI_STREAM,
                "segmented_uniform": streams.SEGMENTED_UNIFORM_STREAM,
            }
            schedules = {"bernoulli": spec.schedule_bern, "segmented_uniform": spec.schedule_su}
            for k in range(3):
                u_noise = streams.uniform_block(
                    opened[streams.NOISE_STREAM],
                    n_reps=spec.n_reps,
                    iteration=k,
                    start=replicate,
                    out=np.empty((1, 1)),
                )[0, 0]
                noise = noise_scale * standard_normal_from_uniform(u_noise)
                for name, dist in dists.items():
                    u_pert = streams.uniform_block(
                        opened[tags[name]],
                        n_reps=spec.n_reps,
                        iteration=k,
                        start=replicate,
                        out=np.empty((1, problem.p)),
                    )[0]
                    delta = dist.deltas_from_uniforms(u_pert)
                    schedule = schedules[name]
                    grad = sp_gradient(problem, theta[name], schedule.gain_c(k), delta, noise)
                    theta[name] = theta[name] - schedule.gain_a(k) * grad
            for name in dists:
                err = theta[name] - np.asarray(problem.theta_star)
                assert float((err * err).sum()) == harvested[(name, 3)][replicate]
                assert float((err * err).sum()) == rebuilt[(name, 3)][replicate]

    def test_pairing_reduces_variance(self, quadratic_spec):
        # the covariance of the two laws' squared errors is about 6.3e-6 with a
        # sampling SE of 1.2e-6 at 10^6 replicates; at 2*10^4 the SE is 8.6e-6
        # the three sample variances are n * SE^2
        spec = small_spec(quadratic_spec, n_reps=1_000_000)
        result = run_experiment(spec)
        var_b, var_s = (spec.n_reps * est.std_error**2 for est in result.estimates)
        (paired,) = result.comparisons
        assert spec.n_reps * paired.std_error**2 <= var_b + var_s

    def test_divergence_aborts_with_diagnostic(self, quartic_spec):
        wild = GainSchedule(a=1e305, c=1.0)
        spec = replace(
            quartic_spec, k_values=(20,), n_reps=64, schedule_su=wild, schedule_bern=wild
        )
        with pytest.raises(DivergedRunError) as info:
            run_experiment(spec)
        err = info.value
        assert 0 <= err.replicate < 64
        assert err.distribution in ("bernoulli", "segmented_uniform")
        assert err.iteration >= 0
        assert str(err.replicate) in str(err)
        assert err.distribution in str(err)

    def test_divergence_names_first_failing_replicate(self, quadratic_spec, monkeypatch):
        def scenario(spec):
            bern = diverging_rows(spec, BERNOULLI, streams.BERNOULLI_STREAM)
            su = diverging_rows(spec, SEGMENTED_UNIFORM, streams.SEGMENTED_UNIFORM_STREAM)
            return bern.size > 0 and bern[0] > 0 and su.size > 0 and su[0] >= bern[0]

        spec = smallest_seed(lambda seed: cliff_spec(quadratic_spec, master_seed=seed), scenario)
        first = int(diverging_rows(spec, BERNOULLI, streams.BERNOULLI_STREAM)[0])
        # the smallest diverging replicate is reported, and the Bernoulli law
        # steps first, so the seed is one where no segmented-uniform row before
        # `first` diverges
        assert first > 0
        assert diverging_rows(spec, SEGMENTED_UNIFORM, streams.SEGMENTED_UNIFORM_STREAM)[0] >= first
        assert diverging_report(spec, monkeypatch, (CHUNK_SIZE, first, 5, 1)) == {
            (first, "bernoulli", 0)
        }

    def test_divergence_report_ignores_chunking(self, quadratic_spec, monkeypatch):
        # replicate 1 diverges under the segmented uniform and replicate 5 under
        # the Bernoulli law, so a chunk holding both must still name 1
        def scenario(spec):
            su = diverging_rows(spec, SEGMENTED_UNIFORM, streams.SEGMENTED_UNIFORM_STREAM)
            bern = diverging_rows(spec, BERNOULLI, streams.BERNOULLI_STREAM)
            return su.size > 0 and su[0] == 1 and bern.size > 0 and bern[0] == 5

        spec = smallest_seed(lambda seed: cliff_spec(quadratic_spec, master_seed=seed), scenario)
        assert diverging_rows(spec, SEGMENTED_UNIFORM, streams.SEGMENTED_UNIFORM_STREAM)[0] == 1
        assert diverging_rows(spec, BERNOULLI, streams.BERNOULLI_STREAM)[0] == 5
        assert diverging_report(spec, monkeypatch, (CHUNK_SIZE, 5, 1)) == {
            (1, "segmented_uniform", 0)
        }

    def test_divergence_in_a_later_tile(self, quadratic_spec, monkeypatch):
        tile = TILE_WORDS[1] // 3  # rows per 14-word tile at p = 3

        def scenario(spec):
            bern = diverging_rows(spec, BERNOULLI, streams.BERNOULLI_STREAM)
            su = diverging_rows(spec, SEGMENTED_UNIFORM, streams.SEGMENTED_UNIFORM_STREAM)
            return (
                bern.size > 0
                and bern[0] > tile
                and bern[0] % tile > 0
                and (su.size == 0 or su[0] > bern[0])
            )

        spec = smallest_seed(
            lambda seed: sparse_cliff_spec(quadratic_spec, master_seed=seed), scenario
        )
        first = int(diverging_rows(spec, BERNOULLI, streams.BERNOULLI_STREAM)[0])
        su = diverging_rows(spec, SEGMENTED_UNIFORM, streams.SEGMENTED_UNIFORM_STREAM)
        # under 4-row tiles the Bernoulli law cuts a later tile after its first
        # row, and the segmented uniform steps the rows before the cut cleanly
        assert first > tile and first % tile > 0
        assert su.size == 0 or su[0] > first
        assert diverging_report(spec, monkeypatch, (CHUNK_SIZE, 5, 1)) == {
            (first, "bernoulli", 0)
        }

    def test_divergence_below_a_cut_in_the_same_tile(self, quadratic_spec, monkeypatch):
        tile = TILE_WORDS[1] // 3  # rows per 14-word tile at p = 3

        def scenario(spec):
            bern = diverging_rows(spec, BERNOULLI, streams.BERNOULLI_STREAM)
            su = diverging_rows(spec, SEGMENTED_UNIFORM, streams.SEGMENTED_UNIFORM_STREAM)
            return (
                bern.size > 0
                and su.size > 0
                and tile < su[0] < bern[0]
                and su[0] % tile > 0
                and su[0] // tile == bern[0] // tile
            )

        spec = smallest_seed(
            lambda seed: sparse_cliff_spec(quadratic_spec, master_seed=seed), scenario
        )
        bern = int(diverging_rows(spec, BERNOULLI, streams.BERNOULLI_STREAM)[0])
        su = int(diverging_rows(spec, SEGMENTED_UNIFORM, streams.SEGMENTED_UNIFORM_STREAM)[0])
        # under 4-row tiles both rows lie inside one later tile: the Bernoulli
        # law, stepping first, cuts it at `bern`, and the segmented uniform then
        # diverges at the smaller row `su` of what is left
        assert tile < su < bern and su % tile > 0 and su // tile == bern // tile
        assert diverging_report(spec, monkeypatch, (CHUNK_SIZE, 5, 1)) == {
            (su, "segmented_uniform", 0)
        }

    def test_divergence_in_an_earlier_tile_than_the_first_law(self, quadratic_spec, monkeypatch):
        tile = TILE_WORDS[1] // 3  # rows per 14-word tile at p = 3

        def scenario(spec):
            bern = diverging_rows(spec, BERNOULLI, streams.BERNOULLI_STREAM)
            su = diverging_rows(spec, SEGMENTED_UNIFORM, streams.SEGMENTED_UNIFORM_STREAM)
            return bern.size > 0 and su.size > 0 and 0 < su[0] and su[0] // tile < bern[0] // tile

        spec = smallest_seed(
            lambda seed: sparse_cliff_spec(quadratic_spec, master_seed=seed), scenario
        )
        bern = int(diverging_rows(spec, BERNOULLI, streams.BERNOULLI_STREAM)[0])
        su = int(diverging_rows(spec, SEGMENTED_UNIFORM, streams.SEGMENTED_UNIFORM_STREAM)[0])
        # under 4-row tiles the Bernoulli law steps all its tiles first and
        # cuts the block at `bern`; the segmented uniform then diverges at
        # `su`, in an earlier tile than the cut
        assert 0 < su and su // tile < bern // tile
        assert diverging_report(spec, monkeypatch, (CHUNK_SIZE, 5, 1)) == {
            (su, "segmented_uniform", 0)
        }

    def test_divergence_names_smaller_replicate_failing_later(self, frozen_cliff_spec, monkeypatch):
        spec = frozen_cliff_spec
        hits = cliff_hits(spec)
        # replicate 3 reaches the cliff at k = 0, replicate 2 first at k = 5,
        # and replicates 0 and 1 never do
        assert 3 in hits[(0, "bernoulli")]
        assert [key for key, rows in hits.items() if 2 in rows] == [(5, "segmented_uniform")]
        assert not any(rows & {0, 1} for rows in hits.values())
        assert diverging_report(spec, monkeypatch, (CHUNK_SIZE, 5, 1)) == {
            (2, "segmented_uniform", 5)
        }

    def test_rows_after_a_divergence_are_not_evaluated(self, frozen_cliff_spec, monkeypatch):
        # one worker: with more, the rows of a block after the failing one are
        # evaluated as well until that block sees the failure
        monkeypatch.setattr(experiments, "WORKERS", 1)
        # one-row segments, so that a chunk size of 100 makes 100-row blocks
        monkeypatch.setattr(experiments, "_SEGMENT_ROWS", 1)
        spec = frozen_cliff_spec
        cliff = spec.problem.loss.evaluator
        batch_rows = []

        def counting(theta):
            batch_rows.append(len(theta))
            return cliff(theta)

        loss = LossFunction(name="counting_cliff", evaluator=counting, dimension=2)
        # one block, then two of 100 rows: the second stops before its first step
        for chunk_size, first_block in ((CHUNK_SIZE, spec.n_reps), (100, 100)):
            monkeypatch.setattr(experiments, "CHUNK_SIZE", chunk_size)
            batch_rows.clear()
            with pytest.raises(DivergedRunError):
                run_experiment(replace(spec, problem=replace(spec.problem, loss=loss)))
            # two evaluations per law and iteration: all rows until replicate 3
            # diverges (k = 0, Bernoulli), rows 0-2 until replicate 2 does (k = 5,
            # segmented uniform), then rows 0-1 to k = 8
            assert batch_rows == [first_block] * 2 + [3] * (2 + 4 * 5) + [2] * (4 * 2)

    def test_error_in_one_block_stops_the_others(self, quadratic_spec, monkeypatch):
        monkeypatch.setattr(experiments, "WORKERS", 2)
        # one-row segments, so that the two blocks split the rows in half
        monkeypatch.setattr(experiments, "_SEGMENT_ROWS", 1)
        spec = small_spec(quadratic_spec, k_values=(1000,), n_reps=3001)
        quadratic = spec.problem.loss.evaluator
        first_block_calls = []
        first_block_started = threading.Event()

        def failing(theta):
            # the blocks hold 1500 and 1501 rows; the second fails once the first runs
            if len(theta) == 1501:
                first_block_started.wait(timeout=60)
                raise ValueError("loss failed")
            first_block_calls.append(len(theta))
            first_block_started.set()
            return quadratic(theta)

        loss = LossFunction(name="failing", evaluator=failing, dimension=2)
        threads = threading.active_count()
        with pytest.raises(ValueError, match="loss failed"):
            run_experiment(replace(spec, problem=replace(spec.problem, loss=loss)))
        assert threading.active_count() == threads
        assert 0 < len(first_block_calls) < 2 * spec.k_values[-1]

    def test_block_working_set_per_row(self, quadratic_spec, monkeypatch):
        # two blocks run at once, so a block may hold at most 18 float64 per
        # row for peak RSS to stay put (the single-threaded harness held 27).
        # At 2^18 rows one block holds 8 tiles, whose squared errors reduce
        # tile by tile: a block-sized buffer of them took 13.7 per row there.
        # The laws share one draw buffer of p words per row: one buffer per
        # stream took 15.6 and 10.7 per row
        monkeypatch.setattr(experiments, "WORKERS", 1)
        for n, bound in ((1 << 16, 13), (1 << 18, 9)):
            spec = small_spec(quadratic_spec, k_values=(1, 3), n_reps=n)
            peak, _ = traced_peak(run_experiment, spec)
            assert peak / (8 * n) <= bound, (n, peak / (8 * n))

    def test_memory_does_not_grow_with_the_number_of_k(self, quadratic_spec, monkeypatch):
        # the squared errors at each k reduce to moments per segment of
        # 256 rows, in buffers that every k reuses; one worker, as two
        # blocks overlap for a time that depends on k_max
        monkeypatch.setattr(experiments, "WORKERS", 1)
        n = 1 << 16
        one_k, _ = traced_peak(run_experiment, small_spec(quadratic_spec, n_reps=n))
        twenty_k, _ = traced_peak(
            run_experiment, small_spec(quadratic_spec, k_values=tuple(range(1, 21)), n_reps=n)
        )
        assert twenty_k - one_k <= 8 * n

    def test_blocks_switching_threads_often_match_one_worker(self, quadratic_spec, monkeypatch):
        # Each block opens its own streams. Were one set shared by the blocks,
        # a thread switch between one block's seek and its fill would hand it
        # the words of another block's address.
        monkeypatch.setattr(experiments, "_SEGMENT_ROWS", 64)
        spec = small_spec(quadratic_spec, k_values=(1, 40), n_reps=4096)
        monkeypatch.setattr(experiments, "WORKERS", 1)
        serial = run_experiment(spec)
        # 64 segments: four blocks of 16
        monkeypatch.setattr(experiments, "WORKERS", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [run_experiment(spec) for _ in range(5)]
        finally:
            sys.setswitchinterval(interval)
        for threaded in runs:
            assert threaded.estimates == serial.estimates
            assert threaded.comparisons == serial.comparisons
            assert render_csv(threaded) == render_csv(serial)

    @pytest.mark.parametrize("spec_name", ("quadratic_spec", "quartic_spec", "sum_of_squares_spec"))
    def test_split_invariant_with_small_segments(self, request, spec_name, monkeypatch):
        # 64-row segments, 47 of them, the last one 56 rows: 997-row chunks
        # make blocks of 11 or 12 segments, and 20- and 7-row chunks make 47
        # blocks of one segment each; 14-word tiles round up to one whole
        # segment, and at p = 3 the 21845-row default tiles round down to 341
        # segments
        monkeypatch.setattr(experiments, "_SEGMENT_ROWS", 64)
        spec = small_spec(request.getfixturevalue(spec_name), k_values=(1, 4), n_reps=3000)
        baseline = run_experiment(spec)
        text = render_csv(baseline)
        for tile_words, workers, chunk_size in (
            (TILE_WORDS[0], 1, CHUNK_SIZE),
            (TILE_WORDS[0], 2, CHUNK_SIZE),
            (TILE_WORDS[0], 3, 997),
            (TILE_WORDS[1], 2, 20),
            (TILE_WORDS[0], 3, 7),
        ):
            monkeypatch.setattr(experiments, "_TILE_WORDS", tile_words)
            monkeypatch.setattr(experiments, "WORKERS", workers)
            monkeypatch.setattr(experiments, "CHUNK_SIZE", chunk_size)
            blocked = run_experiment(spec)
            assert blocked.estimates == baseline.estimates
            assert blocked.comparisons == baseline.comparisons
            assert render_csv(blocked) == text

    def test_blocks_are_whole_segments(self, quadratic_spec, monkeypatch):
        calls = []
        uniform_block = streams.uniform_block

        def spy(*args, start, out, **kwargs):
            calls.append((start, start + len(out)))
            return uniform_block(*args, start=start, out=out, **kwargs)

        monkeypatch.setattr(streams, "uniform_block", spy)
        # 79 segments of 256 rows, the last one 32: two workers take 39 and 40
        monkeypatch.setattr(experiments, "WORKERS", 2)
        run_experiment(small_spec(quadratic_spec, n_reps=20_000))
        assert sorted(set(calls)) == [(0, 9984), (9984, 20_000)]
        segment = experiments._SEGMENT_ROWS
        for workers in WORKER_COUNTS:
            for chunk_size in (997, 7):
                monkeypatch.setattr(experiments, "WORKERS", workers)
                monkeypatch.setattr(experiments, "CHUNK_SIZE", chunk_size)
                calls.clear()
                run_experiment(small_spec(quadratic_spec, n_reps=3000))
                blocks = sorted(set(calls))
                assert blocks[0][0] == 0 and blocks[-1][1] == 3000
                assert all(start % segment == 0 for start, _ in blocks)
                assert all(stop == start for (_, stop), (start, _) in zip(blocks, blocks[1:]))

    def test_merged_moments_match_two_pass(self, quadratic_spec, monkeypatch):
        monkeypatch.setattr(experiments, "CHUNK_SIZE", 997)
        spec = small_spec(quadratic_spec, k_values=(1, 3), n_reps=20_001)
        result = run_experiment(spec)
        rebuilt = rebuilt_squared_errors(spec)
        root_n = math.sqrt(spec.n_reps)
        for est in result.estimates:
            errors = rebuilt[(est.distribution, est.k)]
            assert est.mse == pytest.approx(errors.mean(), rel=1e-12)
            assert est.std_error == pytest.approx(errors.std(ddof=1) / root_n, rel=1e-12)
        for cmp in result.comparisons:
            d = rebuilt[("bernoulli", cmp.k)] - rebuilt[("segmented_uniform", cmp.k)]
            assert cmp.mean_diff == pytest.approx(d.mean(), rel=1e-12)
            assert cmp.std_error == pytest.approx(d.std(ddof=1) / root_n, rel=1e-12)
            ref = paired_t_test(d)
            assert cmp.t_stat == pytest.approx(ref.t_stat, rel=1e-12)
            assert cmp.p_value == pytest.approx(ref.p_value, rel=1e-9)

    def test_reversal_at_long_horizon(self, table2_k1000_result):
        estimates = {e.distribution: e for e in table2_k1000_result.estimates}
        assert estimates["bernoulli"].mse < estimates["segmented_uniform"].mse

    def test_multi_step_mse_matches_exact_recursion(self, quadratic_spec):
        spec = small_spec(quadratic_spec, k_values=(1, 5, 10), n_reps=50_000)
        result = run_experiment(spec)
        expected = exact_mse_by_law(spec, 10)
        for est in result.estimates:
            assert abs(est.mse - expected[est.distribution][est.k]) <= 4.0 * est.std_error

    def test_standard_errors_are_calibrated(self, quadratic_spec):
        # z = (Monte Carlo - exact) / standard error over 300 seeds at three k: a
        # standard error off by some factor (from rows that share stream words, say)
        # scales the spread of z by that factor. The sds read 1.03 / 0.99 / 1.03 here
        # and 1.49 / 1.41 / 1.49 when rows 2j and 2j+1 read the same words. No KS
        # test: the three k share replicates, and a mean of 2048 skewed squared
        # errors is not quite normal
        spec = small_spec(quadratic_spec, k_values=(1, 5, 10), n_reps=2048)
        expected = exact_mse_by_law(spec, 10)
        z = {"bernoulli": [], "segmented_uniform": [], "paired": []}
        for seed in range(300):
            result = run_experiment(replace(spec, master_seed=seed))
            for est in result.estimates:
                exact = expected[est.distribution][est.k]
                z[est.distribution].append((est.mse - exact) / est.std_error)
            for cmp in result.comparisons:
                exact = expected["bernoulli"][cmp.k] - expected["segmented_uniform"][cmp.k]
                z["paired"].append((cmp.mean_diff - exact) / cmp.std_error)
        for series, values in z.items():
            assert len(values) == 900
            assert 0.85 <= np.std(values, ddof=1) <= 1.2, series
            assert abs(np.mean(values)) <= 0.2, series


class TestCompareWithTheory:
    def test_zero_gain_degenerate(self, quadratic_spec):
        frozen = GainSchedule(a=0.0, c=0.1)
        spec = small_spec(
            quadratic_spec, n_reps=100, schedule_su=frozen, schedule_bern=frozen
        )
        cmp = compare_with_theory(spec)
        assert cmp.mc_diff == 0.0 and cmp.theory_diff == 0.0 and cmp.consistent

    def test_reference_config_consistent(self, quadratic_spec):
        cmp = compare_with_theory(small_spec(quadratic_spec, n_reps=100_000))
        assert cmp.consistent
        assert cmp.theory_diff == pytest.approx(-0.0114, abs=1e-4)
        assert abs(cmp.mc_diff - cmp.theory_diff) <= 4.0 * cmp.paired_std_error

    def test_consistent_across_seeds(self, quadratic_spec):
        for seed in range(10):
            spec = small_spec(quadratic_spec, n_reps=100_000, master_seed=1_000 + seed)
            assert compare_with_theory(spec).consistent

    def test_noiseless_equal_gains(self, quadratic_spec):
        shared = GainSchedule(a=0.01897, c=0.1)
        problem = ProblemConfig(
            p=2,
            loss=get_loss("quadratic_4_1"),
            theta_star=(0.0, 0.0),
            sigma2=0.0,
            theta0=(0.3, 0.3),
        )
        spec = small_spec(
            quadratic_spec,
            n_reps=50_000,
            schedule_su=shared,
            schedule_bern=shared,
        )
        spec = replace(spec, problem=problem)
        cmp = compare_with_theory(spec)
        a0 = shared.gain_a(0)
        expected = (39.0 / 61.0) * a0**2 * 0.18
        assert cmp.theory_diff == pytest.approx(expected, rel=1e-12)
        assert cmp.consistent

    def test_requires_quadratic_and_single_k(self, quadratic_spec, quartic_spec):
        with pytest.raises(ValueError, match="quadratic"):
            compare_with_theory(replace(quartic_spec, k_values=(1,), n_reps=10))
        with pytest.raises(ValueError, match="k_values"):
            compare_with_theory(small_spec(quadratic_spec, k_values=(1, 2), n_reps=10))

    def test_theory_diff_matches_library_value(self, quadratic_spec):
        spec = small_spec(quadratic_spec, n_reps=100)
        cmp = compare_with_theory(spec)
        inp, _ = condition_input_from_problem(
            spec.problem, spec.schedule_su, spec.schedule_bern
        )
        assert cmp.theory_diff == condition_lhs_explicit(inp)


class TestCsvOutput:
    def test_structure_and_determinism(self, quadratic_spec, tmp_path):
        spec = small_spec(quadratic_spec, k_values=(1, 2, 5), n_reps=400)
        result = run_experiment(spec)
        text = render_csv(result)
        lines = text.strip().split("\n")
        comments = [line for line in lines if line.startswith("#")]
        data = [line for line in lines if not line.startswith("#")]
        assert data[0] == "k,distribution,mse,std_error,n_reps,mean_diff,t_stat,p_value"
        assert len(data) - 1 == 3 * len(spec.k_values)
        assert any("master_seed = " in c for c in comments)
        assert any("pairing = " in c for c in comments)
        assert any("theory_lhs_explicit" in c for c in comments)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(result, first)
        write_csv(run_experiment(spec), second)
        assert first.read_bytes() == second.read_bytes()

    def test_rows_parse_back(self, quadratic_spec):
        spec = small_spec(quadratic_spec, k_values=(1, 2, 5), n_reps=300)
        result = run_experiment(spec)
        data = [
            line.split(",")
            for line in render_csv(result).strip().split("\n")
            if not line.startswith("#")
        ][1:]
        estimates = {(est.k, est.distribution): est for est in result.estimates}
        comparisons = {cmp.k: cmp for cmp in result.comparisons}
        assert len(data) == 3 * len(spec.k_values)
        for i, k in enumerate(spec.k_values):
            bern, su, paired = data[3 * i : 3 * i + 3]
            assert [row[:2] for row in (bern, su, paired)] == [
                [str(k), "bernoulli"],
                [str(k), "segmented_uniform"],
                [str(k), "paired"],
            ]
            for row in (bern, su):
                est = estimates[(k, row[1])]
                assert float(row[2]) == est.mse
                assert float(row[3]) == est.std_error
                assert int(row[4]) == est.n_reps
                assert row[5:] == ["", "", ""]
            cmp = comparisons[k]
            assert paired[2:4] == ["", ""]
            assert int(paired[4]) == cmp.n_pairs
            assert float(paired[5]) == cmp.mean_diff
            assert float(paired[6]) == cmp.t_stat
            assert float(paired[7]) == cmp.p_value
