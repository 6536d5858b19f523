import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from spsa_dist import streams
from spsa_dist.core import (
    GainSchedule,
    LossFunction,
    ProblemConfig,
    get_loss,
    sp_gradient,
    standard_normal_from_uniform,
)
from spsa_dist.experiments import (
    DEFAULT_CHUNK_SIZE,
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


def small_spec(quadratic_spec, *, k_values=(1,), n_reps=2000, **overrides):
    return replace(quadratic_spec, k_values=k_values, n_reps=n_reps, **overrides)


def cliff_spec(quadratic_spec, *, master_seed):
    """One step from (1, 1) with c_0 = 1 on a loss that is infinite where both
    coordinates exceed 1.5, so a row diverges iff both components of its
    perturbation exceed 0.5 in magnitude with the same sign.
    """

    def cliff(theta):
        t1, t2 = theta[..., 0], theta[..., 1]
        return np.where((t1 > 1.5) & (t2 > 1.5), np.inf, t1 * t1 - t1 * t2 + t2 * t2)

    problem = ProblemConfig(
        p=2,
        loss=LossFunction(name="cliff", evaluator=cliff, dimension=2),
        theta_star=(0.0, 0.0),
        sigma2=1.0,
        theta0=(1.0, 1.0),
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


def diverging_rows(spec, dist, stream_tag):
    """Replicates whose first step under ``dist`` hits the cliff of :func:`cliff_spec`."""
    draws = dist.uniform_draws_per_component
    u = streams.uniform_block(
        spec.master_seed,
        stream_tag,
        n_reps=spec.n_reps,
        words_per_rep=2 * draws,
        iteration=0,
        start=0,
        stop=spec.n_reps,
    ).reshape(spec.n_reps, 2, draws)
    delta = dist.deltas_from_uniforms(u)
    return np.flatnonzero((delta > 0.5).all(axis=1) | (delta < -0.5).all(axis=1))


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

    @pytest.mark.parametrize("spec_name", ("quadratic_spec", "quartic_spec"))
    def test_reproducible_and_chunk_invariant(self, request, spec_name):
        spec = small_spec(request.getfixturevalue(spec_name), k_values=(1, 4), n_reps=3000)
        baseline = run_experiment(spec)
        rerun = run_experiment(spec)
        chunked = run_experiment(spec, chunk_size=997)
        tiny_chunks = run_experiment(spec, chunk_size=100)
        for key, values in baseline.squared_errors.items():
            assert np.array_equal(values, rerun.squared_errors[key])
            assert np.array_equal(values, chunked.squared_errors[key])
            assert np.array_equal(values, tiny_chunks.squared_errors[key])
        assert render_csv(baseline) == render_csv(chunked)

    def test_k_subset_harvests_same_errors(self, quadratic_spec):
        spec_all = small_spec(quadratic_spec, k_values=(1, 3), n_reps=500)
        spec_k1 = small_spec(quadratic_spec, k_values=(1,), n_reps=500)
        all_result = run_experiment(spec_all)
        k1_result = run_experiment(spec_k1)
        for name in ("bernoulli", "segmented_uniform"):
            assert np.array_equal(
                all_result.squared_errors[(name, 1)], k1_result.squared_errors[(name, 1)]
            )

    @pytest.mark.parametrize("spec_name", ("quadratic_spec", "quartic_spec"))
    def test_replicates_match_scalar_reconstruction(self, request, spec_name):
        spec = small_spec(request.getfixturevalue(spec_name), k_values=(3,), n_reps=5)
        result = run_experiment(spec)
        problem = spec.problem
        sigma = math.sqrt(problem.sigma2)
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
            for k in range(3):
                u_noise = streams.uniform_block(
                    spec.master_seed,
                    streams.NOISE_STREAM,
                    n_reps=spec.n_reps,
                    words_per_rep=2,
                    iteration=k,
                    start=replicate,
                    stop=replicate + 1,
                )[0]
                eps = sigma * standard_normal_from_uniform(u_noise)
                for name, dist in dists.items():
                    draws = dist.uniform_draws_per_component
                    u_pert = streams.uniform_block(
                        spec.master_seed,
                        tags[name],
                        n_reps=spec.n_reps,
                        words_per_rep=problem.p * draws,
                        iteration=k,
                        start=replicate,
                        stop=replicate + 1,
                    )[0].reshape(problem.p, draws)
                    delta = dist.deltas_from_uniforms(u_pert)
                    schedule = spec.schedule_for(name)
                    grad = sp_gradient(
                        problem, theta[name], schedule.gain_c(k), delta, eps[0], eps[1]
                    )
                    theta[name] = theta[name] - schedule.gain_a(k) * grad
            for name in dists:
                err = theta[name] - np.asarray(problem.theta_star)
                assert float((err * err).sum()) == result.squared_errors[(name, 3)][replicate]

    def test_pairing_reduces_variance(self, quadratic_spec):
        spec = small_spec(quadratic_spec, n_reps=20_000)
        result = run_experiment(spec)
        se_b = result.squared_errors[("bernoulli", 1)]
        se_s = result.squared_errors[("segmented_uniform", 1)]
        paired_var = np.var(se_b - se_s, ddof=1)
        assert paired_var <= np.var(se_b, ddof=1) + np.var(se_s, ddof=1)

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

    def test_divergence_names_first_failing_replicate(self, quadratic_spec):
        spec = cliff_spec(quadratic_spec, master_seed=1)
        first = int(diverging_rows(spec, BERNOULLI, streams.BERNOULLI_STREAM)[0])
        # the smallest diverging replicate is reported, and the Bernoulli law
        # steps first, so the seed is one where no segmented-uniform row before
        # `first` diverges
        assert first > 0
        assert diverging_rows(spec, SEGMENTED_UNIFORM, streams.SEGMENTED_UNIFORM_STREAM)[0] >= first
        for chunk_size in (DEFAULT_CHUNK_SIZE, first, 5, 1):
            with pytest.raises(DivergedRunError) as info:
                run_experiment(spec, chunk_size=chunk_size)
            err = info.value
            assert (err.replicate, err.distribution, err.iteration) == (first, "bernoulli", 0)

    def test_divergence_report_ignores_chunking(self, quadratic_spec):
        # replicate 1 diverges under the segmented uniform and replicate 5 under
        # the Bernoulli law, so a chunk holding both must still name 1
        spec = cliff_spec(quadratic_spec, master_seed=6)
        assert diverging_rows(spec, SEGMENTED_UNIFORM, streams.SEGMENTED_UNIFORM_STREAM)[0] == 1
        assert diverging_rows(spec, BERNOULLI, streams.BERNOULLI_STREAM)[0] == 5
        for chunk_size in (DEFAULT_CHUNK_SIZE, 5, 1):
            with pytest.raises(DivergedRunError) as info:
                run_experiment(spec, chunk_size=chunk_size)
            err = info.value
            assert (err.replicate, err.distribution, err.iteration) == (1, "segmented_uniform", 0)

    def test_reversal_at_long_horizon(self, table2_k1000_result):
        estimates = {e.distribution: e for e in table2_k1000_result.estimates}
        assert estimates["bernoulli"].mse < estimates["segmented_uniform"].mse

    def test_multi_step_mse_matches_exact_recursion(self, quadratic_spec):
        # independent oracle: for a quadratic loss the second moment
        # M_k = E[theta_k theta_k^T] obeys an exact linear recursion, so the
        # expected MSE at every k is computable without simulation
        hessian = np.array([[2.0, -1.0], [-1.0, 2.0]])

        def exact_mse(schedule, moments, k_max, sigma2, theta0):
            second_moment = np.outer(theta0, theta0)
            trace_by_k = {}
            for k in range(k_max):
                a_k = schedule.gain_a(k)
                c_k = schedule.gain_c(k)
                gram = hessian @ second_moment @ hessian
                cross = gram.copy()
                np.fill_diagonal(
                    cross, moments.ratio_second * (np.trace(gram) - np.diag(gram))
                )
                contraction = np.eye(2) - a_k * hessian
                second_moment = (
                    contraction @ second_moment @ contraction
                    + a_k**2 * cross
                    + a_k**2 * sigma2 * moments.inv_second / (2.0 * c_k**2) * np.eye(2)
                )
                trace_by_k[k + 1] = float(np.trace(second_moment))
            return trace_by_k

        spec = small_spec(quadratic_spec, k_values=(1, 5, 10), n_reps=50_000)
        result = run_experiment(spec)
        theta0 = np.asarray(spec.problem.theta0)
        expected = {
            "bernoulli": exact_mse(
                spec.schedule_bern, BERNOULLI.moments(), 10, spec.problem.sigma2, theta0
            ),
            "segmented_uniform": exact_mse(
                spec.schedule_su, SEGMENTED_UNIFORM.moments(), 10, spec.problem.sigma2, theta0
            ),
        }
        for est in result.estimates:
            assert abs(est.mse - expected[est.distribution][est.k]) <= 4.0 * est.std_error


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
        spec = small_spec(quadratic_spec, k_values=(1,), n_reps=300)
        result = run_experiment(spec)
        data = [
            line
            for line in render_csv(result).strip().split("\n")
            if not line.startswith("#")
        ][1:]
        bern_row = data[0].split(",")
        assert bern_row[0] == "1" and bern_row[1] == "bernoulli"
        assert float(bern_row[2]) == result.estimates[0].mse
        paired_row = data[2].split(",")
        assert paired_row[1] == "paired"
        assert float(paired_row[5]) == result.comparisons[0].mean_diff
