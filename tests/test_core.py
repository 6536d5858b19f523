import itertools
import math
import warnings

import numpy as np
import pytest

from spsa_dist import core
from spsa_dist.core import (
    GainSchedule,
    LossFunction,
    ProblemConfig,
    finite_difference_gradient,
    get_loss,
    register_loss,
    registered_losses,
    sp_gradient,
    spsa_run,
    spsa_step,
)
from spsa_dist.perturbations import BERNOULLI, SEGMENTED_UNIFORM


def quadratic_problem(sigma2=0.0, theta0=(0.3, 0.3)):
    return ProblemConfig(
        p=2, loss=get_loss("quadratic_4_1"), theta_star=(0.0, 0.0), sigma2=sigma2, theta0=theta0
    )


def quartic_problem(sigma2=0.0, theta0=(1.0, 1.0)):
    return ProblemConfig(
        p=2, loss=get_loss("quartic_4_2"), theta_star=(0.0, 0.0), sigma2=sigma2, theta0=theta0
    )


class FixedDelta:
    """Deterministic stand-in law for forced-perturbation tests.

    It has only ``sample_array``, the one method ``spsa_run`` calls.
    """

    def __init__(self, *vectors):
        self.vectors = [np.asarray(v, dtype=float) for v in vectors]
        self.calls = 0

    def sample_array(self, rng, shape):
        delta = self.vectors[self.calls % len(self.vectors)]
        self.calls += 1
        return delta.copy()


class TestGains:
    def test_gain_a_reference_values(self):
        sched = GainSchedule(a=0.00167, c=0.1)
        assert sched.gain_a(0) == 0.00167 / 2.0**0.602
        assert round(sched.gain_a(0), 4) == 0.0011
        sched_b = GainSchedule(a=0.01897, c=0.1)
        assert sched_b.gain_a(0) == 0.01897 / 2.0**0.602
        assert round(sched_b.gain_a(0), 4) == 0.0125

    def test_gain_a_zero(self):
        assert GainSchedule(a=0.0, c=1.0).gain_a(123) == 0.0

    def test_gain_c_reference_values(self):
        assert GainSchedule(a=1.0, c=0.1).gain_c(0) == 0.1
        assert GainSchedule(a=1.0, c=1.0).gain_c(0) == 1.0
        assert GainSchedule(a=1.0, c=0.1).gain_c(1) == pytest.approx(0.09324, abs=5e-6)

    def test_gains_strictly_decreasing(self):
        sched = GainSchedule(a=0.5, c=0.5)
        a_values = [sched.gain_a(k) for k in range(10_001)]
        c_values = [sched.gain_c(k) for k in range(10_001)]
        assert all(x > y > 0 for x, y in zip(a_values, a_values[1:]))
        assert all(x > y > 0 for x, y in zip(c_values, c_values[1:]))

    def test_gain_validation(self):
        with pytest.raises(ValueError):
            GainSchedule(a=-0.1, c=1.0)
        with pytest.raises(ValueError):
            GainSchedule(a=0.1, c=0.0)
        for a, c in ((math.inf, 1.0), (math.nan, 1.0), (0.1, math.inf), (0.1, math.nan)):
            with pytest.raises(ValueError, match="finite"):
                GainSchedule(a=a, c=c)


class TestLossRegistry:
    def test_builtins_registered(self):
        names = registered_losses()
        assert "quadratic_4_1" in names and "quartic_4_2" in names
        assert get_loss("quadratic_4_1").is_quadratic
        assert not get_loss("quartic_4_2").is_quadratic

    def test_unknown_loss(self):
        with pytest.raises(ValueError, match="unknown loss"):
            get_loss("nope")

    def test_duplicate_rejected(self):
        loss = LossFunction(name="tmp_dup", evaluator=lambda t: 0.0)
        register_loss(loss)
        try:
            with pytest.raises(ValueError, match="already registered"):
                register_loss(loss)
        finally:
            del core._LOSSES["tmp_dup"]

    def test_quartic_exact_at_integer_points(self):
        evaluator = get_loss("quartic_4_2").evaluator
        points = np.array([[1.0, 1.0], [2.0, -1.0], [-3.0, 2.0]])
        assert evaluator(points).tolist() == [4.0, 19.0, 88.0]

    def test_quartic_matches_power_form(self):
        theta = np.random.default_rng(5).uniform(-3.0, 3.0, size=(10_000, 2))
        t1, t2 = theta[:, 0], theta[:, 1]
        reference = t1**4 + t1 * t1 + t1 * t2 + t2 * t2
        np.testing.assert_allclose(
            get_loss("quartic_4_2").evaluator(theta), reference, rtol=1e-15, atol=0.0
        )


class TestProblemConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            quadratic_problem(sigma2=-1.0)
        with pytest.raises(ValueError):
            ProblemConfig(
                p=3,
                loss=get_loss("quadratic_4_1"),
                theta_star=(0, 0, 0),
                sigma2=0.0,
                theta0=(0, 0, 0),
            )
        with pytest.raises(ValueError):
            ProblemConfig(
                p=2, loss=get_loss("quadratic_4_1"), theta_star=(0,), sigma2=0.0, theta0=(0, 0)
            )
        with pytest.raises(ValueError, match="stationary"):
            ProblemConfig(
                p=2, loss=get_loss("quadratic_4_1"), theta_star=(1.0, 0.0), sigma2=0.0, theta0=(0, 0)
            )
        for sigma2 in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                quadratic_problem(sigma2=sigma2)
        with pytest.raises(ValueError, match="finite"):
            quadratic_problem(theta0=(math.nan, 0.3))
        with pytest.raises(ValueError, match="finite"):
            ProblemConfig(
                p=2, loss=get_loss("quadratic_4_1"), theta_star=(0.0, math.inf), sigma2=0.0,
                theta0=(0, 0),
            )


class TestStandardNormalFromUniform:
    def test_noise_statistics(self):
        u = np.random.default_rng(2).random(20_000)
        draws = 2.0 * core.standard_normal_from_uniform(u)
        assert abs(draws.mean()) < 0.06
        assert draws.std() == pytest.approx(2.0, rel=0.05)

    def test_zero_draw_is_finite(self):
        # Generator.random() can return exactly 0.0, where the inverse CDF is -inf
        value = core.standard_normal_from_uniform(0.0)
        assert np.isfinite(value) and value < -8.0


class TestSpGradient:
    def test_parallel_perturbation(self):
        grad = sp_gradient(quadratic_problem(), (0.3, 0.3), 0.1, (1.0, 1.0), 0.0)
        assert grad == pytest.approx([0.6, 0.6], abs=1e-12)

    def test_antiparallel_perturbation(self):
        grad = sp_gradient(quadratic_problem(), (0.3, 0.3), 0.1, (1.0, -1.0), 0.0)
        assert grad == pytest.approx([0.0, 0.0], abs=1e-12)

    def test_stationary_point_symmetric(self):
        grad = sp_gradient(quadratic_problem(), (0.0, 0.0), 0.1, (1.0, 1.0), 0.0)
        assert grad[0] == 0.0 and grad[1] == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="nonzero"):
            sp_gradient(quadratic_problem(), (0.3, 0.3), 0.1, (1.0, 0.0), 0.0)
        with pytest.raises(ValueError, match="nonzero"):
            sp_gradient(quadratic_problem(), ((0.3, 0.3),) * 2, 0.1, ((1.0, 1.0), (-0.0, 1.0)), 0.0)
        with pytest.raises(ValueError, match="positive"):
            sp_gradient(quadratic_problem(), (0.3, 0.3), 0.0, (1.0, 1.0), 0.0)
        with pytest.raises(ValueError, match="shape"):
            sp_gradient(quadratic_problem(), ((0.3, 0.3),) * 3, 0.1, (1.0, 1.0), 0.0)

    @pytest.mark.parametrize("dist", (BERNOULLI, SEGMENTED_UNIFORM), ids=lambda d: d.name)
    def test_batched_rows_match_single_calls(self, dist):
        problem = quartic_problem(sigma2=1.0)
        rng = np.random.default_rng(23)
        rows = 64
        theta = rng.uniform(-2.0, 2.0, size=(rows, 2))
        delta = dist.sample_array(rng, (rows, 2))
        eps = rng.normal(size=(rows, 2))
        noise = eps[:, 0] - eps[:, 1]
        batched = sp_gradient(problem, theta, 0.3, delta, noise)
        assert batched.shape == (rows, 2)
        for r in range(rows):
            single = sp_gradient(problem, theta[r], 0.3, delta[r], noise[r])
            assert np.array_equal(batched[r], single)

    def test_evaluator_returning_a_view_of_its_input(self):
        # L(theta) = theta_1 read as a view: evaluating the second point must
        # not overwrite the point the first result still looks at
        def first_coordinate(evaluator):
            loss = LossFunction(name="tmp_first", evaluator=evaluator, dimension=2)
            return ProblemConfig(p=2, loss=loss, theta_star=(0, 0), sigma2=0.0, theta0=(0, 0))

        viewing = first_coordinate(lambda theta: theta[..., 0])
        copying = first_coordinate(lambda theta: theta[..., 0].copy())
        rng = np.random.default_rng(5)
        theta = rng.uniform(-1.0, 1.0, size=(8, 2))
        delta = SEGMENTED_UNIFORM.sample_array(rng, (8, 2))
        for rows, deltas, noise in ((theta, delta, np.zeros(8)), (theta[3], delta[3], 0.0)):
            got = sp_gradient(viewing, rows, 0.1, deltas, noise)
            assert got.tobytes() == sp_gradient(copying, rows, 0.1, deltas, noise).tobytes()
            assert got == pytest.approx(deltas[..., :1] / deltas, rel=1e-9)


class TestSpsaStep:
    @pytest.mark.parametrize("dist", (BERNOULLI, SEGMENTED_UNIFORM), ids=lambda d: d.name)
    def test_block_step_matches_single_rows_and_out_of_place_update(self, dist):
        problem = quartic_problem(sigma2=1.0)
        schedule = GainSchedule(a=0.05, c=0.2)
        rng = np.random.default_rng(31)
        rows, k = 64, 3
        theta0 = rng.uniform(-2.0, 2.0, size=(rows, 2))
        delta = dist.sample_array(rng, (rows, 2))
        eps = rng.normal(size=(rows, 2))
        noise = eps[:, 0] - eps[:, 1]
        assert (noise != 0.0).all()
        theta = theta0.copy()
        assert spsa_step(problem, schedule, k, theta, delta, noise) is True
        grad = sp_gradient(problem, theta0, schedule.gain_c(k), delta, noise)
        assert theta.tobytes() == (theta0 - schedule.gain_a(k) * grad).tobytes()
        for r in range(rows):
            row = theta0[r].copy()
            assert spsa_step(problem, schedule, k, row, delta[r], noise[r])
            assert row.tobytes() == theta[r].tobytes()

    def test_false_exactly_when_a_row_leaves_the_finite_range(self):
        # infinite past t1 = 1: at c_0 = 0.5 and delta = (1, 1), a row at
        # t1 = 0.6 gets an inf step and a row at t1 = 2 an inf - inf = nan step
        def capped(theta):
            t1, t2 = theta[..., 0], theta[..., 1]
            return np.where(t1 > 1.0, np.inf, t1 * t1 + t2 * t2)

        loss = LossFunction(name="tmp_capped", evaluator=capped, dimension=2)
        problem = ProblemConfig(p=2, loss=loss, theta_star=(0, 0), sigma2=0.0, theta0=(0, 0))
        schedule = GainSchedule(a=0.1, c=0.5)
        starts = np.array([[0.0, 0.0], [0.4, -0.3], [0.6, 0.0], [2.0, 0.0]])
        for rows, finite in (([0, 1], True), ([0, 2], False), ([3], False), ([1, 2, 3], False)):
            theta = starts[rows]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                noise = np.zeros(len(rows))
                result = spsa_step(problem, schedule, 0, theta, np.ones_like(theta), noise)
            assert result is finite
            assert np.isfinite(theta).all() == finite
            assert np.isfinite(theta[np.array(rows) < 2]).all()


class TestSpsaRun:
    def test_forced_delta_one_step(self):
        # step gain tuned so the first step size is exactly 0.01252
        schedule = GainSchedule(a=0.01252 * 2.0**0.602, c=0.1)
        run = spsa_run(
            quadratic_problem(), schedule, FixedDelta((1.0, 1.0)), 1, np.random.default_rng(0)
        )
        assert run.trajectory[1] == pytest.approx([0.292488, 0.292488], abs=1e-9)
        assert not run.diverged

    def test_zero_step_size_freezes(self):
        run = spsa_run(
            quadratic_problem(sigma2=1.0),
            GainSchedule(a=0.0, c=0.1),
            BERNOULLI,
            20,
            np.random.default_rng(3),
        )
        assert np.array_equal(run.trajectory, np.full((21, 2), 0.3))

    def test_mean_step_over_all_bernoulli_outcomes(self):
        # exhaustive average over the four sign patterns: the estimate is
        # exactly conditionally unbiased for a quadratic loss
        schedule = GainSchedule(a=0.01897, c=0.1)
        a0 = schedule.gain_a(0)
        steps = []
        for signs in itertools.product((-1.0, 1.0), repeat=2):
            run = spsa_run(
                quadratic_problem(), schedule, FixedDelta(signs), 1, np.random.default_rng(0)
            )
            steps.append(run.trajectory[1] - run.trajectory[0])
        mean_step = np.mean(steps, axis=0)
        assert mean_step == pytest.approx(-a0 * np.array([0.3, 0.3]), abs=1e-12)

    @pytest.mark.parametrize("dist", (BERNOULLI, SEGMENTED_UNIFORM), ids=lambda d: d.name)
    def test_determinism(self, dist):
        problem = quadratic_problem(sigma2=1.0)
        schedule = GainSchedule(a=0.01897, c=0.1)
        run1 = spsa_run(problem, schedule, dist, 50, np.random.default_rng(42))
        run2 = spsa_run(problem, schedule, dist, 50, np.random.default_rng(42))
        assert np.array_equal(run1.trajectory, run2.trajectory)

    def test_two_loss_evaluations_per_iteration(self):
        calls = 0

        def counting_eval(theta):
            nonlocal calls
            calls += 1
            return _quad(theta)

        def _quad(theta):
            theta = np.asarray(theta, dtype=float)
            return theta[..., 0] ** 2 + theta[..., 1] ** 2

        loss = LossFunction(name="tmp_counting", evaluator=counting_eval, dimension=2)
        problem = ProblemConfig(p=2, loss=loss, theta_star=(0, 0), sigma2=1.0, theta0=(1, 1))
        run = spsa_run(problem, GainSchedule(a=0.1, c=0.2), BERNOULLI, 7, np.random.default_rng(5))
        assert calls == 14
        assert run.n_loss_evals == 14

    def test_single_stream_reconstruction(self):
        # per iteration: one uniform for each of the p components, then the
        # one uniform behind the N(0, 2 sigma2) noise difference, all from the
        # one generator
        problem = quadratic_problem(sigma2=1.0)
        schedule = GainSchedule(a=0.01897, c=0.1)
        run = spsa_run(problem, schedule, SEGMENTED_UNIFORM, 5, np.random.default_rng(7))
        rng = np.random.default_rng(7)
        theta = np.array([0.3, 0.3])
        for k in range(5):
            u = rng.random(3)
            delta = SEGMENTED_UNIFORM.deltas_from_uniforms(u[:2])
            noise = math.sqrt(2.0) * float(core.standard_normal_from_uniform(u[2]))
            grad = sp_gradient(problem, theta, schedule.gain_c(k), delta, noise)
            theta = theta - schedule.gain_a(k) * grad
            assert np.array_equal(theta, run.trajectory[k + 1])

    def test_divergence_flagged_not_raised(self):
        # a step gain this large sends the next evaluation to inf, so the
        # following difference is inf - inf = nan
        run = spsa_run(
            quartic_problem(),
            GainSchedule(a=1e305, c=1.0),
            BERNOULLI,
            10,
            np.random.default_rng(9),
        )
        assert run.diverged
        assert run.diverged_at == 1
        assert run.n_loss_evals == 4  # two per iteration taken, the failing one included
        assert np.isfinite(run.trajectory[:2]).all()
        assert np.isnan(run.trajectory[2:]).all()


@pytest.mark.parametrize("dist", (BERNOULLI, SEGMENTED_UNIFORM), ids=lambda d: d.name)
def test_gradient_estimate_unbiased_quadratic(dist):
    n = 1_000_000
    theta = np.array([0.3, 0.3])
    c0 = 0.1
    rng = np.random.default_rng(21)
    delta = dist.sample_array(rng, (n, 2))
    evaluator = get_loss("quadratic_4_1").evaluator
    ghat = ((evaluator(theta + c0 * delta) - evaluator(theta - c0 * delta))[:, None]) / (
        2.0 * c0 * delta
    )
    target = get_loss("quadratic_4_1").gradient(theta)
    for i in range(2):
        se = ghat[:, i].std(ddof=1) / math.sqrt(n)
        assert abs(ghat[:, i].mean() - target[i]) <= 4.0 * se


@pytest.mark.parametrize("name", ("quadratic_4_1", "quartic_4_2"))
def test_builtin_gradients_match_finite_differences(name):
    loss = get_loss(name)
    rng = np.random.default_rng(22)
    for _ in range(100):
        theta = rng.uniform(-2.0, 2.0, size=2)
        fd = finite_difference_gradient(loss.evaluator, theta, step=1e-5)
        assert np.max(np.abs(loss.gradient(theta) - fd)) <= 1e-6
