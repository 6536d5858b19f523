import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from spsa_dist import core
from spsa_dist.config import bundled_config_text, parse_config
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


# the bundled losses written out in Python floats, operation for operation as
# their registered evaluators compute them
PLAIN_LOSSES = {
    "quadratic_4_1": lambda t1, t2: t1 * t1 - t1 * t2 + t2 * t2,
    "quartic_4_2": lambda t1, t2: (t1 * t1) * (t1 * t1) + t1 * t1 + t1 * t2 + t2 * t2,
}


def numpy_p3_problem():
    """A user loss at p = 3 written with numpy ops; one point gives a 0-d array."""

    def weighted_sphere(theta):
        theta = np.asarray(theta, dtype=float)
        return np.asarray(np.sum((theta - 0.5) ** 2 * np.array([1.0, 2.0, 3.0]), axis=-1))

    loss = LossFunction(name="tmp_weighted_sphere", evaluator=weighted_sphere, dimension=3)
    return ProblemConfig(p=3, loss=loss, theta_star=(0.5,) * 3, sigma2=1.0, theta0=(1, -1, 0.3))


class FixedDelta:
    """Deterministic stand-in law for forced-perturbation tests.

    It has only ``deltas_from_uniforms``, the one method ``spsa_run`` calls:
    row k of its result is the k-th of its vectors, taken in turn.
    """

    def __init__(self, *vectors):
        self.vectors = [np.asarray(v, dtype=float) for v in vectors]

    def deltas_from_uniforms(self, u):
        return np.array([self.vectors[k % len(self.vectors)] for k in range(len(u))])


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
        # the losses TestBundledEvaluators checks against their formulas
        assert {n for n in names if get_loss(n).formula} == {"quadratic_4_1", "quartic_4_2"}

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


@pytest.mark.parametrize("name", ("quadratic_4_1", "quartic_4_2"))
class TestBundledEvaluators:
    def test_one_point_gives_a_float64_scalar_equal_to_its_batch_row(self, name):
        evaluator = get_loss(name).evaluator
        batch = np.random.default_rng(31).uniform(-3.0, 3.0, size=(64, 2))
        # rows that overflow or carry nan and inf
        special = [(1e200, 1e200), (math.nan, 0.3), (math.inf, -math.inf)]
        batch = np.concatenate([batch, special])
        with np.errstate(all="ignore"):
            values = evaluator(batch)
            for row, value in zip(batch, values):
                for point in (row, row.tolist()):
                    result = evaluator(point)
                    assert type(result) is np.float64
                    assert result.tobytes() == value.tobytes()
                assert value.tobytes() == np.float64(PLAIN_LOSSES[name](*row.tolist())).tobytes()

    def test_batches_and_strided_views_match_row_by_row(self, name):
        # the evaluator, on one point or on a batch, gives the bits of the
        # loss's formula on that point's Python floats
        loss = get_loss(name)
        rng = np.random.default_rng(32)
        wide = rng.uniform(-3.0, 3.0, size=(40, 5))
        columns = wide[:, 1:4:2]  # columns 1 and 3: a view that is not contiguous
        assert not columns.flags.c_contiguous and np.shares_memory(columns, wide)
        batches = (rng.uniform(-3.0, 3.0, size=(40, 2)), rng.uniform(-3.0, 3.0, size=(2, 40, 2)))
        for points in (*batches, columns):
            result = loss.evaluator(points)
            rows = [loss.evaluator(row) for row in points.reshape(-1, 2)]
            formulas = [loss.formula(*row) for row in points.reshape(-1, 2).tolist()]
            assert all(type(value) is np.float64 for value in rows)
            assert all(type(value) is float for value in formulas)
            assert result.shape == points.shape[:-1]
            assert result.tobytes() == np.array(rows).tobytes() == np.array(formulas).tobytes()

    def test_refuses_a_point_of_the_wrong_width(self, name):
        evaluator = get_loss(name).evaluator
        for points in (np.ones((3, 3)), np.ones((2, 4, 1)), np.ones(3), [1.0], 1.0):
            with pytest.raises(ValueError) as info:
                evaluator(points)
            shape = np.shape(points)
            assert str(info.value) == f'loss "{name}" takes points of width 2, not shape {shape}'

    def test_finite_differences_and_stationarity_check_unchanged(self, name):
        loss, plain, h = get_loss(name), PLAIN_LOSSES[name], 1e-5
        fd = finite_difference_gradient(loss.evaluator, np.array([0.3, -0.7]), step=h)
        expected = [
            (plain(0.3 + h, -0.7) - plain(0.3 - h, -0.7)) / (2.0 * h),
            (plain(0.3, -0.7 + h) - plain(0.3, -0.7 - h)) / (2.0 * h),
        ]
        assert fd.dtype == np.float64 and fd.tobytes() == np.array(expected).tobytes()
        ProblemConfig(p=2, loss=loss, theta_star=(0.0, 0.0), sigma2=0.0, theta0=(0.3, -0.7))
        # the gradient at (1, 0) is (2, -1) for the quadratic and (6, 1) for the quartic
        norm = {"quadratic_4_1": math.sqrt(5.0), "quartic_4_2": math.sqrt(37.0)}[name]
        message = rf"not a stationary point \(gradient norm {norm:g}\)"
        with pytest.raises(ValueError, match=message):
            ProblemConfig(p=2, loss=loss, theta_star=(1.0, 0.0), sigma2=0.0, theta0=(0.3, -0.7))


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
        with pytest.raises(ValueError) as info:
            ProblemConfig(p=0, loss=get_loss("quadratic_4_1"), theta_star=(), sigma2=0.0, theta0=())
        assert str(info.value) == "dimension p must be at least 1"

    def test_overflowing_stationarity_check_is_one_error(self):
        # t1**3 overflows in the quartic's gradient at a finite theta_star
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                ProblemConfig(
                    p=2, loss=get_loss("quartic_4_2"), theta_star=(1e200, 1e200), sigma2=0.0,
                    theta0=(0, 0),
                )
        assert str(info.value) == "theta_star is not a stationary point (gradient norm inf)"

    def test_formula_that_disagrees_with_the_evaluator_is_refused(self):
        # spsa_run would step the quartic and the harness the quadratic
        quadratic, quartic = get_loss("quadratic_4_1"), get_loss("quartic_4_2")
        mixed = dataclasses.replace(quadratic, name="mixed", formula=quartic.formula)
        with pytest.raises(ValueError) as info:
            ProblemConfig(p=2, loss=mixed, theta_star=(0, 0), sigma2=0.0, theta0=(0.3, 0.3))
        assert str(info.value) == (
            f'loss "mixed" at theta0: its formula gives {quartic.formula(0.3, 0.3)!r}, '
            f"its evaluator {quadratic.formula(0.3, 0.3)!r}"
        )

    def test_formula_and_evaluator_are_compared_by_their_bits(self):
        def loss(value):
            def evaluator(theta):
                return np.full(np.shape(theta)[:-1], value)

            return LossFunction("constant", evaluator, dimension=1, formula=lambda t1: value)

        # a NaN is the same bits as itself
        ProblemConfig(p=1, loss=loss(math.nan), theta_star=(0,), sigma2=0.0, theta0=(1,))
        signed_zero = dataclasses.replace(loss(0.0), formula=lambda t1: -0.0)
        with pytest.raises(ValueError) as info:
            ProblemConfig(p=1, loss=signed_zero, theta_star=(0,), sigma2=0.0, theta0=(1,))
        assert str(info.value) == (
            'loss "constant" at theta0: its formula gives -0.0, its evaluator 0.0'
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
        rng = np.random.default_rng(23)
        # the division writes through transposed views of the shift, whatever
        # its memory layout and leading shape
        for problem, shape, order in (
            (quartic_problem(sigma2=1.0), (64, 2), "C"),
            (quartic_problem(sigma2=1.0), (64, 2), "F"),
            (numpy_p3_problem(), (5, 7, 3), "C"),
            (numpy_p3_problem(), (5, 7, 3), "F"),
        ):
            theta = rng.uniform(-2.0, 2.0, size=shape)
            delta = np.asarray(dist.sample_array(rng, shape), order=order)
            eps = rng.normal(size=shape[:-1] + (2,))
            noise = eps[..., 0] - eps[..., 1]
            batched = sp_gradient(problem, theta, 0.3, delta, noise)
            assert batched.shape == shape
            for row in np.ndindex(shape[:-1]):
                single = sp_gradient(problem, theta[row], 0.3, delta[row], noise[row])
                assert np.array_equal(batched[row], single)

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
        schedule = GainSchedule(a=0.01, c=0.1)
        runs = [
            spsa_run(problem, schedule, SEGMENTED_UNIFORM, 50, np.random.default_rng(6))
            for problem in (viewing, copying)
        ]
        assert not runs[0].diverged
        assert runs[0].trajectory.tobytes() == runs[1].trajectory.tobytes()


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
        # a loss without a formula sees each point as a new (p,) array
        calls = 0

        def counting_eval(theta):
            nonlocal calls
            calls += 1
            assert type(theta) is np.ndarray and theta.shape == (2,)
            return _quad(theta)

        def _quad(theta):
            theta = np.asarray(theta, dtype=float)
            return theta[..., 0] ** 2 + theta[..., 1] ** 2

        loss = LossFunction(name="tmp_counting", evaluator=counting_eval, dimension=2)
        problem = ProblemConfig(p=2, loss=loss, theta_star=(0, 0), sigma2=1.0, theta0=(1, 1))
        run = spsa_run(problem, GainSchedule(a=0.1, c=0.2), BERNOULLI, 7, np.random.default_rng(5))
        assert calls == 14
        assert run.n_loss_evals == 14

    @pytest.mark.parametrize("dist", (BERNOULLI, SEGMENTED_UNIFORM), ids=lambda d: d.name)
    @pytest.mark.parametrize("config", ("quadratic", "quartic", "numpy_p3"))
    def test_single_stream_reconstruction(self, config, dist):
        # per iteration: one uniform for each of the p components, then the
        # one uniform behind the N(0, 2 sigma2) noise difference, all from the
        # one generator; each step here takes its own p + 1 words and goes
        # through the public, checked sp_gradient, while the run draws all
        # its words up front
        if config == "numpy_p3":
            problem, schedule = numpy_p3_problem(), GainSchedule(a=0.05, c=0.1)
            assert problem.loss.evaluator(np.zeros(3)).shape == ()
        else:
            spec = parse_config(bundled_config_text(config), source=config).experiment
            problem = spec.problem
            schedule = spec.schedule_bern if dist is BERNOULLI else spec.schedule_su
        k_max, p = 300, problem.p
        run = spsa_run(problem, schedule, dist, k_max, np.random.default_rng(11))
        rng = np.random.default_rng(11)
        expected = [np.array(problem.theta0)]
        for k in range(k_max):
            u = rng.random(p + 1)
            delta = dist.deltas_from_uniforms(u[:p])
            noise = math.sqrt(2.0 * problem.sigma2) * core.standard_normal_from_uniform(u[p])
            grad = sp_gradient(problem, expected[-1], schedule.gain_c(k), delta, noise)
            expected.append(expected[-1] - schedule.gain_a(k) * grad)
        assert not run.diverged and run.n_loss_evals == 2 * k_max
        assert run.trajectory.tobytes() == np.array(expected).tobytes()

    def test_float32_loss_with_python_float_noise(self):
        # numpy gives a Python float the type of the array it meets, so a
        # float32 loss plus a float noise would be summed in float32;
        # sp_gradient sums in float64, as spsa_run does
        def float32_quadratic(theta):
            theta = np.asarray(theta, dtype=np.float32)
            return theta[..., 0] * theta[..., 0] + theta[..., 1] * theta[..., 1]

        loss = LossFunction(name="float32_quadratic", evaluator=float32_quadratic, dimension=2)
        problem = ProblemConfig(p=2, loss=loss, theta_star=(0, 0), sigma2=1.0, theta0=(0.3, 0.3))
        schedule, k_max = GainSchedule(a=0.05, c=0.1), 5
        run = spsa_run(problem, schedule, SEGMENTED_UNIFORM, k_max, np.random.default_rng(3))
        u = np.random.default_rng(3).random((k_max, 3))
        expected = [np.array(problem.theta0)]
        for k in range(k_max):
            delta = SEGMENTED_UNIFORM.deltas_from_uniforms(u[k, :2])
            noise = math.sqrt(2.0) * float(core.standard_normal_from_uniform(u[k, 2]))
            assert type(noise) is float
            grad = sp_gradient(problem, expected[-1], schedule.gain_c(k), delta, noise)
            expected.append(expected[-1] - schedule.gain_a(k) * grad)
        assert run.trajectory.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("dist", (BERNOULLI, SEGMENTED_UNIFORM), ids=lambda d: d.name)
    @pytest.mark.parametrize("config", ("quadratic", "quartic"))
    def test_plain_float_reference(self, config, dist):
        # each step written out in Python floats with the bundled loss's own
        # formula, without the step kernel, sp_gradient or the registered
        # evaluators: the same operations in the same order give the same bits
        spec = parse_config(bundled_config_text(config), source=config).experiment
        problem = spec.problem
        schedule = spec.schedule_bern if dist is BERNOULLI else spec.schedule_su
        loss, k_max = PLAIN_LOSSES[problem.loss.name], 300
        run = spsa_run(problem, schedule, dist, k_max, np.random.default_rng(13))
        u = np.random.default_rng(13).random((k_max, 3))
        deltas = dist.deltas_from_uniforms(u[:, :2]).tolist()
        normals = core.standard_normal_from_uniform(u[:, 2]).tolist()
        scale = math.sqrt(2.0 * problem.sigma2)
        t1, t2 = problem.theta0
        expected = [(t1, t2)]
        for k, (d1, d2) in enumerate(deltas):
            c_k, a_k = schedule.gain_c(k), schedule.gain_a(k)
            s1, s2 = c_k * d1, c_k * d2
            diff = loss(t1 + s1, t2 + s2) + scale * normals[k]
            diff -= loss(t1 - s1, t2 - s2)
            t1, t2 = t1 - a_k * (diff / (2.0 * s1)), t2 - a_k * (diff / (2.0 * s2))
            expected.append((t1, t2))
        assert not run.diverged and run.n_loss_evals == 2 * k_max
        assert run.trajectory.tobytes() == np.array(expected).tobytes()

    @pytest.mark.parametrize("dist", (BERNOULLI, SEGMENTED_UNIFORM), ids=lambda d: d.name)
    @pytest.mark.parametrize("config", ("quadratic", "quartic"))
    def test_formula_matches_the_evaluator_alone(self, config, dist):
        # the bundled loss, called as its formula on Python floats, against the
        # same evaluator in a LossFunction without a formula, called on (p,) arrays
        spec = parse_config(bundled_config_text(config), source=config).experiment
        schedule = spec.schedule_bern if dist is BERNOULLI else spec.schedule_su
        cases = [(schedule, seed) for seed in range(5)]
        if config == "quartic":
            cases.append((GainSchedule(a=1e305, c=1.0), 9))  # diverges
        bundled = spec.problem.loss
        alone = LossFunction(name="tmp_alone", evaluator=bundled.evaluator, dimension=2)
        assert bundled.formula is not None and alone.formula is None
        for schedule, seed in cases:
            runs = [
                spsa_run(problem, schedule, dist, 300, np.random.default_rng(seed))
                for problem in (spec.problem, dataclasses.replace(spec.problem, loss=alone))
            ]
            assert runs[0].diverged is (schedule.a == 1e305)
            fields = [(r.trajectory.tobytes(), r.n_loss_evals, r.diverged_at) for r in runs]
            assert fields[0] == fields[1]

    @pytest.mark.parametrize("at", (0, 3))
    @pytest.mark.parametrize("component", (0, 1))
    @pytest.mark.parametrize("value", ("nan", "-inf"))
    def test_divergence_in_either_component(self, value, component, at):
        # a subnormal component of delta makes that component's gradient
        # estimate overflow to +inf while the other stays finite; a zero step
        # gain turns it into 0 * inf = nan in the next iterate, a positive one
        # into -inf
        tiny = [1.0, 1.0]
        tiny[component] = 1e-310
        law = FixedDelta(*[(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0)][:at], tiny)
        schedule = GainSchedule(a=0.0 if value == "nan" else 0.1, c=0.2)
        calls = 0

        def counting_eval(theta):
            nonlocal calls
            calls += 1
            return get_loss("quadratic_4_1").evaluator(theta)

        loss = LossFunction(name="tmp_counting", evaluator=counting_eval, dimension=2)
        problem = ProblemConfig(p=2, loss=loss, theta_star=(0, 0), sigma2=0.0, theta0=(1, 1))
        run = spsa_run(problem, schedule, law, 6, np.random.default_rng(8))
        assert run.diverged and run.diverged_at == at
        assert calls == run.n_loss_evals == 2 * (at + 1)
        assert np.isfinite(run.trajectory[: at + 1]).all()
        assert np.isnan(run.trajectory[at + 1 :]).all()
        # the step the run refused, retaken through the checked sp_gradient
        # (sigma2 = 0, so the noise difference is 0)
        with np.errstate(over="ignore", invalid="ignore"):
            grad = sp_gradient(problem, run.trajectory[at], schedule.gain_c(at), tiny, 0.0)
            step = run.trajectory[at] - schedule.gain_a(at) * grad
        assert str(step[component]) == value and math.isfinite(step[1 - component])

    def test_diverged_run_stops_evaluating(self):
        # the quartic overflows to inf - inf = nan; the cliff, which pulls t1
        # towards 3 but is infinite past t1 = 1, sends the iterate to +-inf
        def cliff(theta):
            t1, t2 = theta[..., 0], theta[..., 1]
            return np.where(t1 > 1.0, np.inf, (t1 - 3.0) ** 2 + t2 * t2)

        calls = 0

        def counting(evaluator):
            def evaluate(theta):
                nonlocal calls
                calls += 1
                return evaluator(theta)

            return LossFunction(name="tmp_counting", evaluator=evaluate, dimension=2)

        cases = (
            (get_loss("quartic_4_2").evaluator, (1.0, 1.0), GainSchedule(a=1e305, c=1.0)),
            (cliff, (0.0, 0.0), GainSchedule(a=0.1, c=0.2)),
        )
        for evaluator, theta0, schedule in cases:
            loss = counting(evaluator)
            problem = ProblemConfig(p=2, loss=loss, theta_star=(0, 0), sigma2=1.0, theta0=theta0)
            for dist in (BERNOULLI, SEGMENTED_UNIFORM):
                calls = 0
                run = spsa_run(problem, schedule, dist, 50, np.random.default_rng(4))
                assert run.diverged and run.diverged_at > 0
                assert calls == run.n_loss_evals == 2 * (run.diverged_at + 1)
                assert np.isfinite(run.trajectory[: run.diverged_at + 1]).all()
                assert np.isnan(run.trajectory[run.diverged_at + 1 :]).all()

    def test_zero_component_raises_before_any_evaluation(self):
        calls = 0

        def counting_eval(theta):
            nonlocal calls
            calls += 1
            return get_loss("quadratic_4_1").evaluator(theta)

        loss = LossFunction(name="tmp_counting_zero", evaluator=counting_eval, dimension=2)
        problem = ProblemConfig(p=2, loss=loss, theta_star=(0, 0), sigma2=1.0, theta0=(1, 1))
        # the zero comes at the third step
        law = FixedDelta((1.0, 1.0), (1.0, -1.0), (1.0, -0.0))
        with pytest.raises(ValueError, match="nonzero"):
            spsa_run(problem, GainSchedule(a=0.1, c=0.2), law, 5, np.random.default_rng(0))
        assert calls == 0

    def test_shift_rounding_to_zero_raises_before_any_evaluation(self):
        # c_k * delta_i = 1e-30 * 1e-300 rounds to 0, which the gradient
        # estimate would divide by
        calls = 0

        def counting_eval(theta):
            nonlocal calls
            calls += 1
            return get_loss("quadratic_4_1").evaluator(theta)

        loss = LossFunction(name="tmp_counting_shift", evaluator=counting_eval, dimension=2)
        problem = ProblemConfig(p=2, loss=loss, theta_star=(0, 0), sigma2=1.0, theta0=(1, 1))
        law = FixedDelta((1.0, 1.0), (1.0, -1.0), (1.0, -1e-300))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError) as info:
                spsa_run(problem, GainSchedule(a=0.1, c=1e-30), law, 5, np.random.default_rng(0))
            assert str(info.value) == "c_k * delta rounds to 0 at k = 2"
            with pytest.raises(ValueError) as info:
                sp_gradient(problem, (0.3, 0.3), 1e-300, (1e-30, 1.0), 0.0)
            assert str(info.value) == "c_k * delta rounds to 0"
            rows = ((0.3, 0.3),) * 2
            with pytest.raises(ValueError, match="rounds to 0"):
                sp_gradient(problem, rows, 1e-300, ((1.0, 1.0), (1.0, -1e-30)), np.zeros(2))
        assert calls == 0

    def test_input_checks(self):
        rng = np.random.default_rng(0)
        schedule = GainSchedule(a=0.1, c=0.2)
        with pytest.raises(ValueError) as info:
            spsa_run(quadratic_problem(), schedule, BERNOULLI, 0, rng)
        assert str(info.value) == "k_max must be a positive integer"
        # one component too many at p = 2
        with pytest.raises(ValueError) as info:
            spsa_run(quadratic_problem(), schedule, FixedDelta((1.0, 1.0, 1.0)), 5, rng)
        assert str(info.value) == "deltas_from_uniforms must keep the shape (5, 2) of its input"

    def test_underflowing_perturbation_gain_raises(self):
        # c_k = c / (k + 1) ** 0.101 rounds to 0 from k = 956 on
        schedule = GainSchedule(a=0.1, c=5e-324)
        assert schedule.gain_c(955) > 0.0 and schedule.gain_c(956) == 0.0
        with pytest.raises(ValueError) as info:
            spsa_run(quadratic_problem(), schedule, BERNOULLI, 1000, np.random.default_rng(0))
        assert str(info.value) == "c_k must be positive"

    def test_generator_advances_by_every_word_of_the_run(self):
        # a finished run and a diverged one both take k_max * (p + 1) words
        k_max = 10
        for problem, schedule, diverges in (
            (quartic_problem(sigma2=1.0), GainSchedule(a=0.05, c=1.0), False),
            (quartic_problem(sigma2=1.0), GainSchedule(a=1e305, c=1.0), True),
        ):
            rng = np.random.default_rng(12)
            run = spsa_run(problem, schedule, SEGMENTED_UNIFORM, k_max, rng)
            assert run.diverged is diverges
            reference = np.random.default_rng(12)
            reference.random(k_max * (problem.p + 1))
            assert rng.bit_generator.state == reference.bit_generator.state

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
