import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from spsa_dist.core import GainSchedule, ProblemConfig, get_loss
from spsa_dist.perturbations import BERNOULLI, SEGMENTED_UNIFORM
from spsa_dist.theory import (
    BERNOULLI_FAVORED_OR_INCONCLUSIVE,
    FORM_COROLLARY1,
    FORM_COROLLARY2,
    FORM_COROLLARY3,
    FORM_THEOREM1,
    SU_FAVORED,
    ConditionInput,
    check_remark2,
    condition_input_from_problem,
    condition_lhs_explicit,
    corollary3_lhs,
    evaluate_condition,
    gradient_at,
    one_step_mse_quadratic,
    u_bound,
)


def reference_input(**overrides):
    """The bundled quadratic benchmark configuration as a ConditionInput."""
    fields = dict(
        p=2,
        a0_su=GainSchedule(a=0.00167, c=0.1).gain_a(0),
        a0_bernoulli=GainSchedule(a=0.01897, c=0.1).gain_a(0),
        c0_su=0.1,
        c0_bernoulli=0.1,
        sigma2=1.0,
        grad_at_start=(0.3, 0.3),
        start_offset=(0.3, 0.3),
    )
    fields.update(overrides)
    return ConditionInput(**fields)


def random_input(rng, p=None):
    p = int(rng.integers(1, 7)) if p is None else p
    return ConditionInput(
        p=p,
        a0_su=float(rng.uniform(1e-3, 0.5)),
        a0_bernoulli=float(rng.uniform(1e-3, 0.5)),
        c0_su=float(rng.uniform(0.05, 1.0)),
        c0_bernoulli=float(rng.uniform(0.05, 1.0)),
        sigma2=float(rng.uniform(0.0, 2.0)),
        grad_at_start=tuple(rng.uniform(-1.0, 1.0, size=p)),
        start_offset=tuple(rng.uniform(-1.0, 1.0, size=p)),
    )


def hand_expanded_lhs(inp):
    """mse_su - mse_bernoulli written out term by term, with the segmented
    uniform's E[Xi^2/Xj^2] = E[1/X^2] = 100/61 as literals; an oracle
    independent of the moment table."""
    grad = np.asarray(inp.grad_at_start)
    offset = np.asarray(inp.start_offset)
    p = inp.p
    a0s, a0b = inp.a0_su, inp.a0_bernoulli
    c0s, c0b = inp.c0_su, inp.c0_bernoulli
    grad_sq = float(grad @ grad)
    drift = float(offset @ grad)
    term_grad = ((100.0 * p - 39.0) / 61.0 * a0s**2 - p * a0b**2) * grad_sq
    term_mixed = (a0s - a0b) * (
        p * inp.sigma2 * (a0s + a0b) / (2.0 * c0b**2) - 2.0 * drift
    )
    term_noise = -p * a0s**2 * inp.sigma2 * (1.0 / (2.0 * c0b**2) - 50.0 / (61.0 * c0s**2))
    return term_grad + term_mixed + term_noise


def equal_gain_lhs(p, a0, c0, grad_sq, sigma2):
    # independent simplification of the explicit condition at equal gains
    return (39.0 / 61.0) * (p - 1) * a0**2 * grad_sq + (39.0 / 122.0) * p * a0**2 * sigma2 / c0**2


def enumerated_bernoulli_mse(evaluator, theta0, theta_star, a0, c0, sigma2):
    """Exhaustive average over all sign patterns, with exact Gaussian noise
    second moments; independent of the moment-table closed form."""
    theta0 = np.asarray(theta0, dtype=float)
    theta_star = np.asarray(theta_star, dtype=float)
    p = theta0.size
    noise_var = a0**2 * (2.0 * sigma2) / (4.0 * c0**2)
    total = 0.0
    for signs in itertools.product((-1.0, 1.0), repeat=p):
        delta = np.asarray(signs)
        d = (evaluator(theta0 + c0 * delta) - evaluator(theta0 - c0 * delta)) / (2.0 * c0 * delta)
        err = theta0 - theta_star - a0 * d
        total += float(err @ err) + noise_var * float(np.sum(1.0 / delta**2))
    return total / 2.0**p


class TestConditionInput:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"grad_at_start": (math.nan, 0.3)},
            {"start_offset": (0.3, math.inf)},
            {"a0_su": math.inf},
            {"c0_bernoulli": math.inf},
            {"sigma2": math.nan},
            {"third_derivative_bound": math.inf},
        ],
    )
    def test_rejects_non_finite(self, overrides):
        # a NaN would otherwise fail every "< 0" test and read as a verdict
        with pytest.raises(ValueError, match="finite"):
            reference_input(**overrides)


class TestConditionValues:
    def test_reference_configuration(self):
        lhs = corollary3_lhs(reference_input())
        assert lhs == pytest.approx(-0.0114, abs=1e-4)
        assert lhs < 0

    def test_zero_gains_give_zero(self):
        inp = reference_input(a0_su=0.0, a0_bernoulli=0.0)
        assert condition_lhs_explicit(inp) == 0.0
        assert corollary3_lhs(inp) == 0.0

    def test_equal_gains_positive_and_match_simplification(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            p = int(rng.integers(1, 7))
            a0 = float(rng.uniform(1e-3, 0.5))
            c0 = float(rng.uniform(0.05, 1.0))
            inp = random_input(rng, p=p)
            inp = ConditionInput(
                p=p,
                a0_su=a0,
                a0_bernoulli=a0,
                c0_su=c0,
                c0_bernoulli=c0,
                sigma2=inp.sigma2,
                grad_at_start=inp.grad_at_start,
                start_offset=inp.start_offset,
            )
            grad_sq = float(np.dot(inp.grad_at_start, inp.grad_at_start))
            expected = equal_gain_lhs(p, a0, c0, grad_sq, inp.sigma2)
            assert condition_lhs_explicit(inp) == pytest.approx(expected, abs=1e-12)
            if inp.sigma2 > 0:
                assert condition_lhs_explicit(inp) > 0.0

    def test_sigma_zero_equal_gains_nonnegative(self):
        inp = reference_input(a0_su=0.01, a0_bernoulli=0.01, sigma2=0.0)
        expected = (39.0 / 61.0) * 0.01**2 * 0.18
        assert corollary3_lhs(inp) == pytest.approx(expected, abs=1e-15)

    def test_specialization_identity(self):
        rng = np.random.default_rng(32)
        for _ in range(1000):
            inp = random_input(rng, p=2)
            expected = hand_expanded_lhs(inp)
            assert abs(condition_lhs_explicit(inp) - expected) <= 1e-12
            assert abs(corollary3_lhs(inp) - expected) <= 1e-12

    def test_corollary3_requires_p2(self):
        rng = np.random.default_rng(33)
        with pytest.raises(ValueError, match="p = 2"):
            corollary3_lhs(random_input(rng, p=3))


class TestUBound:
    def test_zero_third_derivative_bound(self):
        inp = reference_input(third_derivative_bound=0.0)
        assert u_bound(inp) == 0.0

    def test_unit_case_p1(self):
        inp = ConditionInput(
            p=1,
            a0_su=1.0,
            a0_bernoulli=1.0,
            c0_su=1.0,
            c0_bernoulli=1.0,
            sigma2=0.0,
            grad_at_start=(1.0,),
            start_offset=(1.0,),
            third_derivative_bound=1.0,
        )
        assert u_bound(inp) == pytest.approx(43.0 / 60.0, abs=1e-15)

    def test_negative_gradient_keeps_envelope_nonnegative(self):
        # the envelope uses max_i |g_i|; a signed max would make U negative
        # here and turn a positive explicit value into an su_favored verdict
        inp = ConditionInput(
            p=2,
            a0_su=0.3,
            a0_bernoulli=0.3,
            c0_su=0.5,
            c0_bernoulli=0.5,
            sigma2=0.0,
            grad_at_start=(-2.0, -2.0),
            start_offset=(0.0, 0.0),
            third_derivative_bound=1.0,
        )
        assert u_bound(inp) >= 0.0
        report = evaluate_condition(inp, quadratic=False)
        assert report.which_condition == FORM_COROLLARY1
        assert report.lhs_explicit == pytest.approx(0.4603, abs=1e-4)
        assert report.verdict == BERNOULLI_FAVORED_OR_INCONCLUSIVE

    def test_requires_bound(self):
        with pytest.raises(ValueError, match="third_derivative_bound"):
            u_bound(reference_input())

    def test_conservative_equals_explicit_when_bound_zero(self):
        inp = reference_input(third_derivative_bound=0.0)
        report = evaluate_condition(inp, quadratic=False)
        assert report.which_condition == FORM_COROLLARY1
        assert report.u_bound == 0.0
        assert report.lhs_conservative == report.lhs_explicit
        assert report.lhs_explicit == pytest.approx(-0.0114, abs=1e-4)
        assert report.verdict == SU_FAVORED


class TestRemark2:
    def test_c_ratio_threshold(self):
        ok = reference_input(c0_su=1.0, c0_bernoulli=0.7)
        assert check_remark2(ok).ratio_c_ok
        equal = reference_input(c0_su=1.0, c0_bernoulli=1.0)
        assert not check_remark2(equal).ratio_c_ok

    def test_a_ratio_at_reference_gains(self):
        checks = check_remark2(reference_input())
        threshold = math.sqrt(2.0 / (161.0 / 61.0))
        assert threshold == pytest.approx(0.8705, abs=5e-5)
        assert checks.ratio_a_ok
        assert checks.flatness_ok

    def test_sufficiency_for_su_verdict(self):
        # configurations satisfying all three sub-conditions, with a third
        # derivative envelope small enough not to flip the sign
        rng = np.random.default_rng(34)
        tested = 0
        attempts = 0
        while tested < 50 and attempts < 2000:
            attempts += 1
            p = int(rng.integers(2, 6))
            a0b = float(rng.uniform(0.05, 0.2))
            a_threshold = math.sqrt(p / ((100.0 * p - 39.0) / 61.0))
            a0s = a0b * a_threshold * float(rng.uniform(0.3, 0.9))
            c0s = float(rng.uniform(0.5, 1.5))
            c0b = c0s * math.sqrt(0.61) * float(rng.uniform(0.3, 0.9))
            inp = ConditionInput(
                p=p,
                a0_su=a0s,
                a0_bernoulli=a0b,
                c0_su=c0s,
                c0_bernoulli=c0b,
                sigma2=float(rng.uniform(0.5, 2.0)),
                grad_at_start=tuple(rng.uniform(-1.0, 1.0, size=p)),
                start_offset=tuple(rng.uniform(-0.02, 0.02, size=p)),
            )
            checks = check_remark2(inp)
            if not checks.all_ok:
                continue
            tested += 1
            lhs = condition_lhs_explicit(inp)
            assert lhs < 0.0
            # pick M so that |U| < |lhs|, then the conservative verdict holds
            u_unit = u_bound(replace(inp, third_derivative_bound=1.0))
            if u_unit > 0.0:
                m_small = 0.5 * abs(lhs) / u_unit
                bounded = replace(inp, third_derivative_bound=m_small)
                report = evaluate_condition(bounded, quadratic=False)
                assert report.which_condition == FORM_COROLLARY1
                assert abs(report.u_bound) < abs(lhs)
                assert report.verdict == SU_FAVORED
        assert tested == 50


class TestOneStepMse:
    @staticmethod
    def quadratic_input(schedule_su, schedule_bern):
        problem = ProblemConfig(
            p=2, loss=get_loss("quadratic_4_1"), theta_star=(0, 0), sigma2=1.0, theta0=(0.3, 0.3)
        )
        inp, _ = condition_input_from_problem(problem, schedule_su, schedule_bern)
        return inp

    def test_no_step_returns_start_error(self):
        still = GainSchedule(a=0.0, c=0.1)
        inp = self.quadratic_input(still, still)
        mse = one_step_mse_quadratic(
            inp.start_offset, inp.grad_at_start, inp.a0_bernoulli, inp.c0_bernoulli, inp.sigma2,
            BERNOULLI,
        )
        assert mse == pytest.approx(0.18, abs=1e-15)

    def test_difference_reproduces_reference_value(self):
        inp = self.quadratic_input(GainSchedule(a=0.00167, c=0.1), GainSchedule(a=0.01897, c=0.1))
        mse_su = one_step_mse_quadratic(
            inp.start_offset, inp.grad_at_start, inp.a0_su, inp.c0_su, inp.sigma2,
            SEGMENTED_UNIFORM,
        )
        mse_b = one_step_mse_quadratic(
            inp.start_offset, inp.grad_at_start, inp.a0_bernoulli, inp.c0_bernoulli, inp.sigma2,
            BERNOULLI,
        )
        assert mse_su - mse_b == pytest.approx(-0.0114, abs=1e-4)

    def test_identity_with_condition_lhs(self):
        # general p, against the hand expansion rather than the library's
        # condition, which is itself built from one_step_mse_quadratic
        rng = np.random.default_rng(35)
        for _ in range(1000):
            inp = random_input(rng)
            mse_su = one_step_mse_quadratic(
                inp.start_offset, inp.grad_at_start, inp.a0_su, inp.c0_su, inp.sigma2,
                SEGMENTED_UNIFORM,
            )
            mse_b = one_step_mse_quadratic(
                inp.start_offset, inp.grad_at_start, inp.a0_bernoulli, inp.c0_bernoulli,
                inp.sigma2, BERNOULLI,
            )
            assert abs((mse_su - mse_b) - hand_expanded_lhs(inp)) <= 1e-12

    def test_bernoulli_closed_form_matches_enumeration(self):
        rng = np.random.default_rng(36)
        for p in (1, 2, 3, 4):
            for _ in range(25):
                half_hessian = rng.uniform(-1.0, 1.0, size=(p, p))
                hessian = half_hessian + half_hessian.T
                theta0 = rng.uniform(-1.0, 1.0, size=p)
                theta_star = rng.uniform(-1.0, 1.0, size=p)
                grad_target = rng.uniform(-1.0, 1.0, size=p)
                linear = grad_target - hessian @ theta0

                def evaluator(theta, hessian=hessian, linear=linear):
                    theta = np.asarray(theta, dtype=float)
                    return 0.5 * float(theta @ hessian @ theta) + float(linear @ theta)

                a0 = float(rng.uniform(0.01, 0.5))
                c0 = float(rng.uniform(0.05, 1.0))
                sigma2 = float(rng.uniform(0.0, 2.0))
                expected = enumerated_bernoulli_mse(
                    evaluator, theta0, theta_star, a0, c0, sigma2
                )
                closed = one_step_mse_quadratic(
                    theta0 - theta_star, grad_target, a0, c0, sigma2, BERNOULLI
                )
                assert abs(closed - expected) <= 1e-12


class TestEvaluateCondition:
    def test_auto_forms(self):
        quadratic = evaluate_condition(reference_input(), quadratic=True)
        assert quadratic.which_condition == FORM_COROLLARY3
        assert quadratic.verdict == SU_FAVORED
        rng = np.random.default_rng(37)
        p3 = evaluate_condition(random_input(rng, p=3), quadratic=True)
        assert p3.which_condition == FORM_COROLLARY2
        bare = evaluate_condition(reference_input(), quadratic=False)
        assert bare.which_condition == FORM_THEOREM1
        assert "remainder" in bare.note
        bounded = evaluate_condition(
            reference_input(third_derivative_bound=0.5), quadratic=False
        )
        assert bounded.which_condition == FORM_COROLLARY1
        assert bounded.lhs_conservative == bounded.lhs_explicit + bounded.u_bound

    def test_verdict_flips_with_equal_gains(self):
        a0 = GainSchedule(a=0.01897, c=0.1).gain_a(0)
        report = evaluate_condition(
            reference_input(a0_su=a0, a0_bernoulli=a0), quadratic=True
        )
        assert report.lhs_explicit > 0.0
        assert report.verdict == BERNOULLI_FAVORED_OR_INCONCLUSIVE

    @pytest.mark.parametrize(
        "overrides, quadratic",
        [
            ({"grad_at_start": (1e200, 1e200)}, True),  # inf - inf = nan
            ({"a0_su": 1e200}, True),  # float ** overflows
            ({"third_derivative_bound": 1e300}, False),  # u_bound overflows
        ],
    )
    def test_overflow_raises_instead_of_verdict(self, overrides, quadratic):
        with pytest.raises(ValueError, match="overflow"):
            evaluate_condition(reference_input(**overrides), quadratic=quadratic)

    def test_text_rendering(self):
        report = evaluate_condition(reference_input(), quadratic=True)
        text = report.to_text()
        assert "condition = corollary3" in text
        assert "verdict = su_favored" in text
        assert f"lhs_explicit = {report.lhs_explicit!r}" in text


class TestGradientSource:
    def test_analytic_and_finite_difference(self):
        loss = get_loss("quartic_4_2")
        theta = np.array([0.7, -0.4])
        grad, source = gradient_at(loss, theta)
        assert source == "analytic"
        bare = type(loss)(
            name="quartic_bare", evaluator=loss.evaluator, gradient=None, dimension=2
        )
        fd_grad, fd_source = gradient_at(bare, theta)
        assert fd_source == "finite_difference"
        assert np.max(np.abs(fd_grad - grad)) <= 1e-6

    def test_condition_input_from_problem(self):
        problem = ProblemConfig(
            p=2, loss=get_loss("quadratic_4_1"), theta_star=(0, 0), sigma2=1.0, theta0=(0.3, 0.3)
        )
        inp, source = condition_input_from_problem(
            problem, GainSchedule(a=0.00167, c=0.1), GainSchedule(a=0.01897, c=0.1)
        )
        assert source == "analytic"
        assert inp.grad_at_start == pytest.approx((0.3, 0.3))
        assert inp.start_offset == (0.3, 0.3)
        assert corollary3_lhs(inp) == pytest.approx(-0.0114, abs=1e-4)
