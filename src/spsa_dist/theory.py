"""Analytic one-step MSE comparison between the two perturbation laws.

For a single optimizer step from theta_0 the mean squared error
E||theta_1 - theta*||^2 has a closed form when the loss is quadratic, because
the centered difference of a quadratic is exactly linear in the perturbation.
Writing e = theta_0 - theta*, g = grad L(theta_0), S = sum(g_i^2),
rho = E[X_i^2 / X_j^2] and m = E[1/X^2] for the perturbation law:

    mse(a0, c0) = ||e||^2 - 2*a0*<e, g>
                  + a0^2 * S * (1 + rho*(p - 1))
                  + a0^2 * p * sigma2 * m / (2*c0^2)

The difference mse_su - mse_bernoulli of that expression, with each law's
moments and its own tuned gains, is the explicit comparison condition
evaluated by :func:`condition_lhs_explicit`: a negative value means the
segmented uniform yields the smaller one-step MSE. For non-quadratic losses
the same expression omits a Taylor-remainder contribution of order c0^2; when
a bound M on the third derivatives is available, :func:`u_bound` gives a
conservative envelope for that remainder and the condition
``lhs_explicit + U < 0`` is sufficient.

:func:`one_step_mse_quadratic` implements the closed form above directly from
the law's moments, and every condition form here is built from it, so the
laws' moments enter only through :meth:`PerturbationDistribution.moments`.
The tests check it against exhaustive enumeration of Bernoulli outcomes and
the conditions against a hand-expanded form written out with the segmented
uniform's rational moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import GainSchedule, LossFunction, ProblemConfig, finite_difference_gradient
from .perturbations import BERNOULLI, SEGMENTED_UNIFORM, PerturbationDistribution

__all__ = [
    "FORM_THEOREM1",
    "FORM_COROLLARY1",
    "FORM_COROLLARY2",
    "FORM_COROLLARY3",
    "SU_FAVORED",
    "BERNOULLI_FAVORED_OR_INCONCLUSIVE",
    "ConditionInput",
    "ConditionReport",
    "Remark2Checks",
    "condition_lhs_explicit",
    "corollary3_lhs",
    "u_bound",
    "check_remark2",
    "one_step_mse_quadratic",
    "evaluate_condition",
    "gradient_at",
    "condition_input_from_problem",
]

FORM_THEOREM1 = "theorem1"
FORM_COROLLARY1 = "corollary1"
FORM_COROLLARY2 = "corollary2"
FORM_COROLLARY3 = "corollary3"

SU_FAVORED = "su_favored"
BERNOULLI_FAVORED_OR_INCONCLUSIVE = "bernoulli_favored_or_inconclusive"

_REMAINDER_NOTE = (
    "loss is not quadratic and no third-derivative bound was supplied; the "
    "order-c0^2 remainder is not included in the evaluated value"
)


@dataclass(frozen=True)
class ConditionInput:
    """Everything the one-step comparison depends on.

    ``a0_su``/``a0_bernoulli`` and ``c0_su``/``c0_bernoulli`` are the
    first-step gains under each law's tuned schedule. ``grad_at_start`` holds
    the first derivatives of the loss at theta_0 and ``start_offset`` is
    theta_0 - theta*. ``third_derivative_bound`` is an optional uniform bound
    M on all third derivatives, used only by the conservative condition.
    """

    p: int
    a0_su: float
    a0_bernoulli: float
    c0_su: float
    c0_bernoulli: float
    sigma2: float
    grad_at_start: tuple[float, ...]
    start_offset: tuple[float, ...]
    third_derivative_bound: float | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "grad_at_start", tuple(float(v) for v in self.grad_at_start)
        )
        object.__setattr__(
            self, "start_offset", tuple(float(v) for v in self.start_offset)
        )
        if self.p < 1:
            raise ValueError("p must be at least 1")
        if len(self.grad_at_start) != self.p or len(self.start_offset) != self.p:
            raise ValueError("grad_at_start and start_offset must have length p")
        values = (
            self.a0_su, self.a0_bernoulli, self.c0_su, self.c0_bernoulli, self.sigma2,
            *self.grad_at_start, *self.start_offset,
        )
        if self.third_derivative_bound is not None:
            values += (self.third_derivative_bound,)
        if not all(math.isfinite(v) for v in values):
            raise ValueError("condition inputs must be finite")
        # a tuned step gain may legitimately be zero (no step); c gains cannot
        if self.a0_su < 0.0 or self.a0_bernoulli < 0.0:
            raise ValueError("step gains must be nonnegative")
        if not (self.c0_su > 0.0 and self.c0_bernoulli > 0.0):
            raise ValueError("perturbation gains must be positive")
        for name in ("c0_su", "c0_bernoulli"):
            c0 = getattr(self, name)
            if c0 * c0 == 0.0:  # the noise term divides by 2 * (c0 * c0)
                raise ValueError(f"{name} = {c0!r} is too small to square in float64")
        if self.sigma2 < 0.0:
            raise ValueError("sigma2 must be nonnegative")
        if self.third_derivative_bound is not None and self.third_derivative_bound < 0.0:
            raise ValueError("third_derivative_bound must be nonnegative")


@dataclass(frozen=True)
class Remark2Checks:
    """Sufficient sub-conditions for the explicit comparison to be negative."""

    ratio_a_ok: bool
    ratio_c_ok: bool
    flatness_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.ratio_a_ok and self.ratio_c_ok and self.flatness_ok


@dataclass(frozen=True)
class ConditionReport:
    """Evaluated comparison condition plus the verdict it supports."""

    which_condition: str
    lhs_explicit: float
    u_bound: float | None
    lhs_conservative: float | None
    verdict: str
    gradient_source: str = "supplied"
    note: str = ""

    def to_text(self) -> str:
        """Flat ``name = value`` rendering for CLI display."""
        lines = [
            f"condition = {self.which_condition}",
            f"lhs_explicit = {self.lhs_explicit!r}",
        ]
        if self.u_bound is not None:
            lines.append(f"u_bound = {self.u_bound!r}")
        if self.lhs_conservative is not None:
            lines.append(f"lhs_conservative = {self.lhs_conservative!r}")
        lines.append(f"verdict = {self.verdict}")
        lines.append(f"gradient_source = {self.gradient_source}")
        if self.note:
            lines.append(f"note = {self.note}")
        return "\n".join(lines)


def condition_lhs_explicit(inp: ConditionInput) -> float:
    """Explicit terms of mse_su - mse_bernoulli for one step.

    Exact for quadratic losses; for other losses an order-c0^2 remainder is
    omitted. Negative means the segmented uniform wins.
    """
    mse_su = one_step_mse_quadratic(
        inp.start_offset, inp.grad_at_start, inp.a0_su, inp.c0_su, inp.sigma2, SEGMENTED_UNIFORM
    )
    mse_b = one_step_mse_quadratic(
        inp.start_offset, inp.grad_at_start, inp.a0_bernoulli, inp.c0_bernoulli, inp.sigma2,
        BERNOULLI,
    )
    return mse_su - mse_b


def corollary3_lhs(inp: ConditionInput) -> float:
    """The explicit comparison specialized to quadratic losses with p = 2."""
    if inp.p != 2:
        raise ValueError(f"this condition form requires p = 2, got p = {inp.p}")
    return condition_lhs_explicit(inp)


def u_bound(inp: ConditionInput) -> float:
    """Conservative envelope U >= 0 for the omitted order-c0^2 remainder.

    Requires the uniform third-derivative bound M on the input. The gradient
    enters through max_i |g_i|. Note the middle term is cubic in the
    segmented-uniform step gain (a0_su enters three times); that asymmetric
    power is intentional.
    """
    if inp.third_derivative_bound is None:
        raise ValueError("u_bound requires third_derivative_bound to be set")
    m_bound = inp.third_derivative_bound
    max_abs_grad = max(abs(g) for g in inp.grad_at_start)
    p = inp.p
    a0s, a0b = inp.a0_su, inp.a0_bernoulli
    c0s, c0b = inp.c0_su, inp.c0_bernoulli
    abs_offset_sum = float(np.abs(np.asarray(inp.start_offset)).sum())
    sq_s, sq_b = c0s * c0s, c0b * c0b
    term1 = (4.0 * a0s * sq_s + a0b * sq_b) * m_bound * abs_offset_sum * (p - 1) ** 2
    term2 = (1.0 / 20.0) * (a0s * a0s) * (sq_s * sq_s) * (m_bound * m_bound) * p**7 * a0s
    cubes = (a0s * a0s) * (sq_s * c0s) + (a0b * a0b) * (sq_b * c0b)
    term3 = (1.0 / 3.0) * cubes * m_bound * p**5 * max_abs_grad
    return term1 + term2 + term3


def check_remark2(inp: ConditionInput) -> Remark2Checks:
    """Check the gain-ratio and flatness sub-conditions.

    When all three hold (and the perturbation gains are small enough that the
    remainder is negligible), every explicit term is negative, so the
    segmented uniform is favored without evaluating the full expression.
    """
    p = inp.p
    bern, su = BERNOULLI.moments(), SEGMENTED_UNIFORM.moments()
    a_threshold = math.sqrt(
        (1.0 + bern.ratio_second * (p - 1)) / (1.0 + su.ratio_second * (p - 1))
    )
    c_threshold = math.sqrt(bern.inv_second / su.inv_second)
    ratio_a_ok = (
        inp.a0_bernoulli > 0.0 and inp.a0_su / inp.a0_bernoulli < a_threshold
    )
    ratio_c_ok = inp.c0_bernoulli / inp.c0_su < c_threshold
    drift = float(np.asarray(inp.start_offset) @ np.asarray(inp.grad_at_start))
    flatness_ok = 2.0 * drift < p * inp.sigma2 * (inp.a0_su + inp.a0_bernoulli) / (
        2.0 * (inp.c0_bernoulli * inp.c0_bernoulli)
    )
    return Remark2Checks(ratio_a_ok=ratio_a_ok, ratio_c_ok=ratio_c_ok, flatness_ok=flatness_ok)


def one_step_mse_quadratic(
    start_offset,
    grad_at_start,
    a0: float,
    c0: float,
    sigma2: float,
    dist: PerturbationDistribution,
) -> float:
    """Closed-form E||theta_1 - theta*||^2 for one step on a quadratic loss.

    Derived by expanding the update: with e = theta_0 - theta*, the i-th
    error component after one step is
    e_i - a0 * (sum_j g_j X_j + (eps+ - eps-)/(2 c0)) / X_i. Independence and
    symmetry of the components, plus independence of the noise, reduce the
    expectation to the law's moments: cross ratios E[X_j / X_i] vanish, squared
    ratios contribute rho = E[X_j^2 / X_i^2], and the noise contributes
    sigma2 / (2 c0^2) * E[1/X^2] per coordinate.
    """
    offset = np.asarray(start_offset, dtype=float)
    grad = np.asarray(grad_at_start, dtype=float)
    if offset.shape != grad.shape or offset.ndim != 1:
        raise ValueError("start_offset and grad_at_start must be 1-D of equal length")
    if not (c0 > 0.0):
        raise ValueError("c0 must be positive")
    if c0 * c0 == 0.0:
        raise ValueError(f"c0 = {c0!r} is too small to square in float64")
    if sigma2 < 0.0:
        raise ValueError("sigma2 must be nonnegative")
    p = offset.size
    moments = dist.moments()
    grad_sq = float(grad @ grad)
    drift = float(offset @ grad)
    return (
        float(offset @ offset)
        - 2.0 * a0 * drift
        + (a0 * a0) * grad_sq * (1.0 + moments.ratio_second * (p - 1))
        + (a0 * a0) * p * sigma2 * moments.inv_second / (2.0 * (c0 * c0))
    )


def gradient_at(loss: LossFunction, theta) -> tuple[np.ndarray, str]:
    """First derivatives at theta and where they came from.

    Uses the registered analytic gradient when available, otherwise central
    finite differences with step 1e-5.
    """
    theta = np.asarray(theta, dtype=float)
    if loss.gradient is not None:
        return np.asarray(loss.gradient(theta), dtype=float), "analytic"
    return finite_difference_gradient(loss.evaluator, theta), "finite_difference"


def condition_input_from_problem(
    problem: ProblemConfig,
    schedule_su: GainSchedule,
    schedule_bern: GainSchedule,
    third_derivative_bound: float | None = None,
) -> tuple[ConditionInput, str]:
    """Build a ConditionInput from a problem and the two tuned schedules."""
    theta0 = np.asarray(problem.theta0)
    with np.errstate(over="ignore", invalid="ignore"):
        grad, source = gradient_at(problem.loss, theta0)
    if not np.isfinite(grad).all():
        raise ValueError(f"gradient at theta0 overflowed to {grad.tolist()}: theta0 too large")
    inp = ConditionInput(
        p=problem.p,
        a0_su=schedule_su.gain_a(0),
        a0_bernoulli=schedule_bern.gain_a(0),
        c0_su=schedule_su.gain_c(0),
        c0_bernoulli=schedule_bern.gain_c(0),
        sigma2=problem.sigma2,
        grad_at_start=tuple(grad),
        start_offset=tuple(theta0 - np.asarray(problem.theta_star)),
        third_derivative_bound=third_derivative_bound,
    )
    return inp, source


def evaluate_condition(
    inp: ConditionInput,
    *,
    quadratic: bool,
    gradient_source: str = "supplied",
) -> ConditionReport:
    """Evaluate the comparison condition and report the verdict.

    The form follows from the inputs. For quadratic losses the explicit value
    is exact: Corollary 3 at p = 2, Corollary 2 otherwise. For other losses
    the conservative form (Corollary 1) is used when a third-derivative bound
    is available, and the bare explicit form (Theorem 1), with a caveat, when
    not. Powers of the gains are written as products, so an overflow gives
    inf or NaN instead of raising, and a deciding value that is not finite
    raises ValueError instead of giving a verdict.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        lhs_explicit = condition_lhs_explicit(inp)
        bound = None if quadratic or inp.third_derivative_bound is None else u_bound(inp)
    lhs_conservative = None
    note = ""
    if quadratic:
        form = FORM_COROLLARY3 if inp.p == 2 else FORM_COROLLARY2
    elif bound is not None:
        form = FORM_COROLLARY1
        lhs_conservative = lhs_explicit + bound
    else:
        form = FORM_THEOREM1
        note = _REMAINDER_NOTE
    decided_value = lhs_explicit if lhs_conservative is None else lhs_conservative
    if not math.isfinite(decided_value):
        raise ValueError(
            f"condition value overflowed to {decided_value}: inputs too large for float64"
        )
    verdict = SU_FAVORED if decided_value < 0.0 else BERNOULLI_FAVORED_OR_INCONCLUSIVE
    return ConditionReport(
        which_condition=form,
        lhs_explicit=lhs_explicit,
        u_bound=bound,
        lhs_conservative=lhs_conservative,
        verdict=verdict,
        gradient_source=gradient_source,
        note=note,
    )
