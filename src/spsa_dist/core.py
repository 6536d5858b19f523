"""Loss model, gain schedules, and the simultaneous-perturbation optimizer.

The optimizer minimizes a loss L observed only through noisy evaluations
y(theta) = L(theta) + eps, with eps mean-zero, variance sigma2. Each
iteration estimates the gradient from two noisy evaluations at
theta +/- c_k * delta, where delta is a random perturbation vector, and takes
a step of size a_k against the estimate. The cost per iteration is two loss
evaluations regardless of the problem dimension.

Gain sequences take the fixed power-law forms

    a_k = a / (k + 2) ** 0.602        c_k = c / (k + 1) ** 0.101

with base constants a, c chosen per problem.

Noise is Gaussian. Normals are produced by applying the inverse
normal CDF to uniform draws so that every evaluation consumes a fixed number
of draws; this keeps random streams seekable for the replicated experiment
harness. Runs are pure functions of (configuration, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtri

from .perturbations import validate_for_spsa

__all__ = [
    "GAIN_EXPONENT_A",
    "GAIN_EXPONENT_C",
    "GAIN_OFFSET_A",
    "GAIN_OFFSET_C",
    "GainSchedule",
    "LossFunction",
    "register_loss",
    "get_loss",
    "registered_losses",
    "ProblemConfig",
    "SpsaRun",
    "standard_normal_from_uniform",
    "sp_gradient",
    "spsa_run",
    "finite_difference_gradient",
]

GAIN_EXPONENT_A = 0.602
GAIN_EXPONENT_C = 0.101
GAIN_OFFSET_A = 2
GAIN_OFFSET_C = 1

# Smallest uniform the inverse-CDF transform accepts; Generator.random() can
# return exactly 0.0, which would map to -inf.
_MIN_UNIFORM = 2.0**-54


@dataclass(frozen=True)
class GainSchedule:
    """Step-size and perturbation-size sequences with fixed exponents."""

    a: float
    c: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a >= 0.0):
            raise ValueError("gain constant a must be finite and nonnegative")
        if not (math.isfinite(self.c) and self.c > 0.0):
            raise ValueError("gain constant c must be finite and positive")

    def gain_a(self, k: int) -> float:
        """Step size a_k = a / (k + 2) ** 0.602 at iteration k >= 0."""
        return self.a / (k + GAIN_OFFSET_A) ** GAIN_EXPONENT_A

    def gain_c(self, k: int) -> float:
        """Perturbation size c_k = c / (k + 1) ** 0.101 at iteration k >= 0."""
        return self.c / (k + GAIN_OFFSET_C) ** GAIN_EXPONENT_C


@dataclass(frozen=True)
class LossFunction:
    """A named loss with vectorized evaluator and optional analytic gradient.

    ``evaluator`` maps arrays of shape (..., dimension) to shape (...);
    ``gradient``, when present, maps (..., dimension) to (..., dimension).
    """

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    is_quadratic: bool = False
    dimension: int | None = None


_LOSSES: dict[str, LossFunction] = {}


def register_loss(loss: LossFunction) -> LossFunction:
    """Add a loss to the registry under its name."""
    if loss.name in _LOSSES:
        raise ValueError(f'loss "{loss.name}" is already registered')
    _LOSSES[loss.name] = loss
    return loss


def get_loss(name: str) -> LossFunction:
    try:
        return _LOSSES[name]
    except KeyError:
        valid = ", ".join(sorted(_LOSSES))
        raise ValueError(f'unknown loss "{name}" (registered: {valid})') from None


def registered_losses() -> tuple[str, ...]:
    return tuple(sorted(_LOSSES))


def _quadratic_eval(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    t1, t2 = theta[..., 0], theta[..., 1]
    return t1 * t1 - t1 * t2 + t2 * t2


def _quadratic_grad(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    t1, t2 = theta[..., 0], theta[..., 1]
    return np.stack([2.0 * t1 - t2, 2.0 * t2 - t1], axis=-1)


def _quartic_eval(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    t1, t2 = theta[..., 0], theta[..., 1]
    sq = t1 * t1  # t1**4 as sq * sq: libm pow on strided views is ~10x slower
    return sq * sq + sq + t1 * t2 + t2 * t2


def _quartic_grad(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    t1, t2 = theta[..., 0], theta[..., 1]
    return np.stack([4.0 * t1**3 + 2.0 * t1 + t2, t1 + 2.0 * t2], axis=-1)


QUADRATIC = register_loss(
    LossFunction(
        name="quadratic_4_1",
        evaluator=_quadratic_eval,
        gradient=_quadratic_grad,
        is_quadratic=True,
        dimension=2,
    ),
)

QUARTIC = register_loss(
    LossFunction(
        name="quartic_4_2",
        evaluator=_quartic_eval,
        gradient=_quartic_grad,
        is_quadratic=False,
        dimension=2,
    ),
)


@dataclass(frozen=True)
class ProblemConfig:
    """A minimization problem: loss, true minimizer, noise level, start point."""

    p: int
    loss: LossFunction
    theta_star: tuple[float, ...]
    sigma2: float
    theta0: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "theta_star", tuple(float(v) for v in self.theta_star))
        object.__setattr__(self, "theta0", tuple(float(v) for v in self.theta0))
        if self.p < 1:
            raise ValueError("dimension p must be at least 1")
        if len(self.theta_star) != self.p or len(self.theta0) != self.p:
            raise ValueError("theta_star and theta0 must have length p")
        if not all(math.isfinite(v) for v in self.theta_star + self.theta0):
            raise ValueError("theta_star and theta0 must be finite")
        if self.loss.dimension is not None and self.loss.dimension != self.p:
            raise ValueError(
                f'loss "{self.loss.name}" has dimension {self.loss.dimension}, not {self.p}'
            )
        if not (math.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise ValueError("noise variance sigma2 must be finite and nonnegative")
        if self.loss.gradient is not None:
            norm = float(np.linalg.norm(self.loss.gradient(np.asarray(self.theta_star))))
            if norm > 1e-9:
                raise ValueError(
                    f"theta_star is not a stationary point (gradient norm {norm:g})"
                )


def standard_normal_from_uniform(u):
    """Map Uniform[0, 1) draws to standard normals, one draw per normal.

    Uses the inverse normal CDF instead of rejection-style samplers so the
    number of uniforms consumed is fixed, which keeps counter-based streams
    addressable. A draw of exactly 0.0 is nudged to the smallest positive
    representable draw.
    """
    return ndtri(np.maximum(u, _MIN_UNIFORM))


def sp_gradient(
    problem: ProblemConfig,
    theta,
    c_k: float,
    delta,
    eps_plus,
    eps_minus,
) -> np.ndarray:
    """Simultaneous-perturbation gradient estimate from two evaluations.

    Component i is [y(theta + c_k*delta) - y(theta - c_k*delta)] / (2*c_k*delta_i)
    with the supplied noise realizations attached to the two evaluations.
    Exactly two loss evaluations are performed regardless of dimension.

    ``theta`` and ``delta`` have shape (..., p) and the noise terms shape
    (...), so a block of replicates steps in one call; row r of the result
    equals the call on row r alone, bit for bit.
    """
    theta = np.asarray(theta, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if theta.shape[-1:] != (problem.p,) or delta.shape != theta.shape:
        raise ValueError(f"theta and delta must have the same shape (..., {problem.p})")
    if not (c_k > 0.0):
        raise ValueError("c_k must be positive")
    if np.any(delta == 0.0):
        raise ValueError("perturbation components must be nonzero")
    y_plus = problem.loss.evaluator(theta + c_k * delta) + eps_plus
    y_minus = problem.loss.evaluator(theta - c_k * delta) + eps_minus
    return np.asarray(y_plus - y_minus)[..., None] / (2.0 * c_k * delta)


@dataclass
class SpsaRun:
    """Trajectory and bookkeeping of one optimizer run.

    ``trajectory`` has shape (k_max + 1, p) and holds the iterates
    theta_0 ... theta_{k_max}. If the run diverged (a non-finite coordinate
    appeared while stepping from iterate ``diverged_at``), iteration stops and
    the remaining rows are NaN.
    """

    trajectory: np.ndarray
    n_loss_evals: int
    diverged: bool = False
    diverged_at: int | None = None


def spsa_run(
    problem: ProblemConfig,
    schedule: GainSchedule,
    dist,
    k_max: int,
    rng: np.random.Generator,
    *,
    noise_rng: np.random.Generator | None = None,
) -> SpsaRun:
    """Run the optimizer for k_max iterations, returning the full trajectory.

    Per-iteration random consumption order is fixed: the p perturbation
    components (each consuming the distribution's fixed number of uniforms),
    then the uniforms behind eps_plus and eps_minus, in that order. When
    ``noise_rng`` is given, the noise draws come from it instead of ``rng``,
    which lets paired experiments share a noise stream across distributions.
    """
    gate = validate_for_spsa(dist.properties())
    if not gate.valid:
        raise ValueError(
            "distribution fails the SPSA validity gate: " + "; ".join(gate.violations)
        )
    if k_max < 1:
        raise ValueError("k_max must be a positive integer")
    noise = noise_rng if noise_rng is not None else rng
    sigma = math.sqrt(problem.sigma2)
    theta = np.asarray(problem.theta0, dtype=float)
    trajectory = np.full((k_max + 1, problem.p), np.nan)
    trajectory[0] = theta
    n_evals = 0
    for k in range(k_max):
        delta = dist.sample_array(rng, problem.p)
        eps_plus, eps_minus = sigma * standard_normal_from_uniform(noise.random(2))
        with np.errstate(over="ignore", invalid="ignore"):
            grad = sp_gradient(problem, theta, schedule.gain_c(k), delta, eps_plus, eps_minus)
            theta = theta - schedule.gain_a(k) * grad
        n_evals += 2
        if not np.all(np.isfinite(theta)):
            return SpsaRun(trajectory, n_evals, diverged=True, diverged_at=k)
        trajectory[k + 1] = theta
    return SpsaRun(trajectory, n_evals)


def finite_difference_gradient(evaluator, theta, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar evaluator at theta."""
    theta = np.asarray(theta, dtype=float)
    grad = np.empty_like(theta)
    for i in range(theta.size):
        offset = np.zeros_like(theta)
        offset[i] = step
        grad[i] = (float(evaluator(theta + offset)) - float(evaluator(theta - offset))) / (
            2.0 * step
        )
    return grad
