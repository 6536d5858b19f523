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

Noise is Gaussian. The gradient estimate uses the two noisy evaluations only
through their difference, so each iteration draws the noise difference
eps_plus - eps_minus as one N(0, 2 * sigma2) normal. Normals are produced by
applying the inverse normal CDF to uniform draws, so each iteration consumes
p + 1 uniforms: one per perturbation component and one for the noise; this
keeps random streams seekable for the replicated experiment harness. Runs are
pure functions of (configuration, seed).

A perturbation law is any object with an elementwise map
``deltas_from_uniforms(u)`` from uniforms to components. The batched step
arithmetic is one kernel that checks only the shape of each loss value:
:func:`sp_gradient` checks its inputs at every call and the experiment
harness once. :func:`spsa_run` checks its
inputs once and then steps one row of Python floats with the kernel's
operations in the kernel's order, so its iterates have the same bits as steps
through :func:`sp_gradient` without paying numpy's dispatch per operation.
Each bundled loss is written once, as a formula on its components that runs
on Python floats in :func:`spsa_run` and on column views in the evaluator.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    ``formula``, when present, is the same loss written once on its p
    components, ``formula(t1, ..., tp)``, with operations that work on Python
    floats and on numpy arrays alike; :func:`spsa_run` calls it on Python
    floats and must get the bits ``evaluator`` gives on that point.
    """

    name: str
    evaluator: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    is_quadratic: bool = False
    dimension: int | None = None
    formula: Callable[..., float] | None = None


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


def _array_evaluator(name: str, dimension: int, formula):
    """The evaluator of a loss given by ``formula`` on its components.

    Points go to the formula as column views, one point as a batch of one that
    gives a float64 scalar. A last axis other than ``dimension`` raises ValueError.
    """
    width = (dimension,)
    # one C call for the views theta[..., i]; a tuple of them for dimension >= 2
    columns = operator.itemgetter(*[(..., i) for i in range(dimension)])

    def evaluator(theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1:] != width:
            raise ValueError(
                f'loss "{name}" takes points of width {dimension}, not shape {theta.shape}'
            )
        return formula(*columns(theta))

    return evaluator


def _quadratic(t1, t2):
    return t1 * t1 - t1 * t2 + t2 * t2


def _quadratic_grad(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    t1, t2 = theta[..., 0], theta[..., 1]
    return np.stack([2.0 * t1 - t2, 2.0 * t2 - t1], axis=-1)


def _quartic(t1, t2):
    sq = t1 * t1  # t1**4 as sq * sq: libm pow on strided views is ~10x slower
    return sq * sq + sq + t1 * t2 + t2 * t2


def _quartic_grad(theta: np.ndarray) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    t1, t2 = theta[..., 0], theta[..., 1]
    return np.stack([4.0 * t1**3 + 2.0 * t1 + t2, t1 + 2.0 * t2], axis=-1)


def _register_bundled(name, formula, gradient, is_quadratic):
    evaluator = _array_evaluator(name, 2, formula)
    loss = LossFunction(name, evaluator, gradient, is_quadratic, dimension=2, formula=formula)
    return register_loss(loss)


QUADRATIC = _register_bundled("quadratic_4_1", _quadratic, _quadratic_grad, is_quadratic=True)
QUARTIC = _register_bundled("quartic_4_2", _quartic, _quartic_grad, is_quadratic=False)


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
            with np.errstate(over="ignore", invalid="ignore"):  # an overflow shows as inf
                norm = float(np.linalg.norm(self.loss.gradient(np.asarray(self.theta_star))))
            if norm > 1e-9:
                raise ValueError(
                    f"theta_star is not a stationary point (gradient norm {norm:g})"
                )


def standard_normal_from_uniform(u):
    """Map Uniform[0, 1) draws to standard normals, one draw per normal.

    Uses the inverse normal CDF instead of rejection-style samplers so the
    number of uniforms consumed is fixed, which keeps the seekable streams
    addressable. A draw of exactly 0.0 is nudged to the smallest positive
    representable draw.
    """
    # imported here, so commands that step no replicate load no scipy
    from scipy.special import ndtri

    return ndtri(np.maximum(u, _MIN_UNIFORM))


def _check_nonzero(delta: np.ndarray) -> None:
    # counts -0.0 as zero and NaN as nonzero, as delta == 0.0 does
    if np.count_nonzero(delta) != delta.size:
        raise ValueError("perturbation components must be nonzero")


def _loss_values(evaluator, points: np.ndarray):
    """``evaluator(points)``, refused with ValueError unless it holds one value
    per point, shape ``points.shape[:-1]``: a trailing axis would broadcast
    against the noise into a (rows, rows) array.
    """
    values = evaluator(points)
    if np.shape(values) != points.shape[:-1]:
        raise ValueError(
            f"the loss returned shape {np.shape(values)} for points of shape "
            f"{points.shape}; it must return shape {points.shape[:-1]}, one value per point"
        )
    return values


def _sp_step(evaluator, theta, shift, noise, a_k=None, out=None):
    """The gradient estimate and, given ``a_k``, the SPSA update.

    ``shift`` is ``c_k * delta``, shaped like ``theta`` (..., p); it is used as
    scratch and holds the gradient estimate afterwards. Without ``a_k`` the
    estimate is returned; with it, ``theta - a_k * estimate`` is written into
    ``out`` (which may be ``theta``) and returned. The loss difference is
    divided into the doubled shift along the leading axes, one pass per
    component, through transposed views of ``shift``, so ``shift`` may have
    any memory layout. Callers check the inputs and set the floating-point
    error state; a loss value of the wrong shape raises ValueError.
    """
    point = theta + shift
    # a new array, so ``point`` is free again even if the result is a view of it
    diff = _loss_values(evaluator, point) + noise
    diff -= _loss_values(evaluator, np.subtract(theta, shift, out=point))
    shift *= 2.0
    # the transposed views put the rows innermost; broadcasting diff against
    # the (..., p) shift would run one p-long inner loop per row. That pays
    # at small p; from p = 40 on the strided rows make this pass slower
    np.divide(np.asarray(diff).T, shift.T, out=shift.T, order="C")
    if a_k is None:
        return shift
    shift *= a_k
    return np.subtract(theta, shift, out=out)


def sp_gradient(problem: ProblemConfig, theta, c_k: float, delta, noise) -> np.ndarray:
    """Simultaneous-perturbation gradient estimate from two evaluations.

    Component i is [L(theta + c_k*delta) - L(theta - c_k*delta) + noise] /
    (2*c_k*delta_i), where ``noise`` is the difference eps_plus - eps_minus of
    the two evaluations' measurement noises. Exactly two loss evaluations are
    performed regardless of dimension.

    ``theta`` and ``delta`` have shape (..., p) and ``noise`` shape (...), so
    a block of replicates steps in one call; row r of the result equals the
    call on row r alone, bit for bit. A shift c_k*delta_i that rounds to 0
    raises ValueError.
    """
    theta = np.asarray(theta, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if theta.shape[-1:] != (problem.p,) or delta.shape != theta.shape:
        raise ValueError(f"theta and delta must have the same shape (..., {problem.p})")
    if not (c_k > 0.0):
        raise ValueError("c_k must be positive")
    _check_nonzero(delta)
    shift = c_k * delta
    if not shift.all():
        raise ValueError("c_k * delta rounds to 0")
    # y+ + noise - y- in float64, as in spsa_run, also for a float32 loss
    noise = np.asarray(noise, dtype=float)
    return _sp_step(problem.loss.evaluator, theta, shift, noise)


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
) -> SpsaRun:
    """Run the optimizer for k_max iterations, returning the full trajectory.

    Each iteration consumes p + 1 uniforms of ``rng``: one for each of the p
    perturbation components, then one behind the N(0, 2 * sigma2) noise
    difference, in that order. All k_max * (p + 1) of them are drawn up front
    in one ``rng.random((k_max, p + 1))`` call, so a run that diverges leaves
    ``rng`` where a finished one does. ``dist`` only needs a
    ``deltas_from_uniforms(u)`` method, which maps a (k_max, p) array of
    uniforms elementwise to perturbation components. A zero component, a c_k
    that underflows to 0 and a shift c_k * delta_i that rounds to 0 (named by
    its first k) each raise ValueError before any loss evaluation.
    Each step runs on Python floats. The loss is called as its ``formula`` on
    p Python floats or, for a loss without one, as its ``evaluator`` on a new
    (p,) array; either value is taken with ``float``.
    """
    if k_max < 1:
        raise ValueError("k_max must be a positive integer")
    p = problem.p
    u = rng.random((k_max, p + 1))
    deltas = np.asarray(dist.deltas_from_uniforms(u[:, :p]), dtype=float)
    if deltas.shape != (k_max, p):
        raise ValueError(f"deltas_from_uniforms must keep the shape ({k_max}, {p}) of its input")
    _check_nonzero(deltas)
    gains_c = np.array([schedule.gain_c(k) for k in range(k_max)])
    if not gains_c.min() > 0.0:  # a tiny c underflows at large k
        raise ValueError("c_k must be positive")
    shifts = gains_c[:, None] * deltas
    zero_rows = np.flatnonzero(~shifts.all(axis=1))
    if zero_rows.size:
        raise ValueError(f"c_k * delta rounds to 0 at k = {zero_rows[0]}")
    noise = (math.sqrt(2.0 * problem.sigma2) * standard_normal_from_uniform(u[:, p])).tolist()
    gains_a = [schedule.gain_a(k) for k in range(k_max)]
    loss = problem.loss.formula
    if loss is None:
        evaluator = problem.loss.evaluator

        def loss(*point):
            return _loss_values(evaluator, np.array(point))

    # _sp_step's operations in its order, on one row of Python floats
    theta = list(problem.theta0)
    rows = [theta]
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (shift, noise_k, a_k) in enumerate(zip(shifts.tolist(), noise, gains_a)):
            diff = float(loss(*map(operator.add, theta, shift))) + noise_k
            diff -= float(loss(*map(operator.sub, theta, shift)))
            theta = [t - diff / (s * 2.0) * a_k for t, s in zip(theta, shift)]
            if not all(map(math.isfinite, theta)):
                trajectory = np.full((k_max + 1, p), np.nan)
                trajectory[: k + 1] = rows
                return SpsaRun(trajectory, 2 * (k + 1), diverged=True, diverged_at=k)
            rows.append(theta)
    return SpsaRun(np.array(rows), 2 * k_max)


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
