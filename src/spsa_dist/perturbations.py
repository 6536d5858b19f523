"""Perturbation-component distributions for simultaneous perturbation gradients.

Two interchangeable laws are provided, both symmetric about zero with mean 0
and variance 1:

* ``bernoulli``: the two-point distribution on {-1, +1}.
* ``segmented_uniform``: uniform on (-OUTER, -INNER) u (INNER, OUTER).  The
  endpoints INNER = (19 - 3*sqrt(13))/20 and OUTER = (19 + 3*sqrt(13))/20 are
  the unique pair that makes a symmetric two-segment uniform law have unit
  variance; numerically the support is about (-1.4908, -0.4092) u (0.4092,
  1.4908).

Both laws keep probability mass away from zero, so the inverse second moment
E[1/X^2] is finite: 1 for the Bernoulli and 100/61 for the segmented uniform
(INNER * OUTER = 61/100 in closed form).  That property, together with
symmetry and bounded support, is what makes a law admissible as an SPSA
perturbation distribution; see :func:`validate_for_spsa`.

All distribution objects are immutable and safe to share across threads.
Randomness enters only through caller-supplied ``numpy.random.Generator``
handles, and every component consumes a fixed number of uniform draws
(1 for Bernoulli, 2 for segmented uniform), which keeps parallel replicate
streams alignable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

__all__ = [
    "SEGMENT_INNER",
    "SEGMENT_OUTER",
    "MomentSet",
    "DistributionProperties",
    "ValidityResult",
    "PerturbationDistribution",
    "Bernoulli",
    "SegmentedUniform",
    "BERNOULLI",
    "SEGMENTED_UNIFORM",
    "DISTRIBUTIONS",
    "from_name",
    "validate_for_spsa",
]

# Closed-form support endpoints of the segmented uniform law, evaluated once
# in double precision. Decimal approximations belong in I/O only.
SEGMENT_INNER = (19.0 - 3.0 * math.sqrt(13.0)) / 20.0
SEGMENT_OUTER = (19.0 + 3.0 * math.sqrt(13.0)) / 20.0
_SEGMENT_WIDTH = 3.0 * math.sqrt(13.0) / 10.0
_SEGMENT_DENSITY = 5.0 / (3.0 * math.sqrt(13.0))  # 1 / (2 * width)


@dataclass(frozen=True)
class MomentSet:
    """Exact moments of a perturbation law needed by the MSE analysis.

    ``ratio_second`` is E[X_i^2 / X_j^2] and ``cross_ratio`` is E[X_i / X_j]
    for independent components i != j; by independence they factor into
    ``variance * inv_second`` and ``mean * E[1/X]`` respectively.
    """

    mean: float
    variance: float
    inv_second: float
    ratio_second: float
    cross_ratio: float


@dataclass(frozen=True)
class DistributionProperties:
    """Structural facts about a law that decide SPSA admissibility."""

    symmetric: bool
    bounded: bool
    inv_second_finite: bool


@dataclass(frozen=True)
class ValidityResult:
    valid: bool
    violations: tuple[str, ...]


# Moments as exact rationals; floating values are derived from these.
_EXACT_MOMENTS: dict[str, dict[str, Fraction]] = {
    "bernoulli": {
        "mean": Fraction(0),
        "variance": Fraction(1),
        "inv_second": Fraction(1),
        "ratio_second": Fraction(1),
        "cross_ratio": Fraction(0),
    },
    "segmented_uniform": {
        "mean": Fraction(0),
        "variance": Fraction(1),
        "inv_second": Fraction(100, 61),
        "ratio_second": Fraction(100, 61),
        "cross_ratio": Fraction(0),
    },
}


class PerturbationDistribution:
    """A symmetric, unit-variance law for perturbation-vector components."""

    name: str = ""
    uniform_draws_per_component: int = 0

    def deltas_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Transform uniform draws into perturbation components.

        ``u`` has shape ``(..., uniform_draws_per_component)`` with entries in
        [0, 1); the result has shape ``(...)``. This is the pure transform
        behind all sampling, exposed so that simulation harnesses can draw
        their uniforms from seekable streams.
        """
        raise NotImplementedError

    def sample_array(self, rng: np.random.Generator, shape) -> np.ndarray:
        """:meth:`deltas_from_uniforms` on the next draws of ``rng``, row-major."""
        if isinstance(shape, int):
            shape = (shape,)
        total = int(np.prod(shape, dtype=int)) if shape else 1
        u = rng.random((total, self.uniform_draws_per_component))
        return self.deltas_from_uniforms(u).reshape(shape)

    def moments(self) -> MomentSet:
        exact = _EXACT_MOMENTS[self.name]
        return MomentSet(**{field: float(value) for field, value in exact.items()})

    def exact_moments(self) -> dict[str, Fraction]:
        """The moments of :meth:`moments` as exact rationals."""
        return dict(_EXACT_MOMENTS[self.name])

    def properties(self) -> DistributionProperties:
        # Both built-in laws are symmetric, bounded, and keep mass away from 0.
        return DistributionProperties(symmetric=True, bounded=True, inv_second_finite=True)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Bernoulli(PerturbationDistribution):
    """Two-point law on {-1, +1}, each with probability 1/2."""

    name = "bernoulli"
    uniform_draws_per_component = 1

    def deltas_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        return np.where(u[..., 0] < 0.5, -1.0, 1.0)


class SegmentedUniform(PerturbationDistribution):
    """Uniform law on (-OUTER, -INNER) u (INNER, OUTER) with unit variance.

    Sampling is sign-times-magnitude: one uniform draw picks the sign, a
    second picks the magnitude uniformly on (INNER, OUTER). This is exact and
    consumes exactly two draws per component, unlike rejection sampling.
    """

    name = "segmented_uniform"
    uniform_draws_per_component = 2
    inner = SEGMENT_INNER
    outer = SEGMENT_OUTER
    density_value = _SEGMENT_DENSITY

    def deltas_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=float)
        sign = np.where(u[..., 0] < 0.5, -1.0, 1.0)
        magnitude = self.inner + _SEGMENT_WIDTH * u[..., 1]
        return sign * magnitude

    def density(self, x):
        """Density of the law; zero on [-INNER, INNER] and outside the support."""
        ax = np.abs(np.asarray(x, dtype=float))
        value = np.where((ax > self.inner) & (ax < self.outer), self.density_value, 0.0)
        return float(value) if np.ndim(x) == 0 else value

    def cdf(self, x):
        x_arr = np.asarray(x, dtype=float)
        scale = 2.0 * _SEGMENT_WIDTH
        value = np.select(
            [
                x_arr <= -self.outer,
                x_arr < -self.inner,
                x_arr < self.inner,
                x_arr < self.outer,
            ],
            [
                0.0,
                (x_arr + self.outer) / scale,
                0.5,
                0.5 + (x_arr - self.inner) / scale,
            ],
            default=1.0,
        )
        return float(value) if np.ndim(x) == 0 else value

    def inverse_cdf(self, u):
        """Quantile function; strictly increasing on each half of the support.

        u < 0.5 maps into (-OUTER, -INNER], u >= 0.5 maps into [INNER, OUTER).
        The tie at u = 0.5 goes to +INNER, a fixed measure-zero convention.
        """
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
            raise ValueError("inverse_cdf argument must lie in [0, 1]")
        scale = 2.0 * _SEGMENT_WIDTH
        value = np.where(
            u_arr < 0.5,
            -self.outer + scale * u_arr,
            self.inner + scale * (u_arr - 0.5),
        )
        return float(value) if np.ndim(u) == 0 else value


BERNOULLI = Bernoulli()
SEGMENTED_UNIFORM = SegmentedUniform()

#: Config-file names of the built-in laws.
DISTRIBUTIONS: dict[str, PerturbationDistribution] = {
    BERNOULLI.name: BERNOULLI,
    SEGMENTED_UNIFORM.name: SEGMENTED_UNIFORM,
}


def from_name(name: str) -> PerturbationDistribution:
    try:
        return DISTRIBUTIONS[name]
    except KeyError:
        valid = ", ".join(sorted(DISTRIBUTIONS))
        raise ValueError(
            f'"{name}" is not a valid SPSA perturbation distribution (valid: {valid})'
        ) from None


def validate_for_spsa(properties: DistributionProperties) -> ValidityResult:
    """Gate a law on the structural requirements of SPSA perturbations.

    A law is admissible iff it is symmetric about zero, bounded in magnitude,
    and has a finite inverse second moment. The gate takes structural facts
    rather than samples because finiteness of E[1/X^2] cannot be decided
    empirically: the symmetric uniform and the mean-zero normal both fail it
    through their mass near zero, yet finite samples cannot show that.
    """
    violations = []
    if not properties.symmetric:
        violations.append("not symmetric about zero")
    if not properties.bounded:
        violations.append("magnitude is not uniformly bounded")
    if not properties.inv_second_finite:
        violations.append("inverse second moment E[1/X^2] is not finite")
    return ValidityResult(valid=not violations, violations=tuple(violations))
