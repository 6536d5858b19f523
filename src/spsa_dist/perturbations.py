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
perturbation distribution.

All distribution objects are immutable and safe to share across threads. Each
component of either law is a function of exactly one uniform, which keeps
parallel replicate streams alignable: the harness passes stream words to
``deltas_from_uniforms``, and ``sample_array`` draws from a caller's Generator.
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
    "PerturbationDistribution",
    "Bernoulli",
    "SegmentedUniform",
    "BERNOULLI",
    "SEGMENTED_UNIFORM",
    "DISTRIBUTIONS",
    "from_name",
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


class PerturbationDistribution:
    """A symmetric, unit-variance law for perturbation-vector components."""

    name: str = ""
    _inv_second: Fraction  # E[1/X^2], the one moment in which the laws differ

    def deltas_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        """Map each uniform draw in [0, 1) to one component, elementwise.

        This is the pure transform behind all sampling, exposed so that
        simulation harnesses can draw their uniforms from seekable streams,
        and the one method ``core.spsa_run`` calls, once per run.
        """
        raise NotImplementedError

    def sample_array(self, rng: np.random.Generator, shape) -> np.ndarray:
        """:meth:`deltas_from_uniforms` on the next draws of ``rng``, row-major."""
        return self.deltas_from_uniforms(rng.random(shape))

    def moments(self) -> MomentSet:
        return MomentSet(**{field: float(value) for field, value in self.exact_moments().items()})

    def exact_moments(self) -> dict[str, Fraction]:
        """The moments of :meth:`moments` as exact rationals."""
        mean, variance = Fraction(0), Fraction(1)
        return {
            "mean": mean,
            "variance": variance,
            "inv_second": self._inv_second,
            "ratio_second": variance * self._inv_second,
            "cross_ratio": mean,  # times E[1/X]
        }

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class Bernoulli(PerturbationDistribution):
    """Two-point law on {-1, +1}, each with probability 1/2."""

    name = "bernoulli"
    _inv_second = Fraction(1)

    def deltas_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        # the sign of u - 0.5: -1 below one half, +1 from it on (exact on [0, 1))
        return np.copysign(1.0, np.subtract(u, 0.5))


class SegmentedUniform(PerturbationDistribution):
    """Uniform law on (-OUTER, -INNER) u (INNER, OUTER) with unit variance.

    Sampling inverts the cdf exactly, one uniform u per component:
    ``copysign(INNER + 2 * (OUTER - INNER) * |u - 1/2|, u - 1/2)``.
    """

    name = "segmented_uniform"
    _inv_second = Fraction(100, 61)  # 1 / (INNER * OUTER)
    inner = SEGMENT_INNER
    outer = SEGMENT_OUTER

    def deltas_from_uniforms(self, u: np.ndarray) -> np.ndarray:
        centred = np.subtract(u, 0.5)
        # in place, to hold two arrays of the output's size; out= keeps 0-d an array
        delta = np.abs(centred, out=np.empty(np.shape(u)))
        delta *= 2.0 * _SEGMENT_WIDTH
        delta += self.inner
        # negative iff u < 0.5, as in Bernoulli
        return np.copysign(delta, centred, out=delta)

    def density(self, x):
        """Density of the law; zero on [-INNER, INNER] and outside the support."""
        ax = np.abs(np.asarray(x, dtype=float))
        value = np.where((ax > self.inner) & (ax < self.outer), _SEGMENT_DENSITY, 0.0)
        return float(value) if np.ndim(x) == 0 else value

    def cdf(self, x):
        """Distribution function: :meth:`deltas_from_uniforms` run backwards, 1/2 on the gap."""
        x_arr = np.asarray(x, dtype=float)
        half = np.clip((np.abs(x_arr) - self.inner) / (2.0 * _SEGMENT_WIDTH), 0.0, 0.5)
        value = 0.5 + np.copysign(half, x_arr)
        return float(value) if np.ndim(x) == 0 else value

    def inverse_cdf(self, u):
        """Quantile function; strictly increasing on each half of the support.

        This is :meth:`deltas_from_uniforms` with a domain check: u < 0.5 maps
        into the negative segment and u >= 0.5 into the positive one. The tie
        at u = 0.5 goes to +INNER, a fixed measure-zero convention.
        """
        u_arr = np.asarray(u, dtype=float)
        if np.any(u_arr < 0.0) or np.any(u_arr > 1.0):
            raise ValueError("inverse_cdf argument must lie in [0, 1]")
        value = self.deltas_from_uniforms(u_arr)
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

