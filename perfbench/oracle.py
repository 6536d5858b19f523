"""Reference values for the benchmark's correctness checks.

Everything here is derived from the problem definitions stated in the paper
and the package README (loss formulas, gain-sequence forms, the two
perturbation laws); nothing is imported from ``spsa_dist``. The benchmark
compares the program's outputs against these values.

* :func:`quadratic_mse` -- the exact second-moment recursion for
  E||theta_k - theta*||^2 on a quadratic loss, at every k.
* :func:`quartic_mse_k1` -- the exact one-step MSE on the quartic loss:
  the Bernoulli law by enumerating its four sign patterns, the segmented
  uniform by Gauss-Legendre quadrature over its 2-D density, the Gaussian
  noise term in closed form.
* :data:`TABLE3` -- the paper's Table 3 (quartic loss) for later k.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

BERNOULLI = "bernoulli"
SEGMENTED_UNIFORM = "segmented_uniform"
LAWS = (BERNOULLI, SEGMENTED_UNIFORM)

# Gain sequences a_k = a / (k + 2)^0.602 and c_k = c / (k + 1)^0.101.
GAIN_EXPONENT_A = 0.602
GAIN_EXPONENT_C = 0.101

# The segmented uniform is uniform on (-b, -a) u (a, b) with a + b = 1.9.
# Unit variance, (a^2 + ab + b^2) / 3 = 1, then fixes ab = 1.9^2 - 3 = 0.61.
_SUM = 1.9
_PRODUCT = _SUM**2 - 3.0
SEGMENT_INNER = (_SUM - math.sqrt(_SUM**2 - 4.0 * _PRODUCT)) / 2.0
SEGMENT_OUTER = (_SUM + math.sqrt(_SUM**2 - 4.0 * _PRODUCT)) / 2.0

# The paper's Table 3: quartic loss, MSE (bernoulli, segmented uniform).
TABLE3 = {
    1: (1.7891, 1.5255),
    2: (1.2811, 1.2592),
    5: (0.6500, 0.9122),
    1000: (0.0024, 0.0049),
}
TABLE3_TOLERANCE = 0.05


def gain_a(a: float, k: int) -> float:
    return a / (k + 2) ** GAIN_EXPONENT_A


def gain_c(c: float, k: int) -> float:
    return c / (k + 1) ** GAIN_EXPONENT_C


def power_moments(law: str) -> dict[int, float]:
    """E[X^n] for n in -2..2 of one perturbation component."""
    if law == BERNOULLI:
        inv_second = 1.0
    elif law == SEGMENTED_UNIFORM:
        # (1 / (b - a)) * integral_a^b x^-2 dx = 1 / (ab)
        inv_second = 1.0 / (SEGMENT_INNER * SEGMENT_OUTER)
    else:
        raise ValueError(f"unknown law {law!r}")
    # symmetric laws: odd powers vanish; both laws have unit variance
    return {-2: inv_second, -1: 0.0, 0: 1.0, 1: 0.0, 2: 1.0}


def _ratio_tensor(law: str, p: int) -> np.ndarray:
    """T[i, j, k, l] = E[X_j X_l / (X_i X_k)] for i.i.d. components."""
    moments = power_moments(law)
    tensor = np.empty((p, p, p, p))
    for i, j, k, l in itertools.product(range(p), repeat=4):
        power = [0] * p
        power[j] += 1
        power[l] += 1
        power[i] -= 1
        power[k] -= 1
        tensor[i, j, k, l] = math.prod(moments[n] for n in power)
    return tensor


def quadratic_mse(
    hessian, theta0, theta_star, a: float, c: float, sigma2: float, law: str, k_max: int
) -> list[float]:
    """Exact E||theta_k - theta*||^2 for k = 0..k_max on L = e'He/2 + const.

    With B = X^-1 X' (B_ij = X_j / X_i), one step is
    e' = (I - a_k B H) e - a_k (eps_+ - eps_-) / (2 c_k) X^-1, so the second
    moment S = E[e e'] obeys
    S' = S - a_k (HS + SH) + a_k^2 E[B HSH B'] + a_k^2 sigma2 E[1/X^2] / (2 c_k^2) I.
    """
    hessian = np.asarray(hessian, dtype=float)
    p = hessian.shape[0]
    err = np.asarray(theta0, dtype=float) - np.asarray(theta_star, dtype=float)
    second = np.outer(err, err)
    tensor = _ratio_tensor(law, p)
    inv_second = power_moments(law)[-2]
    mse = [float(np.trace(second))]
    for k in range(k_max):
        a_k = gain_a(a, k)
        c_k = gain_c(c, k)
        gram = hessian @ second @ hessian
        spread = np.einsum("ijkl,jl->ik", tensor, gram)
        second = (
            second
            - a_k * (hessian @ second + second @ hessian)
            + a_k**2 * spread
            + a_k**2 * sigma2 * inv_second / (2.0 * c_k**2) * np.eye(p)
        )
        mse.append(float(np.trace(second)))
    return mse


def one_step_mse_given_delta(loss, theta0, theta_star, a0: float, c0: float, sigma2: float, delta):
    """E over the noise of ||theta_1 - theta*||^2 for one perturbation vector.

    ``delta`` has shape (..., p). theta_1 = theta0 - a0 (D + e) / (2 c0) / delta
    with D = L(theta0 + c0 delta) - L(theta0 - c0 delta) and e ~ N(0, 2 sigma2).
    """
    theta0 = np.asarray(theta0, dtype=float)
    delta = np.asarray(delta, dtype=float)
    diff = loss(theta0 + c0 * delta) - loss(theta0 - c0 * delta)
    scale = a0 / (2.0 * c0)
    mean_err = theta0 - np.asarray(theta_star, dtype=float) - scale * diff[..., None] / delta
    noise = scale**2 * 2.0 * sigma2 * (1.0 / delta**2).sum(axis=-1)
    return (mean_err**2).sum(axis=-1) + noise


def sign_patterns(p: int) -> np.ndarray:
    """All 2^p Bernoulli perturbation vectors, each with probability 2^-p."""
    return np.array(list(itertools.product((-1.0, 1.0), repeat=p)))


def segmented_uniform_rule(nodes: int = 40) -> tuple[np.ndarray, np.ndarray]:
    """1-D quadrature nodes and weights for the segmented-uniform density."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = (SEGMENT_OUTER - SEGMENT_INNER) / 2.0
    mid = (SEGMENT_OUTER + SEGMENT_INNER) / 2.0
    density = 1.0 / (2.0 * (SEGMENT_OUTER - SEGMENT_INNER))
    points = np.concatenate([-(mid + half * x), mid + half * x])
    weights = np.concatenate([w, w]) * half * density
    return points, weights


def quartic_loss(theta):
    t1, t2 = theta[..., 0], theta[..., 1]
    return t1**4 + t1 * t1 + t1 * t2 + t2 * t2


def quadratic_loss(theta):
    t1, t2 = theta[..., 0], theta[..., 1]
    return t1 * t1 - t1 * t2 + t2 * t2


# quadratic_loss(e) = e' H e / 2
QUADRATIC_HESSIAN = ((2.0, -1.0), (-1.0, 2.0))


def quartic_mse_k1(theta0, theta_star, a: float, c: float, sigma2: float, law: str) -> float:
    """Exact one-step MSE on the quartic loss of the paper's Table 3."""
    a0, c0 = gain_a(a, 0), gain_c(c, 0)
    if law == BERNOULLI:
        deltas = sign_patterns(2)
        values = one_step_mse_given_delta(quartic_loss, theta0, theta_star, a0, c0, sigma2, deltas)
        return float(values.mean())
    points, weights = segmented_uniform_rule()
    d1, d2 = np.meshgrid(points, points, indexing="ij")
    deltas = np.stack([d1, d2], axis=-1)
    values = one_step_mse_given_delta(quartic_loss, theta0, theta_star, a0, c0, sigma2, deltas)
    return float(np.einsum("i,j,ij->", weights, weights, values))
