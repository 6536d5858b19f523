import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, stats

from spsa_dist.perturbations import (
    BERNOULLI,
    SEGMENTED_UNIFORM,
    SEGMENT_INNER,
    SEGMENT_OUTER,
    DistributionProperties,
    from_name,
    validate_for_spsa,
)

BOTH = (BERNOULLI, SEGMENTED_UNIFORM)


def test_endpoints_match_closed_form():
    root = math.sqrt(13.0)
    assert SEGMENT_INNER == (19.0 - 3.0 * root) / 20.0
    assert SEGMENT_OUTER == (19.0 + 3.0 * root) / 20.0
    assert SEGMENT_INNER == pytest.approx(0.4092, abs=5e-5)
    assert SEGMENT_OUTER == pytest.approx(1.4908, abs=5e-5)


def test_bernoulli_support():
    rng = np.random.default_rng(11)
    x = BERNOULLI.sample_array(rng, 1000)
    assert set(np.unique(x)) == {-1.0, 1.0}


def test_segmented_uniform_support():
    rng = np.random.default_rng(12)
    x = SEGMENTED_UNIFORM.sample_array(rng, 100_000)
    mag = np.abs(x)
    assert mag.min() > SEGMENT_INNER
    assert mag.max() < SEGMENT_OUTER
    assert (x < 0).any() and (x > 0).any()


@pytest.mark.parametrize("dist", BOTH, ids=lambda d: d.name)
def test_sample_mean_bound(dist):
    n = 1_000_000
    rng = np.random.default_rng(13)
    x = dist.sample_array(rng, n)
    assert abs(x.mean()) <= 5.0 / math.sqrt(n)


def test_segmented_uniform_monte_carlo_moments():
    n = 1_000_000
    rng = np.random.default_rng(14)
    x = SEGMENTED_UNIFORM.sample_array(rng, n)
    assert abs(x.mean()) <= 4.0 / math.sqrt(n)
    inv_second = float((1.0 / (x * x)).mean())
    assert inv_second == pytest.approx(100.0 / 61.0, rel=0.01)


def test_density_values():
    su = SEGMENTED_UNIFORM
    assert su.density(1.0) == pytest.approx(5.0 / (3.0 * math.sqrt(13.0)), rel=1e-15)
    assert round(su.density(1.0), 5) == 0.46225
    assert su.density(0.0) == 0.0
    assert su.density(2.0) == 0.0
    assert su.density(-1.0) == su.density(1.0)
    assert su.density(0.2) == 0.0  # inside the gap


def test_density_normalization_quadrature():
    su = SEGMENTED_UNIFORM
    total, _ = integrate.quad(
        su.density,
        -2.0,
        2.0,
        points=[-su.outer, -su.inner, su.inner, su.outer],
        limit=200,
    )
    assert total == pytest.approx(1.0, abs=1e-9)


def test_inv_second_moment_quadrature():
    su = SEGMENTED_UNIFORM
    half, _ = integrate.quad(lambda x: su.density(x) / (x * x), su.inner, su.outer, limit=200)
    assert 2.0 * half == pytest.approx(100.0 / 61.0, abs=1e-10)


def test_analytic_moments_exact_values():
    b = BERNOULLI.moments()
    assert (b.mean, b.cross_ratio, b.ratio_second, b.inv_second) == (0.0, 0.0, 1.0, 1.0)
    assert b.variance == 1.0
    su = SEGMENTED_UNIFORM.moments()
    assert su.mean == 0.0 and su.cross_ratio == 0.0
    assert su.inv_second == 100.0 / 61.0
    assert su.ratio_second == su.variance * su.inv_second
    assert SEGMENTED_UNIFORM.exact_moments()["inv_second"] == Fraction(100, 61)
    # closed-form product of the endpoints backs the rational value
    assert SEGMENT_INNER * SEGMENT_OUTER == pytest.approx(61.0 / 100.0, abs=1e-15)


def test_inverse_cdf_exact_points():
    su = SEGMENTED_UNIFORM
    assert su.inverse_cdf(0.25) == pytest.approx(-0.95, abs=1e-12)
    assert su.inverse_cdf(0.75) == pytest.approx(0.95, abs=1e-12)
    assert su.inverse_cdf(0.0) == pytest.approx(-su.outer, abs=1e-15)
    assert su.inverse_cdf(1.0) == pytest.approx(su.outer, abs=1e-15)
    assert su.inverse_cdf(0.5) == su.inner  # tie goes to the right segment


def test_inverse_cdf_domain_error():
    with pytest.raises(ValueError):
        SEGMENTED_UNIFORM.inverse_cdf(-0.01)
    with pytest.raises(ValueError):
        SEGMENTED_UNIFORM.inverse_cdf(1.01)


def test_inverse_cdf_round_trip():
    su = SEGMENTED_UNIFORM
    margin = 1e-9
    grid = np.concatenate(
        [
            np.linspace(-su.outer + margin, -su.inner - margin, 500),
            np.linspace(su.inner + margin, su.outer - margin, 500),
        ]
    )
    back = su.inverse_cdf(su.cdf(grid))
    assert np.max(np.abs(back - grid)) <= 1e-12


def test_inverse_cdf_monotone_halves():
    su = SEGMENTED_UNIFORM
    lo = su.inverse_cdf(np.linspace(0.0, 0.5 - 1e-12, 200))
    hi = su.inverse_cdf(np.linspace(0.5, 1.0, 200))
    assert np.all(np.diff(lo) > 0) and np.all(np.diff(hi) > 0)
    assert lo.max() <= -su.inner and hi.min() >= su.inner


@pytest.mark.parametrize("dist", BOTH, ids=lambda d: d.name)
def test_sign_symmetry_ks(dist):
    n = 100_000
    rng = np.random.default_rng(15)
    x = dist.sample_array(rng, n)
    y = dist.sample_array(rng, n)
    statistic = stats.ks_2samp(x, -y).statistic
    critical_1pct = 1.628 * math.sqrt(2.0 / n)
    assert statistic < critical_1pct


@pytest.mark.parametrize("dist", BOTH, ids=lambda d: d.name)
def test_scalar_and_vector_sampling_align(dist):
    uniforms = np.random.default_rng(16).random((8, dist.uniform_draws_per_component))
    vector = dist.sample_array(np.random.default_rng(16), 8)
    assert np.array_equal(dist.deltas_from_uniforms(uniforms), vector)


@pytest.mark.parametrize("dist", BOTH, ids=lambda d: d.name)
def test_fixed_draw_consumption(dist):
    n = 7
    rng = np.random.default_rng(17)
    dist.sample_array(rng, n)
    probe_after = rng.random()
    reference = np.random.default_rng(17)
    reference.random(n * dist.uniform_draws_per_component)
    assert probe_after == reference.random()


def test_validity_gate():
    for dist in BOTH:
        verdict = validate_for_spsa(dist.properties())
        assert verdict.valid and verdict.violations == ()
    # symmetric uniform on (-sqrt(3), sqrt(3)): mass at zero kills E[1/X^2]
    uniform = validate_for_spsa(
        DistributionProperties(symmetric=True, bounded=True, inv_second_finite=False)
    )
    assert not uniform.valid
    assert any("inverse second moment" in v for v in uniform.violations)
    # mean-zero normal: unbounded and diverging inverse moment
    normal = validate_for_spsa(
        DistributionProperties(symmetric=True, bounded=False, inv_second_finite=False)
    )
    assert not normal.valid
    assert len(normal.violations) == 2
    asym = validate_for_spsa(
        DistributionProperties(symmetric=False, bounded=True, inv_second_finite=True)
    )
    assert not asym.valid
    assert any("symmetric" in v for v in asym.violations)


def test_from_name():
    assert from_name("bernoulli") is BERNOULLI
    assert from_name("segmented_uniform") is SEGMENTED_UNIFORM
    with pytest.raises(ValueError, match="not a valid SPSA perturbation distribution"):
        from_name("uniform")
