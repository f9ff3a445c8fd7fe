import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import helpers
from gausscurv import weights
from gausscurv.body import gaussian_radial_integral
from gausscurv.errors import AdmissibilityError, QuadratureError
from gausscurv.weights import (
    VALIDATION_GRID,
    integrate_radial,
    make_gaussian_weight,
    make_weight,
    psi,
    radial_moments,
)

# Frozen from a separate high-order quadrature of the normal density on (-40, 1).
PSI_ONE = 0.8413447460685429


def test_gaussian_pair_values():
    wp = make_gaussian_weight()
    assert wp.f(np.array([0.0]))[0] == 1.0
    assert wp.w(np.array([2.0]))[0] == pytest.approx(math.exp(-2.0), rel=1e-15)
    # -f'(1)/1 equals f(1): the area weight reproduces the boundary weight.
    assert -wp.df(np.array([1.0]))[0] == pytest.approx(math.exp(-0.5), rel=1e-15)
    assert wp.monotone_w and wp.is_gaussian


def test_make_weight_inverse_quadratic():
    wp = make_weight(lambda r: 1.0 / (1.0 + r * r), lambda r: -2.0 * r / (1.0 + r * r) ** 2)
    r = np.array([0.3, 1.0, 2.5])
    np.testing.assert_allclose(wp.w(r), 2.0 / (1.0 + r * r) ** 2, rtol=1e-14)
    assert wp.monotone_w


def test_make_weight_exponential_monotone():
    wp = make_weight(lambda r: np.exp(-r), lambda r: -np.exp(-r))
    r = np.array([0.5, 1.5])
    np.testing.assert_allclose(wp.w(r), np.exp(-r) / r, rtol=1e-14)
    assert wp.monotone_w


def test_make_weight_rejects_increasing_f():
    with pytest.raises(AdmissibilityError):
        make_weight(lambda r: 1.0 + r, lambda r: np.ones_like(np.asarray(r, dtype=float)))


def test_make_weight_rejects_negative_f():
    with pytest.raises(AdmissibilityError):
        make_weight(lambda r: 1.0 - r, lambda r: -np.ones_like(np.asarray(r, dtype=float)))


def test_psi_special_values():
    assert psi(0.0) == pytest.approx(0.5, abs=1e-16)
    assert psi(40.0) == pytest.approx(1.0, abs=1e-14)
    assert psi(1.0) == pytest.approx(PSI_ONE, abs=1e-14)


def test_psi_quadrature_cross_check():
    val, _ = quad(lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi), -40.0, 1.0,
                  epsabs=1e-15, epsrel=1e-13, limit=300)
    assert psi(1.0) == pytest.approx(val, abs=5e-14)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-8.0, max_value=8.0))
def test_psi_symmetry_and_monotonicity(s):
    assert psi(s) + psi(-s) == pytest.approx(1.0, abs=1e-14)
    assert psi(s + 1e-3) >= psi(s)


def test_moments_small_radius_limit():
    m = radial_moments(2, 1e-8)
    assert m.a_n == pytest.approx(0.5, abs=1e-12)


def test_moments_recurrence_n3_r1():
    m = radial_moments(3, 1.0)
    assert m.b_n == pytest.approx(3.0 * m.a_n - math.exp(-0.5), abs=1e-12)


def test_moment_c3_independent_quadrature():
    # c_3 at r = 2 is the integral of t^6 e^(-2 t^2) over (0, 1).
    oracle, _ = quad(lambda t: t**6 * np.exp(-2.0 * t * t), 0.0, 1.0, epsabs=1e-16, epsrel=1e-13)
    assert oracle == pytest.approx(0.032344697732067405, abs=1e-15)
    m = radial_moments(3, 2.0)
    assert m.c_n == pytest.approx(oracle, abs=1e-10)
    e = math.exp(-2.0)
    assert m.c_n == pytest.approx(15.0 * m.a_n / 16.0 - 5.0 * e / 16.0 - e / 4.0, abs=1e-10)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("r", [0.1, 0.5, 1.0, 2.0, 4.0])
def test_moment_recurrence_sweep(n, r):
    m = radial_moments(n, r)
    for j, value in zip((0, 2, 4), (m.a_n, m.b_n, m.c_n)):
        assert value == pytest.approx(helpers.quad_radial_moment(n - 1 + j, r), rel=1e-13, abs=0.0), j
    e = math.exp(-0.5 * r * r)
    assert abs(m.b_n - (n * m.a_n - e) / r**2) < 1e-10
    assert abs(m.c_n - ((n * (n + 2) * m.a_n - (n + 2) * e) / r**4 - e / r**2)) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 5, 8])
@pytest.mark.parametrize("r", [30.0, 100.0, 1000.0])
def test_moments_relative_accuracy_at_large_radius(n, r):
    # P(., r^2/2) is 1 to double precision here, so the closed form is exact.
    m = radial_moments(n, r)
    for j, value in zip((0, 2, 4), (m.a_n, m.b_n, m.c_n)):
        exact = gaussian_radial_integral(n + j, r) / r ** (n + j)
        assert value == pytest.approx(exact, rel=1e-13, abs=0.0), j


@pytest.mark.parametrize("n", [3, 8])
def test_moments_closed_form_at_extreme_radii(n):
    # Adaptive quadrature misses the peak within 1e-5 of t = 0 at r = 1e5; the
    # closed form gives Gamma(m/2) 2^(m/2-1) / r^m there, since P(m/2, r^2/2) = 1.
    for r in (1e5, 1e30):
        m = radial_moments(n, r)
        for j, value in zip((0, 2, 4), (m.a_n, m.b_n, m.c_n)):
            p = n + j
            log_exact = math.lgamma(p / 2) + (p / 2 - 1) * math.log(2.0) - p * math.log(r)
            exact = math.exp(log_exact) if log_exact > -745.0 else 0.0
            assert value == pytest.approx(exact, rel=1e-12, abs=1e-323), (r, j)
    # At tiny radii the moments are 1/(n + j) to double precision.
    m = radial_moments(n, 1e-30)
    assert (m.a_n, m.b_n, m.c_n) == (1.0 / n, 1.0 / (n + 2), 1.0 / (n + 4))


def test_moments_recurrence_check_is_relative(monkeypatch):
    # At n = 8, r = 100 the moments are ~1e-15..1e-21, far below any absolute
    # tolerance; a b_n 1e-8 off in relative terms must still be caught.
    moment = weights._moment
    monkeypatch.setattr(
        weights, "_moment", lambda power, r: moment(power, r) * (1.0 + 1e-8 * (power == 9))
    )
    with pytest.raises(QuadratureError, match="recurrence"):
        radial_moments(8, 100.0)


@pytest.mark.parametrize("n", [2, 8])
@pytest.mark.parametrize("r", [1e-300, 1e-100, 1e-5, 3e-4, 1e-3])
def test_moments_at_tiny_radii_hold(n, r):
    # Below r^4 = eps (n + 2)(n + 4) the moments are checked against their r -> 0 limits.
    m = radial_moments(n, r)
    for j, value in zip((0, 2, 4), (m.a_n, m.b_n, m.c_n)):
        assert value == pytest.approx(1.0 / (n + j), rel=1e-6, abs=0.0), j


def test_moments_limit_check_is_relative(monkeypatch):
    moment = weights._moment
    monkeypatch.setattr(
        weights, "_moment", lambda power, r: moment(power, r) * (1.0 + 1e-8 * (power == 9))
    )
    with pytest.raises(QuadratureError, match="recurrence"):
        radial_moments(8, 1e-100)


def test_weight_identity_on_grid():
    # w(r) r + f'(r) = 0 at every sampled radius, for each preset shape.
    for wp in (
        make_gaussian_weight(),
        make_weight(lambda r: 1.0 / (1.0 + r * r), lambda r: -2.0 * r / (1.0 + r * r) ** 2),
    ):
        r = VALIDATION_GRID
        np.testing.assert_allclose(wp.w(r) * r + wp.df(r), 0.0, atol=1e-14)


def test_integrate_radial_batched_gaussian():
    upper = np.array([0.3, 1.0, 2.0, 40.0])
    vals, errs = integrate_radial(lambda t: t * np.exp(-0.5 * t * t), upper)
    np.testing.assert_allclose(vals, 1.0 - np.exp(-0.5 * upper**2), rtol=1e-12, atol=1e-15)
    assert np.all(errs < 1e-10)
