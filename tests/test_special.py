"""Accuracy of the package's special functions against mpmath and scipy."""

import math
import sys

import numpy as np
import pytest
from scipy import special as sc

from gausscurv import special

HALF_INTEGERS = [m / 2 for m in range(1, 13)]


def _relative(value, exact):
    import mpmath

    return float(abs((mpmath.mpf(float(value)) - exact) / exact))


def test_incomplete_gamma_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = np.random.default_rng(20)
    points = [(rng.integers(1, 13) / 2, 10.0 ** rng.uniform(-300, math.log10(700))) for _ in range(300)]
    # Both sides of the switch at x = a, and the ends of the range.
    for a in HALF_INTEGERS:
        points += [(a, x) for x in (a, math.nextafter(a, 0.0), 0.5 * a, 2.0 * a, 1e-300, 700.0)]
    worst = 0.0
    for a, x in points:
        exact_p = mpmath.gammainc(a, 0, x, regularized=True)
        exact_q = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
        for value, exact in ((special.gammainc(a, x), exact_p), (special.gammaincc(a, x), exact_q)):
            if exact > 1e-300:  # below, the value is subnormal or 0
                worst = max(worst, _relative(value, exact))
    assert worst <= 3e-14


def test_scaled_erfc_matches_mpmath():
    # Cody's rational approximations to e^(y^2) erfc(y), over the y = sqrt(x) >= 2^-1/2 that Q reads.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = np.random.default_rng(29)
    ends = [4.0, math.nextafter(4.0, 5.0)]  # the switch between Cody's two ranges
    y = np.concatenate([np.linspace(2**-0.5, 100.0, 2001), rng.uniform(2**-0.5, 30.0, 2000), ends])
    for point, value in zip(y.tolist(), special._erfcx(y).tolist()):
        exact = mpmath.erfc(point) * mpmath.exp(mpmath.mpf(point) ** 2)
        assert _relative(value, exact) <= 1e-15, point


@pytest.mark.parametrize("m", range(1, 17, 2))
def test_upper_incomplete_gamma_at_odd_m_matches_mpmath(m):
    # Q(m/2, x) = e^-x (finite sum + e^x erfc(sqrt x)): 1e-15 relative where Q is a normal float, within
    # one subnormal ulp (or 1e-15 relative) below that, and 0 once Q is below half the least subnormal.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = np.random.default_rng(m)
    x = np.concatenate([np.linspace(m / 2, 800.0, 801), rng.uniform(690.0, 760.0, 800)])
    ulp = mpmath.mpf(2) ** -1074
    for point, value in zip(x.tolist(), special.gammaincc(m / 2, x).tolist()):
        exact = mpmath.gammainc(mpmath.mpf(m) / 2, point, mpmath.inf, regularized=True)
        if exact >= sys.float_info.min:
            assert _relative(value, exact) <= 1e-15, point
        elif exact >= ulp / 2:
            assert abs(value - exact) <= max(ulp, 1e-15 * exact), point
        else:
            assert value == 0.0, point


def test_upper_incomplete_gamma_at_odd_m_agrees_with_scipy():
    # Up to x = 745, where Q(1/2, x) underflows; scipy flushes subnormal values to 0.
    x = np.concatenate([np.linspace(0.0, 745.0, 3001), np.geomspace(0.5, 745.0, 500)])
    for m in range(1, 17, 2):
        expected = sc.gammaincc(m / 2, x)
        normal = expected >= sys.float_info.min
        np.testing.assert_allclose(special.gammaincc(m / 2, x)[normal], expected[normal], rtol=2e-13, atol=0.0)


def test_kummer_sum_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for a in HALF_INTEGERS:
        for x in (0.0, 1e-8, 0.3 * a, a):
            exact = mpmath.hyp1f1(1, a + 1, x)
            assert _relative(special.kummer_sum(a, x), exact) <= 4e-16, (a, x)


def test_incomplete_gamma_values_do_not_depend_on_their_array():
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 12.0, (4, 25))
    for a in (0.5, 1.5, 2.0, 4.0):
        for fn in (special.gammainc, special.gammaincc):
            whole = fn(a, x)
            assert whole.shape == x.shape
            assert np.array_equal(whole[1], fn(a, x[1]))
            assert np.array_equal(whole.ravel(), [fn(a, v) for v in x.ravel()])


def test_incomplete_gamma_edges():
    assert special.gammainc(1.5, np.inf) == 1.0 and special.gammaincc(1.5, np.inf) == 0.0
    assert special.gammainc(2.0, 0.0) == 0.0 and special.gammaincc(2.0, 0.0) == 1.0
    assert special.gammainc(2.0, np.array([])).shape == (0,)
    assert isinstance(special.gammainc(2.5, 1.0), float)
    with pytest.raises(ValueError):
        special.gammainc(1.25, 1.0)
    with pytest.raises(ValueError):
        special.gammaincc(0.0, 1.0)


def test_incomplete_gamma_agrees_with_scipy():
    # scipy's own P reads up to 1.3e-13 off mpmath in this range.
    x = np.concatenate([np.geomspace(1e-300, 700.0, 400), np.linspace(0.0, 20.0, 401)])
    for a in HALF_INTEGERS:
        for ours, theirs in ((special.gammainc, sc.gammainc), (special.gammaincc, sc.gammaincc)):
            expected = theirs(a, x)
            normal = expected > 1e-300
            np.testing.assert_allclose(ours(a, x)[normal], expected[normal], rtol=2e-13, atol=0.0)


def test_incomplete_gamma_inverse_agrees_with_scipy():
    rng = np.random.default_rng(9)
    probabilities = np.concatenate(
        [10.0 ** rng.uniform(-300, 0, 300), 1.0 - 10.0 ** rng.uniform(-15, -0.3, 300), rng.uniform(0.3, 0.7, 100)]
    )
    for p in probabilities:
        a = rng.integers(1, 17) / 2
        x, expected = special.gammaincinv(a, p), sc.gammaincinv(a, p)
        if expected >= np.finfo(float).tiny:
            assert abs(x - expected) <= 1e-13 * expected, (a, p)


def test_incomplete_gamma_inverse_round_trip():
    for a in HALF_INTEGERS:
        for p in (1e-300, 1e-40, 1e-5, 0.3, 0.5, 0.9, 1.0 - 1e-15):
            x = special.gammaincinv(a, p)
            if p <= 0.5:
                assert special.gammainc(a, x) == pytest.approx(p, rel=1e-14)
            else:
                assert special.gammaincc(a, x) == pytest.approx(1.0 - p, rel=1e-14)
    for p in (0.0, 1.0, -0.1, math.nan):
        with pytest.raises(ValueError):
            special.gammaincinv(2.0, p)


def test_incomplete_gamma_inverse_takes_its_complement():
    # A complement of its own inverts Q where p rounds to 1, or above, down to the least normal float,
    # where a single factor e^-x would be subnormal; a subnormal complement is refused.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for a in [m / 2 for m in range(1, 17)]:
        for q in (2.3e-308, 1e-305, 1e-300, 1e-100, 1e-20, 1e-3, 0.4):
            x = special.gammaincinv(a, 1.0 - q, q)
            exact = mpmath.findroot(lambda t: mpmath.log(mpmath.gammainc(a, t, mpmath.inf, regularized=True) / q), x)
            assert _relative(x, exact) <= 1e-15, (a, q)
            assert special.gammaincinv(a, 1.0, q) == x == special.gammaincinv(a, math.nextafter(1.0, 2.0), q)
    for q in (0.0, 1e-310, 0.6, math.nan):
        with pytest.raises(ValueError):
            special.gammaincinv(2.0, 1.0, q)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5, 2.0, 2.5])
def test_gauss_jacobi_nodes_and_moments(alpha):
    mpmath = pytest.importorskip("mpmath")

    for m in range(1, 34):
        t, w = special.gauss_jacobi(m, alpha)
        expected, _ = sc.roots_jacobi(m, alpha, alpha)
        assert np.max(np.abs(t - expected)) <= np.finfo(float).eps, m
        assert np.array_equal(t, -t[::-1]) and np.array_equal(w, w[::-1])
        for k in range(0, 2 * m, 2):  # every even moment the rule integrates exactly
            exact = float(mpmath.beta((k + 1) / 2, alpha + 1))
            assert abs(np.dot(w, t**k) - exact) <= 1e-13 * exact, (m, k)


def test_gauss_jacobi_weights_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for m, alpha in ((17, 1.0), (33, 0.0), (33, 2.5)):
        lam = mpmath.mpf(alpha) + 0.5
        t, w = special.gauss_jacobi(m, alpha)
        exact = []
        for x0 in t:
            x = mpmath.mpf(x0)
            for _ in range(4):  # Newton on C_m^lam at 40 digits
                c_prev, c = mpmath.mpf(1), 2 * lam * x
                for k in range(2, m + 1):
                    c_prev, c = c, (2 * (k + lam - 1) * x * c - (k + 2 * lam - 2) * c_prev) / k
                slope = ((m + 2 * lam - 1) * c_prev - m * x * c) / (1 - x * x)
                x -= c / slope
            exact.append(1 / (c_prev * slope))
        scale = mpmath.beta(0.5, alpha + 1) / mpmath.fsum(exact)
        assert max(_relative(wi, ei * scale) for wi, ei in zip(w, exact)) <= 5e-14, (m, alpha)


def test_gegenbauer_rows_match_scipy():
    rng = np.random.default_rng(4)
    t = np.concatenate([[-1.0, 0.0, 1.0], rng.uniform(-1.0, 1.0, 40), special.gauss_jacobi(17, 1.0)[0]])
    lams = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 5.0]
    stacked = special.gegenbauer(16, np.array(lams), t)
    for i, lam in enumerate(lams):
        rows = special.gegenbauer(16, lam, t)
        assert np.array_equal(stacked[i], rows)
        for k in range(17):
            expected = sc.eval_gegenbauer(k, lam, t)
            assert np.max(np.abs(rows[k] - expected)) <= 1e-14 * np.max(np.abs(expected)), (lam, k)
