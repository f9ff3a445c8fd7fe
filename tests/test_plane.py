import json
import math

import numpy as np
import pytest
from scipy.stats import ncx2

import helpers
from gausscurv import cli, plane
from gausscurv.errors import ConvexityError, QuadratureError
from gausscurv.plane import PolarCurve
from gausscurv.weights import make_gaussian_weight, make_weight

GAUSSIAN = make_gaussian_weight()


def inverse_quadratic():
    return make_weight(lambda r: 1.0 / (1.0 + r * r), lambda r: -2.0 * r / (1.0 + r * r) ** 2)


# ---------------------------------------------------------------------------
# spectral evaluation against dense cos/sin sums


def random_polar_curve(degree, grid_size, seed=0):
    rng = np.random.default_rng(seed)
    scale = 0.3 / np.arange(1, degree + 1) ** 2
    cos_c = np.concatenate([[1.0], rng.uniform(-1.0, 1.0, degree) * scale])
    return PolarCurve(cos_c, rng.uniform(-1.0, 1.0, degree) * scale, grid_size=grid_size)


@pytest.mark.parametrize("degree", [0, 1, 12, 64])
@pytest.mark.parametrize("grid_size", [1024, 4096])
def test_spectral_evaluation_matches_dense_sums(degree, grid_size):
    curve = random_polar_curve(degree, grid_size, seed=degree)
    off_grid = np.random.default_rng(1).uniform(-20.0, 20.0, 997)
    on_grid = (curve.rho, curve.drho, curve.ddrho)
    at = (curve.rho_at, curve.drho_at, curve.ddrho_at)
    for order in range(3):
        dense = helpers.dense_polar(curve, curve.theta, order)
        tol = 1e-13 * max(1.0, float(np.max(np.abs(dense))))
        np.testing.assert_allclose(on_grid[order], dense, rtol=0, atol=tol)
        np.testing.assert_allclose(
            at[order](off_grid), helpers.dense_polar(curve, off_grid, order), rtol=0, atol=tol
        )


# ---------------------------------------------------------------------------
# curvature


def test_circle_curvature_constant():
    c = PolarCurve.circle(2.5)
    theta = np.linspace(0, 2 * np.pi, 7)
    np.testing.assert_allclose(plane.curvature_at(c, theta), 1.0 / 2.5, rtol=1e-14)


def test_ellipse_curvature_major_axis():
    # Classical value a/b^2 at the end of the major axis.
    e = PolarCurve.ellipse(2.0, 1.0)
    assert plane.curvature_at(e, 0.0) == pytest.approx(2.0, rel=1e-10)
    assert plane.curvature_at(e, np.pi / 2) == pytest.approx(1.0 / 4.0, rel=1e-10)


def test_curvature_against_fd_parametrisation():
    for trial in range(100):
        curve = cli.generate_convex_polar(11, 0.1, trial)
        theta, kappa_fd = helpers.fd_curvature(curve)
        kappa = plane.curvature_at(curve, theta)
        np.testing.assert_allclose(kappa, kappa_fd, atol=1e-6)


def test_convex_certificate_nonnegative_curvature():
    curve = cli.generate_convex_polar(5, 0.1, 0)
    assert curve.is_convex()
    assert np.all(plane.curvature_at(curve, curve.theta) >= 0.0)


# ---------------------------------------------------------------------------
# weighted area and matched radius


def test_gaussian_disk_area_closed_form():
    for r in (0.5, 1.0, 2.0):
        c = PolarCurve.circle(r)
        expected = 2 * np.pi * (1 - math.exp(-0.5 * r * r))
        assert plane.weighted_area(c, GAUSSIAN) == pytest.approx(expected, rel=1e-12)


def test_unweighted_area_from_truncated_parabola():
    # f = C - r^2/2 stays positive on the sample grid, giving w = 1:
    # the weighted area is the Euclidean one, pi*a*b for an ellipse.
    wp = make_weight(lambda r: 1e6 - 0.5 * np.asarray(r, dtype=float) ** 2,
                     lambda r: -np.asarray(r, dtype=float))
    e = PolarCurve.ellipse(2.0, 1.0)
    assert plane.weighted_area(e, wp) == pytest.approx(2 * np.pi, rel=1e-10)


def test_weighted_area_monte_carlo_oracle():
    e = PolarCurve.ellipse(1.5, 0.5)
    rng = np.random.default_rng(1234)
    oracle, std_err = helpers.montecarlo_weighted_area(e, GAUSSIAN, rng)
    value = plane.weighted_area(e, GAUSSIAN)
    assert abs(value - oracle) < 3 * std_err


@pytest.mark.parametrize("name", cli.WEIGHT_PRESETS)
def test_centred_area_closed_form_matches_radial_quadrature(name):
    # Integrating t w(t) along each ray is the oracle.
    wp = cli.weight_preset(name)
    curves = [
        PolarCurve.ellipse(1.3, 0.7),
        PolarCurve.circle(2.5),
        cli.generate_star_polar(3, 0.3, 5),
        cli.generate_convex_polar(1, 0.1, 2).scaled(0.05),
    ]
    for c in curves:
        oracle = helpers.ray_weighted_area(c, wp, (0.0, 0.0))
        assert plane.weighted_area(c, wp) == pytest.approx(oracle, rel=1e-13, abs=0.0)
    for r in (0.05, 1.0, 2.5):
        disk = plane.weighted_area(PolarCurve.circle(r), wp)
        assert plane.weighted_disk_area(wp, r) == pytest.approx(disk, rel=1e-14, abs=0.0)


# Unit circles centred at (-dist, 0): the origin is inside for dist < 1, and the
# boundary node theta = 0 lies |1 - dist| from it (on it at dist = 1).


@pytest.mark.parametrize("dist", [0.3, 1 - 1e-4, 1 - 1e-6, 1.0, 1 + 1e-6, 1 + 1e-4, 1.7])
def test_translated_gaussian_area_matches_noncentral_chi2(dist):
    # For X ~ N(0, I) the Gaussian area of a disk D is 2 pi P(X in D), and |X - c|^2
    # is non-central chi-squared with 2 degrees of freedom and non-centrality |c|^2.
    area, err = plane._weighted_area(PolarCurve.circle(1.0), GAUSSIAN, (-dist, 0.0))
    exact = 2 * np.pi * ncx2.cdf(1.0, 2, dist**2)
    assert area == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert abs(area - exact) <= err


@pytest.mark.parametrize("name", ["inverse-quadratic", "exponential"])
@pytest.mark.parametrize("dist", [0.7, 1.1])
def test_translated_area_matches_disk_oracle(name, dist):
    wp = cli.weight_preset(name)
    area, err = plane._weighted_area(PolarCurve.circle(1.0), wp, (-dist, 0.0))
    oracle = helpers.disk_weighted_area(wp, 1.0, dist)
    assert area == pytest.approx(oracle, rel=1e-13, abs=0.0)
    assert abs(area - oracle) <= err


@pytest.mark.parametrize(
    "name, dist",
    [("exponential", 0.99), ("exponential", 1.0), ("exponential", 1.01),
     ("gaussian", 1 - 1e-8), ("inverse-quadratic", 1 + 1e-8)],
)
def test_translated_area_raises_where_grid_is_too_coarse(name, dist):
    # A boundary this close to the origin leaves a peak the 1024-node grid cannot
    # resolve (exp(-r)/r is singular there), or f(0) - f(|x|) loses its digits.
    with pytest.raises(QuadratureError, match="relative"):
        plane.weighted_area(PolarCurve.circle(1.0), cli.weight_preset(name), center=(-dist, 0.0))


@pytest.mark.parametrize("dist", [0.99, 1.01])
def test_translated_area_near_origin_on_refined_grid(dist):
    wp = cli.weight_preset("exponential")
    fine = PolarCurve.circle(1.0).refined(grid_size=16384)
    area, err = plane._weighted_area(fine, wp, (-dist, 0.0))
    oracle = helpers.disk_weighted_area(wp, 1.0, dist)
    assert area == pytest.approx(oracle, rel=1e-12, abs=0.0)
    assert abs(area - oracle) <= err


def test_translated_area_with_origin_inside_matches_root_found_boundary():
    # The origin lies inside every translated body, where exp(-r)/r is singular.
    wp = cli.weight_preset("exponential")
    for trial in range(20):
        curve = cli.generate_convex_polar(7, 0.1, trial)
        area, err = plane._weighted_area(curve, wp, (0.3, -0.2))
        oracle = helpers.star_weighted_area_about(curve, wp, (0.3, -0.2))
        assert area == pytest.approx(oracle, rel=1e-13, abs=0.0)
        assert abs(area - oracle) <= err


@pytest.mark.parametrize("name", cli.WEIGHT_PRESETS)
def test_translated_area_matches_radial_quadrature(name):
    wp = cli.weight_preset(name)
    centers = [(2.5, 0.4), (-1.5, 1.5)] + ([] if name == "exponential" else [(0.3, -0.2)])
    for trial in range(3):
        curve = cli.generate_convex_polar(7, 0.1, trial)
        for center in centers:
            oracle = helpers.ray_weighted_area(curve, wp, center)
            assert plane.weighted_area(curve, wp, center=center) == pytest.approx(oracle, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "dist, name",
    [(dist, name) for dist in (5.0, 8.5, 16.0) for name in cli.WEIGHT_PRESETS]
    + [(12.0, "gaussian"), (25.0, "exponential"), (35.0, "exponential")],
)
def test_far_translated_area_matches_disk_oracle(dist, name):
    # The flux form's f(0) term cancels this far out; the Gaussian area at 16 is 5.6e-51.
    mpmath = pytest.importorskip("mpmath")
    wp = cli.weight_preset(name)
    area, err = plane._weighted_area(PolarCurve.circle(1.0), wp, (dist, 0.0))
    oracle = helpers.mp_far_disk_weighted_area(mpmath, name, 1.0, dist)
    assert area == pytest.approx(oracle, rel=1e-12, abs=0.0)
    assert abs(area - oracle) <= err


@pytest.mark.parametrize("name, dist", [("gaussian", 40.0), ("gaussian", 100.0), ("gaussian", 1e3), ("exponential", 760.0)])
def test_area_where_the_weight_underflows_on_the_boundary_is_zero(name, dist):
    # f(|x|) is 0 at every boundary node, so 0 is the correctly rounded area.
    area, err = plane._weighted_area(PolarCurve.circle(1.0), cli.weight_preset(name), (dist, 0.0))
    assert (area, err) == (0.0, 0.0)


@pytest.mark.parametrize("dist, expected", [(38.0, 5.7758032822638056e-300), (39.0, 2.87398075e-316)])
def test_gaussian_area_just_before_underflow_is_unchanged(dist, expected):
    assert plane.weighted_area(PolarCurve.circle(1.0), GAUSSIAN, (dist, 0.0)) == expected


def test_matched_radius_gaussian_closed_form():
    area = 2 * np.pi * (1 - math.exp(-0.5))
    assert plane.matched_radius(area, GAUSSIAN) == pytest.approx(1.0, rel=1e-14)
    assert plane.matched_radius(1e-12, GAUSSIAN) == pytest.approx(0.0, abs=1e-5)


def test_matched_radius_round_trip_general_weight():
    wp = inverse_quadratic()
    area = plane.weighted_area(PolarCurve.circle(1.0), wp)
    assert plane.matched_radius(area, wp) == pytest.approx(1.0, abs=1e-10)


def test_matched_radius_rejects_unattainable_area():
    with pytest.raises(ValueError):
        plane.matched_radius(10.0, GAUSSIAN)
    with pytest.raises(ValueError):
        plane.matched_radius(7.0, inverse_quadratic())


def _trial_areas(wp):
    return np.array([plane.weighted_area(cli.generate_convex_polar(1, 0.1, t), wp) for t in range(200)])


@pytest.mark.parametrize("name", ["inverse-quadratic", "exponential"])
def test_bisected_radii_match_brentq_oracle(name):
    wp = cli.weight_preset(name)
    areas = _trial_areas(wp)
    radii = np.array([plane.matched_radius(area, wp) for area in areas])
    oracle = np.array([helpers.brentq_matched_radius(a, wp) for a in areas])
    assert np.max(np.abs(radii - oracle) / np.spacing(oracle)) <= 4.0


@pytest.mark.parametrize("name", ["inverse-quadratic", "exponential"])
def test_bisected_radii_match_closed_form_inverses(name):
    mpmath = pytest.importorskip("mpmath")
    inverse = {
        "inverse-quadratic": lambda level: mpmath.sqrt(1 / level - 1),
        "exponential": lambda level: -mpmath.log(level),
    }[name]
    wp = cli.weight_preset(name)
    areas = _trial_areas(wp)
    radii = np.array([plane.matched_radius(area, wp) for area in areas])
    # The level exactly as the library forms it; its inverse to 30 digits.
    levels = plane._f_at(wp, 0.0) - areas / (2.0 * np.pi)
    with mpmath.workdps(30):
        exact = np.array([float(inverse(mpmath.mpf(float(level)))) for level in levels])
    np.testing.assert_allclose(radii, exact, rtol=5e-16, atol=0.0)


def _random_boundary_weights(wp, count=400, size=64, seed=11):
    """Weights ``f(rho)`` on the boundaries of random centred bodies of every attainable size.

    Each body lies inside the disk where ``f`` falls to a level spread
    log-uniformly from ``f(0)`` down to 1e-14 of it (or to ten times
    ``f(_R_MAX)``), so that the far bodies have ``f(rho)`` tiny beside ``f(0)``.
    """
    rng = np.random.default_rng(seed)
    f0 = plane._f_at(wp, 0.0)
    low = max(1e-14 * f0, 10.0 * plane._f_at(wp, plane._R_MAX))
    levels = f0 * (low / f0) ** rng.uniform(0.0, 1.0, count)
    radii = np.array([plane.matched_radius(2.0 * np.pi * (f0 - level), wp) for level in levels])
    return wp.f(radii[:, None] * (1.0 - 0.1 * rng.uniform(0.0, 1.0, (count, size)))), f0


@pytest.mark.parametrize("name", cli.WEIGHT_PRESETS)
def test_matched_disk_energy_closed_form_matches_mpmath(name):
    mpmath = pytest.importorskip("mpmath")
    wp = cli.weight_preset(name)
    f_rho, f0 = _random_boundary_weights(wp)
    energies = plane._matched_disks(f_rho, wp)[0]
    with mpmath.workdps(60):
        # 2 pi f(0) - A, with A the rule's weighted area of the very weights the library sees.
        pi, f0_mp = mpmath.pi, mpmath.mpf(f0)
        exact = np.array(
            [float(2 * pi * f0_mp - 2 * pi * mpmath.fsum(f0_mp - mpmath.mpf(v) for v in row) / len(row)) for row in f_rho]
        )
    assert np.all(np.abs(energies - exact) <= 4.0 * np.spacing(exact))
    # Bodies whose boundary weight is four decades and more below f(0) are among them.
    assert np.min(exact) < 1e-4 * f0


@pytest.mark.parametrize("name", cli.WEIGHT_PRESETS)
def test_matched_disk_energy_equals_energy_at_matched_radius(name):
    wp = cli.weight_preset(name)
    f_rho, f0 = _random_boundary_weights(wp)
    energies = plane._matched_disks(f_rho, wp)[0]
    areas = plane._centred_area(f0, f_rho)[0]
    oracle = np.array([plane.disk_energy(wp, plane.matched_radius(a, wp)) for a in areas])
    err = np.abs(energies - oracle)
    # The oracle carries the rounding of the area, an ulp or so of 2 pi f(0), and f at a
    # rounded radius strays by |f'| times an ulp of that radius.
    assert np.all(err <= 4.0 * np.spacing(2.0 * np.pi * f0))
    half = areas <= np.pi * f0
    assert np.all(err[half] <= 4.0 * np.spacing(energies[half])) and half.sum() >= 5


def test_matched_disk_energy_keeps_the_matched_radius_domain():
    for wp in (GAUSSIAN, inverse_quadratic()):
        f0 = plane._f_at(wp, 0.0)
        with pytest.raises(ValueError, match="must be positive"):
            plane._matched_disks(np.array([[0.5 * f0] * 8, [f0] * 8]), wp)
    # The Gaussian area of a radius-40 circle rounds to the whole mass 2 pi.
    with pytest.raises(ValueError, match="total Gaussian mass"):
        plane.boundary_inverse_weight(PolarCurve.circle(40.0), GAUSSIAN)
    with pytest.raises(ValueError, match="total Gaussian mass"):
        plane.verify_two_sided(PolarCurve.circle(40.0), GAUSSIAN)
    with pytest.raises(ValueError, match="attainable range"):
        plane.boundary_inverse_weight(PolarCurve.circle(1e4), inverse_quadratic())


# ---------------------------------------------------------------------------
# curvature energy


def test_disk_energy_identity():
    for r in (0.1, 0.5, 1.0, 2.0):
        c = PolarCurve.circle(r)
        assert plane.curvature_energy(c, GAUSSIAN) == pytest.approx(
            2 * np.pi * math.exp(-0.5 * r * r), rel=1e-12
        )


def test_total_turning_via_weak_weight():
    # f = e^(-eps r) is admissible and nearly 1, so the energy approaches the
    # total turning 2 pi of any convex closed curve.
    wp = make_weight(lambda r: np.exp(-1e-8 * np.asarray(r, dtype=float)),
                     lambda r: -1e-8 * np.exp(-1e-8 * np.asarray(r, dtype=float)))
    for trial in range(5):
        curve = cli.generate_convex_polar(21, 0.1, trial)
        assert plane.curvature_energy(curve, wp) == pytest.approx(2 * np.pi, abs=1e-6)


def test_energy_against_arclength_oracle():
    e = PolarCurve.ellipse(1.2, 0.8)
    oracle = helpers.arclength_energy(e, GAUSSIAN)
    assert plane.curvature_energy(e, GAUSSIAN) == pytest.approx(oracle, abs=1e-8)


def test_gauss_bonnet_grid_invariant():
    for trial in range(50):
        curve = cli.generate_convex_polar(31, 0.1, trial)
        certificate = helpers.convexity_certificate(curve)
        turning = 2 * np.pi * np.mean(certificate / (curve.rho**2 + curve.drho**2))
        assert turning == pytest.approx(2 * np.pi, abs=1e-8)


# ---------------------------------------------------------------------------
# normal deficiency and the two-sided bound


def test_normal_deficiency_circle_zero():
    c = PolarCurve.circle(1.3)
    np.testing.assert_allclose(plane.normal_deficiency(c, c.theta), 0.0, atol=1e-14)


def test_normal_deficiency_cartesian_oracle():
    e = PolarCurve.ellipse(2.0, 1.0)
    theta = np.array([np.pi / 4])
    pts = e.points(theta)
    nu = helpers.outward_normals(e, theta)
    radius = np.hypot(pts[0, 0], pts[0, 1])
    oracle = radius - (pts[0] @ nu[0]) ** 2 / radius
    assert plane.normal_deficiency(e, theta)[0] == pytest.approx(oracle, abs=1e-10)


def test_normal_deficiency_bounded_by_radius():
    for trial in range(20):
        curve = cli.generate_star_polar(77, 0.25, trial)
        deficiency = plane.normal_deficiency(curve, curve.theta)
        assert np.all(deficiency <= curve.rho + 1e-14)
        assert np.all(deficiency >= -1e-14)


def test_normal_oscillation_sandwich():
    # (1/2)|x| |nu - x/|x||^2 <= deficiency <= |x| |nu - x/|x||^2 on convex curves.
    for trial in range(10):
        curve = cli.generate_convex_polar(13, 0.1, trial)
        theta = curve.theta[::8]
        pts = curve.points(theta)
        nu = helpers.outward_normals(curve, theta)
        radial = pts / np.linalg.norm(pts, axis=1)[:, None]
        osc = np.einsum("ij,ij->i", nu - radial, nu - radial)
        rho = curve.rho_at(theta)
        deficiency = plane.normal_deficiency(curve, theta)
        assert np.all(0.5 * rho * osc <= deficiency + 1e-10)
        assert np.all(deficiency <= rho * osc + 1e-10)


def test_alpha_beta_circle_zero():
    c = PolarCurve.circle(0.8)
    alpha, beta = plane.alpha_beta(c, GAUSSIAN)
    assert alpha == pytest.approx(0.0, abs=1e-14)
    assert beta == pytest.approx(0.0, abs=1e-14)


def test_alpha_below_beta():
    e = PolarCurve.ellipse(1.1, 0.9)
    alpha, beta = plane.alpha_beta(e, GAUSSIAN)
    assert 0.0 < alpha < beta


def test_alpha_beta_arclength_oracle():
    e = PolarCurve.ellipse(1.1, 0.9)
    alpha, beta = plane.alpha_beta(e, GAUSSIAN)

    def alpha_integrand(theta):
        deficiency = plane.normal_deficiency(e, theta)
        rho = e.rho_at(theta)
        return -deficiency * GAUSSIAN.df(rho) / rho

    def beta_integrand(theta):
        deficiency = plane.normal_deficiency(e, theta)
        rho = e.rho_at(theta)
        return deficiency * (GAUSSIAN.f(rho) - rho * GAUSSIAN.df(rho)) / rho**2

    assert alpha == pytest.approx(helpers.arclength_integral(e, alpha_integrand), abs=1e-8)
    assert beta == pytest.approx(helpers.arclength_integral(e, beta_integrand), abs=1e-8)


def test_two_sided_circle_equality():
    two = plane.verify_two_sided(PolarCurve.circle(1.0), GAUSSIAN)
    assert two.lower.passed and two.upper.passed
    assert two.lower.lhs == pytest.approx(0.0, abs=1e-12)
    assert two.upper.rhs == pytest.approx(0.0, abs=1e-12)


def test_two_sided_ellipse():
    two = plane.verify_two_sided(PolarCurve.ellipse(1.05, 0.95), GAUSSIAN)
    assert two.lower.passed and two.upper.passed
    assert two.lower.rhs > 0.0


def test_two_sided_random_sweep():
    for trial in range(50):
        curve = cli.generate_convex_polar(42, 0.05, trial)
        two = plane.verify_two_sided(curve, GAUSSIAN)
        assert two.lower.passed and two.upper.passed


def test_two_sided_rejects_nonconvex():
    wiggly = PolarCurve.from_function(lambda t: 1.0 + 0.2 * np.cos(8 * t))
    assert not wiggly.is_convex()
    with pytest.raises(ConvexityError):
        plane.verify_two_sided(wiggly, GAUSSIAN)


@pytest.mark.parametrize("name", cli.WEIGHT_PRESETS)
def test_stacked_reports_equal_single_reports(name):
    wp = cli.weight_preset(name)
    convex = [cli.generate_convex_polar(6, 0.1, t) for t in range(50)]
    two = plane.verify_two_sided(helpers.stack(convex), wp)
    assert helpers.rows(two) == [plane.verify_two_sided(c, wp) for c in convex]
    star = [cli.generate_star_polar(6, 0.2, t) for t in range(50)]
    rep = plane.boundary_inverse_weight(helpers.stack(star), wp)
    assert helpers.rows(rep) == [plane.boundary_inverse_weight(c, wp) for c in star]
    for columns in (two.lower, two.upper, rep):
        for column in (columns.lhs, columns.rhs, columns.quad_error):
            assert column.shape == (50,) and not column.flags.writeable
        assert columns.passed.dtype == bool and columns.passed.shape == (50,)
        singles = helpers.rows(columns)
        assert columns.margin.tolist() == [r.margin for r in singles]
        assert columns.passed.tolist() == [r.passed for r in singles]


def test_stacked_checks_reject_what_single_checks_reject():
    wiggly = PolarCurve.from_function(lambda t: 1.0 + 0.2 * np.cos(8 * t))
    with pytest.raises(ConvexityError):
        plane.verify_two_sided(helpers.stack([PolarCurve.circle(1.0), wiggly]), GAUSSIAN)


def test_curve_stack_rows_equal_each_curves_own():
    curves = [cli.generate_star_polar(4, 0.3, t) for t in range(40)]
    stack = helpers.stack(curves)
    assert len(stack.rho) == 40 and (stack.degree, stack.grid_size, stack.rule_step) == (12, 1024, 4)
    for name in ("cos_coeffs", "sin_coeffs", "rho", "drho", "ddrho"):
        np.testing.assert_array_equal(getattr(stack, name), np.stack([getattr(c, name) for c in curves]))
    assert stack.convex.tolist() == [c.is_convex() for c in curves]
    assert 0 < stack.convex.sum() < 40
    for name in cli.WEIGHT_PRESETS:
        wp = cli.weight_preset(name)
        singles = [plane.boundary_inverse_weight(c, wp) for c in curves]
        assert helpers.rows(plane.boundary_inverse_weight(stack, wp)) == singles


def test_stacked_reports_compare_column_by_column():
    curves = [cli.generate_convex_polar(5, 0.1, t) for t in range(3)]
    wp = cli.weight_preset("exponential")
    report = plane.boundary_inverse_weight(helpers.stack(curves), wp)
    assert report == plane.boundary_inverse_weight(helpers.stack(curves), wp)
    assert report != plane.boundary_inverse_weight(helpers.stack(curves[:2] + curves[:1]), wp)
    both = plane.verify_two_sided(helpers.stack(curves), wp)
    assert both == plane.verify_two_sided(helpers.stack(curves), wp)
    assert both != plane.verify_two_sided(helpers.stack(curves[::-1]), wp)


def test_curve_stack_row_off_the_origin_fails_both_gates():
    # 0.2 + cos(theta) is negative near theta = pi, so it is no star-shaped curve about 0.
    with pytest.raises(ValueError, match="radius must be positive"):
        PolarCurve([0.2, 1.0], [0.0])
    stack = plane.CurveStack([[1.0, 0.0], [0.2, 1.0]], [[0.0], [0.0]])
    assert stack.convex.tolist() == [True, False]
    with pytest.raises(ConvexityError):
        plane.verify_two_sided(stack, GAUSSIAN)
    with pytest.raises(ValueError, match="origin lies on the boundary"):
        plane.boundary_inverse_weight(stack, GAUSSIAN)


def test_empty_curve_stack_raises():
    with pytest.raises(ValueError, match="a stack needs at least one curve"):
        plane.CurveStack([])


def test_polar_curve_is_a_stack_of_one():
    curve = cli.generate_star_polar(3, 0.3, 0)
    assert isinstance(curve, plane.CurveStack)
    assert curve.rho.shape == (1024,) and curve.on_rule[0].shape == (256,) and curve.convex.shape == ()
    for cos_c, sin_c in (([[1.0, 0.1]], [[0.0]]), (1.0, [])):
        with pytest.raises(ValueError, match="one row"):
            PolarCurve(cos_c, sin_c)


def test_single_checks_read_the_curves_own_grids(monkeypatch):
    convex, star = cli.generate_convex_polar(2, 0.2, 0), cli.generate_star_polar(2, 0.2, 0)

    def no_grid(*args, **kwargs):
        raise AssertionError("the grids were evaluated again")

    monkeypatch.setattr(plane, "_on_grid", no_grid)
    for name in cli.WEIGHT_PRESETS:
        wp = cli.weight_preset(name)
        assert plane.verify_two_sided(convex, wp).upper.passed
        assert plane.boundary_inverse_weight(star, wp).passed


# ---------------------------------------------------------------------------
# the quadrature rule of the centred sums against the full grid


@pytest.mark.parametrize(
    "degree, grid_size, step",
    [(0, 1024, 16), (2, 1024, 16), (4, 1024, 16), (12, 1024, 4), (13, 1024, 4), (16, 1024, 4),
     (17, 1024, 2), (63, 1024, 1), (64, 1024, 1), (12, 4096, 16), (12, 1000, 4), (12, 1002, 2), (12, 999, 1)],
)
def test_rule_step_is_sized_to_the_degree(degree, grid_size, step):
    curve = PolarCurve(np.eye(degree + 1)[0], np.zeros(degree), grid_size=grid_size)
    assert curve.rule_step == step
    assert grid_size // step >= max(64, 16 * degree) or step == 1


def _full_grid_pairs(curves, check, wp):
    """Each curve's report from ``check`` with that of the same curve at degree 64, whose rule is its whole grid."""
    refined = [c.refined(degree=64) for c in curves]
    assert {c.rule_step for c in curves} == {4} and {c.rule_step for c in refined} == {1}
    pairs = []
    reports = (helpers.rows(check(helpers.stack(stacked), wp)) for stacked in (curves, refined))
    for rep, oracle in zip(*reports):
        pairs.extend(zip(rep, oracle) if isinstance(rep, plane.TwoSided) else [(rep, oracle)])
    return pairs


@pytest.mark.parametrize("amplitude", [0.1, 0.2, 0.3])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_rule_reports_match_full_grid_oracle(seed, amplitude):
    convex = [cli.generate_convex_polar(seed, amplitude, t) for t in range(64)]
    star = [cli.generate_star_polar(seed, amplitude, t) for t in range(64)]
    for name in cli.WEIGHT_PRESETS:
        wp = cli.weight_preset(name)
        pairs = _full_grid_pairs(convex, plane.verify_two_sided, wp)
        pairs += _full_grid_pairs(star, plane.boundary_inverse_weight, wp)
        for rep, oracle in pairs:
            assert rep.passed == oracle.passed
            assert abs(rep.lhs - oracle.lhs) <= rep.quad_error, (name, rep, oracle)
            assert abs(rep.rhs - oracle.rhs) <= rep.quad_error, (name, rep, oracle)
            # The tail estimate stays within twice the floor that plane._report puts under it.
            assert rep.quad_error <= 2.0 * 1e-12 * (1.0 + abs(rep.lhs) + abs(rep.rhs)), (name, rep)


def _rotated(curve, phi):
    """``curve`` turned by the angle ``phi``: ``rho(theta - phi)``."""
    k = np.arange(1, curve.degree + 1)
    a, b = curve.cos_coeffs[1:], curve.sin_coeffs
    cos_c = np.concatenate([curve.cos_coeffs[:1], a * np.cos(k * phi) - b * np.sin(k * phi)])
    return PolarCurve(cos_c, a * np.sin(k * phi) + b * np.cos(k * phi))


def test_convexity_gate_sees_every_grid_node():
    # The 40th candidate on the stream of seed 1, trial 14 at amplitude 0.3 is one whose
    # certificate dips below the floor at three adjacent nodes; turned by 3/4 of a
    # grid step, those are the nodes 677..679, between the rule's nodes 676 and 680.
    rng = helpers.trial_rng(1, 14)
    for _ in range(40):
        candidate = PolarCurve(*helpers.random_polar_coeffs(rng, 0.3, 12, 3.0))
    curve = _rotated(candidate, 0.75 * 2.0 * np.pi / candidate.grid_size)
    step = curve.rule_step
    floor = -plane._CONVEX_RTOL * curve.max_radius**2
    low = np.flatnonzero(helpers.convexity_certificate(curve) < floor)
    assert step == 4 and low.tolist() == [677, 678, 679]
    assert plane._convex(curve.rho[::step], curve.drho[::step], curve.ddrho[::step])
    assert not curve.is_convex()
    pair = helpers.stack([cli.generate_convex_polar(1, 0.3, 0), curve])
    for name in cli.WEIGHT_PRESETS:
        with pytest.raises(ConvexityError):
            plane.verify_two_sided(pair, cli.weight_preset(name))


def test_origin_clearance_gate_sees_every_grid_node():
    # rho = a + b (1 - cos(theta - theta_2)) at degree 12: its minimum a lies on grid
    # node 2, between the rule's nodes 0 and 4, where rho is a + b (1 - cos 2h) > clearance.
    a, b, t2 = 0.5 * plane.ORIGIN_CLEARANCE, 0.5, 2.0 * 2.0 * np.pi / 1024
    curve = PolarCurve(np.pad([a + b, -b * np.cos(t2)], (0, 11)), np.pad([-b * np.sin(t2)], (0, 11)))
    step = curve.rule_step
    assert step == 4 and np.argmin(curve.rho) == 2
    assert 0.0 < curve.min_radius < plane.ORIGIN_CLEARANCE <= np.min(curve.rho[::step])
    pair = helpers.stack([cli.generate_star_polar(1, 0.3, 0), curve])
    for name in cli.WEIGHT_PRESETS:
        with pytest.raises(ValueError, match="origin lies on the boundary"):
            plane.boundary_inverse_weight(pair, cli.weight_preset(name))


def test_disk_energy_dominates_for_translated_convex_bodies():
    # With a non-increasing area weight the bound holds even when the body
    # misses the origin; realised by shifting the evaluation center.
    for trial in range(10):
        curve = cli.generate_convex_polar(99, 0.1, trial)
        center = (2.5, 0.4)
        area = plane.weighted_area(curve, GAUSSIAN, center=center)
        r = plane.matched_radius(area, GAUSSIAN)
        energy = plane.curvature_energy(curve, GAUSSIAN, center=center)
        assert energy <= plane.disk_energy(GAUSSIAN, r) + 1e-9


# ---------------------------------------------------------------------------
# inverse-weight boundary inequality


def test_boundary_inverse_weight_circle_equality():
    rep = plane.boundary_inverse_weight(PolarCurve.circle(1.0), GAUSSIAN)
    assert rep.passed
    assert rep.margin == pytest.approx(0.0, abs=1e-12)


def test_boundary_inverse_weight_ellipse():
    rep = plane.boundary_inverse_weight(PolarCurve.ellipse(1.3, 0.7), GAUSSIAN)
    assert rep.passed and rep.margin > 0.0


def test_boundary_inverse_weight_nonconvex_star():
    star = PolarCurve.from_function(lambda t: 1.0 + 0.15 * np.cos(5 * t))
    assert not star.is_convex()
    rep = plane.boundary_inverse_weight(star, GAUSSIAN)
    assert rep.passed and rep.margin > 0.0


def test_boundary_inverse_weight_rejects_origin_on_boundary():
    grazing = PolarCurve.from_function(lambda t: 1.0 + (1.0 - 5e-7) * np.cos(t))
    with pytest.raises(ValueError):
        plane.boundary_inverse_weight(grazing, GAUSSIAN)


# ---------------------------------------------------------------------------
# Hausdorff distance


def test_hausdorff_identical_curves():
    e = PolarCurve.ellipse(1.2, 0.9)
    assert plane.hausdorff_distance(e, e) == 0.0


def test_hausdorff_concentric_circles():
    d = plane.hausdorff_distance(PolarCurve.circle(1.0), PolarCurve.circle(1.2))
    assert d == pytest.approx(0.2, abs=1e-10)


def test_hausdorff_rejects_aliasing_sample_count():
    e = PolarCurve.ellipse(1.1, 1.0)
    with pytest.raises(ValueError):
        plane.hausdorff_distance(e, PolarCurve.circle(1.0), samples=2 * e.degree)
    with pytest.raises(ValueError):
        plane.hausdorff_distance(PolarCurve.circle(1.0), e, samples=2 * e.degree)
    d = plane.hausdorff_distance(e, PolarCurve.circle(1.0), samples=2 * e.degree + 1)
    assert d == pytest.approx(0.1, abs=1e-3)


def test_hausdorff_support_function_oracle():
    e = PolarCurve.ellipse(1.1, 1.0)
    c = PolarCurve.circle(1.0)
    d = plane.hausdorff_distance(e, c)
    assert d == pytest.approx(0.1, abs=1e-4)
    assert d == pytest.approx(helpers.support_distance(e, c), abs=1e-4)


def test_hausdorff_equals_kdtree_oracle():
    # The bounded window search finds each sample's nearest segment, where the former path
    # searched the segments beside its 4 nearest vertices: the same distances, bit for bit.
    for i, (c1, c2) in enumerate(helpers.hausdorff_pairs()):
        assert plane.hausdorff_distance(c1, c2) == helpers.kdtree_hausdorff(c1, c2), i


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_support_distance_matches_sampled_hausdorff(r):
    # The sampled distance is the oracle for the grid support form.
    hs = range(5, 198, 3)
    for name, family in cli._stability_families(hs, r).items():
        for h, curve in zip(hs, family):
            assert curve.is_convex(), (name, h)
            expected = plane.hausdorff_distance(curve, PolarCurve.circle(r))
            assert plane._distance_to_disk(curve, r) == pytest.approx(expected, rel=1e-12, abs=0.0), (name, h)


def test_stability_ratio_samples_only_nonconvex_members(monkeypatch):
    sampled = []
    original = plane.hausdorff_distance

    def counting(c1, c2, *args, **kwargs):
        sampled.append(c1)
        return original(c1, c2, *args, **kwargs)

    monkeypatch.setattr(plane, "hausdorff_distance", counting)
    hs = list(range(4, 65))
    families = cli._stability_families(hs, 1.0)
    for family in families.values():
        plane.stability_ratio(family, GAUSSIAN, 1.0)
    assert sampled == [families["fourier-bump"][0]]
    assert not sampled[0].is_convex()


# ---------------------------------------------------------------------------
# gradient bound for pinched convex curves


def test_gradient_bound_unit_circle():
    rep = plane.lemma_gradient_bound(PolarCurve.circle(1.0))
    assert rep.passed
    assert rep.lhs == pytest.approx(0.0, abs=1e-14)


def test_gradient_bound_small_bump():
    curve = PolarCurve.from_function(lambda t: 1.0 + 0.04 * np.cos(2 * t))
    assert curve.is_convex()
    rep = plane.lemma_gradient_bound(curve)
    assert rep.passed


def test_gradient_bound_rejects_nonconvex():
    curve = PolarCurve.from_function(lambda t: 1.0 + 0.2 * np.cos(8 * t))
    with pytest.raises(ConvexityError):
        plane.lemma_gradient_bound(curve)


def test_gradient_bound_random_rescaled():
    for trial in range(20):
        curve = cli.generate_convex_polar(17, 0.1, trial)
        area = plane.weighted_area(curve, GAUSSIAN)
        r = plane.matched_radius(area, GAUSSIAN)
        rep = plane.lemma_gradient_bound(curve.scaled(1.0 / r))
        assert rep.passed


# ---------------------------------------------------------------------------
# stability ratios


def test_stability_ratio_degenerate_family():
    ratios = plane.stability_ratio([PolarCurve.circle(1.0)] * 3, GAUSSIAN, 1.0)
    assert ratios == [0.0, 0.0, 0.0]


def test_stability_ratio_ellipse_family_bounded():
    hs = [4, 8, 16, 32, 64]
    family = [PolarCurve.ellipse(1.0 + 1.0 / h, 1.0) for h in hs]
    ratios = plane.stability_ratio(family, GAUSSIAN, 1.0)
    assert all(np.isfinite(ratios))
    tail = ratios[len(ratios) // 2 :]
    assert max(tail) <= 10.0 * min(tail)


def test_stability_ratio_fourier_bumps_bounded():
    hs = [4, 8, 16, 32, 64]
    family = [PolarCurve(np.array([1.0, 0.0, 1.0 / h]), np.zeros(2)) for h in hs]
    ratios = plane.stability_ratio(family, GAUSSIAN, 1.0)
    assert all(np.isfinite(ratios))
    tail = ratios[len(ratios) // 2 :]
    assert max(tail) <= 10.0 * min(tail)


# ---------------------------------------------------------------------------
# representation plumbing


def test_refinement_changes_nothing_beyond_quad_error():
    curve = cli.generate_convex_polar(8, 0.1, 3)
    fine = curve.refined(degree=2 * curve.degree, grid_size=2 * curve.grid_size)
    for wp in (GAUSSIAN, inverse_quadratic()):
        coarse_area, coarse_err = plane._weighted_area(curve, wp)
        fine_area, _ = plane._weighted_area(fine, wp)
        assert abs(coarse_area - fine_area) <= max(coarse_err, 1e-11)
        coarse_en, en_err = plane._curvature_energy(curve, wp)
        fine_en, _ = plane._curvature_energy(fine, wp)
        assert abs(coarse_en - fine_en) <= max(en_err, 1e-11)


def test_polar_curve_text_round_trip(tmp_path):
    curve = cli.generate_convex_polar(3, 0.1, 1)
    path = tmp_path / "curve.txt"
    curve.save(path)
    loaded = PolarCurve.load(path)
    np.testing.assert_allclose(loaded.cos_coeffs, curve.cos_coeffs, rtol=0, atol=0)
    np.testing.assert_allclose(loaded.sin_coeffs, curve.sin_coeffs, rtol=0, atol=0)


@pytest.mark.parametrize("text, missing", [("", "degree"), ("3\n", "cosine-coefficient")])
def test_polar_curve_from_truncated_text(text, missing):
    with pytest.raises(ValueError, match=missing):
        PolarCurve.from_text(text)


def test_report_pass_rule():
    rep = plane.InequalityReport(lhs=1.0, rhs=1.0 - 1e-13, quad_error=1e-12)
    assert rep.passed and rep.margin < 0.0
    rep = plane.InequalityReport(lhs=1.0, rhs=0.9, quad_error=1e-12)
    assert not rep.passed


def test_report_from_numpy_scalars_is_json_ready():
    rep = plane._report(np.float64(1.0), np.float64(1.0 - 1e-13), np.float64(1e-14))
    assert type(rep.quad_error) is float and type(rep.passed) is bool
    assert json.loads(json.dumps({"passed": rep.passed, "quad_error": rep.quad_error}))["passed"] is True


def test_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        PolarCurve.from_function(lambda t: 0.5 + np.cos(t))
