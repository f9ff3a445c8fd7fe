import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

import helpers
import mesh_oracle
from gausscurv import body as bd
from gausscurv import cli, experiments, sphere
from gausscurv.body import RadialGraph
from gausscurv.sphere import HarmonicField

# Frozen from the one-dimensional erf-based display evaluated independently.
GAMMA3_BALL_01 = 2.651650586556182e-4


def zonal_mode(n, k, eps):
    return HarmonicField.single_mode(n, k, eps)


def body_radius_fn(graph):
    """Evaluate h on arbitrary unit vectors, for the mesh oracle."""

    def fn(dirs):
        if graph.perturbation is None:
            return np.full(dirs.shape[0], graph.radius)
        vals = sphere.synthesize(graph.perturbation, graph.quad, points=dirs)
        return graph.radius * (1.0 + vals)

    return fn


# ---------------------------------------------------------------------------
# mean curvature


def test_ball_curvature():
    for n, r in ((3, 0.5), (4, 2.0)):
        ball = RadialGraph(n, r)
        np.testing.assert_allclose(bd.mean_curvature(ball), (n - 1) / r, rtol=1e-13)
        np.testing.assert_allclose(bd.mean_curvature(ball, ball.quad.nodes[:3]), (n - 1) / r, rtol=1e-13)


def test_first_variation_of_curvature():
    eps = 1e-6
    r = 1.3
    u = zonal_mode(3, 2, eps)
    graph = RadialGraph(3, r, u)
    pure = sphere.synthesize(zonal_mode(3, 2, 1.0), graph.quad)
    # At first order the curvature moves by -(lap y + (n-1) y) / r per unit amplitude.
    predicted = 2.0 / r - eps * (-6.0 * pure + 2.0 * pure) / r
    np.testing.assert_allclose(bd.mean_curvature(graph), predicted, atol=1e-9)


def test_ellipsoid_curvature_pole_and_equator():
    c = 1.2
    gamma = 1.0 - 1.0 / (c * c)

    def radius(dirs):
        return 1.0 / np.sqrt(1.0 - gamma * dirs[:, 2] ** 2)

    graph = RadialGraph.from_function(3, radius, degree=16)
    # Closed-form principal curvatures of the spheroid with semi-axes (1, 1, c).
    h_pole = bd.mean_curvature(graph, np.array([0.0, 0.0, 1.0]))
    assert h_pole == pytest.approx(2.0 * c, abs=1e-6)
    h_eq = bd.mean_curvature(graph, np.array([1.0, 0.0, 0.0]))
    assert h_eq == pytest.approx(1.0 + 1.0 / (c * c), abs=1e-6)


@pytest.mark.parametrize("n", [4, 5])
def test_meridian_rule_matches_product_rule(n):
    # Every field is zonal for n >= 4, so the meridian rule must give the
    # product rule's surface and volume integrals.
    meridian = cli.random_even_body(17, n, n, 1.3, 5e-2)
    assert meridian.quad is sphere.zonal_quadrature(n, meridian.quad.degree)
    product = RadialGraph(
        n,
        meridian.radius,
        meridian.perturbation,
        quad=sphere.build_quadrature(n, meridian.quad.degree),
    )
    for integral in (bd.gaussian_volume, bd.curvature_energy_nd, bd.flux_energy):
        assert integral(meridian) == pytest.approx(integral(product), rel=1e-10), integral


def test_from_function_projects_non_zonal_callable():
    # The L2 projection onto zonal fields averages over each subsphere
    # x_1 = t, where the mean of x_2^2 is (1 - t^2) / (n - 1).
    n, degree = 4, 4

    def radius(dirs):
        return 1.0 + 0.1 * dirs[:, 0] ** 2 + 0.05 * dirs[:, 1] ** 2

    graph = RadialGraph.from_function(n, radius, degree=degree)
    assert graph.quad is sphere.default_quadrature(n, degree)
    t = graph.quad.nodes[:, 0]
    projected = 1.0 + 0.1 * t**2 + 0.05 * (1.0 - t**2) / (n - 1)
    np.testing.assert_allclose(graph.h_nodes, projected, atol=1e-13)
    # Same coefficients as a fit on the product rule the body used to carry.
    old = RadialGraph.from_function(
        n, radius, degree=degree, quad=sphere.build_quadrature(n, graph.quad.degree)
    )
    assert graph.radius == pytest.approx(old.radius, rel=1e-14)
    np.testing.assert_allclose(graph.perturbation.coeffs, old.perturbation.coeffs, atol=1e-14)


def test_mesh_curvature_oracle_converges():
    u = zonal_mode(3, 2, 0.05)
    graph = RadialGraph(3, 1.0, u)
    fn = body_radius_fn(graph)
    errors = []
    for level in (5, 6):
        dirs, _, H_mesh, _ = mesh_oracle.mesh_mean_curvature(fn, level)
        H_exact = bd.mean_curvature(graph, dirs[::37])
        rms = math.sqrt(np.mean((H_mesh[::37] - H_exact) ** 2)) / math.sqrt(np.mean(H_exact**2))
        errors.append(rms)
    assert errors[0] < 1e-3
    assert errors[1] < errors[0]


# ---------------------------------------------------------------------------
# Gaussian volume


def test_gaussian_volume_total_mass():
    huge = RadialGraph(3, 40.0)
    assert bd.gaussian_volume(huge) == pytest.approx(1.0, abs=1e-12)


def test_gaussian_volume_ball_closed_form():
    for n, r in ((3, 0.5), (3, 1.0), (4, 1.5), (5, 0.7)):
        ball = RadialGraph(n, r)
        assert bd.gaussian_volume(ball) == pytest.approx(bd.ball_gaussian_volume(n, r), abs=1e-13)


def test_gaussian_volume_small_ball_frozen_value():
    assert bd.ball_gaussian_volume(3, 0.1) == pytest.approx(GAMMA3_BALL_01, abs=1e-15)
    assert bd.gaussian_volume(RadialGraph(3, 0.1)) == pytest.approx(GAMMA3_BALL_01, abs=1e-13)


@pytest.mark.parametrize("n", range(1, 9))
def test_gaussian_radial_integral_matches_quad(n):
    # The incomplete-gamma form keeps full relative accuracy down to small radii.
    for h in np.geomspace(1e-3, 12.0, 25):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IntegrationWarning)
            ref, _ = quad(lambda t: t ** (n - 1) * math.exp(-0.5 * t * t), 0.0, h, epsabs=0.0, epsrel=1.2e-14, limit=200)
        assert bd.gaussian_radial_integral(n, h) == pytest.approx(ref, rel=1e-14, abs=0.0), h


@pytest.mark.parametrize("n", range(3, 9))
def test_closed_form_volumes_match_radial_quadrature(n):
    # Down to the smallest volume the threshold scan brackets, in every dimension.
    r_floor = bd.ball_match_radius(n, experiments.SCAN_VOLUME_FLOOR)
    for r in (r_floor, 1.0, 2.5):
        for graph in (RadialGraph(n, r), cli.random_even_body(3, n, n, r, 3e-2)):
            assert bd.gaussian_volume(graph) == pytest.approx(
                helpers.radial_gaussian_volume(graph), rel=1e-13, abs=0.0
            )
            assert bd.inverse_square_flux_bulk(graph) == pytest.approx(
                helpers.radial_inverse_square_flux_bulk(graph), rel=1e-13, abs=0.0
            )
    target = experiments.SCAN_VOLUME_FLOOR
    matched = bd.volume_match(cli.random_even_body(4, n, n, 1.0, 3e-2), target)
    assert helpers.radial_gaussian_volume(matched) == pytest.approx(target, rel=1e-13, abs=0.0)


def test_volume_first_variation():
    # d/d eps of gamma(r (1 + eps u)) at 0 equals the boundary density times the mean of u.
    n, r = 3, 1.1
    coeffs = np.zeros(9)
    coeffs[0] = 0.4
    coeffs[4] = 0.3
    u = HarmonicField(n=n, degree=2, coeffs=coeffs)
    mean_u = u.mean() * sphere.sphere_area(n)
    eps = 1e-5
    up = RadialGraph(n, r, HarmonicField(n=n, degree=2, coeffs=eps * coeffs))
    dn = RadialGraph(n, r, HarmonicField(n=n, degree=2, coeffs=-eps * coeffs))
    derivative = (bd.gaussian_volume(up) - bd.gaussian_volume(dn)) / (2 * eps)
    predicted = r**n * math.exp(-0.5 * r * r) * mean_u / (2 * math.pi) ** (n / 2)
    assert derivative == pytest.approx(predicted, abs=1e-8)


# ---------------------------------------------------------------------------
# energies and fluxes


def test_ball_energy_values():
    assert bd.curvature_energy_nd(RadialGraph(3, 1.0)) == pytest.approx(
        8 * math.pi * math.exp(-0.5), rel=1e-12
    )
    for n, r in ((3, 0.5), (4, 1.2), (5, 2.0)):
        ball = RadialGraph(n, r)
        expected = (n - 1) * r ** (n - 2) * math.exp(-0.5 * r * r) * sphere.sphere_area(n)
        assert bd.curvature_energy_nd(ball) == pytest.approx(expected, rel=1e-12)


def test_energy_scaling_law():
    for lam in (0.3, 1.0, 1.7, 2.5):
        ball = RadialGraph(3, lam)
        assert bd.curvature_energy_nd(ball) == pytest.approx(
            lam * math.exp(-0.5 * lam * lam) * 2 * sphere.sphere_area(3), rel=1e-12
        )


def test_energy_mesh_oracle():
    u = zonal_mode(3, 2, 0.01)
    graph = RadialGraph(3, 1.0, u)
    oracle = mesh_oracle.mesh_energy(body_radius_fn(graph), lambda r: np.exp(-0.5 * r * r), level=7)
    value = bd.curvature_energy_nd(graph)
    assert value == pytest.approx(oracle, rel=1e-4)


def test_flux_energy_ball_equality_and_domination():
    ball = RadialGraph(3, 1.4)
    assert bd.flux_energy(ball) == pytest.approx(bd.curvature_energy_nd(ball), rel=1e-12)
    graph = cli.random_even_body(5, 1, 3, 1.0, 5e-2)
    assert bd.is_convex(graph)
    assert bd.flux_energy(graph) <= bd.curvature_energy_nd(graph) + 1e-12


def test_flux_energy_mesh_oracle():
    u = zonal_mode(3, 2, 0.01)
    graph = RadialGraph(3, 1.0, u)

    def weight(r):
        return np.exp(-0.5 * r * r)

    # Flux-weighted oracle: scale the Galerkin weight by <x, nu>/|x| through
    # the exact normals, here folded in by reusing the identity factor h/W.
    dirs, _, H_mesh, areas = mesh_oracle.mesh_mean_curvature(body_radius_fn(graph), 6)
    vals = sphere.synthesize(u, graph.quad, points=dirs)
    h = graph.radius * (1.0 + vals)
    grads = graph.radius * sphere.field_gradient(u, graph.quad, points=dirs)
    W = np.sqrt(h**2 + np.einsum("vi,vi->v", grads, grads))
    oracle = float(np.sum(H_mesh * (h / W) * weight(h) * areas))
    assert bd.flux_energy(graph) == pytest.approx(oracle, rel=1e-3)


def test_inverse_square_flux_ball_identity():
    for n, r in ((3, 0.8), (4, 1.5)):
        ball = RadialGraph(n, r)
        expected = sphere.sphere_area(n) * r ** (n - 2) * math.exp(-0.5 * r * r)
        assert bd.inverse_square_flux(ball) == pytest.approx(expected, rel=1e-12)
        assert bd.inverse_square_flux(ball) == pytest.approx(
            bd.curvature_energy_nd(ball) / (n - 1), rel=1e-12
        )


def test_inverse_square_flux_divergence_identity():
    for trial in range(5):
        graph = cli.random_even_body(9, trial, 3, 1.2, 5e-2)
        boundary = bd.inverse_square_flux(graph)
        bulk = bd.inverse_square_flux_bulk(graph)
        assert boundary == pytest.approx(bulk, abs=1e-8)


def test_inverse_square_flux_maximised_by_ball():
    target = bd.ball_gaussian_volume(3, 1.0)
    ball_value = bd.inverse_square_flux(RadialGraph(3, 1.0))
    for trial in range(100):
        graph = cli.random_even_body(123, trial, 3, 1.0, 3e-2)
        matched = bd.volume_match(graph, target)
        assert bd.inverse_square_flux(matched) <= ball_value + 1e-10


# ---------------------------------------------------------------------------
# inscribed radius, matching, certificates


def test_inscribed_radius_ball_and_bump():
    assert bd.inscribed_radius(RadialGraph(3, 2.2)) == pytest.approx(2.2, rel=1e-14)
    u = zonal_mode(3, 2, 0.1)
    graph = RadialGraph(3, 1.0, u)
    dense = sphere.build_quadrature(3, 64)
    vals = 1.0 + sphere.synthesize(u, graph.quad, points=dense.nodes)
    assert bd.inscribed_radius(graph) == pytest.approx(float(np.min(vals)), abs=2e-4)
    mean_h = float(np.dot(graph.quad.weights, graph.h_nodes)) / sphere.sphere_area(3)
    assert bd.inscribed_radius(graph) <= mean_h


def test_volume_match_round_trip():
    target = bd.ball_gaussian_volume(3, 1.0)
    ball = RadialGraph(3, 1.0)
    assert bd.volume_match(ball, target).radius == pytest.approx(1.0, abs=1e-12)
    graph = RadialGraph(3, 1.0, zonal_mode(3, 2, 1e-2))
    matched = bd.volume_match(graph, target)
    assert bd.gaussian_volume(matched) == pytest.approx(target, abs=1e-12)


def test_volume_match_first_order_constraint():
    # The dilation shifts the mean of the effective perturbation by
    # -(n - 1 - r^2)/2 times its squared L2 norm, at leading order.
    n, r, k = 3, 1.4, 2
    area = sphere.sphere_area(n)
    target = bd.ball_gaussian_volume(n, r)

    def mean_shift(eps):
        matched = bd.volume_match(RadialGraph(n, r, zonal_mode(n, k, eps)), target)
        s = matched.radius / r
        u_eff_mean = (s - 1.0) * area
        u_eff_sq = (s - 1.0) ** 2 * area + s * s * eps * eps
        return u_eff_mean / u_eff_sq

    # Richardson in eps: the ratio tends to -(n - 1 - r^2)/2.
    vals = [mean_shift(e) for e in (4e-3, 2e-3, 1e-3)]
    extrap = (4 * (2 * vals[2] - vals[1]) - (2 * vals[1] - vals[0])) / 3.0
    assert extrap == pytest.approx(-(n - 1 - r * r) / 2.0, abs=1e-4)


def test_convexity_certificate_ball_and_perturbations():
    assert bd.second_fundamental_min(RadialGraph(3, 2.0)) == pytest.approx(4.0)
    gentle = RadialGraph(3, 1.0, zonal_mode(3, 2, 1e-2))
    assert bd.is_convex(gentle)
    rough = RadialGraph(3, 1.0, zonal_mode(3, 4, 0.5))
    assert not bd.is_convex(rough)


@pytest.mark.parametrize("n", range(3, 9))
def test_second_fundamental_min_of_ball_is_r_squared(n):
    assert bd.second_fundamental_min(RadialGraph(n, 1.7)) == pytest.approx(1.7**2, rel=1e-14)


def test_second_fundamental_min_matches_weingarten_oracle():
    for trial in range(50):
        graph = cli.random_even_body(7, trial, 3, 1.0 + trial % 4, (1e-2, 0.1, 0.3)[trial % 3])
        oracle = helpers.weingarten_second_fundamental_min(graph)
        assert bd.second_fundamental_min(graph) == pytest.approx(oracle, rel=1e-12), trial


@pytest.mark.parametrize("n", range(4, 9))
def test_second_fundamental_min_sign_in_higher_dimensions(n):
    gentle = RadialGraph(n, 1.0, zonal_mode(n, 2, 1e-2))
    rough = RadialGraph(n, 1.0, zonal_mode(n, 4, 0.5))
    assert bd.second_fundamental_min(gentle) > 0.0 and bd.is_convex(gentle)
    assert bd.second_fundamental_min(rough) < 0.0 and not bd.is_convex(rough)
    assert np.min(helpers.section_certificate(rough, np.linspace(0, np.pi, 257))) < 0.0


@pytest.mark.parametrize("n", range(4, 9))
def test_meridian_direction_of_form_is_section_certificate(n):
    # Along the meridian the form h^2 + 2 h_theta^2 - h h_theta_theta is the
    # planar certificate of the section curve at the node's angle.
    u = HarmonicField(n=n, degree=8, coeffs=np.random.default_rng(n).normal(size=9) / np.arange(1, 10) ** 3)
    graph = RadialGraph(n, 1.3, u)
    X = graph.quad.nodes
    theta = np.arctan2(X[:, 1], X[:, 0])
    e = np.zeros_like(X)
    e[:, 0], e[:, 1] = -np.sin(theta), np.cos(theta)
    h, g = graph.h_nodes, graph.grad_nodes
    form = h**2 + 2.0 * np.einsum("mi,mi->m", g, e) ** 2
    form -= h * np.einsum("mi,mij,mj->m", e, graph.hess_nodes, e)
    certificate = helpers.section_certificate(graph, theta)
    assert np.max(np.abs(form - certificate)) <= 1e-12 * np.max(np.abs(certificate))


def test_calibration_builds_tables_one_degree_above_the_body():
    # The Hessian projects degree-7 gradient components; no degree-12 tables.
    base = sphere.build_quadrature(3, 24)
    rule = sphere.SphereQuadrature(n=3, degree=24, nodes=base.nodes, weights=base.weights)
    u = cli.random_even_body(1, 0, 3, 3.0, 1e-2).perturbation
    graph = RadialGraph(3, 3.0, u, quad=rule)
    experiments.calibration_check(graph, M=float(np.max(bd.mean_curvature(graph))))
    assert set(rule._bases) == {6, 7}


def test_tangent_frames_match_node_loop():
    for n in (3, 4):
        nodes = sphere.build_quadrature(n, 8).nodes
        frames = bd._tangent_frames(nodes)
        np.testing.assert_allclose(frames, helpers.loop_tangent_frames(nodes), rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.einsum("mai,mi->ma", frames, nodes), 0.0, atol=1e-15)


def test_convexity_certificate_zonal_section():
    gentle = RadialGraph(4, 1.0, zonal_mode(4, 2, 1e-2))
    assert bd.is_convex(gentle)
    rough = RadialGraph(4, 1.0, zonal_mode(4, 4, 0.5))
    assert not bd.is_convex(rough)


def test_symmetry_flag():
    assert RadialGraph(3, 1.0).is_symmetric
    assert RadialGraph(3, 1.0, zonal_mode(3, 2, 0.01)).is_symmetric
    odd = HarmonicField.single_mode(3, 3, 0.01)
    assert not RadialGraph(3, 1.0, odd).is_symmetric


def test_perturbation_magnitude_heuristic():
    graph = RadialGraph(3, 1.0, zonal_mode(3, 2, 1e-3))
    assert graph.perturbation_magnitude == pytest.approx(1e-3 * 7.0, rel=1e-12)
    assert RadialGraph(3, 1.0).perturbation_magnitude == 0.0


def test_body_integrals_bundle():
    graph = cli.random_even_body(4, 2, 3, 1.0, 1e-2)
    bundle = bd.body_integrals(graph)
    assert bundle.gaussian_volume == pytest.approx(bd.gaussian_volume(graph))
    assert bundle.inscribed_radius == pytest.approx(bd.inscribed_radius(graph))
    assert np.isfinite(bundle.flux_energy) and np.isfinite(bundle.inverse_square_flux)


def test_body_text_round_trip(tmp_path):
    graph = RadialGraph(3, 1.3, zonal_mode(3, 2, 2e-2))
    path = tmp_path / "body.txt"
    bd.save_body(graph, path)
    loaded = bd.load_body(path)
    assert loaded.n == 3
    assert loaded.radius == pytest.approx(graph.radius, rel=1e-14)
    assert bd.gaussian_volume(loaded) == pytest.approx(bd.gaussian_volume(graph), abs=1e-13)


def test_rejects_degenerate_bodies():
    with pytest.raises(ValueError):
        RadialGraph(2, 1.0)
    with pytest.raises(ValueError):
        RadialGraph(3, -1.0)
    with pytest.raises(ValueError):
        RadialGraph(3, 1.0, zonal_mode(3, 2, 5.0))
