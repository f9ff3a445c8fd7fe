import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from gausscurv import body as bd
from gausscurv import sphere
from gausscurv.errors import QuadratureError
from gausscurv.sphere import HarmonicField, build_quadrature, sphere_area


def random_field(n, degree, seed, amplitude=1.0, even_only=False):
    rng = np.random.default_rng(seed)
    coeffs = rng.normal(size=sphere.basis_size(n, degree))
    ks = sphere.HarmonicField.zero(n, degree).degrees
    coeffs /= (1.0 + ks.astype(float)) ** 3
    if even_only:
        coeffs[ks % 2 == 1] = 0.0
    coeffs *= amplitude / np.linalg.norm(coeffs)
    return HarmonicField(n=n, degree=degree, coeffs=coeffs)


# ---------------------------------------------------------------------------
# quadrature


@pytest.mark.parametrize("n", range(2, 9))
def test_total_weight_is_sphere_area(n):
    q = build_quadrature(n, 8)
    assert q.weights.sum() == pytest.approx(sphere_area(n), rel=1e-13)
    assert np.all(q.weights > 0.0)
    np.testing.assert_allclose(np.linalg.norm(q.nodes, axis=1), 1.0, atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_first_and_second_moments(n):
    # For n >= 4 the library's rule is exact for zonal integrands only.
    q = build_quadrature(n, 6) if n <= 3 else helpers.product_rule(n, 6)
    first = q.weights @ q.nodes
    np.testing.assert_allclose(first, 0.0, atol=1e-12)
    second = np.einsum("m,mi,mj->ij", q.weights, q.nodes, q.nodes)
    np.testing.assert_allclose(second, sphere_area(n) / n * np.eye(n), atol=1e-10)


@pytest.mark.parametrize("n, exponents", [
    (3, (4, 2, 0)),
    (3, (6, 0, 2)),
    (4, (2, 2, 2, 0)),
    (5, (4, 0, 2, 0, 0)),
])
def test_monomial_moments_closed_form(n, exponents):
    q = build_quadrature(n, 12) if n == 3 else helpers.product_rule(n, 12)
    vals = np.prod(q.nodes ** np.array(exponents), axis=1)
    assert q.weights @ vals == pytest.approx(helpers.monomial_sphere_moment(n, exponents), abs=1e-10)


@pytest.mark.parametrize("n", range(4, 9))
def test_zonal_quadrature_integrates_x1_powers_exactly(n):
    degree = 16
    q = build_quadrature(n, degree)
    assert q.size == degree // 2 + 1
    np.testing.assert_allclose(np.linalg.norm(q.nodes, axis=1), 1.0, atol=1e-14)
    for j in range(degree + 1):
        exact = helpers.monomial_sphere_moment(n, (j,) + (0,) * (n - 1))
        assert q.weights @ q.nodes[:, 0] ** j == pytest.approx(exact, rel=1e-13, abs=1e-14), j


def test_default_quadrature_is_meridian_rule_from_n4():
    assert sphere.default_quadrature(3, 8) is build_quadrature(3, 32)
    for n in range(4, 9):
        assert sphere.default_quadrature(n, 8) is build_quadrature(n, 32)


@pytest.mark.parametrize("degree", range(65))
def test_s2_rule_is_the_product_rule(degree):
    rule, product = build_quadrature(3, degree), helpers.product_rule(3, degree)
    assert np.array_equal(rule.nodes, product.nodes)
    assert np.array_equal(rule.weights, product.weights)


def test_quadrature_rejects_unsupported():
    with pytest.raises(ValueError):
        build_quadrature(9, 8)
    with pytest.raises(ValueError):
        build_quadrature(3, 80)
    # The top rule in the top dimension is a 33-node meridian rule.
    assert build_quadrature(8, 64).size == 33


# ---------------------------------------------------------------------------
# basis normalisation and round trips


def test_harmonic_normalised_n3():
    q = sphere.default_quadrature(3, 4)
    u = HarmonicField.single_mode(3, 2, 1.0)
    vals = sphere.synthesize(u, q)
    assert q.weights @ vals**2 == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [4, 5])
def test_zonal_normalised(n):
    q = sphere.default_quadrature(n, 6)
    for k in (0, 1, 3, 6):
        u = HarmonicField.single_mode(n, k, 1.0, degree=6) if k >= 2 else HarmonicField(
            n=n, degree=6, coeffs=np.eye(7)[k]
        )
        vals = sphere.synthesize(u, q)
        assert q.weights @ vals**2 == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", range(4, 9))
def test_meridian_map_matches_rfft_of_basis(n):
    # The basis at 2L + 2 meridian angles resolves every cosine mode up to L.
    for L in range(17):
        basis = sphere._basis(n, L, sphere.default_quadrature(n, L))
        theta = 2.0 * np.pi * np.arange(2 * L + 2) / (2 * L + 2)
        X = np.zeros((theta.size, n))
        X[:, 0], X[:, 1] = np.cos(theta), np.sin(theta)
        spec = np.fft.rfft(basis.values_at(X), axis=1)[:, : L + 1] / theta.size
        oracle = np.concatenate([spec[:, :1].real, 2.0 * spec[:, 1:].real], axis=1)
        assert basis.S is basis.S and not basis.S.flags.writeable
        np.testing.assert_allclose(basis.S, oracle, rtol=0.0, atol=2e-14 * np.max(np.abs(oracle)))


@pytest.mark.parametrize("n", [3, 4])
def test_analysis_synthesis_round_trip(n):
    u = random_field(n, 10, seed=5)
    q = sphere.default_quadrature(n, 10)
    vals = sphere.synthesize(u, q)
    back = sphere.analyze(vals, n, 10, q)
    np.testing.assert_allclose(back.coeffs, u.coeffs, atol=1e-12)


def test_basis_tables_are_built_on_the_given_rule():
    # A rotated copy of a cached rule shares its degree but not its nodes.
    base = build_quadrature(3, 16)
    rot, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(3, 3)))
    rotated = sphere.SphereQuadrature(
        n=3, degree=16, nodes=base.nodes @ rot.T, weights=base.weights
    )
    u = random_field(3, 4, seed=8)
    np.testing.assert_allclose(
        sphere.synthesize(u, rotated), sphere.synthesize(u, points=rotated.nodes), atol=1e-12
    )
    back = sphere.analyze(sphere.synthesize(u, rotated), 3, 4, rotated)
    np.testing.assert_allclose(back.coeffs, u.coeffs, atol=1e-12)


def test_rule_with_polar_nodes():
    # Node gradients at the poles use the same pole-regular formula as every other point.
    base = build_quadrature(3, 16)
    poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    rule = sphere.SphereQuadrature(
        n=3, degree=16, nodes=np.vstack([base.nodes, poles]), weights=np.append(base.weights, [0.0, 0.0])
    )
    u = random_field(3, 4, seed=8)
    np.testing.assert_allclose(
        sphere.synthesize(u, rule), sphere.synthesize(u, points=rule.nodes), atol=1e-12
    )
    g = sphere.field_gradient(u, rule)
    np.testing.assert_allclose(g[:-2], sphere.field_gradient(u, base), atol=1e-12)
    for node, grad in zip(poles, g[-2:]):
        np.testing.assert_allclose(grad, sphere.field_gradient(u, base, points=node), atol=1e-12)


@pytest.mark.parametrize("L, degree", [(0, 16), (1, 16), (6, 24), (16, 32), (32, 64), (64, 64)])
def test_recurrence_tables_match_lpmv_oracle(L, degree):
    q = build_quadrature(3, degree)
    basis = sphere._basis(3, L, q)
    # A spread of about 300 nodes keeps the row-by-row oracle fast at L = 64.
    cols = slice(None, None, max(1, q.size // 300))
    V, G = helpers.lpmv_harmonic_tables(L, q.nodes[cols])
    assert np.max(np.abs(basis.V[:, cols] - V)) <= 1e-12 * max(1.0, np.max(np.abs(V)))
    ambient = helpers.ambient_gradients(basis, q.nodes[cols])
    assert np.max(np.abs(ambient - G)) <= 1e-12 * max(1.0, np.max(np.abs(G)))


@pytest.mark.parametrize("L", [40, 64])
def test_gradient_at_pole_matches_closed_form(L):
    # At the north pole only the m = 1 harmonics have a gradient:
    # -sqrt((2l+1) l (l+1) / (8 pi)), along e_x for cos and e_y for sin.
    coeffs = np.random.default_rng(L).normal(size=sphere.basis_size(3, L))
    u = HarmonicField(n=3, degree=L, coeffs=coeffs)
    ell = np.arange(1, L + 1)
    amp = -np.sqrt((2 * ell + 1) * ell * (ell + 1) / (8.0 * math.pi))
    expected = np.array([amp @ coeffs[ell * ell + 1], amp @ coeffs[ell * ell + 2], 0.0])
    g = sphere.field_gradient(u, points=np.array([0.0, 0.0, 1.0]))
    assert np.linalg.norm(g - expected) <= 1e-12 * np.linalg.norm(expected)


def test_point_batches_match_single_points():
    u = random_field(3, 6, seed=17)
    q = sphere.default_quadrature(3, 6)
    pts = np.vstack([q.nodes[:5], [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    batch = (
        sphere.synthesize(u, q, pts),
        sphere.field_gradient(u, q, pts),
        sphere.hessian_form(u, q, pts),
    )
    for j, x in enumerate(pts):
        single = (
            sphere.synthesize(u, q, x),
            sphere.field_gradient(u, q, x),
            sphere.hessian_form(u, q, x),
        )
        assert isinstance(single[0], float) and isinstance(single[2], float)
        for b, one in zip(batch, single):
            np.testing.assert_allclose(b[j], one, rtol=0, atol=1e-13)
    np.testing.assert_allclose(batch[2][:5], sphere.hessian_form(u, q)[:5], rtol=0, atol=1e-12)


def test_basis_rejects_rule_of_other_dimension():
    with pytest.raises(ValueError):
        sphere.synthesize(random_field(4, 4, seed=1), build_quadrature(3, 16))


@pytest.mark.parametrize("n", [1, 2, sphere.MAX_DIMENSION + 1])
def test_field_rejects_unsupported_dimension(n):
    # At n = 2 the zonal basis would normalise at lambda = 0 and synthesize NaN.
    with pytest.raises(ValueError, match="dimension"):
        HarmonicField(n=n, degree=2, coeffs=[1.0, 0.5, 0.2])


@pytest.mark.parametrize("n, k, degree", [(4, -1, None), (3, -2, None), (3, -1, 4), (5, 7, 6)])
def test_single_mode_rejects_modes_outside_the_basis(n, k, degree):
    # A negative k would index from the end and fill another mode's slot.
    with pytest.raises(ValueError, match=f"mode {k} is not in 0"):
        HarmonicField.single_mode(n, k, 1.0, degree=degree)


def test_parity_detection():
    even = random_field(3, 6, seed=2, even_only=True)
    assert even.parity == "even"
    mixed = random_field(3, 6, seed=2)
    assert mixed.parity == "none"
    assert HarmonicField.zero(4, 4).parity == "even"


# ---------------------------------------------------------------------------
# Laplace-Beltrami


def test_laplacian_kills_constants():
    u = HarmonicField(n=3, degree=2, coeffs=np.eye(9)[0])
    lap = sphere.laplace_beltrami(u)
    assert np.all(lap.coeffs == 0.0)


def test_laplacian_eigenvalue_n3():
    # k (k + n - 2) = 6 on S^2 for k = 2.
    u = HarmonicField.single_mode(3, 2, 1.0)
    lap = sphere.laplace_beltrami(u)
    np.testing.assert_allclose(lap.coeffs, -6.0 * u.coeffs, atol=1e-14)


def test_laplacian_eigenvalue_n4():
    # k (k + n - 2) = 8 in four dimensions for k = 2.
    u = HarmonicField.single_mode(4, 2, 1.0)
    lap = sphere.laplace_beltrami(u)
    np.testing.assert_allclose(lap.coeffs, -8.0 * u.coeffs, atol=1e-14)


def test_eigenrelation_through_quadrature():
    q = sphere.default_quadrature(3, 8)
    for k in (1, 3, 8):
        u = HarmonicField.single_mode(3, k, 1.0, degree=8)
        lap_vals = sphere.synthesize(sphere.laplace_beltrami(u), q)
        vals = sphere.synthesize(u, q)
        np.testing.assert_allclose(lap_vals, -k * (k + 1) * vals, atol=1e-8)


@pytest.mark.parametrize("n", [3, 4])
def test_laplacian_fd_oracle(n):
    u = random_field(n, 6, seed=9)
    q = sphere.default_quadrature(n, 6)

    def u_eval(x):
        return float(sphere.synthesize(u, q, points=np.atleast_2d(x))[0])

    lap_vals = sphere.synthesize(sphere.laplace_beltrami(u), q)
    for idx in (0, q.size // 3, q.size // 2):
        x = q.nodes[idx]
        assert helpers.fd_laplacian(u_eval, x) == pytest.approx(lap_vals[idx], abs=1e-6)


# ---------------------------------------------------------------------------
# tangential gradient


def test_gradient_of_constant_vanishes():
    u = HarmonicField(n=3, degree=2, coeffs=np.eye(9)[0])
    g = sphere.field_gradient(u, points=np.array([0.0, 0.0, 1.0]))
    np.testing.assert_allclose(g, 0.0, atol=1e-14)


def test_gradient_of_x3_at_e1():
    # x_3 is sqrt(4 pi / 3) times the zonal degree-1 harmonic.
    c = np.zeros(9)
    c[1] = math.sqrt(4 * math.pi / 3.0)
    u = HarmonicField(n=3, degree=2, coeffs=c)
    g = sphere.field_gradient(u, points=np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(g, [0.0, 0.0, 1.0], atol=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_gradient_tangency_at_nodes(n):
    u = random_field(n, 8, seed=3)
    q = sphere.default_quadrature(n, 8)
    g = sphere.field_gradient(u, q)
    radial = np.einsum("mi,mi->m", g, q.nodes)
    np.testing.assert_allclose(radial, 0.0, atol=1e-12)


def test_gradient_fd_oracle_including_pole():
    u = random_field(3, 6, seed=13)
    q = sphere.default_quadrature(3, 6)

    def u_eval(x):
        return float(sphere.synthesize(u, q, points=np.atleast_2d(x))[0])

    for x in (q.nodes[7], np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0])):
        g = sphere.field_gradient(u, q, points=x)
        np.testing.assert_allclose(g, helpers.fd_gradient(u_eval, x), atol=1e-8)


def test_parseval_identities():
    u = random_field(3, 8, seed=21)
    q = sphere.default_quadrature(3, 8)
    vals = sphere.synthesize(u, q)
    assert q.weights @ vals**2 == pytest.approx(helpers.norm_l2(u) ** 2, abs=1e-8)
    g = sphere.field_gradient(u, q)
    assert q.weights @ np.einsum("mi,mi->m", g, g) == pytest.approx(
        helpers.grad_norm_l2(u) ** 2, abs=1e-8
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_even_mean_zero_poincare(seed):
    # Even fields without the constant mode satisfy |grad u|^2 >= 2n |u|^2.
    n = 3 + seed % 2
    u = random_field(n, 6, seed=seed, even_only=True)
    coeffs = u.coeffs.copy()
    coeffs[0] = 0.0
    if not np.any(coeffs):
        return
    u = HarmonicField(n=n, degree=6, coeffs=coeffs)
    assert helpers.grad_norm_l2(u) ** 2 >= 2 * n * helpers.norm_l2(u) ** 2 - 1e-8


# ---------------------------------------------------------------------------
# covariant Hessian


def random_unit_points(n, m, seed):
    X = np.random.default_rng(seed).normal(size=(m, n))
    return X / np.linalg.norm(X, axis=1)[:, None]


@pytest.mark.parametrize("n", [3, 4, 8])
def test_eigenvalue_table_is_cached_and_exact(n):
    u = random_field(n, 6, seed=n)
    lam = np.array([sphere.eigenvalue(n, k) for k in u.degrees])
    assert np.array_equal(sphere.laplace_beltrami(u).coeffs, -lam * u.coeffs)
    assert helpers.grad_norm_l2(u) == float(math.sqrt(np.sum(lam * u.coeffs**2)))
    table = sphere._eigenvalues(n, 6)
    assert table is sphere._eigenvalues(n, 6) and not table.flags.writeable


@pytest.mark.parametrize("n", [3, 4, 6])
def test_stacked_hessians_equal_single_hessians(n):
    q = sphere.default_quadrature(n, 6)
    rows = np.stack([random_field(n, 6, seed=s).coeffs for s in range(5)])
    # Fields of mean 4 + mean(u), so that h = 1 + u is a body's radius.
    rows[:, 0] += 4.0 * math.sqrt(sphere_area(n))
    stacked = bd.BodyStack(n, 1.0, rows, quad=q)._frame_hess
    for k, row in enumerate(rows):
        H = sphere._basis(n, 6, q).frame_hessian(row, q.nodes)
        assert np.array_equal(stacked[k], H), k
        assert np.array_equal(bd.BodyStack(n, 1.0, rows[k : k + 1], quad=q)._frame_hess[0], H), k
        assert np.array_equal(bd.BodyStack(n, 1.0, row, quad=q)._frame_hess, H), k


@pytest.mark.parametrize(
    "rule, n, L, bound",
    [
        pytest.param("default", 3, 6, 5e-15, id="default-6-5e-15"),
        pytest.param("poled", 3, 6, 5e-15, id="poled-6-5e-15"),
        pytest.param("64", 3, 31, 4e-14, id="64-31-4e-14"),
        pytest.param("default", 4, 6, 5e-15, id="default-n4"),
        pytest.param("default", 6, 6, 5e-15, id="default-n6"),
        pytest.param("points", 3, 6, 5e-15, id="points-n3"),
        pytest.param("points", 4, 6, 5e-15, id="points-n4"),
    ],
)
def test_frame_tables_match_the_ambient_route(rule, n, L, bound):
    # Fn holds e_a . G for the former ambient gradients G (helpers.ambient_gradients), and frame_hessian
    # the entries e_a^T Hess u e_b of the former ambient route (helpers.ambient_hessian), at the nodes or
    # at points; a zonal frame names e_1 = a / |a| only.  Over 20 fields (3 at L = 31) the gaps stay
    # below 6.5e-16 of max |G|, and 1.4e-15 (8.3e-15 at L = 31) of max |Hess u|; the zonal cases below
    # 9.1e-16.
    q = build_quadrature(3, 64) if rule == "64" else sphere.default_quadrature(n, L)
    if rule == "poled":
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        q = sphere.SphereQuadrature(
            n=3, degree=q.degree, nodes=np.vstack([q.nodes, poles]), weights=np.append(q.weights, [0.0, 0.0])
        )
    b = sphere._basis(n, L, q)
    X = np.vstack([random_unit_points(n, 50, seed=n), np.eye(n), -np.eye(n)]) if rule == "points" else None
    at = q.nodes if X is None else X
    E, G = helpers.tangent_frame(at), helpers.ambient_gradients(b, at)
    F = b.Fn if X is None else b.frame_gradients_at(X)
    ambient = np.stack([np.einsum("mi,kmi->km", e, G) for e in E], axis=1)
    assert np.max(np.abs(F[:, : len(E)] - ambient)) <= 1e-15 * np.max(np.abs(G))
    assert not np.any(F[:, len(E) :])
    u = random_field(n, L, seed=4)
    H = helpers.ambient_hessian(u, q, X)
    _, oracle = helpers.frame_entries(at, np.zeros(at.shape), H)
    frame = b.frame_hessian(u.coeffs, at)
    assert np.max(np.abs(frame - oracle)) <= bound * np.max(np.abs(H))


def test_s2_frame_gradients_match_central_differences():
    # An oracle apart from the frame tables: central differences of values_at along geodesics in
    # e_theta and e_phi, for every (l, m) with l <= 8, at random points and 1e-3 from each pole.
    b = sphere._basis(3, 8, sphere.default_quadrature(3, 8))
    phi = np.linspace(0.0, 2.0 * np.pi, 7, endpoint=False)
    ring = np.column_stack([math.sin(1e-3) * np.cos(phi), math.sin(1e-3) * np.sin(phi), np.full(7, math.cos(1e-3))])
    X = np.vstack([random_unit_points(3, 40, seed=29), ring, ring * [1.0, 1.0, -1.0]])
    # Richardson's combination of steps h and 2h.  Max |F| is 7.0; the gaps stay below 1e-9.
    F = b.frame_gradients_at(X)

    def difference(e, h):
        ahead, behind = (math.cos(h) * X + sign * math.sin(h) * e for sign in (1.0, -1.0))
        return (b.values_at(ahead) - b.values_at(behind)) / (2.0 * h)

    for a, e in enumerate(helpers.tangent_frame(X)):
        extrapolated = (4.0 * difference(e, 1e-4) - difference(e, 2e-4)) / 3.0
        assert np.max(np.abs(F[:, a] - extrapolated)) <= 2e-8, a


def test_s2_frame_gradients_at_the_poles():
    # At the poles phi = 0 fixes the frame: e_theta = (t, 0, 0), e_phi = (0, 1, 0).  Rows with m = 0 or
    # m = 2 have no gradient there; m = 1 rows have sqrt((2l + 1) l (l + 1) / (8 pi)) times
    # (-1, 0) and (0, -1) at the north pole, (-1)^l (-1, 0) and (-1)^l (0, 1) at the south pole.
    L = 8
    b = sphere._basis(3, L, sphere.default_quadrature(3, L))
    F = b.frame_gradients_at(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]))
    for l in range(L + 1):
        zero = [l * l] + ([l * l + 3, l * l + 4] if l >= 2 else [])
        assert not np.any(F[zero]), l
        if l >= 1:
            c = math.sqrt((2 * l + 1) * l * (l + 1) / (8.0 * math.pi))
            cos_row, sin_row = F[l * l + 1], F[l * l + 2]
            np.testing.assert_allclose(cos_row, [[-c, -c * (-1) ** l], [0.0, 0.0]], rtol=1e-14, atol=0.0)
            np.testing.assert_allclose(sin_row, [[0.0, 0.0], [-c, c * (-1) ** l]], rtol=1e-14, atol=0.0)


NEAR_POLE = [1e-9, 1e-7, 1e-5, 1e-3]


def _assert_closed_forms(table, expected):
    """Each ``expected[row]`` (value or frame components) matches ``table[row]`` to 1e-14 relative; zeros exactly."""
    for row, want in expected.items():
        want = np.asarray(want, dtype=float)
        got = table[row].reshape(want.shape)
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (row, got, want)


@pytest.mark.parametrize("pole", [1.0, -1.0], ids=["north", "south"])
@pytest.mark.parametrize("delta", NEAR_POLE)
def test_s2_values_and_frame_gradients_near_the_poles_match_closed_forms(delta, pole):
    # At polar angle delta from a pole (t = pole cos(delta), sin(theta) = sin(delta)) and phi = 0.3,
    # the m = 0, 1, 2 rows of degrees 1 and 2: Y_1^0 ~ x_3, Y_1^1 ~ x_1, x_2, Y_2^0 ~ 3 x_3^2 - 1,
    # Y_2^1 ~ x_1 x_3, x_2 x_3 and Y_2^2 ~ x_1^2 - x_2^2, 2 x_1 x_2, with the frame gradient
    # (d/dtheta, d/dphi / sin(theta)).  Rounding sin(theta) from t would lose digits from 1e-3 on.
    b = sphere._basis(3, 2, sphere.default_quadrature(3, 2))
    s, t, phi = math.sin(delta), pole * math.cos(delta), 0.3
    cos1, sin1, cos2, sin2 = math.cos(phi), math.sin(phi), math.cos(2 * phi), math.sin(2 * phi)
    X = np.array([[s * cos1, s * sin1, t]])
    c1, c21, c22 = (math.sqrt(k / (4.0 * math.pi)) for k in (3.0, 15.0, 15.0 / 4.0))
    c20 = math.sqrt(5.0 / (16.0 * math.pi))
    rows = {
        1: (c1 * t, (-c1 * s, 0.0)),
        2: (-c1 * s * cos1, (-c1 * t * cos1, c1 * sin1)),
        3: (-c1 * s * sin1, (-c1 * t * sin1, -c1 * cos1)),
        4: (c20 * (3.0 * t * t - 1.0), (-6.0 * c20 * t * s, 0.0)),
        5: (-c21 * s * t * cos1, (-c21 * (t * t - s * s) * cos1, c21 * t * sin1)),
        6: (-c21 * s * t * sin1, (-c21 * (t * t - s * s) * sin1, -c21 * t * cos1)),
        7: (c22 * s * s * cos2, (2.0 * c22 * s * t * cos2, -2.0 * c22 * s * sin2)),
        8: (c22 * s * s * sin2, (2.0 * c22 * s * t * sin2, 2.0 * c22 * s * cos2)),
    }
    _assert_closed_forms(b.values_at(X), {row: [value] for row, (value, _) in rows.items()})
    _assert_closed_forms(b.frame_gradients_at(X), {row: grad for row, (_, grad) in rows.items()})


@pytest.mark.parametrize("pole", [1.0, -1.0], ids=["north", "south"])
@pytest.mark.parametrize("delta", NEAR_POLE)
def test_zonal_values_and_frame_gradients_near_the_poles_match_closed_forms(delta, pole):
    # On S^3 the normalised zonal rows are U_k(t) / (pi sqrt 2), Chebyshev polynomials of the second
    # kind: U_1 = 2t and U_2 = 4t^2 - 1.  The frame gradient is (g'(t) sin(theta), 0), and
    # sin(theta) = |X[:, 1:]| keeps its digits where sqrt(1 - t^2) would not.
    b = sphere._basis(4, 2, sphere.default_quadrature(4, 2))
    s, t = math.sin(delta), pole * math.cos(delta)
    X = np.array([[t, *(s * np.array([2.0, 3.0, 6.0]) / 7.0)]])
    c = 1.0 / (math.pi * math.sqrt(2.0))
    rows = {1: (2.0 * c * t, 2.0 * c), 2: (c * (4.0 * t * t - 1.0), 8.0 * c * t)}
    _assert_closed_forms(b.values_at(X), {row: [value] for row, (value, _) in rows.items()})
    _assert_closed_forms(b.frame_gradients_at(X), {row: [[slope * s], [0.0]] for row, (_, slope) in rows.items()})


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("L", [1, 2, 5, 9, 16, 31])
def test_hessian_trace_is_laplace_beltrami(n, L):
    u = random_field(n, L, seed=10 * n + L)
    q = sphere.default_quadrature(n, L)
    lap = sphere.laplace_beltrami(u)
    for pts in (None, random_unit_points(n, 40, seed=L)):
        trace = np.trace(sphere.hessian(u, q, pts), axis1=1, axis2=2)
        ref = sphere.synthesize(lap, q, pts)
        assert np.max(np.abs(trace - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", range(3, 9))
def test_hessian_is_symmetric_and_tangent(n):
    u = random_field(n, 9, seed=n)
    q = sphere.default_quadrature(n, 9)
    for X in (q.nodes, random_unit_points(n, 40, seed=n)):
        H = sphere.hessian(u, q, None if X is q.nodes else X)
        scale = np.max(np.abs(H))
        assert np.max(np.abs(H - H.transpose(0, 2, 1))) <= 1e-12 * scale
        assert np.max(np.abs(np.einsum("mij,mj->mi", H, X))) <= 1e-14 * scale
    single = sphere.hessian(u, q, X[0])
    assert single.shape == (n, n)
    np.testing.assert_allclose(single, H[0], rtol=0, atol=1e-14 * scale)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_hessian_fd_oracle_at_nodes_and_poles(n):
    u = random_field(n, 4, seed=31, amplitude=0.1)
    q = sphere.default_quadrature(n, 4)

    def u_eval(x):
        return float(sphere.synthesize(u, q, points=np.atleast_2d(x))[0])

    # The basis poles: x_3 on S^2, x_1 for the zonal family.
    pole = np.eye(n)[2 if n == 3 else 0]
    nodes = sphere.hessian(u, q)
    for x, H in ((q.nodes[1], nodes[1]), (q.nodes[q.size // 2], nodes[q.size // 2]),
                 (pole, sphere.hessian(u, q, pole)), (-pole, sphere.hessian(u, q, -pole))):
        np.testing.assert_allclose(H, helpers.fd_hessian(u_eval, x), rtol=0, atol=1e-9)


@pytest.mark.parametrize("k", [2, 17, 31])
def test_hessian_of_zonal_s2_harmonic_matches_legendre_closed_form(k):
    # u = N P_k(x_3): Hess u = g'' a a^T - t g' P with t = x_3, a = e_3 - t x.
    # Degree 31 is the highest whose Hessian the default degree-64 rule resolves.
    from numpy.polynomial.legendre import Legendre

    u = HarmonicField.single_mode(3, k, 1.0, degree=k)
    q = sphere.default_quadrature(3, k)
    g = Legendre.basis(k) * math.sqrt((2 * k + 1) / (4.0 * math.pi))
    X = np.vstack([q.nodes[:: max(1, q.size // 200)], [[0.0, 0.0, 1.0]]])
    t = X[:, 2]
    a = np.eye(3)[2] - t[:, None] * X
    P = np.eye(3) - X[:, :, None] * X[:, None, :]
    expected = g.deriv(2)(t)[:, None, None] * a[:, :, None] * a[:, None, :]
    expected -= (t * g.deriv(1)(t))[:, None, None] * P
    H = sphere.hessian(u, q, X)
    assert np.max(np.abs(H - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_hessian_rejects_degree_beyond_tables():
    # The gradient components of a degree-64 field have degree 65, above the
    # cap, even on a rule that claims enough degree (few nodes keep it cheap).
    base = build_quadrature(3, 2)
    rule = sphere.SphereQuadrature(n=3, degree=2 * sphere.MAX_DEGREE + 2, nodes=base.nodes, weights=base.weights)
    u = random_field(3, sphere.MAX_DEGREE, seed=2)
    with pytest.raises(QuadratureError, match="degree"):
        sphere.hessian(u, rule)


# ---------------------------------------------------------------------------
# Hessian cubic form


def test_hessian_form_constant_zero():
    u = HarmonicField(n=3, degree=2, coeffs=np.eye(9)[0])
    assert sphere.hessian_form(u, points=np.array([0.0, 0.0, 1.0])) == pytest.approx(0.0, abs=1e-14)


def test_hessian_form_zonal_vanishes_at_pole():
    u = HarmonicField.single_mode(3, 2, 1.0)
    val = sphere.hessian_form(u, points=np.array([0.0, 0.0, 1.0]))
    assert val == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4])
def test_hessian_form_fd_oracle(n):
    u = random_field(n, 4, seed=31, amplitude=0.1)
    q = sphere.default_quadrature(n, 4)

    def u_eval(x):
        return float(sphere.synthesize(u, q, points=np.atleast_2d(x))[0])

    vals = sphere.hessian_form(u, q)
    for idx in (1, q.size // 2):
        x = q.nodes[idx]
        assert vals[idx] == pytest.approx(helpers.fd_hessian_form(u_eval, x), abs=1e-6)


def test_hessian_form_rejects_insufficient_headroom():
    # The Hessian of a degree-10 field projects its degree-11 gradient
    # components, which needs a rule of degree 22; a degree-12 rule must raise.
    u = random_field(3, 10, seed=4, amplitude=5.0)
    q = build_quadrature(3, 12)
    with pytest.raises(QuadratureError):
        sphere.hessian_form(u, q)


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("L", [3, 8, 16])
def test_hessian_form_matches_projected_oracle(n, L):
    u = random_field(n, L, seed=7 * n + L)
    q = sphere.default_quadrature(n, L)
    oracle = helpers.projected_hessian_form(u, q)
    assert np.max(np.abs(sphere.hessian_form(u, q) - oracle)) <= 1e-12 * np.max(np.abs(oracle))
    pts = random_unit_points(n, 20, seed=L)
    oracle = helpers.projected_hessian_form(u, q, pts)
    assert np.max(np.abs(sphere.hessian_form(u, q, pts) - oracle)) <= 1e-12 * np.max(np.abs(oracle))
