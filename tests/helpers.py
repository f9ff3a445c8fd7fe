"""Independent oracles used across the test modules.

Everything here deliberately avoids the spectral code paths under test:
polar radii are summed mode by mode with dense cos/sin matrices, curve
geometry is differentiated by finite differences of the Cartesian
parametrisation, sphere operators act on the homogeneous extension through
finite-difference stencils, and areas come from Monte Carlo sampling, from
adaptive quadrature along rays, or from 1D integrals over circles.  Second
derivatives on the sphere also have the library's former evaluation paths
as oracles: the projection of |grad u|^2, the Weingarten assembly of the
second fundamental form, and the meridian section of an axisymmetric body.
"""

import numpy as np

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# planar curve oracles


def dense_polar(curve, theta, order=0):
    """Derivative ``order`` (0..2) of rho summed mode by mode with cos/sin matrices."""
    theta = np.asarray(theta, dtype=float)
    k = np.arange(curve.degree + 1)
    kt = np.multiply.outer(theta, k)
    a, b = curve.cos_coeffs, curve.sin_coeffs
    if order == 0:
        return np.cos(kt) @ a + np.sin(kt)[..., 1:] @ b
    if order == 1:
        return -np.sin(kt) @ (k * a) + np.cos(kt)[..., 1:] @ (k[1:] * b)
    return -np.cos(kt) @ (k * k * a) - np.sin(kt)[..., 1:] @ (k[1:] ** 2 * b)


def fd_curvature(curve, samples=8192):
    """Curvature of the Cartesian parametrisation by 4th-order differences."""
    theta = TWO_PI * np.arange(samples) / samples
    pts = curve.points(theta)
    h = TWO_PI / samples

    def d1(a):
        return (-np.roll(a, -2) + 8 * np.roll(a, -1) - 8 * np.roll(a, 1) + np.roll(a, 2)) / (12 * h)

    def d2(a):
        return (
            -np.roll(a, -2) + 16 * np.roll(a, -1) - 30 * a + 16 * np.roll(a, 1) - np.roll(a, 2)
        ) / (12 * h * h)

    xp, yp = d1(pts[:, 0]), d1(pts[:, 1])
    xpp, ypp = d2(pts[:, 0]), d2(pts[:, 1])
    return theta, (xp * ypp - yp * xpp) / (xp * xp + yp * yp) ** 1.5


def arclength_energy(curve, wp, samples=8192):
    """Boundary integral of curvature times f(|x|) from the FD parametrisation."""
    theta, kappa = fd_curvature(curve, samples)
    pts = curve.points(theta)
    h = TWO_PI / samples

    def d1(a):
        return (-np.roll(a, -2) + 8 * np.roll(a, -1) - 8 * np.roll(a, 1) + np.roll(a, 2)) / (12 * h)

    speed = np.hypot(d1(pts[:, 0]), d1(pts[:, 1]))
    radii = np.hypot(pts[:, 0], pts[:, 1])
    return float(np.mean(kappa * wp.f(radii) * speed) * TWO_PI)


def arclength_integral(curve, integrand, samples=8192):
    """Boundary integral of ``integrand(theta)`` against the FD arc element."""
    theta = TWO_PI * np.arange(samples) / samples
    pts = curve.points(theta)
    h = TWO_PI / samples

    def d1(a):
        return (-np.roll(a, -2) + 8 * np.roll(a, -1) - 8 * np.roll(a, 1) + np.roll(a, 2)) / (12 * h)

    speed = np.hypot(d1(pts[:, 0]), d1(pts[:, 1]))
    return float(np.mean(integrand(theta) * speed) * TWO_PI)


def outward_normals(curve, theta):
    """Unit outward normals from FD tangents of the Cartesian parametrisation."""
    eps = 1e-6
    p_plus = curve.points(theta + eps)
    p_minus = curve.points(theta - eps)
    tang = (p_plus - p_minus) / (2 * eps)
    nrm = np.column_stack([tang[:, 1], -tang[:, 0]])
    return nrm / np.linalg.norm(nrm, axis=1)[:, None]


def montecarlo_weighted_area(curve, wp, rng, samples=400_000):
    """Monte Carlo estimate of the weighted area with its standard error."""
    box = curve.max_radius * 1.01
    pts = rng.uniform(-box, box, size=(samples, 2))
    radii = np.hypot(pts[:, 0], pts[:, 1])
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    inside = radii <= curve.rho_at(angles)
    vals = np.where(inside, wp.w(np.maximum(radii, 1e-12)), 0.0)
    area_box = (2 * box) ** 2
    mean = np.mean(vals)
    std_err = np.std(vals) / np.sqrt(samples)
    return float(mean * area_box), float(std_err * area_box)


def ray_weighted_area(curve, wp, center):
    """Weighted area of the region translated by ``center``: ``t w(|x|)`` integrated along each grid ray."""
    from gausscurv.weights import integrate_radial

    cx, cy = center
    cos_t, sin_t = np.cos(curve.theta), np.sin(curve.theta)

    def integrand(t):
        dist = np.sqrt((t * cos_t[:, None] + cx) ** 2 + (t * sin_t[:, None] + cy) ** 2)
        return t * wp.w(dist)

    inner, _ = integrate_radial(integrand, curve.rho)
    return TWO_PI * float(np.mean(inner))


def disk_weighted_area(wp, radius, dist):
    """Weighted area of the disk of ``radius`` centred ``dist > 0`` from the origin.

    The circle ``|x| = r`` meets the disk in an arc of angle
    ``2 arccos((r^2 + dist^2 - radius^2) / (2 r dist))``, so the area is one
    integral over r.  When the origin is inside, the centred disk of radius
    ``radius - dist`` lies wholly inside and contributes ``2 pi (f(0) - f(radius - dist))``.
    """
    from scipy.integrate import quad

    lo, hi = abs(radius - dist), radius + dist

    def arc_mass(t):
        # r = lo + (hi - lo) sin^2(t/2) smooths the square-root ends of the arc angle.
        r = lo + 0.5 * (hi - lo) * (1.0 - np.cos(t))
        cos_arc = np.clip((r * r + dist * dist - radius * radius) / (2.0 * r * dist), -1.0, 1.0)
        return wp.w(np.array([r]))[0] * 2.0 * r * np.arccos(cos_arc) * 0.5 * (hi - lo) * np.sin(t)

    area, _ = quad(arc_mass, 0.0, np.pi, epsabs=0.0, epsrel=2e-14, limit=200)
    if dist < radius:
        f = wp.f(np.array([0.0, radius - dist]))
        area += TWO_PI * (f[0] - f[1])
    return float(area)


def star_weighted_area_about(curve, wp, center, samples=1024):
    """Weighted area of the region translated by ``center``, star-shaped about the origin.

    Along each of ``samples`` rays from the origin the boundary radius R is
    bisected to full precision on whether a point lies in the curve's region
    (radii summed mode by mode); the area is then ``int (f(0) - f(R)) dphi``.
    Every ray must leave the translated region exactly once, as it does for
    a convex region containing the origin.
    """
    phi = TWO_PI * np.arange(samples) / samples
    ray = np.column_stack([np.cos(phi), np.sin(phi)])
    lo = np.zeros(samples)
    hi = np.full(samples, curve.max_radius + float(np.hypot(*center)))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.all((mid == lo) | (mid == hi)):
            break
        p = mid[:, None] * ray - np.asarray(center)
        outside = np.hypot(p[:, 0], p[:, 1]) > dense_polar(curve, np.arctan2(p[:, 1], p[:, 0]))
        hi = np.where(outside, mid, hi)
        lo = np.where(outside, lo, mid)
    f = wp.f(np.concatenate([[0.0], mid]))
    return TWO_PI * float(np.mean(f[0] - f[1:]))


def support_distance(c1, c2, samples=8192):
    """Sup-distance of support functions; equals the Hausdorff distance for convex bodies."""
    phi = TWO_PI * np.arange(samples) / samples
    dirs = np.column_stack([np.cos(phi), np.sin(phi)])
    p1 = c1.points()
    p2 = c2.points()
    h1 = np.max(p1 @ dirs.T, axis=0)
    h2 = np.max(p2 @ dirs.T, axis=0)
    return float(np.max(np.abs(h1 - h2)))


# ---------------------------------------------------------------------------
# sphere oracles: finite differences on the 0-homogeneous extension


def _extension(field_eval, x):
    nrm = np.linalg.norm(x, axis=-1, keepdims=True)
    return field_eval(x / nrm)


def fd_gradient(field_eval, x, step=1e-5):
    """4th-order FD gradient of the homogeneous extension, tangential by construction."""
    x = np.asarray(x, dtype=float)
    n = x.size
    g = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        vals = [
            _extension(field_eval, x + s * step * e) for s in (-2.0, -1.0, 1.0, 2.0)
        ]
        g[i] = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * step)
    return g


def fd_laplacian(field_eval, x, step=2e-3):
    """4th-order FD ambient Laplacian of the extension = spherical Laplacian."""
    x = np.asarray(x, dtype=float)
    n = x.size
    total = 0.0
    f0 = _extension(field_eval, x)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        fm2 = _extension(field_eval, x - 2 * step * e)
        fm1 = _extension(field_eval, x - step * e)
        fp1 = _extension(field_eval, x + step * e)
        fp2 = _extension(field_eval, x + 2 * step * e)
        total += (-fm2 + 16 * fm1 - 30 * f0 + 16 * fp1 - fp2) / (12 * step * step)
    return total


def fd_hessian_form(field_eval, x, step=1e-4):
    """(1/2) <grad |grad u|^2, grad u> via nested FD gradients."""

    def sq_grad(y):
        g = fd_gradient(field_eval, y)
        return float(np.dot(g, g))

    x = np.asarray(x, dtype=float)
    n = x.size
    gs = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        vals = [sq_grad((x + s * step * e) / np.linalg.norm(x + s * step * e)) for s in (-2.0, -1.0, 1.0, 2.0)]
        gs[i] = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * step)
    g = fd_gradient(field_eval, x)
    # Project out the radial part the nesting may have introduced.
    gs -= np.dot(gs, x) * x
    return 0.5 * float(np.dot(gs, g))


def fd_hessian(field_eval, x, step=1e-3):
    """Covariant Hessian ``P D^2 U P`` from central differences of the extension.

    The extension ``U`` is 0-homogeneous, so its radial derivative vanishes
    and the covariant Hessian is the tangential block of the ambient one.
    Richardson on steps h and 2h makes the mixed stencil fourth order.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    eye = np.eye(n)

    def ambient(h):
        D = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                vals = [
                    _extension(field_eval, x + h * (si * eye[i] + sj * eye[j]))
                    for si, sj in ((1, 1), (1, -1), (-1, 1), (-1, -1))
                ]
                D[i, j] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * h * h)
        return D

    D = (4 * ambient(step) - ambient(2 * step)) / 3
    P = eye - np.outer(x, x)
    return P @ D @ P


def projected_hessian_form(field, quad, points=None):
    """(1/2) <grad |grad u|^2, grad u> with |grad u|^2 projected at degree 2L on ``quad``.

    |grad u|^2 lies in the span of the harmonics up to degree 2L, so the
    projection is exact once ``quad`` integrates degree 4L; the residual at
    the nodes is asserted small.
    """
    from gausscurv import sphere

    L2 = min(2 * field.degree, sphere.MAX_DEGREE)
    coeffs = np.zeros(sphere.basis_size(field.n, L2))
    coeffs[: field.coeffs.size] = field.coeffs
    lifted = sphere.HarmonicField(n=field.n, degree=L2, coeffs=coeffs)
    g = sphere.field_gradient(lifted, quad)
    sq = np.einsum("mi,mi->m", g, g)
    sq_field = sphere.analyze(sq, field.n, L2, quad)
    assert np.max(np.abs(sphere.synthesize(sq_field, quad) - sq)) <= 1e-10 * (1.0 + np.max(sq))
    if points is not None:
        g = sphere.field_gradient(field, quad, points)
    return 0.5 * np.einsum("...i,...i->...", sphere.field_gradient(sq_field, quad, points), g)


def monomial_sphere_moment(n, exponents):
    """Closed-form integral of a monomial with even exponents over S^(n-1)."""
    from math import gamma

    a = [e // 2 for e in exponents]
    if any(e % 2 for e in exponents):
        return 0.0
    num = 2.0
    for ai in a:
        num *= gamma(ai + 0.5)
    return num / gamma(sum(a) + n / 2.0)


# ---------------------------------------------------------------------------
# real spherical harmonics on S^2, one lpmv call per (l, m)


def lpmv_harmonic_tables(L, X):
    """Values (B, m) and gradients (B, m, 3) of the real harmonics up to degree ``L``.

    Rows follow the library's order (m = 0, then cos/sin pairs for m = 1..l in
    each degree block).  The gradient formula divides by sin(theta), so the
    points must stay away from the poles.
    """
    from scipy.special import gammaln, lpmv

    X = np.atleast_2d(np.asarray(X, dtype=float))
    t = np.clip(X[:, 2], -1.0, 1.0)
    phi = np.arctan2(X[:, 1], X[:, 0])
    s = np.sqrt(1.0 - t**2)
    if np.any(s < 1e-8):
        raise ValueError("the lpmv gradient formula is singular near the poles")
    e_theta = np.column_stack([t * np.cos(phi), t * np.sin(phi), -s])
    e_phi = np.column_stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
    V = np.empty(((L + 1) ** 2, X.shape[0]))
    G = np.empty(((L + 1) ** 2, X.shape[0], 3))
    for l in range(L + 1):
        for m in range(l + 1):
            c = np.sqrt((2 * l + 1) / (4.0 * np.pi) * np.exp(gammaln(l - m + 1) - gammaln(l + m + 1)))
            P = lpmv(m, l, t)
            Pm1 = lpmv(m, l - 1, t) if l - 1 >= m else np.zeros_like(t)
            dtheta = -s * ((l + m) * Pm1 - l * t * P) / (1.0 - t**2)
            if m == 0:
                V[l * l] = c * P
                G[l * l] = (c * dtheta)[:, None] * e_theta
                continue
            amp = np.sqrt(2.0) * c
            for row, trig, dtrig in (
                (l * l + 2 * m - 1, np.cos(m * phi), -m * np.sin(m * phi)),
                (l * l + 2 * m, np.sin(m * phi), m * np.cos(m * phi)),
            ):
                V[row] = amp * P * trig
                G[row] = (amp * dtheta * trig)[:, None] * e_theta
                G[row] += (amp * P / s * dtrig)[:, None] * e_phi
    return V, G


# ---------------------------------------------------------------------------
# body oracles: adaptive radial quadrature and per-node frames


def radial_gaussian_volume(body):
    """Gaussian volume with ``int_0^h t^(n-1) exp(-t^2/2) dt`` by adaptive quadrature."""
    from gausscurv.weights import integrate_radial

    n = body.n
    vals, _ = integrate_radial(lambda t: t ** (n - 1) * np.exp(-0.5 * t * t), body.h_nodes)
    return float(np.dot(body.quad.weights, vals)) / (2.0 * np.pi) ** (n / 2.0)


def radial_inverse_square_flux_bulk(body):
    """Divergence-theorem side of the inverse-square flux by adaptive radial quadrature."""
    from gausscurv.weights import integrate_radial

    n = body.n
    vals, _ = integrate_radial(lambda t: t ** (n - 3) * np.exp(-0.5 * t * t), body.h_nodes)
    bulk = (n - 2) * float(np.dot(body.quad.weights, vals))
    return bulk - (2.0 * np.pi) ** (n / 2.0) * radial_gaussian_volume(body)


def loop_tangent_frames(nodes):
    """Tangent frames node by node: drop the most aligned axis, Gram-Schmidt the rest."""
    m, n = nodes.shape
    frames = np.empty((m, n - 1, n))
    for idx in range(m):
        x = nodes[idx]
        drop = int(np.argmax(np.abs(x)))
        out = []
        for j in range(n):
            if j == drop:
                continue
            v = np.eye(n)[j] - x[j] * x
            for u in out:
                v = v - np.dot(v, u) * u
            out.append(v / np.linalg.norm(v))
        frames[idx] = np.array(out)
    return frames


def weingarten_second_fundamental_min(body):
    """Smallest eigenvalue of the second fundamental form on S^2 by the Weingarten map.

    The three components of the unnormalised Gauss map ``x h - grad h`` are
    projected at degree 2L and differentiated; the form pairs that
    derivative with the derivative ``h tau + <grad h, tau> x`` of the boundary.
    """
    from gausscurv import sphere

    quad, X = body.quad, body.quad.nodes
    L2 = min(2 * body.perturbation.degree, sphere.MAX_DEGREE)
    h, grad_h = body.h_nodes, body.grad_nodes
    psi = [sphere.analyze(X[:, i] * h - grad_h[:, i], 3, L2, quad) for i in range(3)]
    Gpsi = np.stack([sphere.field_gradient(f, quad) for f in psi])
    tau = loop_tangent_frames(X)
    A = np.einsum("imc,mac->mia", Gpsi, tau)
    gtau = np.einsum("mc,mbc->mb", grad_h, tau)
    dF = gtau[:, :, None] * X[:, None, :] + h[:, None, None] * tau
    form = np.einsum("mia,mbi->mab", A, dF)
    return float(np.min(np.linalg.eigvalsh(0.5 * (form + np.swapaxes(form, 1, 2)))))


def section_certificate(body, theta):
    """``rho^2 + 2 rho'^2 - rho rho''`` of the meridian section of a zonal body at ``theta``.

    The section ``rho(theta) = h(cos theta, sin theta, 0, ...)`` is a
    trigonometric polynomial of the field's degree, fitted as a planar curve.
    """
    from gausscurv import plane, sphere

    def section(th):
        pts = np.zeros((th.size, body.n))
        pts[:, 0], pts[:, 1] = np.cos(th), np.sin(th)
        return body.radius * (1.0 + sphere.synthesize(body.perturbation, body.quad, points=pts))

    curve = plane.PolarCurve.from_function(section, degree=max(body.perturbation.degree, 4))
    rho, drho, ddrho = curve.rho_at(theta), curve.drho_at(theta), curve.ddrho_at(theta)
    return rho**2 + 2.0 * drho**2 - rho * ddrho
