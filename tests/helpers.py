"""Independent oracles used across the test modules.

Everything here deliberately avoids the spectral code paths under test:
polar radii are summed mode by mode with dense cos/sin matrices, curve
geometry is differentiated by finite differences of the Cartesian
parametrisation, sphere operators act on the homogeneous extension through
finite-difference stencils, and areas come from Monte Carlo sampling, from
adaptive quadrature along rays, or from 1D integrals over circles.  Second
derivatives on the sphere also have the library's former evaluation paths
as oracles: the projection of |grad u|^2, the Weingarten assembly of the
second fundamental form, and the meridian section of an axisymmetric body
sampled at the planar grid's angles.
Planar matched radii have the former scalar root finder as oracle; ball
volumes and matched radii have the sphere-area form and a bracketed
root finder as oracles for the chi_n distribution function and quantile;
radial moments have adaptive quadrature.  Volume matching has the former
Newton iteration with its bracketed root-finding fallback as oracle, and the
capped cylinder's closed forms have the former adaptive quadrature of its
four pieces.  The exact second variation has Richardson extrapolation of
finite-amplitude matched energy gaps as oracle, and its threshold root the
former ``brentq`` search.  The sampled Hausdorff distance has its former
k-d-tree candidate search as oracle.
The recursive product rule, exact for every polynomial of its degree, is the
oracle of the library's one rule per dimension.
The random planar curves have the former per-trial draw as oracle: two
calls of ``uniform(-1, 1, degree)`` on the trial's own generator.  The random
even bodies have theirs too: one ``normal`` call per even degree.
Body node values (of a ``body.RadialGraph`` or of each row of a
``body.BodyStack``) have the per-field ``sphere`` functions as oracle:
``r (1 + synthesize(u))``, ``r field_gradient(u)``,
``r synthesize(laplace_beltrami(u))``, and ``r`` times the library's former
ambient n x n Hessian, :func:`ambient_hessian`, all of which
:func:`per_field_node_values` evaluates.  The Hessian reads the former
ambient basis gradients, :func:`ambient_gradients`, which are also the
oracle of the bases' frame gradient tables; :func:`frame_entries` reads the
ambient gradient and Hessian in the bases' tangent frame, built afresh by
:func:`tangent_frame`.
``stack``, ``rows`` and ``body_stack`` are no oracles: the first puts curves
as rows of one ``plane.CurveStack`` for the stacked checks, the second splits
a stack's report of columns into one report of floats per curve, and the
third puts bodies as rows of one ``body.BodyStack``.  Nor is ``reports_match``: it
holds a CLI report against a committed golden one under the tolerance contract.
Nor are ``convexity_certificate``, ``norm_l2`` and ``grad_norm_l2``, which read
a curve's grid or a field's coefficients as the library's former methods did.
"""

import dataclasses
import math
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * np.pi


# ---------------------------------------------------------------------------
# planar curve oracles


def stack(curves):
    """The curves as rows of one ``plane.CurveStack`` on the default grid, padded to the largest degree."""
    from gausscurv import plane

    top = max(c.degree for c in curves)
    cos_c = [np.pad(c.cos_coeffs, (0, top - c.degree)) for c in curves]
    return plane.CurveStack(cos_c, [np.pad(c.sin_coeffs, (0, top - c.degree)) for c in curves])


def rows(report):
    """A stacked check's report of columns as one report of Python floats and bools per curve or body."""
    from gausscurv import experiments, plane

    if isinstance(report, plane.TwoSided):
        return [plane.TwoSided(*pair) for pair in zip(rows(report.lower), rows(report.upper))]
    if isinstance(report, experiments.CalibrationResult):
        columns = [getattr(report, f.name) for f in dataclasses.fields(report)]
        columns = [rows(c) if isinstance(c, plane.InequalityReport) else np.asarray(c).tolist() for c in columns]
        return [experiments.CalibrationResult(*row) for row in zip(*columns)]
    columns = [np.asarray(c).tolist() for c in (report.lhs, report.rhs, report.quad_error)]
    return [plane.InequalityReport(*row) for row in zip(*columns)]


def convexity_certificate(curve):
    """Curvature numerator ``rho^2 + 2 rho'^2 - rho rho''`` on the curve's grid."""
    from gausscurv import plane

    return plane._certificate(curve.rho, curve.drho, curve.ddrho)


def trial_rng(seed, trial):
    """The trial's own generator, as the CLI once built it per trial: a Philox keyed by ``(seed, trial)``."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


def random_polar_coeffs(rng, amplitude, degree, decay):
    """A random planar candidate as the generators drew it trial by trial: cosines, then sines."""
    k = np.arange(1, degree + 1)
    scale = amplitude / k.astype(float) ** decay
    cos_c = np.concatenate([[1.0], rng.uniform(-1.0, 1.0, degree) * scale])
    sin_c = rng.uniform(-1.0, 1.0, degree) * scale
    return cos_c, sin_c


def random_even_coeffs(rng, n, amplitude, degree=6):
    """A random even perturbation's coefficients as the CLI drew them body by body, block by block."""
    if n == 3:
        coeffs = np.zeros((degree + 1) ** 2)
        for k in range(2, degree + 1, 2):
            block = slice(k * k, (k + 1) * (k + 1))
            coeffs[block] = rng.normal(size=2 * k + 1) / k**3
    else:
        coeffs = np.zeros(degree + 1)
        for k in range(2, degree + 1, 2):
            coeffs[k] = rng.normal() / k**3
    norm = np.linalg.norm(coeffs)
    coeffs *= amplitude / norm
    return coeffs


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


# The area weights w = -f'(r) / r of the CLI presets, in mpmath.
MP_AREA_WEIGHTS = {
    "gaussian": lambda mp, r: mp.exp(-r * r / 2),
    "inverse-quadratic": lambda mp, r: 2 / (1 + r * r) ** 2,
    "exponential": lambda mp, r: mp.exp(-r) / r,
}


def mp_far_disk_weighted_area(mpmath, name, radius, dist, dps=30):
    """:func:`disk_weighted_area` of a preset weight by ``mpmath.quad`` at ``dps`` digits, for ``dist > radius``.

    The same arc-mass integral over circles about the origin, with the same
    substitution; scipy's adaptive rule loses digits on it far out (7.8e-14
    relative at Gaussian distance 12), which this one does not.  The weight
    is divided by its value at the nearest radius, since ``mpmath.quad``
    stops on an absolute error and the far areas are tiny.
    """
    weight = MP_AREA_WEIGHTS[name]
    with mpmath.workdps(dps):
        radius, dist = mpmath.mpf(radius), mpmath.mpf(dist)
        lo, hi = dist - radius, dist + radius
        scale = weight(mpmath, lo)

        def arc_mass(t):
            r = lo + (hi - lo) * mpmath.sin(t / 2) ** 2
            cos_arc = min(max((r * r + dist * dist - radius * radius) / (2 * r * dist), -1), 1)
            return weight(mpmath, r) / scale * 2 * r * mpmath.acos(cos_arc) * (hi - lo) / 2 * mpmath.sin(t)

        return float(scale * mpmath.quad(arc_mass, [0, mpmath.pi]))


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


def brentq_matched_radius(area, wp):
    """Radius of the centred disk with weighted ``area``, by scalar bracketed root finding.

    The library's former path for weights other than the Gaussian; its
    ``xtol`` is absolute, so near r = 1 it may stop some ulp short of the root.
    """
    from scipy.optimize import brentq

    def f_at(r):
        return float(wp.f(np.array([r]))[0])

    level = f_at(0.0) - area / (2.0 * np.pi)
    return brentq(lambda r: f_at(r) - level, 0.0, 1e3, xtol=1e-14, rtol=8.9e-16)


def support_distance(c1, c2, samples=8192):
    """Sup-distance of support functions; equals the Hausdorff distance for convex bodies."""
    phi = TWO_PI * np.arange(samples) / samples
    dirs = np.column_stack([np.cos(phi), np.sin(phi)])
    p1 = c1.points()
    p2 = c2.points()
    h1 = np.max(p1 @ dirs.T, axis=0)
    h2 = np.max(p2 @ dirs.T, axis=0)
    return float(np.max(np.abs(h1 - h2)))


def kdtree_hausdorff(c1, c2, samples=4096):
    """Sampled Hausdorff distance, segments found through a k-d tree: the library's former path.

    Each boundary sample outside the other region is measured to the
    segments on either side of its 4 nearest vertices of the other sampled
    boundary, with the library's own point-to-segment distances.
    """
    from scipy.spatial import cKDTree

    from gausscurv import plane

    def directed(source, target):
        theta = TWO_PI * np.arange(samples) / samples
        pts = plane._boundary_samples(source, theta)
        inside = np.hypot(pts[:, 0], pts[:, 1]) <= target.rho_at(np.arctan2(pts[:, 1], pts[:, 0]))
        if np.all(inside):
            return 0.0
        pts = pts[~inside]
        verts = plane._boundary_samples(target, theta)
        _, idx = cKDTree(verts).query(pts, k=4)
        cand = np.concatenate([idx - 1, idx], axis=1) % samples
        return float(np.max(plane._segment_distances(pts, verts, cand)))

    return max(directed(c1, c2), directed(c2, c1))


def hausdorff_pairs():
    """Curve pairs on which the sampled Hausdorff distance is compared with :func:`kdtree_hausdorff`.

    The stability families at h = 2..64 against the unit circle, 60 random
    star pairs at amplitude 0.3, rough degree-40 curves against each other
    and the circle, and a radius-0.05 circle against a star.
    """
    from gausscurv import cli, plane

    hs = range(2, 65)
    circle = plane.PolarCurve.circle(1.0)
    pairs = [(c, circle) for family in cli._stability_families(hs, 1.0).values() for c in family]
    stars = [cli.generate_star_polar(7, 0.3, trial) for trial in range(120)]
    pairs += list(zip(stars[::2], stars[1::2]))
    rng = np.random.default_rng(40)
    rough = []
    for _ in range(6):
        k = np.arange(1, 41)
        cos_c = np.concatenate([[1.0], 0.25 * rng.standard_normal(40) / k])
        sin_c = 0.25 * rng.standard_normal(40) / k
        rough.append(plane.PolarCurve(cos_c, sin_c))
    pairs += [(a, b) for a, b in zip(rough, rough[1:])] + [(c, circle) for c in rough]
    pairs.append((plane.PolarCurve.circle(0.05), stars[0]))
    return pairs


# ---------------------------------------------------------------------------
# sphere oracles: finite differences on the 0-homogeneous extension


def norm_l2(u):
    """The L2 norm of a ``sphere.HarmonicField`` over the sphere: the norm of its orthonormal coefficients."""
    return float(np.linalg.norm(u.coeffs))


def grad_norm_l2(u):
    """The L2 norm of a field's gradient: ``sqrt(sum lambda_k c_k^2)`` over the Laplacian eigenvalues."""
    from gausscurv import sphere

    lam = sphere._eigenvalues(u.n, u.degree)
    return float(math.sqrt(np.sum(lam * u.coeffs**2)))


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


def _chain_rule(n, degree):
    """Recursive product rule with x_1 as the outermost polar coordinate."""
    if n == 2:
        m = max(degree + 1, 4)
        theta = TWO_PI * np.arange(m) / m
        return np.column_stack([np.cos(theta), np.sin(theta)]), np.full(m, TWO_PI / m)
    from gausscurv.special import gauss_jacobi

    m = degree // 2 + 1
    t, wt = gauss_jacobi(m, (n - 3) / 2.0)
    sub_nodes, sub_w = _chain_rule(n - 1, degree)
    s = np.sqrt(1.0 - t**2)
    nodes = np.empty((m * sub_nodes.shape[0], n))
    nodes[:, 0] = np.repeat(t, sub_nodes.shape[0])
    nodes[:, 1:] = np.repeat(s, sub_nodes.shape[0])[:, None] * np.tile(sub_nodes, (m, 1))
    return nodes, np.repeat(wt, sub_w.size) * np.tile(sub_w, m)


@lru_cache(maxsize=None)
def product_rule(n, degree):
    """Product rule on S^(n-1) exact for every polynomial of ``degree``.

    Gauss-Jacobi factors in each polar cosine and uniform angles on the last
    circle; on S^2 the polar axis is x_3, as in the library's rule.  It has
    ``max(degree + 1, 4) * (degree // 2 + 1)^(n - 2)`` nodes.
    """
    from gausscurv.sphere import SphereQuadrature

    nodes, wts = _chain_rule(n, degree)
    if n == 3:
        nodes = nodes[:, [1, 2, 0]]
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    return SphereQuadrature(n=n, degree=degree, nodes=nodes, weights=wts)


def body_stack(graphs):
    """The bodies as rows of one ``body.BodyStack`` on their common rule; they share one field degree."""
    from gausscurv import body

    quad = graphs[0].quad
    assert all(g.quad is quad for g in graphs), "stacked bodies share one rule"
    coeffs = np.stack([g.perturbation.coeffs for g in graphs])
    return body.BodyStack(graphs[0].n, [g.radius for g in graphs], coeffs, quad=quad)


def per_field_node_values(graph):
    """``h``, the Laplacian of ``h``, and the ambient ``grad h`` (nodes, n) and covariant
    ``Hess h`` (nodes, n, n) at the body's nodes, from its field through the per-field
    ``sphere`` functions and :func:`ambient_hessian`."""
    from gausscurv import sphere

    r, u, q = graph.radius, graph.perturbation, graph.quad
    return {
        "h_nodes": r * (1.0 + sphere.synthesize(u, q)),
        "lap_nodes": r * sphere.synthesize(sphere.laplace_beltrami(u), q),
        "grad": r * sphere.field_gradient(u, q),
        "hess": r * ambient_hessian(u, q),
    }


def ambient_gradients(basis, X):
    """Every basis function's ambient gradient at unit points ``X`` (m, n), shape (basis, m, n),
    by the library's former route: the gradient of the degree-0 homogeneous extension.

    On S^2 it is the pole-regular ``dP/dtheta e_theta + (m P / sin theta) e_phi`` assembled
    from the basis's frame gradient table; for zonal fields ``g(<x, e_1>)`` it is
    ``g'(t) a`` with ``a = e_1 - t x``.
    """
    X = np.atleast_2d(X)
    if X.shape[1] == 3:
        F = basis.Fn if X is basis.quad.nodes else basis.frame_gradients_at(X)
        e_theta, e_phi = tangent_frame(X)
        return F[:, 0, :, None] * e_theta + F[:, 1, :, None] * e_phi
    a = np.eye(X.shape[1])[0] - X[:, :1] * X
    return basis._derivatives(X[:, 0])[1][:, :, None] * a[None, :, :]


def ambient_hessian(u, quad, points=None):
    """Covariant Hessian of ``u`` as (m, n, n) matrices at the nodes or at unit ``points``,
    by the library's former ambient route.

    On S^2 the three components of the ambient node gradient are projected at
    degree L + 1, their gradients at the points are the rows of the Jacobian
    ``J``, and the Hessian is ``P J P`` with ``P = I - x x^T``.  For zonal fields
    ``g(<x, e_1>)`` it is ``g'' a a^T - t g' P`` with ``a = e_1 - t x``.
    """
    from gausscurv import sphere

    b = sphere._basis(u.n, u.degree, quad)
    X = quad.nodes if points is None else np.atleast_2d(np.asarray(points, dtype=float))
    P = np.eye(u.n) - X[:, :, None] * X[:, None, :]
    if u.n == 3:
        up = b._gradient_basis()
        C = up.V @ (quad.weights[:, None] * np.tensordot(u.coeffs, ambient_gradients(b, quad.nodes), axes=1))
        G = ambient_gradients(up, X)
        J = np.dot(C.T, G.reshape(len(C), -1)).reshape(3, -1, 3).transpose(1, 0, 2)
        return P @ J @ P
    d1, d2 = u.coeffs @ b._derivatives(X[:, 0])[1:]
    a = np.eye(u.n)[0] - X[:, :1] * X
    return d2[:, None, None] * a[:, :, None] * a[:, None, :] - (X[:, 0] * d1)[:, None, None] * P


def tangent_frame(X):
    """The tangent frame the bases read gradients and Hessians in, at unit points ``X`` (m, n).

    On S^2 it is ``(e_theta, e_phi)`` from the polar angles about x_3, as two (m, 3)
    arrays.  For n >= 4 it is ``a / |a|`` alone, with ``a = e_1 - t x``; at the poles
    +-e_1, where ``a = 0``, ``e_2`` stands in.
    """
    X = np.atleast_2d(X)
    n = X.shape[1]
    if n == 3:
        t, phi = X[:, 2], np.arctan2(X[:, 1], X[:, 0])
        s = np.sqrt(np.maximum(1.0 - t * t, 0.0))
        e_theta = np.column_stack([t * np.cos(phi), t * np.sin(phi), -s])
        return e_theta, np.column_stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
    a = np.eye(n)[0] - X[:, :1] * X
    norm = np.linalg.norm(a, axis=1)
    a[norm == 0.0], norm[norm == 0.0] = np.eye(n)[1], 1.0
    return (a / norm[:, None],)


def frame_entries(X, grad, hess):
    """An ambient gradient (m, n) and Hessian (m, n, n) at ``X`` read in :func:`tangent_frame`:
    rows ``g_1, g_2``, shape (2, m), and ``H_11, H_12, H_22``, shape (3, m).

    On S^2 the frame names both vectors.  For n >= 4 it names only ``e_1``: there
    ``g_2`` and ``H_12`` are the norms of what ``grad`` and ``Hess e_1`` have across
    ``e_1``, which the library's frame route takes to be zero, and
    ``H_22 = (tr Hess - H_11) / (n - 2)``.
    """
    e1, *named = tangent_frame(X)
    g1 = np.einsum("mi,mi->m", e1, grad)
    He1 = np.einsum("mij,mj->mi", hess, e1)
    h11 = np.einsum("mi,mi->m", e1, He1)
    if named:
        e2 = named[0]
        g2, h12 = np.einsum("mi,mi->m", e2, grad), np.einsum("mi,mij,mj->m", e1, hess, e2)
        h22 = np.einsum("mi,mij,mj->m", e2, hess, e2)
    else:
        g2 = np.linalg.norm(grad - g1[:, None] * e1, axis=1)
        h12 = np.linalg.norm(He1 - h11[:, None] * e1, axis=1)
        h22 = (np.trace(hess, axis1=1, axis2=2) - h11) / (X.shape[1] - 2)
    return np.array([g1, g2]), np.array([h11, h12, h22])


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


def area_ball_gaussian_volume(n, r):
    """Gaussian volume of the centred ball as sphere area times the radial integral."""
    from gausscurv import body, sphere

    return sphere.sphere_area(n) * body.gaussian_radial_integral(n, r) / (2.0 * np.pi) ** (n / 2.0)


def brentq_ball_match_radius(n, target):
    """Ball radius with Gaussian volume ``target`` by a doubling bracket and brentq."""
    from scipy.optimize import brentq

    hi = 1.0
    while area_ball_gaussian_volume(n, hi) < target:
        hi *= 2.0
    return brentq(
        lambda r: area_ball_gaussian_volume(n, r) - target, 0.0, hi, xtol=1e-15, rtol=8.9e-16
    )


def brentq_volume_match_radius(body, target):
    """Base radius of ``body`` dilated to Gaussian volume ``target``: Newton, then a bracket and brentq.

    Returns the radius and whether Newton's iteration found it without the fallback.
    Above target 1/2 both solve for the complement, the Gaussian volume outside
    the body against ``1 - target``, as the library does.
    """
    import math

    from scipy.optimize import brentq

    from gausscurv.body import ball_match_radius, gaussian_radial_integral
    from gausscurv.special import gammaincc

    n, h, w = body.n, body.h_nodes, body.quad.weights
    norm = (2.0 * math.pi) ** (n / 2.0)
    if target <= 0.5:
        tol = 1e-13 * target

        def residual(s):
            return float(np.dot(w, gaussian_radial_integral(n, s * h))) / norm - target

    else:
        tol = 1e-13 * (1.0 - target)
        outer = 2.0 ** (n / 2.0 - 1.0) * math.gamma(n / 2.0)

        def residual(s):
            return (1.0 - target) - float(np.dot(w, outer * gammaincc(n / 2.0, 0.5 * (s * h) ** 2))) / norm

    def dvol(s):
        return float(np.dot(w, h * (s * h) ** (n - 1) * np.exp(-0.5 * (s * h) ** 2))) / norm

    s = ball_match_radius(n, target) / float(np.dot(w, h) / np.sum(w))
    for _ in range(60):
        g = residual(s)
        if abs(g) <= tol:
            return s * body.radius, True
        d = dvol(s)
        if d <= 0.0:
            break
        step = g / d
        if not math.isfinite(step) or abs(step) > 0.5 * s:
            break
        s -= step
    lo, hi = s, s
    while residual(lo) > 0.0:
        lo *= 0.5
    while residual(hi) < 0.0:
        hi *= 2.0
    return brentq(residual, lo, hi, xtol=1e-15, rtol=8.9e-16) * body.radius, False


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


def eigvalsh_second_fundamental_min(body):
    """Smallest eigenvalue of ``tau (h^2 I + 2 grad h grad h^T - h Hess h) tau^T`` over the nodes, by ``eigvalsh``."""
    oracle = per_field_node_values(body)
    h, g = oracle["h_nodes"], oracle["grad"]
    M = (h * h)[:, None, None] * np.eye(body.n) + 2.0 * g[:, :, None] * g[:, None, :]
    M -= h[:, None, None] * oracle["hess"]
    tau = loop_tangent_frames(body.quad.nodes)
    return float(np.min(np.linalg.eigvalsh(tau @ M @ tau.transpose(0, 2, 1))))


def weingarten_second_fundamental_min(body):
    """Smallest eigenvalue of the second fundamental form on S^2 by the Weingarten map.

    The three components of the unnormalised Gauss map ``x h - grad h`` are
    projected at degree 2L and differentiated; the form pairs that
    derivative with the derivative ``h tau + <grad h, tau> x`` of the boundary.
    """
    from gausscurv import sphere

    quad, X = body.quad, body.quad.nodes
    L2 = min(2 * body.perturbation.degree, sphere.MAX_DEGREE)
    h, grad_h = body.h_nodes, per_field_node_values(body)["grad"]
    psi = [sphere.analyze(X[:, i] * h - grad_h[:, i], 3, L2, quad) for i in range(3)]
    Gpsi = np.stack([sphere.field_gradient(f, quad) for f in psi])
    tau = loop_tangent_frames(X)
    A = np.einsum("imc,mac->mia", Gpsi, tau)
    gtau = np.einsum("mc,mbc->mb", grad_h, tau)
    dF = gtau[:, :, None] * X[:, None, :] + h[:, None, None] * tau
    form = np.einsum("mia,mbi->mab", A, dF)
    return float(np.min(np.linalg.eigvalsh(0.5 * (form + np.swapaxes(form, 1, 2)))))


def section_curve(body):
    """The meridian section of a zonal body as a planar curve, the library's former path.

    The section ``rho(theta) = h(cos theta, sin theta, 0, ...)`` is a
    trigonometric polynomial of the field's degree, sampled on the default
    planar grid and fitted by FFT.  Raises ``ValueError`` where the sampled
    radius is not positive.
    """
    from gausscurv import plane, sphere

    def section(th):
        pts = np.zeros((th.size, body.n))
        pts[:, 0], pts[:, 1] = np.cos(th), np.sin(th)
        return body.radius * (1.0 + sphere.synthesize(body.perturbation, body.quad, points=pts))

    return plane.PolarCurve.from_function(section, degree=max(body.perturbation.degree, 4))


def section_certificate(body, theta):
    """``rho^2 + 2 rho'^2 - rho rho''`` of :func:`section_curve` at ``theta``."""
    curve = section_curve(body)
    rho, drho, ddrho = curve.rho_at(theta), curve.drho_at(theta), curve.ddrho_at(theta)
    return rho**2 + 2.0 * drho**2 - rho * ddrho


def quad_radial_moment(power, r):
    """``int_0^1 t^power exp(-r^2 t^2 / 2) dt`` by adaptive quadrature."""
    from scipy.integrate import quad

    val, err = quad(lambda t: t**power * np.exp(-0.5 * r * r * t * t), 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=200)
    assert val > 0.0 and err <= 1e-11 * val, (power, r, val, err)
    return val


def brentq_threshold(n, k):
    """``threshold_scan``'s root by ``brentq`` on the same scaled coefficient and bracket: the former path.

    Returns the root and the number of evaluations, the two bracket ends included.
    """
    import math

    from scipy.optimize import brentq

    from gausscurv import experiments as ex

    quad_rule = ex._experiment_quadrature(n, k)
    u = ex._mode_field(n, k, 1.0)

    def scaled(r_sq):
        r = math.sqrt(r_sq)
        return ex._quadratic_term(n, r, u, quad_rule) / (r ** (n - 2) * math.exp(-0.5 * r_sq))

    root, result = brentq(scaled, 0.25 * (n - 2), float(n - 2), xtol=1e-15, full_output=True)
    return root, result.function_calls


def richardson_coefficient(n, r, k, epsilon=1e-3):
    """Quadratic gap coefficient of mode ``k`` from matched energies at eps, eps/2, eps/4.

    Each body ``r (1 + eps y_k)`` is dilated to the ball's Gaussian volume;
    two Richardson levels on ``gap / eps^2`` strip the odd powers of eps.
    """
    from gausscurv import body, sphere

    quad = sphere.default_quadrature(n, max(k, 8))
    ball = body.RadialGraph(n, r, quad=quad)
    target, ball_energy = body.gaussian_volume(ball), body.curvature_energy_nd(ball)

    def scaled_gap(eps):
        mode = sphere.HarmonicField.single_mode(n, k, eps, degree=max(k, 8))
        matched = body.volume_match(body.RadialGraph(n, r, mode, quad=quad), target)
        return (body.curvature_energy_nd(matched) - ball_energy) / eps**2

    q = [scaled_gap(epsilon / 2**j) for j in range(3)]
    lvl1, lvl2 = 2.0 * q[1] - q[0], 2.0 * q[2] - q[1]
    return (4.0 * lvl2 - lvl1) / 3.0


# ---------------------------------------------------------------------------
# capped cylinder oracle


def quad_capped_cylinder(s, half_height):
    """Gaussian volume and curvature energy by adaptive quadrature.

    The lateral wall and one cap are integrated along the axis, the cap's
    energy over its polar angle.  Only a relative tolerance is set: the
    energy falls below 1e-13 at s = 8, under any useful absolute one.
    """
    import math

    from scipy.integrate import quad

    T = half_height

    def integral(fn, a, b, points=None):
        return quad(fn, a, b, epsabs=0.0, epsrel=1e-12, limit=300, points=points)

    disk_mass = -math.expm1(-0.5 * s * s)
    inv_root = 1.0 / math.sqrt(2.0 * math.pi)
    lat_vol, _ = integral(lambda z: inv_root * math.exp(-0.5 * z * z) * disk_mass, -T, T, points=[0.0])
    cap_vol, _ = integral(
        lambda z: inv_root * math.exp(-0.5 * z * z) * -math.expm1(-0.5 * (s * s - (z - T) ** 2)), T, T + s
    )
    lat_en, _ = integral(lambda z: 2.0 * math.pi * math.exp(-0.5 * (s * s + z * z)), -T, T, points=[0.0])
    cap_en, _ = integral(
        lambda phi: 4.0
        * math.pi
        * s
        * math.sin(phi)
        * math.exp(-0.5 * ((s * math.sin(phi)) ** 2 + (T + s * math.cos(phi)) ** 2)),
        0.0,
        0.5 * math.pi,
    )
    return lat_vol + 2.0 * cap_vol, lat_en + 2.0 * cap_en


# ---------------------------------------------------------------------------
# report tolerance contract

# Between versions a primary value may move by 1e-13 relative and a margin by 1e-13 (|lhs| + |rhs|);
# an error field (``*_error``, ``residual_*``) measured against a closed form sits at rounding noise,
# so it may move by 1e-14 absolute on top of that.  Everything else is identical.
REPORT_RTOL = 1e-13
REPORT_ERROR_ATOL = 1e-14


def _lhs_rhs_pairs(value):
    """Every dict under ``value`` with ``lhs`` and ``rhs`` keys: the reports whose margins they scale."""
    if isinstance(value, dict):
        if "lhs" in value and "rhs" in value:
            yield value
        for item in value.values():
            yield from _lhs_rhs_pairs(item)
    elif isinstance(value, list):
        for item in value:
            yield from _lhs_rhs_pairs(item)


def reports_match(golden, report):
    """The differences of a CLI ``report`` from ``golden`` beyond the tolerance contract, as strings.

    No difference means a match.  Keys, types, ``passed`` flags, counts, strings and the
    configuration (apart from ``output``) must be identical, and ``wall_time_s`` is skipped.
    A float may move by ``REPORT_RTOL`` of the golden value; a ``margin`` by ``REPORT_RTOL``
    times ``|lhs| + |rhs|`` of its own report, the summary's ``worst_margin`` by the largest
    of those (when the report has margins); and an error field by ``REPORT_ERROR_ATOL`` more.
    """
    problems = []
    scales = [abs(pair["lhs"]) + abs(pair["rhs"]) for pair in _lhs_rhs_pairs(golden["entries"])]

    def tolerance(key, value, parent):
        if key == "margin":
            return REPORT_RTOL * (abs(parent["lhs"]) + abs(parent["rhs"]))
        if key == "worst_margin" and scales:
            return REPORT_RTOL * max(scales)
        if key.endswith("_error") or key.startswith("residual_") or key == "worst_margin":
            return REPORT_ERROR_ATOL + REPORT_RTOL * abs(value)
        return REPORT_RTOL * abs(value)

    def walk(path, key, a, b, parent):
        if type(a) is not type(b):
            problems.append(f"{path}: {type(b).__name__} where the golden report has {type(a).__name__}")
        elif isinstance(a, dict):
            if a.keys() != b.keys():
                problems.append(f"{path}: keys {sorted(b)} where the golden report has {sorted(a)}")
                return
            for k in a:
                walk(f"{path}.{k}", k, a[k], b[k], a)
        elif isinstance(a, list):
            if len(a) != len(b):
                problems.append(f"{path}: {len(b)} items where the golden report has {len(a)}")
                return
            for i, (x, y) in enumerate(zip(a, b)):
                walk(f"{path}[{i}]", key, x, y, parent)
        elif isinstance(a, float):
            both_nan = a != a and b != b
            if not (a == b or both_nan or abs(a - b) <= tolerance(key, a, parent)):
                problems.append(f"{path}: {b!r} where the golden report has {a!r}")
        elif a != b:
            problems.append(f"{path}: {b!r} where the golden report has {a!r}")

    def comparable(rep):
        config = {k: v for k, v in rep["config"].items() if k != "output"}
        return {**{k: v for k, v in rep.items() if k != "wall_time_s"}, "config": config}

    walk("report", "", comparable(golden), comparable(report), None)
    return problems
