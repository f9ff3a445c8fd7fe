"""Star-shaped bodies in R^n as radial graphs over the unit sphere.

A body is stored as a base radius times a spectral perturbation,
``h(x) = r (1 + u(x))``, with boundary ``{x h(x) : x on the sphere}``.
Mean curvature and the convexity certificate both read the covariant
Hessian of ``h`` (:func:`sphere.hessian`), with its gradient and Laplacian,
at the nodes or at any unit points; surface integrals use the area element
``h^(n-2) sqrt(h^2 + |grad h|^2)`` and the quadrature carried by the body.
Gaussian volumes integrate ``t^(n-1) exp(-t^2/2)`` radially in closed form,
through the regularised incomplete gamma function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.optimize import brentq
from scipy.special import gammainc

from . import plane, sphere
from .errors import QuadratureError

__all__ = [
    "RadialGraph",
    "BodyIntegrals",
    "mean_curvature",
    "gaussian_volume",
    "curvature_energy_nd",
    "flux_energy",
    "inverse_square_flux",
    "inverse_square_flux_bulk",
    "inscribed_radius",
    "volume_match",
    "second_fundamental_min",
    "is_convex",
    "body_integrals",
    "ball_gaussian_volume",
    "ball_energy",
    "ball_match_radius",
    "gaussian_radial_integral",
    "save_body",
    "load_body",
]

_CONVEX_RTOL = 1e-8


class RadialGraph:
    """A star-shaped body with boundary ``{x h(x)}`` where ``h = r (1 + u)``.

    Instances are immutable by convention: node caches are filled lazily but
    nothing observable ever changes, so bodies are safe to share.

    Parameters
    ----------
    n : ambient dimension, at least 3.
    radius : base radius ``r`` (positive).
    perturbation : optional :class:`sphere.HarmonicField` ``u``; None means a ball.
    quad : quadrature used for all node values and surface integrals; the
        default has enough degree headroom for nonlinear products of ``u``.
    """

    def __init__(self, n, radius, perturbation=None, quad=None):
        if n < 3:
            raise ValueError(f"radial graphs need dimension >= 3, got {n}")
        if radius <= 0:
            raise ValueError(f"base radius must be positive, got {radius}")
        if perturbation is not None and perturbation.n != n:
            raise ValueError("perturbation dimension does not match the body")
        self.n = int(n)
        self.radius = float(radius)
        self.perturbation = perturbation
        if quad is None:
            L = perturbation.degree if perturbation is not None else 4
            quad = sphere.default_quadrature(n, max(L, 4))
        self.quad = quad
        if np.min(self.h_nodes) <= 0.0:
            raise ValueError("boundary radius must stay positive at every node")

    @classmethod
    def from_function(cls, n, fn, degree=16, quad=None):
        """Fit ``h`` from a callable on unit vectors and split off the mean radius.

        Without ``quad`` the fit runs on the product rule, so for n >= 4 a
        callable that is not zonal is replaced by its L2 projection onto the
        zonal fields (its average over each subsphere ``x_1 = t``); the body
        is then built on the default rule.
        """
        fit_quad = quad
        if quad is None:
            quad = sphere.default_quadrature(n, max(degree, 4))
            fit_quad = sphere.build_quadrature(n, quad.degree)
        vals = np.asarray(fn(fit_quad.nodes), dtype=float)
        h_field = sphere.analyze(vals, n, degree, fit_quad)
        radius = h_field.mean()
        coeffs = h_field.coeffs / radius
        coeffs = coeffs.copy()
        coeffs[0] -= math.sqrt(sphere.sphere_area(n))
        u = sphere.HarmonicField(n=n, degree=degree, coeffs=coeffs)
        return cls(n, radius, u, quad=quad)

    @cached_property
    def h_nodes(self) -> np.ndarray:
        if self.perturbation is None:
            return np.full(self.quad.size, self.radius)
        u = sphere.synthesize(self.perturbation, self.quad)
        return self.radius * (1.0 + u)

    @cached_property
    def grad_nodes(self) -> np.ndarray:
        if self.perturbation is None:
            return np.zeros((self.quad.size, self.n))
        return self.radius * sphere.field_gradient(self.perturbation, self.quad)

    @cached_property
    def lap_nodes(self) -> np.ndarray:
        if self.perturbation is None:
            return np.zeros(self.quad.size)
        lap_u = sphere.laplace_beltrami(self.perturbation)
        return self.radius * sphere.synthesize(lap_u, self.quad)

    @cached_property
    def hess_nodes(self) -> np.ndarray:
        """Covariant Hessian of ``h`` at the nodes, shape (nodes, n, n)."""
        if self.perturbation is None:
            return np.zeros((self.quad.size, self.n, self.n))
        return self.radius * sphere.hessian(self.perturbation, self.quad)

    @cached_property
    def hessian_form_nodes(self) -> np.ndarray:
        """Hess h(grad h, grad h) at the nodes."""
        return np.einsum("mi,mij,mj->m", self.grad_nodes, self.hess_nodes, self.grad_nodes)

    @cached_property
    def sq_grad_nodes(self) -> np.ndarray:
        return np.einsum("mi,mi->m", self.grad_nodes, self.grad_nodes)

    @cached_property
    def slant_nodes(self) -> np.ndarray:
        """sqrt(h^2 + |grad h|^2), the length of the unnormalised normal."""
        return np.sqrt(self.h_nodes**2 + self.sq_grad_nodes)

    @cached_property
    def area_element_nodes(self) -> np.ndarray:
        return self.h_nodes ** (self.n - 2) * self.slant_nodes

    @property
    def is_symmetric(self) -> bool:
        """True when the body equals its reflection through the origin."""
        return self.perturbation is None or self.perturbation.parity == "even"

    @property
    def perturbation_magnitude(self) -> float:
        """Coefficient-based W^(2,inf)-style size estimate of ``u`` (heuristic)."""
        if self.perturbation is None:
            return 0.0
        lam = np.array([sphere.eigenvalue(self.n, k) for k in self.perturbation.degrees])
        return float(np.sum(np.abs(self.perturbation.coeffs) * (1.0 + lam)))

    def dilated(self, scale: float) -> "RadialGraph":
        return RadialGraph(self.n, scale * self.radius, self.perturbation, quad=self.quad)


def mean_curvature(body: RadialGraph, points=None):
    """Mean curvature (sum of principal curvatures) at every node, or at unit ``points``.

    ``points`` of shape (m, n) gives m values, a single (n,) vector one float.
    """
    n, r = body.n, body.radius
    if points is None:
        h, sq, lap, hess = body.h_nodes, body.sq_grad_nodes, body.lap_nodes, body.hessian_form_nodes
    else:
        u = body.perturbation if body.perturbation is not None else sphere.HarmonicField.zero(n, 2)
        h = r * (1.0 + sphere.synthesize(u, body.quad, points))
        grad = r * sphere.field_gradient(u, body.quad, points)
        sq = np.einsum("...i,...i->...", grad, grad)
        lap = r * sphere.synthesize(sphere.laplace_beltrami(u), body.quad, points)
        hess = r**3 * sphere.hessian_form(u, body.quad, points)
    W = np.sqrt(h * h + sq)
    first = (-lap / h + (n - 1)) / W
    second = (h * hess + h**2 * sq) / (h**2 * W**3)
    H = first + second
    return float(H) if np.ndim(H) == 0 else H


# The benchmark traces the node evaluation under this name.
mean_curvature_at_nodes = mean_curvature


def gaussian_volume(body: RadialGraph) -> float:
    """Gaussian measure of the body: spherical quadrature of the closed-form radial integral."""
    vals = gaussian_radial_integral(body.n, body.h_nodes)
    return float(np.dot(body.quad.weights, vals)) / (2.0 * math.pi) ** (body.n / 2.0)


def curvature_energy_nd(body: RadialGraph) -> float:
    """Integral of mean curvature against the Gaussian boundary weight."""
    H = mean_curvature(body)
    integrand = H * np.exp(-0.5 * body.h_nodes**2) * body.area_element_nodes
    return float(np.dot(body.quad.weights, integrand))


def flux_energy(body: RadialGraph) -> float:
    """Same integral with the radial flux factor <x, nu>/|x| = h / slant."""
    H = mean_curvature(body)
    integrand = H * np.exp(-0.5 * body.h_nodes**2) * body.h_nodes ** (body.n - 1)
    return float(np.dot(body.quad.weights, integrand))


def inverse_square_flux(body: RadialGraph) -> float:
    """Boundary flux of x/|x|^2 against the Gaussian weight.

    The flux factor and the area element collapse to ``h^(n-2) exp(-h^2/2)``,
    so for a ball this equals the curvature energy divided by n - 1.
    """
    integrand = body.h_nodes ** (body.n - 2) * np.exp(-0.5 * body.h_nodes**2)
    return float(np.dot(body.quad.weights, integrand))


def inverse_square_flux_bulk(body: RadialGraph) -> float:
    """Divergence-theorem twin of :func:`inverse_square_flux` via a bulk integral."""
    n = body.n
    # The radial integrand t^(n-3) exp(-t^2/2) is the dimension n - 2 case.
    vals = gaussian_radial_integral(n - 2, body.h_nodes)
    bulk = (n - 2) * float(np.dot(body.quad.weights, vals))
    return bulk - (2.0 * math.pi) ** (n / 2.0) * gaussian_volume(body)


def inscribed_radius(body: RadialGraph) -> float:
    """Largest ball around the origin inside the body: min of ``h`` over nodes."""
    return float(np.min(body.h_nodes))


def volume_match(body: RadialGraph, target: float) -> RadialGraph:
    """Dilate the body so its Gaussian volume equals ``target``.

    Dilation preserves the shape class and convexity; a safeguarded Newton
    iteration (the volume derivative in the scale is available in closed
    form) is polished to a relative 1e-13 in the volume, so small targets in
    high dimension are matched as tightly as large ones.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target Gaussian volume must lie in (0, 1)")
    n = body.n
    h = body.h_nodes
    w = body.quad.weights
    norm = (2.0 * math.pi) ** (n / 2.0)

    def vol(s):
        return float(np.dot(w, gaussian_radial_integral(n, s * h))) / norm

    def dvol(s):
        return float(np.dot(w, h * (s * h) ** (n - 1) * np.exp(-0.5 * (s * h) ** 2))) / norm

    s = ball_match_radius(n, target) / float(np.dot(w, h) / np.sum(w))
    for _ in range(60):
        g = vol(s) - target
        if abs(g) <= 1e-13 * target:
            return body.dilated(s)
        d = dvol(s)
        if d <= 0.0:
            break
        step = g / d
        if not math.isfinite(step) or abs(step) > 0.5 * s:
            break
        s -= step
    # Newton strayed: fall back to bracketed root finding.
    lo, hi = s, s
    while vol(lo) > target:
        lo *= 0.5
        if lo < 1e-12:
            raise QuadratureError("volume matching could not bracket the dilation")
    while vol(hi) < target:
        hi *= 2.0
        if hi > 1e12:
            raise QuadratureError("volume matching could not bracket the dilation")
    s = brentq(lambda t: vol(t) - target, lo, hi, xtol=1e-15, rtol=8.9e-16)
    return body.dilated(s)


def _tangent_frames(nodes: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the tangent spaces, shape (m, n-1, n).

    At each node the axis most aligned with it is dropped and the other axes,
    in order, are Gram-Schmidt orthonormalised against the node and each other.
    """
    m, n = nodes.shape
    drop = np.argmax(np.abs(nodes), axis=1)
    slots = np.arange(n - 1)
    axes = slots[None, :] + (slots[None, :] >= drop[:, None])
    frames = np.zeros((m, n - 1, n))
    frames[np.arange(m)[:, None], slots[None, :], axes] = 1.0
    for a in range(n - 1):
        v = frames[:, a]
        for u in (nodes, *(frames[:, b] for b in range(a))):
            v -= np.einsum("mi,mi->m", v, u)[:, None] * u
        v /= np.linalg.norm(v, axis=1)[:, None]
    return frames


def second_fundamental_min(body: RadialGraph) -> float:
    """Smallest eigenvalue of the (unnormalised) second fundamental form over all nodes.

    At each node it is the form ``tau (h^2 I + 2 grad h grad h^T - h Hess h) tau^T``
    on an orthonormal tangent frame ``tau``, the analogue of the planar
    ``rho^2 + 2 rho'^2 - rho rho''``; it is ``r^2`` for the ball of radius r.
    Positive semidefiniteness at every node certifies convexity there.
    """
    h, g = body.h_nodes, body.grad_nodes
    M = (h * h)[:, None, None] * np.eye(body.n) + 2.0 * g[:, :, None] * g[:, None, :]
    M -= h[:, None, None] * body.hess_nodes
    tau = _tangent_frames(body.quad.nodes)
    return float(np.min(np.linalg.eigvalsh(tau @ M @ tau.transpose(0, 2, 1))))


def _zonal_section_curve(body: RadialGraph) -> plane.PolarCurve:
    """Meridian section of an axisymmetric body as a planar polar curve."""
    u = body.perturbation

    def section(theta):
        t = np.cos(theta)
        pts = np.zeros((t.size, body.n))
        pts[:, 0] = t
        pts[:, 1] = np.sin(theta)
        vals = sphere.synthesize(u, body.quad, points=pts)
        return body.radius * (1.0 + vals)

    return plane.PolarCurve.from_function(section, degree=max(u.degree, 4))


def is_convex(body: RadialGraph) -> bool:
    """Convexity certificate: :func:`second_fundamental_min` >= ``-1e-8 max h^2`` for n = 3.

    Axisymmetric bodies in higher dimensions are convex exactly when their
    meridian section is, which is checked on its planar grid.
    """
    if body.perturbation is None:
        return True
    if body.n == 3:
        return second_fundamental_min(body) >= -_CONVEX_RTOL * float(np.max(body.h_nodes)) ** 2
    return _zonal_section_curve(body).is_convex()


@dataclass(frozen=True)
class BodyIntegrals:
    """The surface and volume integrals attached to one body."""

    gaussian_volume: float
    energy: float
    flux_energy: float
    inverse_square_flux: float
    inscribed_radius: float


def body_integrals(body: RadialGraph) -> BodyIntegrals:
    return BodyIntegrals(
        gaussian_volume=gaussian_volume(body),
        energy=curvature_energy_nd(body),
        flux_energy=flux_energy(body),
        inverse_square_flux=inverse_square_flux(body),
        inscribed_radius=inscribed_radius(body),
    )


def gaussian_radial_integral(n: int, h):
    """Closed form of ``int_0^h t^(n-1) exp(-t^2/2) dt`` for n >= 1.

    It is ``2^(n/2-1) Gamma(n/2) P(n/2, h^2/2)`` with ``P`` the regularised
    lower incomplete gamma function, which keeps full relative accuracy at
    small ``h`` where an erf-plus-recurrence form cancels.
    """
    h = np.asarray(h, dtype=float)
    return 2.0 ** (n / 2.0 - 1.0) * math.gamma(n / 2.0) * gammainc(n / 2.0, 0.5 * h * h)


def ball_gaussian_volume(n: int, r) -> float:
    """Gaussian measure of the centred ball of radius ``r``."""
    area = sphere.sphere_area(n)
    return area * gaussian_radial_integral(n, r) / (2.0 * math.pi) ** (n / 2.0)


def ball_energy(n: int, r: float) -> float:
    """Curvature energy of the centred ball: constant curvature times weighted area."""
    return (n - 1) * r ** (n - 2) * math.exp(-0.5 * r * r) * sphere.sphere_area(n)


def ball_match_radius(n: int, target: float) -> float:
    """Radius of the centred ball with prescribed Gaussian volume."""
    if not 0.0 < target < 1.0:
        raise ValueError("target Gaussian volume must lie in (0, 1)")
    hi = 1.0
    while ball_gaussian_volume(n, hi) < target:
        hi *= 2.0
        if hi > 1e3:
            raise ValueError("target volume is numerically indistinguishable from 1")
    return brentq(
        lambda r: ball_gaussian_volume(n, r) - target, 0.0, hi, xtol=1e-15, rtol=8.9e-16
    )


def save_body(body: RadialGraph, path) -> None:
    """Write ``n L parity`` and the spectral coefficients of ``h`` as plain text."""
    u = body.perturbation
    if u is None:
        u = sphere.HarmonicField.zero(body.n, 2)
    coeffs = body.radius * u.coeffs.copy()
    coeffs[0] += body.radius * math.sqrt(sphere.sphere_area(body.n))
    with open(path, "w") as fh:
        fh.write(f"{body.n} {u.degree} {u.parity}\n")
        fh.write(" ".join(repr(float(c)) for c in coeffs) + "\n")


def load_body(path) -> RadialGraph:
    with open(path) as fh:
        n, L, _parity = fh.readline().split()
        coeffs = np.array([float(tok) for tok in fh.readline().split()])
    n, L = int(n), int(L)
    h_field = sphere.HarmonicField(n=n, degree=L, coeffs=coeffs)
    radius = h_field.mean()
    u_coeffs = coeffs / radius
    u_coeffs[0] -= math.sqrt(sphere.sphere_area(n))
    u = sphere.HarmonicField(n=n, degree=L, coeffs=u_coeffs)
    return RadialGraph(n, radius, u)
