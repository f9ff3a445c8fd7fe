"""Star-shaped bodies in R^n as radial graphs over the unit sphere.

A body is stored as a base radius times a spectral perturbation,
``h(x) = r (1 + u(x))``, with boundary ``{x h(x) : x on the sphere}``.  There is
one body type, :class:`BodyStack`: rows of radii and coefficients, whose node
arrays are each row's products with the rule's basis tables.  A
:class:`RadialGraph` is the stack of one, and each function below takes either.
Mean curvature and the second fundamental form read the covariant Hessian of
``h``, with its gradient and Laplacian, at the nodes, or for one body at any unit
points, in the basis's tangent frame only: the gradient ``(g_1, g_2)`` from the
frame gradient table ``Fn``, the Hessian entries ``H_11, H_12, H_22`` from the
basis's ``frame_hessian``.  The frame is ``(e_theta, e_phi)`` on S^2, and for
n >= 4 ``a / |a|``, ``a = e_1 - t x``, with any tangent vector across it.  For
n >= 4 convexity is that of the meridian section, whose cosine coefficients are a
fixed linear map of the field's coefficients.
Surface integrals use the area element ``h^(n-2) sqrt(h^2 + |grad h|^2)`` and the
quadrature carried by the body.  Gaussian volumes integrate ``t^(n-1) exp(-t^2/2)``
radially in closed form, through the regularised incomplete gamma functions of
:mod:`gausscurv.special`, and matched balls invert them there.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property

import numpy as np
from . import plane, sphere
from .errors import QuadratureError
from .special import _regularized, gammainc, gammaincinv
from .weights import gaussian_radial_integral

__all__ = [
    "RadialGraph",
    "BodyStack",
    "curvature_terms",
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
    "ball_gaussian_volume",
    "ball_energy",
    "ball_match_radius",
    "gaussian_radial_integral",
    "save_body",
    "load_body",
]

_CONVEX_RTOL = 1e-8


class BodyStack:
    """Bodies ``h = r (1 + u)`` of one dimension, rule (by default the field degree's) and field degree.

    ``coeffs`` of shape ``(rows, basis)`` hold one field ``u`` per body, and
    ``radii`` broadcast to one radius per row; 1-D ``coeffs`` give one body
    whose node arrays have no row axis.  Each node array is one batched call
    per stack, ``np.matmul`` over the row axis, whose rows are per-row slices
    with a lone body's shapes, so a body's values are the same in every stack;
    those beyond ``h`` fill lazily, and nothing observable changes, so stacks
    are safe to share.  Raises ``ValueError`` unless each ``h`` is
    positive at every node and, for n >= 4, on the meridian section at every
    planar grid node.
    """

    def __init__(self, n, radii, coeffs, quad=None):
        coeffs = np.array(coeffs, dtype=float)
        size = coeffs.shape[-1] if coeffs.ndim else 0
        self.n, self.degree = int(n), math.isqrt(size) - 1 if n == 3 else size - 1
        shaped = coeffs.ndim in (1, 2) and coeffs.size and size == sphere.basis_size(n, self.degree)
        if not (3 <= n <= sphere.MAX_DIMENSION and shaped):
            raise ValueError(f"a stack needs rows of basis coefficients on S^2..S^7, not {coeffs.shape} on S^{n - 1}")
        radii = np.asarray(radii, dtype=float)
        if radii.shape != coeffs.shape[:-1]:
            radii = np.broadcast_to(radii, coeffs.shape[:-1]).copy()
        lo, hi = (float(radii),) * 2 if radii.ndim == 0 else (radii.min(), radii.max())
        if not (0.0 < lo and hi < math.inf and np.isfinite(coeffs).all()):
            raise ValueError("base radii must be positive and finite, and coefficients finite")
        coeffs.setflags(write=False)
        self.radii, self.coeffs = radii, coeffs
        self.quad = quad if quad is not None else sphere.default_quadrature(n, max(self.degree, 4))
        self._tables = sphere._basis(self.n, self.degree, self.quad)
        self.h_nodes = radii[..., None] * (1.0 + sphere._row_products(coeffs, self._tables.V))
        if not self.h_nodes.min() > 0.0:
            raise ValueError("boundary radius must stay positive at every node")
        if n >= 4 and not plane._on_grid(_section_spectra(self), plane.DEFAULT_GRID).min() > 0.0:
            raise ValueError("boundary radius must stay positive on the meridian section")

    @cached_property
    def lap_nodes(self) -> np.ndarray:
        return self.radii[..., None] * sphere._row_products(self._lap_coeffs, self._tables.V)

    @property
    def _lap_coeffs(self) -> np.ndarray:
        return -sphere._eigenvalues(self.n, self.degree) * self.coeffs

    @cached_property
    def _frame_grad(self) -> np.ndarray:
        """``grad h`` at the nodes along the basis's frame: rows ``g_1, g_2``, shape (..., 2, nodes)."""
        return self.radii[..., None, None] * sphere._row_products(self.coeffs, self._tables.Fn)

    @cached_property
    def _frame_hess(self) -> np.ndarray:
        """``Hess h`` at the nodes in the frame: rows ``H_11, H_12, H_22``, shape (..., 3, nodes).

        One ``frame_hessian`` call for the whole stack, whose products are per-row slices, so that
        a stack's row is the body's own."""
        return self._tables.frame_hessian(self.radii[..., None] * self.coeffs, self.quad.nodes, self._frame_grad)

    @cached_property
    def sq_grad_nodes(self) -> np.ndarray:
        return np.sum(self._frame_grad**2, axis=-2)

    @cached_property
    def hessian_form_nodes(self) -> np.ndarray:
        """Hess h(grad h, grad h) at the nodes."""
        return sphere._frame_form(self._frame_grad, self._frame_hess)

    @cached_property
    def _curvature(self):
        """:func:`curvature_terms` at the nodes, read-only: mean curvature and the energy density."""
        terms = curvature_terms(self.n, self.h_nodes, self.sq_grad_nodes, self.lap_nodes, self.hessian_form_nodes)
        for values in terms:
            values.setflags(write=False)
        return terms


class RadialGraph(BodyStack):
    """A star-shaped body with boundary ``{x h(x)}`` where ``h = r (1 + u)``: a stack of one.

    Its coefficients are the row ``perturbation.coeffs``, so its node arrays have no row axis,
    and the functions of this module return Python floats and bools for it.

    Parameters
    ----------
    n : ambient dimension, 3..8.
    radius : base radius ``r`` (positive and finite).
    perturbation : :class:`sphere.HarmonicField` ``u``; None stores a ball as the zero field.
    quad : quadrature used for all node values and surface integrals; the
        default has enough degree headroom for nonlinear products of ``u``.
    """

    def __init__(self, n, radius, perturbation=None, quad=None):
        # The field validates the dimension, the zero field included.
        if not 0.0 < radius < math.inf:
            raise ValueError(f"base radius must be positive and finite, got {radius}")
        if perturbation is None:
            perturbation = sphere.HarmonicField.zero(n, 0)
        if perturbation.n != n:
            raise ValueError("perturbation dimension does not match the body")
        self.radius = float(radius)
        self.perturbation = perturbation
        super().__init__(n, self.radius, perturbation.coeffs, quad)

    @classmethod
    def from_function(cls, n, fn, degree=16, quad=None):
        """Fit ``h`` from a callable on unit vectors and split off the mean radius.

        The fit runs on the body's own rule, the default one without ``quad``,
        and raises :class:`QuadratureError` above half its degree (32 by
        default).  For n >= 4 every field is zonal, so a callable that is not
        raises ``ValueError``: its values at the nodes turned about e_1 onto
        ``(t, s (1, ..., 1) / sqrt(n - 1))`` must match to 1e-12 relative.
        """
        if quad is None:
            quad = sphere.default_quadrature(n, max(degree, 4))
        X = quad.nodes
        vals = np.asarray(fn(X), dtype=float)
        if n >= 4:
            turned = np.empty_like(X)
            turned[:, 0] = X[:, 0]
            turned[:, 1:] = np.linalg.norm(X[:, 1:], axis=1, keepdims=True) / math.sqrt(n - 1)
            if np.max(np.abs(fn(turned) - vals)) > 1e-12 * np.max(np.abs(vals)):
                raise ValueError(f"fields on S^{n - 1} are zonal; the callable depends on more than x_1")
        return cls._from_h_field(sphere.analyze(vals, n, degree, quad), quad)

    @classmethod
    def _from_h_field(cls, h_field, quad=None):
        """The body whose ``h`` is ``h_field``, with the mean radius split off."""
        radius = h_field.mean()
        coeffs = h_field.coeffs / radius
        coeffs[0] -= math.sqrt(sphere.sphere_area(h_field.n))
        u = sphere.HarmonicField(n=h_field.n, degree=h_field.degree, coeffs=coeffs)
        return cls(h_field.n, radius, u, quad=quad)

    def dilated(self, scale: float) -> "RadialGraph":
        return RadialGraph(self.n, scale * self.radius, self.perturbation, quad=self.quad)


def curvature_terms(n, h, sq, lap, hess, xp=np):
    """Mean curvature ``H`` and curvature-energy density ``H exp(-h^2/2) h^(n-2) W``.

    The inputs are values of ``h``, ``|grad h|^2``, the Laplacian of ``h`` and
    ``Hess h(grad h, grad h)``; ``W = sqrt(h^2 + |grad h|^2)`` is the length
    of the unnormalised normal.  Only arithmetic, powers and ``xp.sqrt`` and
    ``xp.exp`` appear, so Taylor jets pass through the same expression.
    """
    W = xp.sqrt(h**2 + sq)
    H = (-lap / h + (n - 1)) / W + (h * hess + h**2 * sq) / (h**2 * W**3)
    return H, H * xp.exp(-0.5 * h**2) * (h ** (n - 2) * W)


def _integrals(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Quadrature sums along the last axis: ``np.matmul`` over the row axes, one dot product per body.

    Each body's sum is then the same whatever stack it sits in.
    """
    return (values[..., None, :] @ weights[:, None])[..., 0, 0]


def _per_body(values):
    """One value per body: a Python float or bool for a :class:`RadialGraph`, a read-only column for a stack."""
    values = np.asarray(values)
    if values.ndim == 0:
        return values.item()
    values.setflags(write=False)
    return values


def mean_curvature(body: BodyStack, points=None):
    """Mean curvature (sum of principal curvatures) at every node, or at unit ``points`` of one body.

    The node values are the body's cached, read-only array; at ``points`` the node formulas read
    the body's own tables there.  ``points`` of shape (m, n) gives m values, a single (n,) vector
    one float; a 2-D stack with ``points``, or points not unit vectors of R^n, raise ``ValueError``.
    """
    if points is None:
        return body._curvature[0]
    if body.coeffs.ndim != 1:
        raise ValueError("mean curvature at points needs one body, not a stack")
    X, single = sphere._points(points, body.n)
    b, r = body._tables, body.radii
    V = b.values_at(X)
    grad = r * sphere._row_products(body.coeffs, b.frame_gradients_at(X))
    hess = b.frame_hessian(r * body.coeffs, X, body._frame_grad)
    h, lap = r * (1.0 + sphere._row_products(body.coeffs, V)), r * sphere._row_products(body._lap_coeffs, V)
    H, _ = curvature_terms(body.n, h, np.sum(grad**2, axis=-2), lap, sphere._frame_form(grad, hess))
    return float(H[0]) if single else H


# The benchmark traces the node evaluation under this name.
mean_curvature_at_nodes = mean_curvature


def gaussian_volume(body: BodyStack):
    """Gaussian measure of each body: spherical quadrature of the closed-form radial integral."""
    return _per_body(_volumes(body.n, body.quad.weights, body.h_nodes)[0])


def curvature_energy_nd(body: BodyStack):
    """Integral of mean curvature against the Gaussian boundary weight."""
    return _per_body(_integrals(body.quad.weights, body._curvature[1]))


def flux_energy(body: BodyStack):
    """Same integral with the radial flux factor <x, nu>/|x| = h / slant."""
    integrand = mean_curvature(body) * np.exp(-0.5 * body.h_nodes**2) * body.h_nodes ** (body.n - 1)
    return _per_body(_integrals(body.quad.weights, integrand))


def _volumes(n: int, weights: np.ndarray, h: np.ndarray):
    """Gaussian measures inside and outside the bodies with node radii ``h``, one sum each per body,
    from one incomplete-gamma pass: quadratures of ``int_0^h t^(n-1) exp(-t^2/2) dt`` and
    ``int_h^inf``, which are ``2^(n/2-1) Gamma(n/2)`` times ``P(n/2, h^2/2)`` and ``Q(n/2, h^2/2)``.
    The volume outside keeps the digits that one minus a volume next to 1 loses."""
    outer, norm = 2.0 ** (n / 2.0 - 1.0) * math.gamma(n / 2.0), (2.0 * math.pi) ** (n / 2.0)
    with np.errstate(over="ignore"):  # h^2 / 2 = inf still gives P = 1 and Q = 0 exactly
        x = 0.5 * h * h
    p, q = _regularized(n / 2.0, x)
    return _integrals(weights, outer * p) / norm, _integrals(weights, outer * q) / norm


def inverse_square_flux(body: BodyStack):
    """Boundary flux of x/|x|^2 against the Gaussian weight.

    The flux factor and the area element collapse to ``h^(n-2) exp(-h^2/2)``,
    so for a ball this equals the curvature energy divided by n - 1.
    """
    integrand = body.h_nodes ** (body.n - 2) * np.exp(-0.5 * body.h_nodes**2)
    return _per_body(_integrals(body.quad.weights, integrand))


def inverse_square_flux_bulk(body: BodyStack):
    """Divergence-theorem twin of :func:`inverse_square_flux` via a bulk integral."""
    n = body.n
    # The radial integrand t^(n-3) exp(-t^2/2) is the dimension n - 2 case.
    vals = gaussian_radial_integral(n - 2, body.h_nodes)
    bulk = (n - 2) * _integrals(body.quad.weights, vals)
    return _per_body(bulk - (2.0 * math.pi) ** (n / 2.0) * gaussian_volume(body))


def inscribed_radius(body: BodyStack):
    """Largest ball around the origin inside the body: min of ``h`` over nodes."""
    return _per_body(np.min(body.h_nodes, axis=-1))


def volume_match(body: RadialGraph, target: float) -> RadialGraph:
    """Dilate the body so its Gaussian volume equals ``target``.

    Dilation preserves the shape class and convexity.  Newton's iteration
    in the scale, started from the matched ball's radius over the mean of
    ``h`` (the volume derivative is available in closed form), is polished
    to a relative 1e-13 in the volume, so small targets in high dimension
    are matched as tightly as large ones.  Above 1/2 the residual is the
    volume outside the body, from the upper incomplete gamma function,
    against ``1 - target``, polished to a relative 1e-13 of it, so that
    targets next to 1 admit one scale too.  The volume increases with the
    scale, so a step longer than half the scale is cut to half the scale in
    its own direction; strongly deformed bodies at targets next to 1 need
    this.

    Raises
    ------
    QuadratureError
        If a derivative is not positive or a step is not finite (the volume
        is flat in the scale, as far outside the Gaussian's bulk), or 60
        steps do not converge.  In random sweeps over n in {3, 4, 6, 8},
        amplitudes up to 0.6 and targets from 1e-300 to 1 - 1e-15, none of
        these occurred.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target Gaussian volume must lie in (0, 1)")
    n = body.n
    h = body.h_nodes
    w = body.quad.weights
    norm = (2.0 * math.pi) ** (n / 2.0)

    if target <= 0.5:
        tol = 1e-13 * target

        def residual(s):
            return float(np.dot(w, gaussian_radial_integral(n, s * h))) / norm - target

    else:
        # Near 1 the volume cannot resolve the target; its complement, the
        # volume outside, can.  1 - target is exact here.
        tol = 1e-13 * (1.0 - target)

        def residual(s):
            return (1.0 - target) - float(_volumes(n, w, s * h)[1])

    def dvol(s):
        return float(np.dot(w, h * (s * h) ** (n - 1) * np.exp(-0.5 * (s * h) ** 2))) / norm

    s = ball_match_radius(n, target) / float(np.dot(w, h) / np.sum(w))
    for _ in range(60):
        g = residual(s)
        if abs(g) <= tol:
            return body.dilated(s)
        d = dvol(s)
        if d <= 0.0:
            break
        step = g / d
        if not math.isfinite(step):
            break
        if abs(step) > 0.5 * s:
            step = math.copysign(0.5 * s, step)
        s -= step
    raise QuadratureError(f"volume matching did not converge for target {target!r}")


def second_fundamental_min(body: BodyStack):
    """Smallest eigenvalue of the (unnormalised) second fundamental form over all nodes.

    At each node it is the form ``h^2 I + 2 grad h grad h^T - h Hess h`` on the
    tangent space, the analogue of the planar ``rho^2 + 2 rho'^2 - rho rho''``;
    it is ``r^2`` for the ball of radius r.  Any rule serves, on S^2 one with nodes
    at the poles too.  Positive semidefiniteness at a node certifies convexity there.

    The form is ``h^2 I + K`` in the basis's frame, and the smaller eigenvalue of
    each 2 x 2 ``K`` has a closed form.  On S^2 the frame spans the tangent plane.
    A zonal frame is ``a / |a|`` and any vector across it, and every further tangent
    direction repeats the second one's entries, so in every dimension the 2 x 2
    form has the smallest eigenvalue of the full one.
    """
    h = body.h_nodes
    (g1, g2), (h11, h12, h22) = np.moveaxis(body._frame_grad, -2, 0), np.moveaxis(body._frame_hess, -2, 0)
    a, b, c = 2.0 * g1 * g1 - h * h11, 2.0 * g1 * g2 - h * h12, 2.0 * g2 * g2 - h * h22
    return _per_body(np.min(h * h + 0.5 * (a + c) - np.hypot(0.5 * (a - c), b), axis=-1))


def _section_spectra(body: BodyStack) -> np.ndarray:
    """Planar spectra of the meridian sections, from cosine coefficients ``r (e_0 + coeffs @ S)``.

    One spectrum for a body, one row per body for a stack, of zonal fields."""
    S = body._tables.S
    # A broadcast sum, not a matmul, whose blocking would make a body's row depend on its stack.
    cos_c = np.sum(body.coeffs[..., :, None] * S, axis=-2)
    cos_c[..., 0] += 1.0
    return body.radii[..., None] * np.where(np.arange(body.degree + 1) > 0, 0.5, 1.0) * cos_c


def _section_grids(body: BodyStack) -> np.ndarray:
    """``rho, rho', rho''`` of the meridian sections on the planar grid, shape (3, ..., grid).

    Every section radius is positive there: the stack checks it.
    """
    return plane._on_grid(_section_spectra(body), plane.DEFAULT_GRID, orders=3)


def is_convex(body: BodyStack):
    """Convexity certificate: :func:`second_fundamental_min` >= ``-1e-8 max h^2`` for n = 3.

    Axisymmetric bodies in higher dimensions are convex exactly when their
    meridian section is.  Its cosine coefficients are a fixed linear map of
    the field's; its planar certificate is checked on the planar grid, where
    :class:`BodyStack` has already checked its radius.  A bool for a body,
    one per body for a stack.
    """
    if body.n == 3:
        convex = second_fundamental_min(body) >= -_CONVEX_RTOL * np.max(body.h_nodes, axis=-1) ** 2
    else:
        convex = plane._convex(*_section_grids(body))
    return _per_body(convex)


def ball_gaussian_volume(n: int, r) -> float:
    """Gaussian measure of the centred ball of radius ``r``: the chi_n CDF ``P(n/2, r^2/2)``."""
    with np.errstate(over="ignore"):  # r^2 / 2 = inf still gives P = 1 exactly
        x = 0.5 * np.square(r)
    return gammainc(n / 2.0, x)


def ball_energy(n: int, r: float) -> float:
    """Curvature energy of the centred ball: constant curvature times weighted area."""
    return (n - 1) * r ** (n - 2) * math.exp(-0.5 * r * r) * sphere.sphere_area(n)


def ball_match_radius(n: int, target: float, outside: float | None = None) -> float:
    """Radius of the centred ball with Gaussian volume ``target``: the chi_n quantile.

    The ball's volume outside matches ``outside``, which is ``1 - target`` unless given, whenever
    that is below 1/2; otherwise its volume matches ``target``: the side rule of
    :func:`special.gammaincinv`.  A body's own outside volume (from the pass that gives its volume,
    as :func:`volume_match` reads it) keeps the digits that ``1 - target`` rounds away above 1/2,
    where ``target`` may round to 1 or above.  ``ValueError`` unless ``target > 0`` and, on the
    outside, the volume outside is at least the least normal float, or, on the inside, ``target < 1``.
    """
    q = 1.0 - target if outside is None else outside
    if not (0.0 < target and (sys.float_info.min <= q if q < 0.5 else target < 1.0)):
        raise ValueError(
            f"target Gaussian volume must lie in (0, 1) and leave a normal float outside, "
            f"got {target!r} with {q!r} outside"
        )
    return math.sqrt(2.0 * gammaincinv(n / 2.0, target, q))


def save_body(body: RadialGraph, path) -> None:
    """Write ``n L parity`` and the spectral coefficients of ``h`` as plain text; a ball has L = 0."""
    u = body.perturbation
    coeffs = body.radius * u.coeffs.copy()
    coeffs[0] += body.radius * math.sqrt(sphere.sphere_area(body.n))
    with open(path, "w") as fh:
        fh.write(f"{body.n} {u.degree} {u.parity}\n")
        fh.write(" ".join(repr(float(c)) for c in coeffs) + "\n")


def load_body(path) -> RadialGraph:
    with open(path) as fh:
        n, L, _parity = fh.readline().split()
        coeffs = np.array([float(tok) for tok in fh.readline().split()])
    return RadialGraph._from_h_field(sphere.HarmonicField(n=int(n), degree=int(L), coeffs=coeffs))
