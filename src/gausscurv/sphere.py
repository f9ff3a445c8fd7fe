"""Quadrature and spherical harmonic calculus on the unit sphere.

The general rules are product rules: uniform angles on the circle,
Gauss-Legendre in the polar cosine times uniform azimuth on S^2, and a
recursive chain of Gauss-Jacobi rules with weight (1-t^2)^((n-3)/2) for
n >= 4.  A product rule built for ``degree`` integrates every polynomial of
that total degree exactly.  For n >= 4 every field is zonal, so the default
rule is the meridian rule: the outer Gauss-Jacobi factor alone, with its
nodes on the meridian ``(t, sqrt(1-t^2), 0, ...)`` and its weights times
``|S^(n-2)|``.  It integrates every zonal polynomial of ``degree`` exactly
with ``degree // 2 + 1`` nodes, in every dimension up to 8.

Scalar fields are stored spectrally.  For n = 3 the basis is the full set of
real L2-normalised spherical harmonics up to a degree cap; for other
dimensions it is the zonal (axisymmetric in x_1) Gegenbauer family, which
realises every Laplace-Beltrami eigenvalue and is all the higher-dimensional
experiments need.  Gradients are gradients of the degree-0 homogeneous
extension, hence always tangent.  The S^2 tables come from the normalised
associated-Legendre recurrence, run also on P_l^m / sin(theta) so that the
gradient formula stays regular at the poles.  Covariant Hessians differentiate
the exactly projected gradient on S^2 and have a closed form for zonal fields.

Every evaluation takes ``points=None`` for the quadrature nodes, an (m, n)
array of unit vectors for m results, or one (n,) unit vector for a single
result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import eval_gegenbauer, gammaln, roots_jacobi

from .errors import QuadratureError

__all__ = [
    "SphereQuadrature",
    "HarmonicField",
    "sphere_area",
    "build_quadrature",
    "zonal_quadrature",
    "default_quadrature",
    "basis_size",
    "eigenvalue",
    "synthesize",
    "analyze",
    "laplace_beltrami",
    "field_gradient",
    "hessian",
    "hessian_form",
]

MAX_DIMENSION = 8
MAX_DEGREE = 64
_MAX_NODES = 3_000_000


def sphere_area(n: int) -> float:
    """Surface measure of S^(n-1)."""
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


@dataclass(frozen=True, eq=False)
class SphereQuadrature:
    """Positive-weight nodes on S^(n-1), exact to the stated polynomial degree.

    Basis tables built on the nodes are cached on the rule itself, keyed by
    the basis degree, so they live exactly as long as the rule.
    """

    n: int
    degree: int
    nodes: np.ndarray
    weights: np.ndarray
    _bases: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def size(self) -> int:
        return self.weights.size


def _circle_rule(degree: int):
    m = max(degree + 1, 4)
    theta = 2.0 * np.pi * np.arange(m) / m
    nodes = np.column_stack([np.cos(theta), np.sin(theta)])
    return nodes, np.full(m, 2.0 * np.pi / m)


def _chain_rule(n: int, degree: int):
    """Recursive product rule with x_1 as the outermost polar coordinate."""
    if n == 2:
        return _circle_rule(degree)
    m = degree // 2 + 1
    alpha = (n - 3) / 2.0
    t, wt = roots_jacobi(m, alpha, alpha)
    sub_nodes, sub_w = _chain_rule(n - 1, degree)
    s = np.sqrt(1.0 - t**2)
    nodes = np.empty((m * sub_nodes.shape[0], n))
    nodes[:, 0] = np.repeat(t, sub_nodes.shape[0])
    nodes[:, 1:] = np.repeat(s, sub_nodes.shape[0])[:, None] * np.tile(sub_nodes, (m, 1))
    wts = np.repeat(wt, sub_w.size) * np.tile(sub_w, m)
    return nodes, wts


@lru_cache(maxsize=None)
def build_quadrature(n: int, degree: int) -> SphereQuadrature:
    """Build a product quadrature on S^(n-1) exact for polynomials of ``degree``.

    Raises
    ------
    ValueError
        For dimensions outside {2..8}, degrees above 64, or combinations
        whose product rule would exceed the node budget.
    """
    if not 2 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in 2..{MAX_DIMENSION}, got {n}")
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 0..{MAX_DEGREE}, got {degree}")
    est = max(degree + 1, 4) * (degree // 2 + 1) ** max(n - 2, 0)
    if est > _MAX_NODES:
        raise ValueError(f"product rule for (n={n}, degree={degree}) needs ~{est} nodes")
    nodes, wts = _chain_rule(n, degree)
    if n == 3:
        # Polar axis x_3: matches the usual real-harmonic conventions.
        nodes = nodes[:, [1, 2, 0]]
    return _frozen_rule(n, degree, nodes, wts)


def _frozen_rule(n: int, degree: int, nodes, wts) -> SphereQuadrature:
    nodes = np.ascontiguousarray(nodes)
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    nodes.setflags(write=False)
    wts.setflags(write=False)
    return SphereQuadrature(n=n, degree=degree, nodes=nodes, weights=wts)


@lru_cache(maxsize=None)
def zonal_quadrature(n: int, degree: int) -> SphereQuadrature:
    """Meridian rule on S^(n-1), n >= 4, exact for zonal polynomials of ``degree``.

    Integrals of functions of ``t = x_1`` alone reduce to
    ``|S^(n-2)| int f(t) (1-t^2)^((n-3)/2) dt``; the rule is that integral's
    Gauss-Jacobi rule with its nodes placed on the meridian.  It integrates
    nothing else correctly, so only zonal fields may be evaluated on it.

    Raises
    ------
    ValueError
        For dimensions outside {4..8} or degrees above 64.
    """
    if not 4 <= n <= MAX_DIMENSION:
        raise ValueError(f"zonal rules need dimension in 4..{MAX_DIMENSION}, got {n}")
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 0..{MAX_DEGREE}, got {degree}")
    alpha = (n - 3) / 2.0
    t, wt = roots_jacobi(degree // 2 + 1, alpha, alpha)
    nodes = np.zeros((t.size, n))
    nodes[:, 0] = t
    nodes[:, 1] = np.sqrt(1.0 - t**2)
    return _frozen_rule(n, degree, nodes, wt * sphere_area(n - 1))


def default_quadrature(n: int, degree: int) -> SphereQuadrature:
    """Quadrature sized for nonlinear products of fields up to ``degree``.

    The meridian rule for n >= 4, where every field is zonal; the product
    rule otherwise.
    """
    qdegree = min(max(4 * degree, 16), MAX_DEGREE)
    if n >= 4:
        return zonal_quadrature(n, qdegree)
    return build_quadrature(n, qdegree)


def basis_size(n: int, degree: int) -> int:
    return (degree + 1) ** 2 if n == 3 else degree + 1


def eigenvalue(n: int, k: int) -> float:
    """Laplace-Beltrami eigenvalue k(k + n - 2) on S^(n-1), with the minus sign dropped."""
    return float(k * (k + n - 2))


def _detect_parity(k_of: np.ndarray, coeffs: np.ndarray) -> str:
    scale = 1e-14 * max(1.0, float(np.max(np.abs(coeffs), initial=0.0)))
    odd = np.abs(coeffs[k_of % 2 == 1]).max(initial=0.0)
    even = np.abs(coeffs[k_of % 2 == 0]).max(initial=0.0)
    if odd <= scale:
        return "even"
    if even <= scale:
        return "odd"
    return "none"


@dataclass(frozen=True, eq=False)
class HarmonicField:
    """A scalar field on S^(n-1), n = 3..8, stored as basis coefficients.

    For n = 3 the coefficients run over real spherical harmonics ordered by
    degree blocks (m = 0, then cos/sin pairs for m = 1..l), so the block for
    degree l starts at offset l^2.  For n >= 4 they index the L2-normalised
    zonal Gegenbauer polynomials in t = <x, e_1>.
    """

    n: int
    degree: int
    coeffs: np.ndarray
    parity: str = field(default="")

    def __post_init__(self):
        if not 3 <= self.n <= MAX_DIMENSION:
            # At n = 2 the zonal Gegenbauer family degenerates (lambda = 0).
            raise ValueError(f"fields need dimension in 3..{MAX_DIMENSION}, got {self.n}")
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (basis_size(self.n, self.degree),):
            raise ValueError(
                f"expected {basis_size(self.n, self.degree)} coefficients, got {c.shape}"
            )
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        if not self.parity:
            object.__setattr__(self, "parity", _detect_parity(self.degrees, c))

    @property
    def degrees(self) -> np.ndarray:
        """Harmonic degree of each coefficient slot."""
        return _degree_index(self.n, self.degree)

    @classmethod
    def zero(cls, n: int, degree: int) -> "HarmonicField":
        return cls(n=n, degree=degree, coeffs=np.zeros(basis_size(n, degree)))

    @classmethod
    def single_mode(cls, n: int, k: int, amplitude: float, degree: int | None = None) -> "HarmonicField":
        """Pure eigenmode of order ``k``: the zonal harmonic for every n."""
        L = degree if degree is not None else max(k, 2)
        if k > L:
            raise ValueError(f"mode {k} exceeds basis degree {L}")
        c = np.zeros(basis_size(n, L))
        c[k * k if n == 3 else k] = amplitude
        return cls(n=n, degree=L, coeffs=c)

    def norm_l2(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def grad_norm_l2(self) -> float:
        lam = np.array([eigenvalue(self.n, k) for k in self.degrees])
        return float(math.sqrt(np.sum(lam * self.coeffs**2)))

    def mean(self) -> float:
        """Average of the field over the sphere."""
        return float(self.coeffs[0]) / math.sqrt(sphere_area(self.n))


@lru_cache(maxsize=None)
def _degree_index(n: int, L: int) -> np.ndarray:
    if n == 3:
        ks = np.concatenate([np.full(2 * l + 1, l) for l in range(L + 1)])
    else:
        ks = np.arange(L + 1)
    ks.setflags(write=False)
    return ks


class _Tables:
    """Basis values and tangential gradients on a fixed quadrature.

    Subclasses provide ``values_at(X)``, shape (basis, m), and
    ``gradients_at(X)``, shape (basis, m, n), for unit points ``X`` of shape
    (m, n), and ``hessians_at(coeffs, X)``, the covariant Hessians (m, n, n)
    of the field with those coefficients.  Node values are built with the
    basis; the node-gradient table, the larger of the two, only on first use.
    """

    def __init__(self, quad: SphereQuadrature):
        self.quad = quad
        self.V = self.values_at(quad.nodes)
        self._Gn = None

    @property
    def Gn(self) -> np.ndarray:
        if self._Gn is None:
            self._Gn = self.gradients_at(self.quad.nodes)
        return self._Gn

    def analyze(self, values):
        return self.V @ (self.quad.weights * values)


def _legendre_slabs(L: int, t: np.ndarray, s: np.ndarray):
    """Yield ``(m, P, dP, mQ)`` for m = 0..L, each of shape (L + 1 - m, points).

    Row ``l - m`` holds the L2-normalised associated Legendre function
    P_l^m(t) (Condon-Shortley phase, as in ``scipy.special.lpmv``), its
    derivative in the polar angle, and m P_l^m / sin(theta) (None for m = 0).
    For m >= 1 the recurrence runs on Q_l^m = P_l^m / sin(theta), which obeys
    the same three-term recurrence in l and is finite at the poles, so
    dP_l^m/dtheta = l t Q_l^m - sqrt((2l+1)(l-m)(l+m)/(2l-1)) Q_(l-1)^m and
    m Q_l^m need no division by sin(theta).  For m = 0,
    dP_l^0/dtheta = sqrt(l(l+1)) P_l^1.
    """

    def upward(seed, m):
        out = np.empty((L + 1 - m, t.size))
        out[0] = seed
        if L > m:
            out[1] = math.sqrt(2 * m + 3) * t * seed
        for l in range(m + 2, L + 1):
            a = math.sqrt((4 * l * l - 1) / (l * l - m * m))
            b = math.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
            out[l - m] = a * (t * out[l - m - 1] - b * out[l - m - 2])
        return out

    P0 = upward(np.full(t.size, 1.0 / math.sqrt(4.0 * math.pi)), 0)
    q_mm = np.full(t.size, -math.sqrt(3.0 / (8.0 * math.pi)))
    Q = upward(q_mm, 1) if L >= 1 else np.empty((0, t.size))
    ell = np.arange(L + 1)
    dP0 = np.zeros_like(P0)
    dP0[1:] = np.sqrt(ell[1:] * (ell[1:] + 1.0))[:, None] * (s * Q)
    yield 0, P0, dP0, None
    for m in range(1, L + 1):
        if m > 1:
            q_mm = -math.sqrt((2 * m + 1) / (2.0 * m)) * s * q_mm
            Q = upward(q_mm, m)
        l = ell[m:, None]
        c = np.sqrt((2 * l + 1) * (l - m) * (l + m) / (2 * l - 1.0))
        dP = l * t * Q
        dP[1:] -= c[1:] * Q[:-1]
        yield m, s * Q, dP, m * Q


def _polar_angles(X: np.ndarray):
    t = np.clip(X[:, 2], -1.0, 1.0)
    return t, np.sqrt(np.maximum(1.0 - t * t, 0.0)), np.arctan2(X[:, 1], X[:, 0])


class _FullBasis3D(_Tables):
    """Real spherical harmonics on S^2, polar axis x_3.

    Row l^2 is the zonal harmonic of degree l; rows l^2 + 2m - 1 and
    l^2 + 2m carry sqrt(2) P_l^m(t) cos(m phi) and sqrt(2) P_l^m(t) sin(m phi).
    """

    def __init__(self, L: int, quad: SphereQuadrature):
        self.L = L
        super().__init__(quad)

    def _rows(self, m: int):
        l = np.arange(m, self.L + 1)
        return l * l if m == 0 else (l * l + 2 * m - 1, l * l + 2 * m)

    def values_at(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        t, s, phi = _polar_angles(X)
        out = np.empty(((self.L + 1) ** 2, X.shape[0]))
        for m, P, _, _ in _legendre_slabs(self.L, t, s):
            if m == 0:
                out[self._rows(0)] = P
                continue
            cos_rows, sin_rows = self._rows(m)
            out[cos_rows] = math.sqrt(2.0) * P * np.cos(m * phi)
            out[sin_rows] = math.sqrt(2.0) * P * np.sin(m * phi)
        return out

    def gradients_at(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        t, s, phi = _polar_angles(X)
        # At a pole phi = atan2(0, 0) = 0 fixes the frame; every term is finite there.
        e_theta = np.column_stack([t * np.cos(phi), t * np.sin(phi), -s])
        e_phi = np.column_stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
        out = np.empty(((self.L + 1) ** 2, X.shape[0], 3))
        for m, _, dP, mQ in _legendre_slabs(self.L, t, s):
            if m == 0:
                out[self._rows(0)] = dP[:, :, None] * e_theta
                continue
            cos_rows, sin_rows = self._rows(m)
            c = math.sqrt(2.0) * np.cos(m * phi)
            sn = math.sqrt(2.0) * np.sin(m * phi)
            out[cos_rows] = (dP * c)[:, :, None] * e_theta - (mQ * sn)[:, :, None] * e_phi
            out[sin_rows] = (dP * sn)[:, :, None] * e_theta + (mQ * c)[:, :, None] * e_phi
        return out

    def hessians_at(self, coeffs: np.ndarray, X: np.ndarray) -> np.ndarray:
        # Each component of grad u is a spherical polynomial of degree L + 1, so
        # its projection at that degree is exact on a rule of degree 2L + 2.  The
        # gradients of the three projected fields are the rows of the Jacobian J
        # of grad u, and P J P with P = I - x x^T is the covariant Hessian.
        q, L1 = self.quad, self.L + 1
        if L1 > MAX_DEGREE or q.degree < 2 * L1:
            raise QuadratureError(
                f"the Hessian of a degree-{self.L} field needs a rule of degree {2 * L1}, got {q.degree}"
            )
        up = _basis(3, L1, q)
        grad = np.einsum("b,bmi->mi", coeffs, self.Gn, optimize=True)
        C = up.V @ (q.weights[:, None] * grad)
        G = up.Gn if X is q.nodes else up.gradients_at(X)
        J = np.einsum("bi,bmj->mij", C, G, optimize=True)
        P = np.eye(3) - X[:, :, None] * X[:, None, :]
        return P @ J @ P


class _ZonalBasis(_Tables):
    """L2-normalised Gegenbauer polynomials in t = <x, e_1> on S^(n-1)."""

    def __init__(self, n: int, L: int, quad: SphereQuadrature):
        self.L = L
        lam = (n - 2) / 2.0
        self.lam = lam
        k = np.arange(L + 1)
        log_h = (
            math.log(math.pi)
            + (1.0 - 2.0 * lam) * math.log(2.0)
            + gammaln(k + 2.0 * lam)
            - gammaln(k + 1.0)
            - np.log(k + lam)
            - 2.0 * gammaln(lam)
        )
        self.norms = 1.0 / np.sqrt(sphere_area(n - 1) * np.exp(log_h))
        self.k = k
        super().__init__(quad)

    def _derivatives(self, t: np.ndarray, order: int) -> np.ndarray:
        """Row k: d^j/dt^j C_k^lam(t) = 2^j lam...(lam+j-1) C_(k-j)^(lam+j), normalised."""
        out = np.zeros((self.L + 1, t.size))
        if self.L >= order:
            scale = math.prod(2.0 * (self.lam + j) for j in range(order))
            out[order:] = (scale * self.norms[order:, None]) * eval_gegenbauer(
                self.k[: self.L + 1 - order, None], self.lam + order, t[None, :]
            )
        return out

    def values_at(self, X: np.ndarray) -> np.ndarray:
        return self._derivatives(np.atleast_2d(X)[:, 0], 0)

    def gradients_at(self, X: np.ndarray) -> np.ndarray:
        # grad g(<x, e_1>) = g'(t) a, with a = e_1 - t x.
        X = np.atleast_2d(X)
        a = np.eye(X.shape[1])[0] - X[:, :1] * X
        return self._derivatives(X[:, 0], 1)[:, :, None] * a[None, :, :]

    def hessians_at(self, coeffs: np.ndarray, X: np.ndarray) -> np.ndarray:
        # Hess g(<x, e_1>) = g''(t) a a^T - t g'(t) P, with P = I - x x^T.
        t = X[:, 0]
        d1, d2 = (coeffs @ self._derivatives(t, j) for j in (1, 2))
        a = np.eye(X.shape[1])[0] - X[:, :1] * X
        P = np.eye(X.shape[1]) - X[:, :, None] * X[:, None, :]
        return d2[:, None, None] * a[:, :, None] * a[:, None, :] - (t * d1)[:, None, None] * P


def _basis(n: int, L: int, quad: SphereQuadrature):
    """Degree-``L`` basis tables on the nodes of ``quad``, built once per rule."""
    if quad.n != n:
        raise ValueError(f"quadrature on S^{quad.n - 1} used for a field on S^{n - 1}")
    basis = quad._bases.get(L)
    if basis is None:
        built = _FullBasis3D(L, quad) if n == 3 else _ZonalBasis(n, L, quad)
        basis = quad._bases.setdefault(L, built)
    return basis


def _basis_for(field: HarmonicField, quad: SphereQuadrature | None):
    q = quad if quad is not None else default_quadrature(field.n, field.degree)
    return _basis(field.n, field.degree, q)


def _points(points):
    """``points`` as an (m, n) array, and whether one (n,) vector was given."""
    X = np.asarray(points, dtype=float)
    return np.atleast_2d(X), X.ndim == 1


def synthesize(field: HarmonicField, quad: SphereQuadrature | None = None, points=None):
    """Field values at the quadrature nodes, or at unit ``points``.

    ``points`` of shape (m, n) gives m values, a single (n,) vector one float.
    """
    b = _basis_for(field, quad)
    if points is None:
        return field.coeffs @ b.V
    X, single = _points(points)
    vals = field.coeffs @ b.values_at(X)
    return float(vals[0]) if single else vals


def analyze(values, n: int, degree: int, quad: SphereQuadrature) -> HarmonicField:
    """Project node values onto the basis up to ``degree`` by quadrature."""
    b = _basis(n, degree, quad)
    return HarmonicField(n=n, degree=degree, coeffs=b.analyze(np.asarray(values, dtype=float)))


def laplace_beltrami(field: HarmonicField) -> HarmonicField:
    """Apply the Laplace-Beltrami operator: coefficient k maps to -k(k+n-2)."""
    lam = np.array([eigenvalue(field.n, k) for k in field.degrees])
    return HarmonicField(
        n=field.n, degree=field.degree, coeffs=-lam * field.coeffs, parity=field.parity
    )


def field_gradient(field: HarmonicField, quad: SphereQuadrature | None = None, points=None) -> np.ndarray:
    """Tangential gradient at every quadrature node, shape (nodes, n), or at unit ``points``.

    ``points`` of shape (m, n) gives an (m, n) array, a single (n,) vector one
    gradient of shape (n,).  The result is the ambient gradient of the
    degree-0 homogeneous extension, so it is orthogonal to its point.  On
    S^2 the same pole-regular formula holds everywhere, poles included.
    """
    b = _basis_for(field, quad)
    if points is None:
        return np.einsum("b,bmi->mi", field.coeffs, b.Gn, optimize=True)
    X, single = _points(points)
    g = np.einsum("b,bmi->mi", field.coeffs, b.gradients_at(X), optimize=True)
    return g[0] if single else g


def hessian(field: HarmonicField, quad: SphereQuadrature | None = None, points=None) -> np.ndarray:
    """Covariant Hessian at every node, shape (nodes, n, n), or at unit ``points``.

    ``points`` of shape (m, n) gives an (m, n, n) array, a single (n,) vector
    one (n, n) matrix, symmetric and zero on the point's own direction.  On
    S^2 the components of grad u are projected at degree L + 1 on the nodes of
    ``quad`` and differentiated again; for n >= 4 a closed form serves.

    Raises
    ------
    QuadratureError
        On S^2, when ``quad`` has degree below 2L + 2 or L + 1 exceeds 64.
    """
    b = _basis_for(field, quad)
    # At the nodes X is the rule's own array, which lets cached tables serve.
    X, single = _points(b.quad.nodes if points is None else points)
    H = b.hessians_at(field.coeffs, X)
    return H[0] if single else H


def hessian_form(field: HarmonicField, quad: SphereQuadrature | None = None, points=None):
    """The cubic form Hess u(grad u, grad u) at every node, or at unit ``points``.

    It equals (1/2) <grad |grad u|^2, grad u>.  ``points`` follows
    :func:`field_gradient`: (m, n) gives m values, (n,) one float.

    Raises
    ------
    QuadratureError
        As :func:`hessian`.
    """
    g = field_gradient(field, quad, points)
    form = np.einsum("...i,...ij,...j->...", g, hessian(field, quad, points), g)
    return float(form) if form.ndim == 0 else form


# The benchmark traces the node evaluation under this name.
hessian_form_at_nodes = hessian_form
