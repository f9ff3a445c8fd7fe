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
extension, hence always tangent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import eval_gegenbauer, gammaln, lpmv, roots_jacobi

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
    "tangential_gradient",
    "hessian_form_at_nodes",
    "tangential_hessian_form",
]

MAX_DIMENSION = 8
MAX_DEGREE = 64
_MAX_NODES = 3_000_000
_HESSIAN_RESIDUAL_TOL = 1e-6
# Below this 1 - x_3^2, S^2 gradients take the pole-safe path.
_POLAR_GAP = 1e-10


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
    if n == 2:
        nodes, wts = _circle_rule(degree)
    elif n == 3:
        # Polar axis x_3: matches the usual real-harmonic conventions.
        m = degree // 2 + 1
        t, wt = roots_jacobi(m, 0.0, 0.0)
        mphi = max(degree + 1, 4)
        phi = 2.0 * np.pi * np.arange(mphi) / mphi
        s = np.sqrt(1.0 - t**2)
        nodes = np.empty((m * mphi, 3))
        nodes[:, 0] = np.repeat(s, mphi) * np.tile(np.cos(phi), m)
        nodes[:, 1] = np.repeat(s, mphi) * np.tile(np.sin(phi), m)
        nodes[:, 2] = np.repeat(t, mphi)
        wts = np.repeat(wt, mphi) * (2.0 * np.pi / mphi)
    else:
        nodes, wts = _chain_rule(n, degree)
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
    """A scalar field on S^(n-1), stored as basis coefficients.

    For n = 3 the coefficients run over real spherical harmonics ordered by
    degree blocks (m = 0, then cos/sin pairs for m = 1..l), so the block for
    degree l starts at offset l^2.  For other dimensions they index the
    L2-normalised zonal Gegenbauer polynomials in t = <x, e_1>.
    """

    n: int
    degree: int
    coeffs: np.ndarray
    parity: str = field(default="")

    def __post_init__(self):
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

    def lifted(self, degree: int) -> "HarmonicField":
        """Embed into a larger basis (coefficient blocks are degree-ordered)."""
        if degree < self.degree:
            raise ValueError("cannot lift to a smaller degree")
        c = np.zeros(basis_size(self.n, degree))
        c[: self.coeffs.size] = self.coeffs
        return HarmonicField(n=self.n, degree=degree, coeffs=c, parity=self.parity)

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


class _FullBasis3D:
    """Real spherical harmonics on S^2 with tables on a fixed quadrature."""

    def __init__(self, L: int, quad: SphereQuadrature):
        self.n = 3
        self.L = L
        self.quad = quad
        rows = []
        for l in range(L + 1):
            rows.append((l, 0, 0))
            for m in range(1, l + 1):
                rows.append((l, m, 1))
                rows.append((l, m, 2))
        self.ell = np.array([r[0] for r in rows])
        self.m = np.array([r[1] for r in rows])
        self.kind = np.array([r[2] for r in rows])
        self.k_of = self.ell
        self.V = self.values_at(quad.nodes)
        self._Gn = None
        self._D = None

    def _norms(self, l, m):
        return np.sqrt((2 * l + 1) / (4.0 * np.pi) * np.exp(gammaln(l - m + 1) - gammaln(l + m + 1)))

    def values_at(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        t = np.clip(X[:, 2], -1.0, 1.0)
        phi = np.arctan2(X[:, 1], X[:, 0])
        out = np.empty((self.ell.size, X.shape[0]))
        for j in range(self.ell.size):
            l, m, kind = self.ell[j], self.m[j], self.kind[j]
            P = lpmv(m, l, t)
            c = self._norms(l, m)
            if kind == 0:
                out[j] = c * P
            elif kind == 1:
                out[j] = math.sqrt(2.0) * c * P * np.cos(m * phi)
            else:
                out[j] = math.sqrt(2.0) * c * P * np.sin(m * phi)
        return out

    def _gradients_interior(self, X: np.ndarray) -> np.ndarray:
        """Tangential gradients at points with sin(theta) bounded away from 0."""
        X = np.atleast_2d(X)
        t = np.clip(X[:, 2], -1.0, 1.0)
        phi = np.arctan2(X[:, 1], X[:, 0])
        s = np.sqrt(np.maximum(1.0 - t**2, 0.0))
        if np.any(s < 1e-8):
            raise ValueError("direct gradient formula is singular near the poles")
        e_theta = np.column_stack([t * np.cos(phi), t * np.sin(phi), -s])
        e_phi = np.column_stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
        G = np.empty((self.ell.size, X.shape[0], 3))
        for j in range(self.ell.size):
            l, m, kind = self.ell[j], self.m[j], self.kind[j]
            P = lpmv(m, l, t)
            Pm1 = lpmv(m, l - 1, t) if l - 1 >= m else np.zeros_like(t)
            dPdt = ((l + m) * Pm1 - l * t * P) / (1.0 - t**2)
            dtheta = -s * dPdt
            c = self._norms(l, m)
            if kind == 0:
                G[j] = (c * dtheta)[:, None] * e_theta
            elif kind == 1:
                amp = math.sqrt(2.0) * c
                G[j] = (amp * dtheta * np.cos(m * phi))[:, None] * e_theta
                G[j] += (-amp * m * P / s * np.sin(m * phi))[:, None] * e_phi
            else:
                amp = math.sqrt(2.0) * c
                G[j] = (amp * dtheta * np.sin(m * phi))[:, None] * e_theta
                G[j] += (amp * m * P / s * np.cos(m * phi))[:, None] * e_phi
        return G

    @staticmethod
    def _polar(X: np.ndarray) -> np.ndarray:
        """Points too close to the poles for the direct gradient formula."""
        return 1.0 - X[:, 2] ** 2 < _POLAR_GAP

    @property
    def Gn(self) -> np.ndarray:
        """Gradients of every basis function at the nodes, built on first use."""
        if self._Gn is None:
            X = self.quad.nodes
            polar = self._polar(X)
            if not np.any(polar):
                self._Gn = self._gradients_interior(X)
                return self._Gn
            G = np.empty((self.ell.size, X.shape[0], 3))
            G[:, ~polar] = self._gradients_interior(X[~polar])
            vx = self.V[:, polar]
            grad_p = np.einsum("ibc,cp->bpi", self._solid_gradient_matrices(), vx)
            G[:, polar] = grad_p - self.k_of[:, None, None] * vx[:, :, None] * X[polar]
            self._Gn = G
        return self._Gn

    def _solid_gradient_matrices(self):
        # Components of the solid-harmonic gradients are harmonics one degree
        # lower; their expansion coefficients are read off once by quadrature
        # and reused for pole-safe point evaluation.  A rule with polar nodes
        # borrows them from the pole-free product rule of its degree.
        if self._D is None:
            if np.any(self._polar(self.quad.nodes)):
                product = build_quadrature(3, min(self.quad.degree, MAX_DEGREE))
                self._D = _basis(3, self.L, product)._solid_gradient_matrices()
            else:
                X, w = self.quad.nodes, self.quad.weights
                Pg = self.Gn + self.k_of[:, None, None] * self.V[:, :, None] * X[None, :, :]
                self._D = np.einsum("bmi,m,cm->ibc", Pg, w, self.V, optimize=True)
        return self._D

    def field_values(self, coeffs, X=None):
        if X is None:
            return coeffs @ self.V
        return coeffs @ self.values_at(X)

    def field_grad_nodes(self, coeffs):
        return np.einsum("b,bmi->mi", coeffs, self.Gn, optimize=True)

    def field_grad_at(self, coeffs, x):
        x = np.asarray(x, dtype=float)
        if 1.0 - x[2] ** 2 >= _POLAR_GAP:
            return np.einsum("b,bmi->mi", coeffs, self._gradients_interior(x[None]))[0]
        D = self._solid_gradient_matrices()
        vx = self.values_at(x[None])[:, 0]
        grad_p = np.array([coeffs @ (D[i] @ vx) for i in range(3)])
        return grad_p - np.dot(coeffs * self.k_of, vx) * x

    def analyze(self, values):
        return self.V @ (self.quad.weights * values)


class _ZonalBasis:
    """L2-normalised Gegenbauer polynomials in t = <x, e_1> on S^(n-1)."""

    def __init__(self, n: int, L: int, quad: SphereQuadrature):
        self.n = n
        self.L = L
        self.quad = quad
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
        self.k_of = k
        t = quad.nodes[:, 0]
        self.V = np.array([self.norms[kk] * eval_gegenbauer(kk, lam, t) for kk in k])
        self._t = t

    def _g_and_dg(self, coeffs, t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        g = np.zeros_like(t)
        dg = np.zeros_like(t)
        for kk in range(self.L + 1):
            if coeffs[kk] == 0.0:
                continue
            g += coeffs[kk] * self.norms[kk] * eval_gegenbauer(kk, self.lam, t)
            if kk >= 1:
                dg += (
                    coeffs[kk]
                    * self.norms[kk]
                    * 2.0
                    * self.lam
                    * eval_gegenbauer(kk - 1, self.lam + 1.0, t)
                )
        return g, dg

    def field_values(self, coeffs, X=None):
        if X is None:
            return coeffs @ self.V
        X = np.atleast_2d(X)
        g, _ = self._g_and_dg(coeffs, X[:, 0])
        return g

    def field_grad_nodes(self, coeffs):
        return self._grad(coeffs, self.quad.nodes)

    def _grad(self, coeffs, X):
        X = np.atleast_2d(X)
        t = X[:, 0]
        _, dg = self._g_and_dg(coeffs, t)
        e1 = np.zeros(self.n)
        e1[0] = 1.0
        return dg[:, None] * (e1[None, :] - t[:, None] * X)

    def field_grad_at(self, coeffs, x):
        return self._grad(coeffs, np.asarray(x, dtype=float)[None])[0]

    def analyze(self, values):
        return self.V @ (self.quad.weights * values)


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


def synthesize(field: HarmonicField, quad: SphereQuadrature | None = None, points=None) -> np.ndarray:
    """Field values at the quadrature nodes, or at explicit unit ``points``."""
    b = _basis_for(field, quad)
    return b.field_values(field.coeffs, points)


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


def field_gradient(field: HarmonicField, quad: SphereQuadrature | None = None) -> np.ndarray:
    """Tangential gradient at every quadrature node, shape (nodes, n)."""
    b = _basis_for(field, quad)
    return b.field_grad_nodes(field.coeffs)


def tangential_gradient(field: HarmonicField, x, quad: SphereQuadrature | None = None) -> np.ndarray:
    """Tangential gradient at a single unit vector ``x``.

    The result is the ambient gradient of the degree-0 homogeneous extension,
    so it is orthogonal to ``x`` by construction.
    """
    b = _basis_for(field, quad)
    return b.field_grad_at(field.coeffs, x)


def _squared_gradient_field(field: HarmonicField, quad: SphereQuadrature):
    """Project |grad u|^2 onto the basis with doubled degree headroom."""
    L2 = min(2 * field.degree, MAX_DEGREE)
    lifted = field.lifted(L2)
    b2 = _basis(field.n, L2, quad)
    g = b2.field_grad_nodes(lifted.coeffs)
    sq = np.einsum("mi,mi->m", g, g)
    c_sq = b2.analyze(sq)
    resid = float(np.max(np.abs(b2.field_values(c_sq) - sq)))
    if resid > _HESSIAN_RESIDUAL_TOL * (1.0 + float(np.max(np.abs(sq)))):
        raise QuadratureError(
            f"projection residual {resid:g} of |grad u|^2 exceeds headroom tolerance"
        )
    return HarmonicField(n=field.n, degree=L2, coeffs=c_sq), g, b2


def hessian_form_at_nodes(field: HarmonicField, quad: SphereQuadrature | None = None) -> np.ndarray:
    """The cubic form (1/2) <grad |grad u|^2, grad u> at every node."""
    q = quad if quad is not None else default_quadrature(field.n, field.degree)
    sq_field, g, b2 = _squared_gradient_field(field, q)
    gs = b2.field_grad_nodes(sq_field.coeffs)
    return 0.5 * np.einsum("mi,mi->m", gs, g)


def tangential_hessian_form(field: HarmonicField, x, quad: SphereQuadrature | None = None) -> float:
    """The cubic form (1/2) <grad |grad u|^2, grad u> at one unit vector."""
    q = quad if quad is not None else default_quadrature(field.n, field.degree)
    sq_field, _, b2 = _squared_gradient_field(field, q)
    gs = b2.field_grad_at(sq_field.coeffs, x)
    gu = _basis(field.n, field.degree, q).field_grad_at(field.coeffs, x)
    return 0.5 * float(np.dot(gs, gu))
