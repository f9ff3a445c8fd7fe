"""Quadrature and spherical harmonic calculus on the unit sphere.

There is one rule per dimension, ``build_quadrature(n, degree)``.  On the
circle it is uniform angles.  For n >= 3 it has ``degree // 2 + 1``
Gauss-Jacobi nodes of the weight (1-t^2)^((n-3)/2) in the polar cosine t
(:func:`special.gauss_jacobi`).  On
S^2 these are Gauss-Legendre nodes, times uniform azimuth about the polar axis
x_3, and the rule integrates every polynomial of ``degree`` exactly.  For
n >= 4 every field is zonal, and the rule is the meridian rule: one node per t
on the meridian ``(t, sqrt(1-t^2), 0, ...)``, with its weight times
``|S^(n-2)|``.  It integrates every zonal polynomial of ``degree`` exactly, and
nothing else, in every dimension up to 8.

Scalar fields are stored spectrally.  For n = 3 the basis is the full set of
real L2-normalised spherical harmonics up to a degree cap; for other
dimensions it is the zonal (axisymmetric in x_1) Gegenbauer family, which
realises every Laplace-Beltrami eigenvalue and is all the higher-dimensional
experiments need; its tables come from the three-term recurrence
(:func:`special.gegenbauer`).  The S^2 tables come from the normalised
associated-Legendre recurrence, run also on P_l^m / sin(theta) and
P_l^m / sin(theta)^2 so that the gradient and Hessian formulas stay regular at
the poles.  Each basis tables gradients and covariant Hessians in closed form,
in an orthonormal tangent frame only: ``(e_theta, e_phi)`` on S^2, and
``a / |a|``, ``a = e_1 - t x``, with any tangent vector across it for zonal
fields; ambient gradients, always tangent, compose the frame.  A zonal basis
maps coefficients exactly to its cosine series on a meridian (``S``).

Every evaluation takes ``points=None`` for the quadrature nodes, an (m, n)
array of unit vectors for m results, or one (n,) unit vector for a single
result; any other shape, a non-finite entry or a norm off 1 by more than 1e-12
raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import QuadratureError
from .special import gauss_jacobi, gegenbauer

__all__ = [
    "SphereQuadrature",
    "HarmonicField",
    "sphere_area",
    "build_quadrature",
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


@lru_cache(maxsize=None)
def build_quadrature(n: int, degree: int) -> SphereQuadrature:
    """The rule on S^(n-1) of ``degree``: exact for every polynomial of that
    degree on the circle and on S^2, and for every zonal one when n >= 4.

    Raises
    ------
    ValueError
        For dimensions outside {2..8} or degrees above 64.
    """
    if not 2 <= n <= MAX_DIMENSION:
        raise ValueError(f"dimension must be in 2..{MAX_DIMENSION}, got {n}")
    if not 0 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 0..{MAX_DEGREE}, got {degree}")
    if n == 2:
        nodes, wts = _circle_rule(degree)
    else:
        alpha = (n - 3) / 2.0
        t, wt = gauss_jacobi(degree // 2 + 1, alpha)
        s = np.sqrt(1.0 - t**2)
        if n == 3:
            # Polar axis x_3: matches the usual real-harmonic conventions.
            circle, cw = _circle_rule(degree)
            nodes = np.empty((t.size * cw.size, 3))
            nodes[:, :2] = np.repeat(s, cw.size)[:, None] * np.tile(circle, (t.size, 1))
            nodes[:, 2] = np.repeat(t, cw.size)
            wts = np.repeat(wt, cw.size) * np.tile(cw, t.size)
        else:
            nodes = np.zeros((t.size, n))
            nodes[:, 0] = t
            nodes[:, 1] = s
            wts = wt * sphere_area(n - 1)
    nodes /= np.linalg.norm(nodes, axis=1)[:, None]
    nodes.setflags(write=False)
    wts.setflags(write=False)
    return SphereQuadrature(n=n, degree=degree, nodes=nodes, weights=wts)


def default_quadrature(n: int, degree: int) -> SphereQuadrature:
    """Quadrature sized for nonlinear products of fields up to ``degree``."""
    return build_quadrature(n, min(max(4 * degree, 16), MAX_DEGREE))


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

    def __post_init__(self):
        if not 3 <= self.n <= MAX_DIMENSION:
            # At n = 2 the zonal Gegenbauer family degenerates (lambda = 0).
            raise ValueError(f"fields need dimension in 3..{MAX_DIMENSION}, got {self.n}")
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (basis_size(self.n, self.degree),):
            raise ValueError(
                f"expected {basis_size(self.n, self.degree)} coefficients, got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("field coefficients must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def parity(self) -> str:
        """``"even"`` or ``"odd"`` where the other degrees' coefficients are all within 1e-14 of 0
        relative to the largest (or 1), else ``"none"``."""
        return _detect_parity(self.degrees, self.coeffs)

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
        if not 0 <= k <= L:
            raise ValueError(f"mode {k} is not in 0..{L}, the basis degrees")
        c = np.zeros(basis_size(n, L))
        c[k * k if n == 3 else k] = amplitude
        return cls(n=n, degree=L, coeffs=c)

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


@lru_cache(maxsize=None)
def _eigenvalues(n: int, L: int) -> np.ndarray:
    """:func:`eigenvalue` of each coefficient slot up to degree ``L``."""
    ks = _degree_index(n, L)
    lam = (ks * (ks + n - 2)).astype(float)
    lam.setflags(write=False)
    return lam


class _Tables:
    """Basis values, frame gradients and frame Hessians on a fixed quadrature.

    Subclasses provide, for unit points ``X`` of shape (m, n), the rule's own nodes
    or not, ``values_at(X)``, shape (basis, m), and the frame route of every gradient
    and Hessian: ``frame_at(X)``, the frame's named vectors (both on S^2, only
    ``a / |a|`` for zonal fields), ``frame_gradients_at(X)``, the components along
    them, shape (basis, 2, m), and ``frame_hessians_at(X)``, the entries
    ``H_11, H_12, H_22``, shape (basis, 3, m).  Node values are built with the basis;
    the node frame gradients ``Fn`` and Hessians ``Hn`` only on first use.
    """

    def __init__(self, quad: SphereQuadrature):
        self.quad = quad
        self.V = self.values_at(quad.nodes)

    @cached_property
    def Fn(self) -> np.ndarray:
        return self.frame_gradients_at(self.quad.nodes)

    @cached_property
    def Hn(self) -> np.ndarray:
        return self.frame_hessians_at(self.quad.nodes)

    def frame_hessian(self, coeffs: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Frame Hessian entries of a field ``coeffs``, shape (3, m), or of a stack (..., basis), (..., 3, m)."""
        return _row_products(coeffs, self.Hn if X is self.quad.nodes else self.frame_hessians_at(X))

    def analyze(self, values):
        return self.V @ (self.quad.weights * values)


def _upward(L: int, t: np.ndarray, seed: np.ndarray, m: int) -> np.ndarray:
    """Rows l = m..L (none for m > L) of the normalised associated-Legendre three-term recurrence in l
    from row m, ``seed``: linear in the rows, so it also runs on P_l^m / sin(theta)^k."""
    out = np.empty((max(L + 1 - m, 0), t.size))
    out[:1] = seed
    if L > m:
        out[1] = math.sqrt(2 * m + 3) * t * seed
    for l in range(m + 2, L + 1):
        a = math.sqrt((4 * l * l - 1) / (l * l - m * m))
        b = math.sqrt(((l - 1) ** 2 - m * m) / (4 * (l - 1) ** 2 - 1))
        out[l - m] = a * (t * out[l - m - 1] - b * out[l - m - 2])
    return out


def _legendre_slabs(L: int, t: np.ndarray, s: np.ndarray):
    """Yield ``(m, P, dP, mQ)`` for m = 0..L, each of shape (L + 1 - m, points).

    Row ``l - m`` holds the L2-normalised associated Legendre function P_l^m(t) (with the
    Condon-Shortley phase), its derivative in the polar angle, and m P_l^m / sin(theta).
    For m >= 1 the recurrence runs on Q_l^m = P_l^m / sin(theta), which obeys
    the same three-term recurrence in l and is finite at the poles, so
    dP_l^m/dtheta = l t Q_l^m - sqrt((2l+1)(l-m)(l+m)/(2l-1)) Q_(l-1)^m and
    m Q_l^m need no division by sin(theta).  For m = 0, dP_l^0/dtheta = sqrt(l(l+1)) P_l^1.
    The Hessian terms run in a pass of their own, :func:`_legendre_hessian_slabs`.
    """
    P0 = _upward(L, t, np.full(t.size, 1.0 / math.sqrt(4.0 * math.pi)), 0)
    q_mm = np.full(t.size, -math.sqrt(3.0 / (8.0 * math.pi)))
    Q = _upward(L, t, q_mm, 1)
    ell = np.arange(L + 1)
    dP0 = np.zeros_like(P0)
    dP0[1:] = np.sqrt(ell[1:] * (ell[1:] + 1.0))[:, None] * (s * Q)
    yield 0, P0, dP0, np.zeros_like(P0)
    for m in range(1, L + 1):
        if m > 1:
            q_mm = -math.sqrt((2 * m + 1) / (2.0 * m)) * s * q_mm
            Q = _upward(L, t, q_mm, m)
        l = ell[m:, None]
        c = np.sqrt((2 * l + 1) * (l - m) * (l + m) / (2 * l - 1.0))
        dP = l * t * Q
        dP[1:] -= c[1:] * Q[:-1]
        yield m, s * Q, dP, m * Q


def _legendre_hessian_slabs(L: int, t: np.ndarray, s: np.ndarray):
    """Yield ``(m, T, dQ, B)`` for m = 0..L, rows ``l - m`` as in :func:`_legendre_slabs`, none divided by sin(theta).

    A row ``c(phi) P_l^m`` has ``H_tt = c T``, ``H_tp = c' dQ`` and ``H_pp = c B``, where dQ is the polar derivative
    of Q = P / sin(theta) and B is t dQ + (t^2 - m^2) R with R = Q / sin(theta) for m >= 2, t dQ - P for m = 1 and
    t sqrt(l(l+1)) Q_l^1 for m = 0; T = -l(l+1) P - B, as the trace is the Laplacian.  R obeys the recurrence from
    R_mm = -sqrt((2m+1)/(2m)) Q_(m-1,m-1), so dQ = (l - 1) t R_l - sqrt((2l+1)(l-m)(l+m)/(2l-1)) R_(l-1) for m >= 2,
    and dQ = sqrt((l-1)(l+2)) sin(theta) R_l^2 for m = 1.
    """
    lam = np.arange(L + 1.0) * np.arange(1.0, L + 2.0)
    q = np.full(t.size, -math.sqrt(3.0 / (8.0 * math.pi)))
    Q, R = _upward(L, t, q, 1), _upward(L, t, -math.sqrt(1.25) * q, 2)
    P, B = _upward(L, t, np.full(t.size, 1.0 / math.sqrt(4.0 * math.pi)), 0), np.zeros((L + 1, t.size))
    B[1:] = np.sqrt(lam[1:])[:, None] * (t * Q)
    yield 0, -lam[:, None] * P - B, np.zeros_like(P), B
    for m in range(1, L + 1):
        l = np.arange(m, L + 1.0)[:, None]
        if m == 1:
            P, dQ = s * Q, np.zeros_like(Q)
            dQ[1:] = np.sqrt((l[1:] - 1.0) * (l[1:] + 2.0)) * (s * R)
            B = t * dQ - P
        else:
            if m > 2:
                R = _upward(L, t, -math.sqrt((2 * m + 1) / (2.0 * m)) * (s * R[0]), m)
            c = np.sqrt((2 * l + 1) * (l - m) * (l + m) / (2 * l - 1.0))
            P, dQ = s * s * R, (l - 1.0) * t * R
            dQ[1:] -= c[1:] * R[:-1]
            B = t * dQ + (t * t - m * m) * R
        yield m, -lam[m:, None] * P - B, dQ, B


def _polar_angles(X: np.ndarray):
    """``(cos theta, sin theta, phi)`` at unit points of S^2; sin theta is ``hypot(x_1, x_2)``,
    which keeps its digits near the poles, where ``sqrt(1 - t^2)`` cancels."""
    return np.clip(X[:, 2], -1.0, 1.0), np.hypot(X[:, 0], X[:, 1]), np.arctan2(X[:, 1], X[:, 0])


def _polar_frame(X: np.ndarray):
    """The orthonormal tangent frame ``(e_theta, e_phi)`` at unit points of S^2, each (m, 3).

    Gradients and the second fundamental form are both read in it.  At a pole
    phi = atan2(0, 0) = 0 fixes the frame; every term is finite there.
    """
    t, s, phi = _polar_angles(X)
    e_theta = np.column_stack([t * np.cos(phi), t * np.sin(phi), -s])
    e_phi = np.column_stack([-np.sin(phi), np.cos(phi), np.zeros_like(phi)])
    return e_theta, e_phi


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

    def _azimuthal(self, m: int, phi: np.ndarray):
        """``(rows, c, c' / m)`` for the row sets of order m and their azimuthal factor c: sqrt(2) cos(m phi)
        and sqrt(2) sin(m phi), or 1 (and 0) for the zonal rows."""
        if m == 0:
            return [(self._rows(0), 1.0, 0.0)]
        c, sn = math.sqrt(2.0) * np.cos(m * phi), math.sqrt(2.0) * np.sin(m * phi)
        return zip(self._rows(m), (c, sn), (-sn, c))

    def values_at(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(X)
        t, s, phi = _polar_angles(X)
        out = np.empty(((self.L + 1) ** 2, X.shape[0]))
        for m, P, _, _ in _legendre_slabs(self.L, t, s):
            for rows, f in zip(np.atleast_2d(self._rows(m)), (np.cos(m * phi), np.sin(m * phi))):
                out[rows] = (math.sqrt(2.0) if m else 1.0) * P * f
        return out

    def frame_gradients_at(self, X: np.ndarray) -> np.ndarray:
        """The basis gradients' components along ``(e_theta, e_phi)``, shape (basis, 2, m)."""
        X = np.atleast_2d(X)
        t, s, phi = _polar_angles(X)
        out = np.empty(((self.L + 1) ** 2, 2, X.shape[0]))
        for m, _, dP, mQ in _legendre_slabs(self.L, t, s):
            for rows, c, dc in self._azimuthal(m, phi):
                out[rows, 0], out[rows, 1] = dP * c, mQ * dc
        return out

    frame_at = staticmethod(_polar_frame)

    def frame_hessians_at(self, X: np.ndarray) -> np.ndarray:
        """The basis Hessians' entries ``H_tt, H_tp, H_pp`` in ``(e_theta, e_phi)``, shape (basis, 3, m)."""
        X = np.atleast_2d(X)
        t, s, phi = _polar_angles(X)
        out = np.empty(((self.L + 1) ** 2, 3, X.shape[0]))
        for m, T, dQ, B in _legendre_hessian_slabs(self.L, t, s):
            for rows, c, dc in self._azimuthal(m, phi):
                out[rows, 0], out[rows, 1], out[rows, 2] = T * c, m * dQ * dc, B * c
        return out


class _ZonalBasis(_Tables):
    """L2-normalised Gegenbauer polynomials in t = <x, e_1> on S^(n-1), with their first two
    derivatives tabled once at the nodes."""

    def __init__(self, n: int, L: int, quad: SphereQuadrature):
        self.L = L
        lam = (n - 2) / 2.0
        self.lam = lam
        k = np.arange(L + 1)
        log_h = (
            math.log(math.pi)
            + (1.0 - 2.0 * lam) * math.log(2.0)
            + np.array([math.lgamma(j + 2.0 * lam) - math.lgamma(j + 1.0) for j in range(L + 1)])
            - np.log(k + lam)
            - 2.0 * math.lgamma(lam)
        )
        self.norms = 1.0 / np.sqrt(sphere_area(n - 1) * np.exp(log_h))
        super().__init__(quad)
        # Row k of S: the cosine coefficients of basis function k at (cos theta, sin theta, 0, ...), by DLMF
        # 18.5.11: C_k^lam(cos theta) = sum_j c_j c_(k-j) cos((k - 2j) theta) with c_j = (lam)_j / j!.
        c = np.cumprod(np.concatenate([[1.0], (lam + k[:-1]) / k[1:]]))
        j, odd = np.divmod(k[:, None] - k, 2)  # column m is mode m: j = (k - m) / 2 and k - j = j + m
        self.S = np.where((j >= 0) & (odd == 0), (2.0 - (k == 0)) * c[j] * c[j + k], 0.0) * self.norms[:, None]
        self.S.setflags(write=False)

    def _derivatives(self, t: np.ndarray) -> np.ndarray:
        """Rows k of d^j/dt^j C_k^lam(t) = 2^j lam...(lam+j-1) C_(k-j)^(lam+j), normalised, for
        j = 0, 1, 2: shape (3, L + 1, t.size), from one recurrence for the three families."""
        C = gegenbauer(self.L, self.lam + np.arange(3.0), t)
        out = np.zeros_like(C)
        for j in range(3):
            scale = math.prod(2.0 * (self.lam + i) for i in range(j))
            out[j, j:] = scale * self.norms[j:, None] * C[j, : self.L + 1 - j]
        return out

    @cached_property
    def _node_table(self) -> np.ndarray:
        return self._derivatives(self.quad.nodes[:, 0])

    def _table(self, X: np.ndarray) -> np.ndarray:
        return self._node_table if X is self.quad.nodes else self._derivatives(X[:, 0])

    def values_at(self, X: np.ndarray) -> np.ndarray:
        return self._table(np.atleast_2d(X))[0]

    @staticmethod
    def frame_at(X: np.ndarray):
        # a / |a|, which is zero at the poles +-e_1, where a = 0 and H_11 = H_22.
        a = np.eye(X.shape[1])[0] - X[:, :1] * X
        norm = np.linalg.norm(a, axis=1, keepdims=True)
        return (np.divide(a, norm, out=np.zeros_like(a), where=norm > 0.0),)

    def frame_gradients_at(self, X: np.ndarray) -> np.ndarray:
        # g'(t) a is (g'(t) |a|, 0) in the frame, with |a| = sin theta = |(x_2, ..., x_n)|, which
        # keeps its digits near the poles, where sqrt(1 - t^2) cancels.
        X = np.atleast_2d(X)
        out = np.zeros((self.L + 1, 2, X.shape[0]))
        out[:, 0] = self._table(X)[1] * np.linalg.norm(X[:, 1:], axis=1)
        return out

    def frame_hessians_at(self, X: np.ndarray) -> np.ndarray:
        """``g'' a a^T - t g' P`` read in the frame: ``H_11 = g''(t) (1 - t^2) - t g'(t)``, ``H_12 = 0``
        and ``H_22 = -t g'(t)``, shape (basis, 3, m)."""
        X = np.atleast_2d(X)
        t, (d1, d2) = X[:, 0], self._table(X)[1:]
        h22 = -t * d1
        return np.stack([d2 * (1.0 - t * t) + h22, np.zeros_like(h22), h22], axis=1)


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


def _points(points, n: int):
    """``points`` as an (m, n) array of unit vectors, and whether one (n,) vector was given;
    ``ValueError`` for any other shape, a non-finite entry or a norm off 1 by more than 1e-12."""
    X = np.asarray(points, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != n:
        raise ValueError(f"points on S^{n - 1} need shape (m, {n}) or ({n},), got {X.shape}")
    if not np.isfinite(X).all():
        raise ValueError("points must be finite")
    if np.any(np.abs(np.linalg.norm(X, axis=-1) - 1.0) > 1e-12):
        raise ValueError("points must be unit vectors, to 1e-12")
    return np.atleast_2d(X), X.ndim == 1


def _row_products(coeffs, table) -> np.ndarray:
    """``coeffs`` dotted with ``table`` over its first axis, for one row of shape (basis,) or a stack
    (..., basis): ``np.matmul`` over the leading axes, one BLAS call per row with a lone row's shapes.

    So a row's values are the same in any stack; one 2-D product over all rows would block differently
    and move entries by rounding."""
    flat = table.reshape(len(table), -1)
    return np.matmul(coeffs[..., None, :], flat)[..., 0, :].reshape(coeffs.shape[:-1] + table.shape[1:])


def _frame_form(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """``Hess u(grad u, grad u) = g_1^2 H_11 + 2 g_1 g_2 H_12 + g_2^2 H_22`` from a frame
    gradient, shape (..., 2, m), and frame Hessian entries, shape (..., 3, m)."""
    (g1, g2), (h11, h12, h22) = np.moveaxis(grad, -2, 0), np.moveaxis(hess, -2, 0)
    return g1 * g1 * h11 + 2.0 * g1 * g2 * h12 + g2 * g2 * h22


def synthesize(field: HarmonicField, quad: SphereQuadrature | None = None, points=None):
    """Field values at the quadrature nodes, or at unit ``points``.

    ``points`` of shape (m, n) gives m values, a single (n,) vector one float.
    """
    b = _basis_for(field, quad)
    if points is None:
        return field.coeffs @ b.V
    X, single = _points(points, field.n)
    vals = field.coeffs @ b.values_at(X)
    return float(vals[0]) if single else vals


def analyze(values, n: int, degree: int, quad: SphereQuadrature) -> HarmonicField:
    """Project node values onto the basis up to ``degree`` by quadrature.

    Raises
    ------
    QuadratureError
        When ``quad`` has degree below ``2 * degree``: the products of basis
        functions would not be integrated exactly, and higher harmonics alias.
    """
    if quad.degree < 2 * degree:
        raise QuadratureError(
            f"projecting onto degree {degree} needs a rule of degree {2 * degree}, got {quad.degree}"
        )
    b = _basis(n, degree, quad)
    return HarmonicField(n=n, degree=degree, coeffs=b.analyze(np.asarray(values, dtype=float)))


def laplace_beltrami(field: HarmonicField) -> HarmonicField:
    """Apply the Laplace-Beltrami operator: coefficient k maps to -k(k+n-2)."""
    lam = _eigenvalues(field.n, field.degree)
    return HarmonicField(n=field.n, degree=field.degree, coeffs=-lam * field.coeffs)


def field_gradient(field: HarmonicField, quad: SphereQuadrature | None = None, points=None) -> np.ndarray:
    """Tangential gradient at every quadrature node, shape (nodes, n), or at unit ``points``.

    ``points`` of shape (m, n) gives an (m, n) array, a single (n,) vector one
    gradient of shape (n,).  The frame components ``g_1, g_2`` (the field's
    row of ``Fn`` at the nodes) times the frame vectors: ``g_1 e_theta + g_2 e_phi``
    on S^2, pole-regular, and ``g'(t) |a| (a / |a|) = g'(t) a`` for zonal fields,
    so it is orthogonal to its point.
    """
    b = _basis_for(field, quad)
    X, single = (b.quad.nodes, False) if points is None else _points(points, field.n)
    F = b.Fn if points is None else b.frame_gradients_at(X)
    g = np.tensordot(field.coeffs, F, axes=1)
    grad = sum(g_a[:, None] * e_a for g_a, e_a in zip(g, b.frame_at(X)))
    return grad[0] if single else grad


def hessian(field: HarmonicField, quad: SphereQuadrature | None = None, points=None) -> np.ndarray:
    """Covariant Hessian at every node, shape (nodes, n, n), or at unit ``points``.

    ``points`` of shape (m, n) gives an (m, n, n) array, a single (n,) vector
    one (n, n) matrix, symmetric and zero on the point's own direction: the frame
    entries in ambient coordinates, ``H_22 P + (H_11 - H_22) e_1 e_1^T +
    H_12 (e_1 e_2^T + e_2 e_1^T)`` with ``P = I - x x^T``.  A zonal frame names
    only ``e_1 = a / |a|``, across which ``H_12 = 0``.  The entries are the basis's
    frame Hessian table, closed forms for every degree on any rule.
    """
    b = _basis_for(field, quad)
    X, single = (b.quad.nodes, False) if points is None else _points(points, field.n)
    h11, h12, h22 = b.frame_hessian(field.coeffs, X)
    e1, *across = b.frame_at(X)
    H = h22[:, None, None] * (np.eye(field.n) - X[:, :, None] * X[:, None, :])
    H += (h11 - h22)[:, None, None] * e1[:, :, None] * e1[:, None, :]
    for e2 in across:
        H += h12[:, None, None] * (e1[:, :, None] * e2[:, None, :] + e2[:, :, None] * e1[:, None, :])
    return H[0] if single else H


def hessian_form(field: HarmonicField, quad: SphereQuadrature | None = None, points=None):
    """The cubic form Hess u(grad u, grad u) at every node, or at unit ``points``.

    It equals (1/2) <grad |grad u|^2, grad u>, read in the basis's frame.
    ``points`` follows :func:`field_gradient`: (m, n) gives m values, (n,) one float.
    """
    b = _basis_for(field, quad)
    X, single = (b.quad.nodes, False) if points is None else _points(points, field.n)
    F = b.Fn if points is None else b.frame_gradients_at(X)
    form = _frame_form(np.tensordot(field.coeffs, F, axes=1), b.frame_hessian(field.coeffs, X))
    return float(form[0]) if single else form


# The benchmark traces the node evaluation under this name.
hessian_form_at_nodes = hessian_form
