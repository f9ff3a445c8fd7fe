"""Planar star-shaped bodies in polar form and their weighted functionals.

A boundary is a positive 2pi-periodic radius ``rho(theta)`` stored as a
trigonometric polynomial, held as one complex spectrum ``c_0 = a_0``,
``c_k = (a_k - i b_k) / 2`` so that ``rho = Re(2 sum_k c_k e^{ik theta}) - c_0``.
Derivatives multiply the spectrum by ``(ik)^j`` and are exact for the stored
coefficients.  On a uniform grid, values and derivatives come from one
zero-padded inverse real FFT; at arbitrary angles, from one Horner recurrence
in ``z = e^{i theta}``.

All integrals in the angle use the uniform rule on the cached grid, which is
spectrally accurate for smooth periodic integrands.  Weighted areas are such
sums too: ``phi(r) = (f(0) - f(r)) / r^2`` has ``div(x phi(|x|)) = w(|x|)``,
so the area is the flux ``int phi(|x|) (x y' - y x') dtheta``, which for a
centred body is ``int (f(0) - f(rho)) dtheta``.

The inequality machinery compares a convex or star-shaped body against the
centred disk with the same weighted area: the curvature energy of the disk
bounds that of the body from above, and the gap is squeezed between two
boundary integrals of the normal deficiency.

Distances to the centred disk ``D_r`` need no sampling for convex bodies:
``d_H(K, D_r) = max |h_K - r|`` over the support function ``h_K``, and the
support value at the outward normal of the boundary point at angle theta is
``rho^2 / sqrt(rho^2 + rho'^2)``, so the distance is one maximum over the
grid.  Curves that fail the grid convexity certificate, and pairs of general
star-shaped curves, use the sampled :func:`hausdorff_distance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.spatial import cKDTree

from .errors import ConvexityError, QuadratureError
from .weights import WeightPair

__all__ = [
    "PolarCurve",
    "InequalityReport",
    "TwoSided",
    "curvature_at",
    "weighted_area",
    "weighted_disk_area",
    "matched_radius",
    "curvature_energy",
    "disk_energy",
    "normal_deficiency",
    "alpha_beta",
    "verify_two_sided",
    "boundary_inverse_weight",
    "hausdorff_distance",
    "lemma_gradient_bound",
    "stability_ratio",
]

DEFAULT_DEGREE = 64
DEFAULT_GRID = 1024
ORIGIN_CLEARANCE = 1e-6
# Largest relative error estimate a translated weighted area may return.
AREA_RTOL = 1e-10
# The convexity certificate may dip to -_CONVEX_RTOL max rho^2 from rounding.
_CONVEX_RTOL = 1e-10


@dataclass(frozen=True)
class InequalityReport:
    """One verified inequality instance: ``lhs <= rhs`` up to quadrature slack."""

    lhs: float
    rhs: float
    quad_error: float

    @property
    def margin(self) -> float:
        return self.rhs - self.lhs

    @property
    def passed(self) -> bool:
        return self.margin >= -self.quad_error


def _report(lhs: float, rhs: float, quad_error: float) -> InequalityReport:
    floor = 1e-12 * (1.0 + abs(lhs) + abs(rhs))
    return InequalityReport(lhs=float(lhs), rhs=float(rhs), quad_error=max(quad_error, floor))


class TwoSided(NamedTuple):
    lower: InequalityReport
    upper: InequalityReport


class PolarCurve:
    """A star-shaped planar boundary ``rho(theta)`` as a trigonometric polynomial.

    Immutable after construction.  The coefficients are also held as one
    complex ``spectrum``; the uniform grid caches ``rho`` and its first two
    spectral derivatives.
    """

    def __init__(self, cos_coeffs, sin_coeffs=None, grid_size: int = DEFAULT_GRID):
        cos_c = np.atleast_1d(np.array(cos_coeffs, dtype=float))
        if sin_coeffs is None:
            sin_coeffs = np.zeros(max(cos_c.size - 1, 0))
        sin_c = np.atleast_1d(np.array(sin_coeffs, dtype=float))
        if sin_c.size != cos_c.size - 1:
            raise ValueError("need one sine coefficient per positive frequency")
        self.cos_coeffs = cos_c
        self.sin_coeffs = sin_c
        self.degree = cos_c.size - 1
        self.grid_size = int(grid_size)
        if self.grid_size < 4 * max(self.degree, 1):
            raise ValueError("grid too coarse for the stored degree")
        self.spectrum = np.concatenate([cos_c[:1], 0.5 * (cos_c[1:] - 1j * sin_c)])
        self.theta = 2.0 * np.pi * np.arange(self.grid_size) / self.grid_size
        self.rho, self.drho, self.ddrho = self._on_grid(self.grid_size, orders=3)
        if np.min(self.rho) <= 0.0:
            raise ValueError("radius must be positive: curve is not star-shaped about 0")
        for arr in (self.cos_coeffs, self.sin_coeffs, self.spectrum, self.theta, self.rho, self.drho, self.ddrho):
            arr.setflags(write=False)

    @classmethod
    def from_function(cls, fn, degree: int = DEFAULT_DEGREE, grid_size: int = DEFAULT_GRID):
        """Project a positive 2pi-periodic callable onto the trig basis by FFT."""
        theta = 2.0 * np.pi * np.arange(grid_size) / grid_size
        vals = np.asarray(fn(theta), dtype=float)
        spec = np.fft.rfft(vals)[: degree + 1] / grid_size
        cos_c = np.concatenate([spec[:1].real, 2.0 * spec[1:].real])
        return cls(cos_c, -2.0 * spec[1:].imag, grid_size=grid_size)

    @classmethod
    def circle(cls, radius: float, grid_size: int = DEFAULT_GRID):
        return cls([radius], [], grid_size=grid_size)

    @classmethod
    def ellipse(cls, a: float, b: float, degree: int = DEFAULT_DEGREE, grid_size: int = DEFAULT_GRID):
        """Ellipse with semi-axes a (along theta = 0) and b."""

        def fn(theta):
            return a * b / np.sqrt((b * np.cos(theta)) ** 2 + (a * np.sin(theta)) ** 2)

        return cls.from_function(fn, degree=degree, grid_size=grid_size)

    def _derivative_spectra(self, orders: int) -> np.ndarray:
        """Spectra of ``rho, rho', ...`` (``orders`` of them), one row each."""
        ik = 1j * np.arange(self.degree + 1)
        rows = [self.spectrum]
        for _ in range(1, orders):
            rows.append(rows[-1] * ik)
        return np.array(rows)

    def _on_grid(self, size: int, orders: int = 1) -> np.ndarray:
        """``rho`` and its first ``orders - 1`` derivatives on ``size`` uniform angles.

        One zero-padded inverse real FFT; the result has shape (orders, size).

        Raises
        ------
        ValueError
            If ``size <= 2 * degree``: the grid would alias the stored modes.
        """
        if size <= 2 * self.degree:
            raise ValueError(f"{size} samples alias a degree-{self.degree} curve")
        return size * np.fft.irfft(self._derivative_spectra(orders), n=size)

    def _at(self, theta, order: int):
        """Derivative ``order`` of ``rho`` at arbitrary angles by Horner in ``e^{i theta}``."""
        theta = np.asarray(theta, dtype=float)
        coeffs = self._derivative_spectra(order + 1)[order]
        z = np.exp(1j * theta)
        acc = np.full(theta.shape, coeffs[-1])
        for c in coeffs[-2::-1]:
            acc = acc * z + c
        return 2.0 * acc.real - coeffs[0].real

    def rho_at(self, theta):
        return self._at(theta, 0)

    def drho_at(self, theta):
        return self._at(theta, 1)

    def ddrho_at(self, theta):
        return self._at(theta, 2)

    def points(self, theta=None):
        if theta is None:
            theta, rho = self.theta, self.rho
        else:
            theta = np.asarray(theta, dtype=float)
            rho = self.rho_at(theta)
        return np.column_stack([rho * np.cos(theta), rho * np.sin(theta)])

    @property
    def convexity_certificate(self) -> np.ndarray:
        """Curvature numerator ``rho^2 + 2 rho'^2 - rho rho''`` on the grid."""
        return self.rho**2 + 2.0 * self.drho**2 - self.rho * self.ddrho

    def is_convex(self) -> bool:
        return float(np.min(self.convexity_certificate)) >= -_CONVEX_RTOL * float(np.max(self.rho)) ** 2

    @property
    def min_radius(self) -> float:
        return float(np.min(self.rho))

    @property
    def max_radius(self) -> float:
        return float(np.max(self.rho))

    def scaled(self, factor: float) -> "PolarCurve":
        return PolarCurve(factor * self.cos_coeffs, factor * self.sin_coeffs, self.grid_size)

    def refined(self, degree: int | None = None, grid_size: int | None = None) -> "PolarCurve":
        """Same function, re-evaluated with more modes and a denser grid."""
        degree = self.degree if degree is None else degree
        if degree < self.degree:
            raise ValueError("refinement cannot drop stored modes")
        pad = (0, degree - self.degree)
        return PolarCurve(np.pad(self.cos_coeffs, pad), np.pad(self.sin_coeffs, pad), grid_size or self.grid_size)

    def to_text(self) -> str:
        lines = [
            str(self.degree),
            " ".join(repr(float(c)) for c in self.cos_coeffs),
            " ".join(repr(float(c)) for c in self.sin_coeffs),
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "PolarCurve":
        """Inverse of :meth:`to_text`; raises ``ValueError`` on malformed text."""
        lines = text.splitlines()
        if len(lines) < 2:
            missing = "cosine-coefficient" if lines else "degree"
            raise ValueError(f"curve text has no {missing} line")
        degree = int(lines[0].strip())
        cos_c = np.array([float(t) for t in lines[1].split()])
        sin_c = np.array([float(t) for t in lines[2].split()]) if len(lines) > 2 else np.zeros(0)
        if cos_c.size != degree + 1 or sin_c.size != degree:
            raise ValueError("coefficient counts do not match the stated degree")
        return cls(cos_c, sin_c)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "PolarCurve":
        with open(path) as fh:
            return cls.from_text(fh.read())


def _f_at(wp: WeightPair, r: float) -> float:
    """The boundary weight at one radius (evaluators take arrays)."""
    return float(wp.f(np.array([r]))[0])


def _spectral_integral(values: np.ndarray):
    """Uniform-rule integral over the period with a tail-based error estimate."""
    total = 2.0 * np.pi * float(np.mean(values))
    spec = np.abs(np.fft.rfft(values)) / values.size
    tail = float(np.max(spec[-max(values.size // 16, 4):], initial=0.0))
    err = 4.0 * np.pi * tail + 1e-14 * (1.0 + abs(total))
    return total, err


def curvature_at(curve: PolarCurve, theta):
    """Curvature of the boundary at angle(s) ``theta`` (positive on convex arcs)."""
    rho = curve.rho_at(theta)
    d1 = curve.drho_at(theta)
    d2 = curve.ddrho_at(theta)
    return (rho**2 + 2.0 * d1**2 - rho * d2) / (rho**2 + d1**2) ** 1.5


def _radii_about(curve: PolarCurve, center):
    cx, cy = center
    x = curve.rho * np.cos(curve.theta) + cx
    y = curve.rho * np.sin(curve.theta) + cy
    return np.hypot(x, y)


def _weighted_area(curve: PolarCurve, wp: WeightPair, center=None):
    f0 = _f_at(wp, 0.0)
    if center is None:
        total, err = _spectral_integral(f0 - wp.f(curve.rho))
        # Rounding of the difference, which matters where f(0) dwarfs it.
        return total, err + 8.0 * np.pi * np.finfo(float).eps * abs(f0)
    cos_t, sin_t = np.cos(curve.theta), np.sin(curve.theta)
    x, y = curve.rho * cos_t + center[0], curve.rho * sin_t + center[1]
    dx, dy = curve.drho * cos_t - curve.rho * sin_t, curve.drho * sin_t + curve.rho * cos_t
    r2 = x * x + y * y
    # Angle swept about the origin; where the boundary meets it the integrand's limit is 0.
    sweep = np.divide(x * dy - y * dx, r2, out=np.zeros_like(r2), where=r2 > 0.0)
    total, err = _spectral_integral((f0 - wp.f(np.sqrt(r2))) * sweep)
    # Rounding of f(0) - f(|x|), which the sweep amplifies near the origin.
    err += 2.0 * np.pi * np.finfo(float).eps * abs(f0) * float(np.mean(np.abs(sweep)))
    if not err <= AREA_RTOL * abs(total):
        raise QuadratureError(f"translated weighted area error {err:.2g} exceeds {AREA_RTOL:g} relative")
    return total, err


def weighted_area(curve: PolarCurve, wp: WeightPair, center=None) -> float:
    """Weighted area of the region, optionally translated by ``center``.

    Raises
    ------
    QuadratureError
        If a ``center``, even ``(0, 0)``, gives a relative error estimate
        above ``AREA_RTOL``: the boundary passes too close to the origin for
        the grid (``curve.refined(grid_size=...)`` helps), or a distant
        body's area cancels against ``f(0)``.
    """
    return _weighted_area(curve, wp, center)[0]


def weighted_disk_area(wp: WeightPair, r: float) -> float:
    """Weighted area of the centred disk of radius ``r``: 2 pi (f(0) - f(r))."""
    return 2.0 * np.pi * (_f_at(wp, 0.0) - _f_at(wp, r))


def matched_radius(area: float, wp: WeightPair) -> float:
    """Radius of the centred disk with the given weighted area.

    The Gaussian pair inverts in closed form; otherwise the monotone
    ``f(r) = f(0) - area / (2 pi)`` is solved by bracketed root finding.
    """
    if area <= 0.0:
        raise ValueError(f"weighted area must be positive, got {area}")
    if wp.is_gaussian:
        arg = 1.0 - area / (2.0 * np.pi)
        if arg <= 0.0:
            raise ValueError("weighted area exceeds the total Gaussian mass")
        return math.sqrt(-2.0 * math.log(arg))
    r_max = 1e3
    level = _f_at(wp, 0.0) - area / (2.0 * np.pi)
    if _f_at(wp, r_max) >= level:
        raise ValueError("weighted area is out of the attainable range")
    return brentq(
        lambda r: _f_at(wp, r) - level, 0.0, r_max, xtol=1e-14, rtol=8.9e-16
    )


def _curvature_energy(curve: PolarCurve, wp: WeightPair, center=None):
    radii = curve.rho if center is None else _radii_about(curve, center)
    turning = curve.convexity_certificate / (curve.rho**2 + curve.drho**2)
    return _spectral_integral(turning * wp.f(radii))


def curvature_energy(curve: PolarCurve, wp: WeightPair, center=None) -> float:
    """Boundary integral of curvature times ``f(|x|)``.

    In the angle variable the curvature and arc-length Jacobians collapse to
    the turning density, so the integrand is smooth even for nearly flat arcs.
    """
    return _curvature_energy(curve, wp, center)[0]


def disk_energy(wp: WeightPair, r: float) -> float:
    """Curvature energy of the centred disk of radius ``r``: 2 pi f(r)."""
    return 2.0 * np.pi * _f_at(wp, r)


def normal_deficiency(curve: PolarCurve, theta):
    """Misalignment ``|x| - <x, nu>^2 / |x|`` of the normal with the radial ray."""
    rho = curve.rho_at(theta)
    d1 = curve.drho_at(theta)
    return rho * d1**2 / (rho**2 + d1**2)


def _alpha_beta(curve: PolarCurve, wp: WeightPair):
    rho, d1 = curve.rho, curve.drho
    slant = np.sqrt(rho**2 + d1**2)
    fp = wp.df(rho)
    alpha, a_err = _spectral_integral(-d1**2 * fp / slant)
    beta, b_err = _spectral_integral(d1**2 * (wp.f(rho) - rho * fp) / (rho * slant))
    return alpha, beta, a_err, b_err


def alpha_beta(curve: PolarCurve, wp: WeightPair):
    """The two normal-deficiency integrals squeezing the energy gap.

    In boundary form these are the integrals of the normal deficiency times
    ``-f'(|x|)/|x|`` (lower bound) and ``(f(|x|) - |x| f'(|x|)) / |x|^2``
    (upper bound).  The lower integrand is dominated by the upper one
    pointwise, their difference being deficiency times ``f(|x|)/|x|^2``.
    """
    alpha, beta, _, _ = _alpha_beta(curve, wp)
    return alpha, beta


def verify_two_sided(curve: PolarCurve, wp: WeightPair) -> TwoSided:
    """Check that the disk-versus-body energy gap sits between alpha and beta.

    Requires a convex curve containing the origin; the matched disk radius is
    derived from the weighted area of the curve.

    Raises
    ------
    ConvexityError
        If the convexity certificate fails at any grid angle.
    """
    if not curve.is_convex():
        raise ConvexityError("two-sided bound needs a convex curve")
    area, area_err = _weighted_area(curve, wp)
    r = matched_radius(area, wp)
    energy, e_err = _curvature_energy(curve, wp)
    gap = disk_energy(wp, r) - energy
    alpha, beta, a_err, b_err = _alpha_beta(curve, wp)
    gap_err = e_err + area_err
    return TwoSided(
        lower=_report(alpha, gap, a_err + gap_err),
        upper=_report(gap, beta, b_err + gap_err),
    )


def boundary_inverse_weight(curve: PolarCurve, wp: WeightPair) -> InequalityReport:
    """Check the boundary integral of ``f(|x|)/|x|`` against the matched disk.

    Holds for any star-shaped curve with the origin strictly inside, convex
    or not; curves hugging the origin closer than the clearance are rejected
    because the inequality genuinely degenerates there.
    """
    if curve.min_radius < ORIGIN_CLEARANCE:
        raise ValueError("origin lies on the boundary within tolerance")
    area, area_err = _weighted_area(curve, wp)
    r = matched_radius(area, wp)
    lhs = disk_energy(wp, r)
    slant = np.sqrt(curve.rho**2 + curve.drho**2)
    rhs, rhs_err = _spectral_integral(wp.f(curve.rho) / curve.rho * slant)
    return _report(lhs, rhs, rhs_err + area_err)


def _segment_distances(points: np.ndarray, verts: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Exact point-to-segment distances for candidate segment indices."""
    nseg = verts.shape[0]
    a = verts[cand % nseg]
    b = verts[(cand + 1) % nseg]
    ab = b - a
    ap = points[:, None, :] - a
    denom = np.einsum("pki,pki->pk", ab, ab)
    tpar = np.clip(np.einsum("pki,pki->pk", ap, ab) / np.maximum(denom, 1e-300), 0.0, 1.0)
    closest = a + tpar[:, :, None] * ab
    d = np.linalg.norm(points[:, None, :] - closest, axis=2)
    return d.min(axis=1)


def _boundary_samples(curve: PolarCurve, theta: np.ndarray) -> np.ndarray:
    rho = curve._on_grid(theta.size)[0]
    return np.column_stack([rho * np.cos(theta), rho * np.sin(theta)])


def _directed_hausdorff(source: PolarCurve, target: PolarCurve, samples: int) -> float:
    theta = 2.0 * np.pi * np.arange(samples) / samples
    pts = _boundary_samples(source, theta)
    inside = np.hypot(pts[:, 0], pts[:, 1]) <= target.rho_at(np.arctan2(pts[:, 1], pts[:, 0]))
    if np.all(inside):
        return 0.0
    pts = pts[~inside]
    verts = _boundary_samples(target, theta)
    tree = cKDTree(verts)
    _, idx = tree.query(pts, k=4)
    # Segments on either side of each nearest vertex; duplicates are harmless.
    cand = np.concatenate([idx - 1, idx], axis=1) % samples
    return float(np.max(_segment_distances(pts, verts, cand)))


def hausdorff_distance(c1: PolarCurve, c2: PolarCurve, samples: int = 4096) -> float:
    """Hausdorff distance between the two closed star-shaped regions.

    The farthest point of one region from the other lies on its boundary
    (distance to a star-shaped set is non-decreasing along rays), so dense
    boundary sampling with exact point-to-segment distances is enough.

    Raises
    ------
    ValueError
        If ``samples <= 2 * degree`` for either curve, which would alias it.
    """
    return max(
        _directed_hausdorff(c1, c2, samples), _directed_hausdorff(c2, c1, samples)
    )


def lemma_gradient_bound(curve: PolarCurve) -> InequalityReport:
    """Gradient bound for convex bodies pinched near the unit circle.

    With ``delta = max |rho - 1|`` the maximal slope obeys
    ``max |rho'| <= 2 sqrt(delta) (1 + delta) / (1 - delta)``; callers should
    rescale by the matched disk radius first so that ``rho`` lives in (0, 2).
    """
    if not curve.is_convex():
        raise ConvexityError("gradient bound applies to convex curves only")
    if curve.max_radius >= 2.0 or curve.min_radius <= 0.0:
        raise ValueError("curve must satisfy 0 < rho < 2; rescale first")
    delta = float(np.max(np.abs(curve.rho - 1.0)))
    if delta >= 1.0:
        raise ValueError("radial oscillation must stay below 1")
    lhs = float(np.max(np.abs(curve.drho)))
    rhs = 2.0 * math.sqrt(delta) * (1.0 + delta) / (1.0 - delta)
    return _report(lhs, rhs, 1e-9 * (1.0 + lhs))


def _distance_to_disk(curve: PolarCurve, r: float) -> float:
    """Hausdorff distance from the region of ``curve`` to the centred disk of radius ``r``."""
    if curve.is_convex():
        support = curve.rho**2 / np.sqrt(curve.rho**2 + curve.drho**2)
        return float(np.max(np.abs(support - r)))
    return hausdorff_distance(curve, PolarCurve.circle(r))


def stability_ratio(family: Sequence[PolarCurve], wp: WeightPair, r: float):
    """Gap-to-distance ratios for a family shrinking onto the disk of radius ``r``.

    The distance of a convex member is ``max |h_K - r|``, its support
    function's deviation from the disk's, read off its grid as
    ``rho^2 / sqrt(rho^2 + rho'^2)`` (the support value at the outward normal
    of the boundary point at angle theta).  Members that fail
    :meth:`PolarCurve.is_convex` keep the sampled :func:`hausdorff_distance`.
    The degenerate member equal to the disk reports 0.
    """
    target = disk_energy(wp, r)
    ratios = []
    for curve in family:
        gap = abs(curvature_energy(curve, wp) - target)
        dist = _distance_to_disk(curve, r)
        ratios.append(0.0 if dist < 1e-12 else gap / dist)
    return ratios
