"""Planar star-shaped bodies in polar form and their weighted functionals.

A boundary is a positive 2pi-periodic radius ``rho(theta)`` stored as a
trigonometric polynomial, held as one complex spectrum ``c_0 = a_0``,
``c_k = (a_k - i b_k) / 2`` so that ``rho = Re(2 sum_k c_k e^{ik theta}) - c_0``.
Derivatives multiply the spectrum by ``(ik)^j`` and are exact for the stored
coefficients.  On a uniform grid, values and derivatives come from one
zero-padded inverse real FFT; at arbitrary angles, from one Horner recurrence
in ``z = e^{i theta}``.

Integrals in the angle use the uniform rule, which is spectrally accurate for
smooth periodic integrands.  Weighted areas are such sums too:
``phi(r) = (f(0) - f(r)) / r^2`` has ``div(x phi(|x|)) = w(|x|)``, so the area
is the flux ``int phi(|x|) (x y' - y x') dtheta``, which for a centred body is
``int (f(0) - f(rho)) dtheta``.  With the origin outside a translated body the
angle it sweeps closes to zero, so ``int -f(|x|) dphi`` gives the same area
without the ``f(0)`` term that cancels far away.

The centred functionals sum over each curve's quadrature rule: every
``rule_step``-th node of its grid, at least ``max(64, 16 degree)`` nodes, and
the whole grid from degree 64 on.  Everything that samples the grid rather
than integrating over it uses every node: the convexity certificate, the
radius bounds and the clearance of the origin, and the support-function
distance.  So do the sums about a translated centre, whose integrands the
curve's degree does not bound.

The centred-body functionals (weighted area, curvature energy, the
normal-deficiency integrals and the inverse-weight integral) act on grids of
shape ``(..., M)`` and reduce along the last axis.  A :class:`CurveStack`
holds curves of one degree and grid as rows of shape ``(curves, M)`` from
one inverse FFT, and a :class:`PolarCurve` is the stack of one, with grids
of shape ``(M,)``.  :func:`verify_two_sided` and :func:`boundary_inverse_weight`
take any stack, evaluate ``f``, ``f'`` and the slant once, and return one
report whose fields have the stack's row shape: floats for a curve, one
element per curve for a 2-D stack, each the curve's own value to the last bit.

The inequality machinery compares a convex or star-shaped body against the
centred disk with the same weighted area: the curvature energy of the disk
bounds that of the body from above, and the gap is squeezed between two
boundary integrals of the normal deficiency.  The disk of radius r has area
``2 pi (f(0) - f(r))`` and energy ``2 pi f(r)``, so the matched disk's energy
is ``2 pi f(0) - area``, which for a centred body is ``int f(rho) dtheta``;
the checks need no radius, and :func:`matched_radius` finds it where it is
wanted.

Distances to the centred disk ``D_r`` need no sampling for convex bodies:
``d_H(K, D_r) = max |h_K - r|`` over the support function ``h_K``, and the
support value at the outward normal of the boundary point at angle theta is
``rho^2 / sqrt(rho^2 + rho'^2)``, so the distance is one maximum over the
grid.  Curves that fail the grid convexity certificate, and pairs of general
star-shaped curves, use the sampled :func:`hausdorff_distance`: exact
point-to-segment distances found by a bounded search over an angular window
of each sample's ray, with no k-d tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
import numpy.fft  # noqa: F401  numpy loads it lazily; load it with the package, not inside a run

from .errors import ConvexityError, QuadratureError
from .weights import WeightPair

__all__ = [
    "PolarCurve",
    "CurveStack",
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
# A curve's quadrature rule has at least max(_RULE_MIN, _RULE_PER_DEGREE * degree) nodes.
_RULE_MIN = 64
_RULE_PER_DEGREE = 16
# Largest relative error estimate a translated weighted area may return.
AREA_RTOL = 1e-10
# The convexity certificate may dip to -_CONVEX_RTOL max rho^2 from rounding.
_CONVEX_RTOL = 1e-10


def _equal_columns(report, other):
    """``report == other`` for two reports of one type: every field equal, column by column, and a
    nested report by its own ``==``."""
    if not isinstance(other, type(report)):
        return NotImplemented
    pairs = ((getattr(report, f.name), getattr(other, f.name)) for f in fields(report))
    return all(a == b if isinstance(a, InequalityReport) else np.array_equal(a, b) for a, b in pairs)


@dataclass(frozen=True)
class InequalityReport:
    """Verified inequality instances: ``lhs <= rhs`` up to quadrature slack.

    The fields have the row shape of what was checked: Python floats for one
    curve or body, so that ``passed`` is a Python bool, and read-only 1-D
    arrays with one element per curve for a 2-D :class:`CurveStack`.  Two
    reports are equal when every field is, column by column.
    """

    lhs: float | np.ndarray
    rhs: float | np.ndarray
    quad_error: float | np.ndarray

    __eq__ = _equal_columns

    @property
    def margin(self):
        return self.rhs - self.lhs

    @property
    def passed(self):
        return self.margin >= -self.quad_error


def _report(lhs, rhs, quad_error) -> InequalityReport:
    """A report with a relative floor under ``quad_error``, of Python floats where the inputs are 0-d."""
    quad_error = np.maximum(quad_error, 1e-12 * (1.0 + np.abs(lhs) + np.abs(rhs)))
    if quad_error.ndim == 0:
        return InequalityReport(lhs=float(lhs), rhs=float(rhs), quad_error=float(quad_error))
    for column in (lhs, rhs, quad_error):
        column.setflags(write=False)
    return InequalityReport(lhs=lhs, rhs=rhs, quad_error=quad_error)


class TwoSided(NamedTuple):
    lower: InequalityReport
    upper: InequalityReport


class CurveStack:
    """Planar curves of one degree and grid, the twin of :class:`body.BodyStack`.

    Coefficients of shape ``(..., degree + 1)`` give the ``spectrum`` and the
    grids, of shape ``(..., grid_size)``, from one :func:`_on_grid` call: a
    2-D stack holds one curve per row, and a :class:`PolarCurve` is the stack
    of one whose arrays have no row axis.  Rows need not be star-shaped
    (``convex`` and the clearance gate reject them).  Immutable, so
    ``convex`` and ``on_rule`` are computed once.
    """

    def __init__(self, cos_coeffs, sin_coeffs=None, grid_size: int = DEFAULT_GRID):
        cos_c = np.array(cos_coeffs, dtype=float, ndmin=1)
        if not cos_c.size:
            raise ValueError("a stack needs at least one curve")
        self.degree, self.grid_size = cos_c.shape[-1] - 1, int(grid_size)
        sin_c = np.zeros_like(cos_c[..., 1:]) if sin_coeffs is None else np.array(sin_coeffs, dtype=float, ndmin=1)
        if sin_c.shape != cos_c[..., 1:].shape:
            raise ValueError("need one sine coefficient per positive frequency")
        if self.grid_size < 4 * max(self.degree, 1):
            raise ValueError("grid too coarse for the stored degree")
        self.cos_coeffs, self.sin_coeffs, self.rule_step = cos_c, sin_c, _rule_step(self.grid_size, self.degree)
        self.spectrum = np.concatenate([cos_c[..., :1], 0.5 * (cos_c[..., 1:] - 1j * sin_c)], axis=-1)
        self.rho, self.drho, self.ddrho = _on_grid(self.spectrum, self.grid_size, orders=3)
        for arr in (cos_c, sin_c, self.spectrum, self.rho, self.drho, self.ddrho):
            arr.setflags(write=False)

    @cached_property
    def convex(self) -> np.ndarray:
        """Whether each curve is convex about 0: positive radius, certificate above its floor, at every node."""
        return _convex(self.rho, self.drho, self.ddrho) & (np.min(self.rho, axis=-1) > 0.0)

    @cached_property
    def on_rule(self):
        """``rho``, ``rho'`` and ``rho''`` on the quadrature rule, every ``rule_step``-th grid node."""
        return [np.ascontiguousarray(g[..., :: self.rule_step]) for g in (self.rho, self.drho, self.ddrho)]


class PolarCurve(CurveStack):
    """A star-shaped planar boundary ``rho(theta)`` as a trigonometric polynomial: a stack of one.

    Its coefficients are one row, so ``spectrum`` and the grids of ``rho``
    and its first two spectral derivatives have no row axis, and the stacked
    checks read them as they are.  The radius must be positive at every grid
    node.  The centred functionals sum over :attr:`on_rule` (see
    :func:`_rule_step`).
    """

    def __init__(self, cos_coeffs, sin_coeffs=None, grid_size: int = DEFAULT_GRID):
        if np.ndim(cos_coeffs) != 1:
            raise ValueError("a curve's cosine coefficients form one row")
        super().__init__(cos_coeffs, sin_coeffs, grid_size)
        self._finish()

    @classmethod
    def from_row(cls, stack: CurveStack, row: int) -> "PolarCurve":
        """Row ``row`` of a 2-D stack as a curve whose arrays are that row's: no grid is synthesised again."""
        curve = cls.__new__(cls)
        curve.__dict__.update((name, getattr(stack, name)) for name in ("degree", "grid_size", "rule_step"))
        arrays = ("cos_coeffs", "sin_coeffs", "spectrum", "rho", "drho", "ddrho")
        curve.__dict__.update((name, getattr(stack, name)[row]) for name in arrays)
        curve._finish()
        return curve

    def _finish(self):
        if not np.min(self.rho) > 0.0:
            raise ValueError("radius must be positive: curve is not star-shaped about 0")
        self.theta = 2.0 * np.pi * np.arange(self.grid_size) / self.grid_size
        self.theta.setflags(write=False)

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

    def _at(self, theta, order: int):
        """Derivative ``order`` of ``rho`` at arbitrary angles by Horner in ``e^{i theta}``."""
        theta = np.asarray(theta, dtype=float)
        coeffs = self.spectrum * (1j * np.arange(self.degree + 1)) ** order
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

    def is_convex(self) -> bool:
        """The cached :attr:`convex` gate: the certificate clears its floor at every grid node."""
        return bool(self.convex)

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


def _on_grid(spectrum: np.ndarray, size: int, orders: int = 1) -> np.ndarray:
    """``rho`` and its first ``orders - 1`` derivatives on ``size`` uniform angles, shape ``(orders, ..., size)``.

    One zero-padded inverse real FFT of spectra of shape ``(..., degree + 1)``, a
    curve's or a stack of meridian sections'.  ``ValueError`` if ``size <= 2 * degree``,
    where the grid would alias the stored modes.
    """
    degree = spectrum.shape[-1] - 1
    if size <= 2 * degree:
        raise ValueError(f"{size} samples alias a degree-{degree} curve")
    ik = 1j * np.arange(degree + 1)
    rows = [spectrum]
    for _ in range(1, orders):
        rows.append(rows[-1] * ik)
    return size * np.fft.irfft(np.array(rows), n=size)


def _f_at(wp: WeightPair, r: float) -> float:
    """The boundary weight at one radius (evaluators take arrays)."""
    return float(wp.f(np.array([r]))[0])


def _rule_step(grid_size: int, degree: int) -> int:
    """Stride of a curve's quadrature rule in its grid.

    The largest power of two that divides ``grid_size`` and leaves at least
    ``max(64, 16 degree)`` nodes: 256 of 1024 at degree 12, all of them from
    degree 64 on.  :func:`_spectral_integral`'s tail estimate, part of every
    ``quad_error``, grows where a rule is too coarse for its integrand.
    """
    nodes = max(_RULE_MIN, _RULE_PER_DEGREE * degree)
    step = 1
    while grid_size % (2 * step) == 0 and grid_size // (2 * step) >= nodes:
        step *= 2
    return step


def _spectral_integral(values: np.ndarray):
    """Uniform-rule integrals over the period along the last axis, with tail-based error estimates."""
    size = values.shape[-1]
    total = 2.0 * np.pi * np.mean(values, axis=-1)
    # Only the tail modes' moduli: dividing by size after the max is exact, as division is monotone.
    modes = np.fft.rfft(values, axis=-1)[..., -max(size // 16, 4):]
    tail = np.max(np.abs(modes), axis=-1, initial=0.0) / size
    err = 4.0 * np.pi * tail + 1e-14 * (1.0 + np.abs(total))
    return total, err


def _certificate(rho, drho, ddrho):
    """Curvature numerator ``rho^2 + 2 rho'^2 - rho rho''`` of each grid."""
    return rho**2 + 2.0 * drho**2 - rho * ddrho


def _convex(rho, drho, ddrho):
    """Whether each grid's certificate clears the rounding floor."""
    floor = -_CONVEX_RTOL * np.max(rho, axis=-1) ** 2
    return np.min(_certificate(rho, drho, ddrho), axis=-1) >= floor


def curvature_at(curve: PolarCurve, theta):
    """Curvature of the boundary at angle(s) ``theta`` (positive on convex arcs)."""
    rho, d1 = curve.rho_at(theta), curve.drho_at(theta)
    return _certificate(rho, d1, curve.ddrho_at(theta)) / (rho**2 + d1**2) ** 1.5


def _radii_about(curve: PolarCurve, center):
    cx, cy = center
    x = curve.rho * np.cos(curve.theta) + cx
    y = curve.rho * np.sin(curve.theta) + cy
    return np.hypot(x, y)


def _centred_area(f0: float, f_rho):
    """Weighted areas ``int (f(0) - f(rho)) dtheta`` of centred bodies, with error estimates."""
    total, err = _spectral_integral(f0 - f_rho)
    # Rounding of the difference, which matters where f(0) dwarfs it.
    return total, err + 8.0 * np.pi * np.finfo(float).eps * abs(f0)


def _weighted_area(curve: PolarCurve, wp: WeightPair, center=None):
    f0 = _f_at(wp, 0.0)
    if center is None:
        return _centred_area(f0, wp.f(curve.on_rule[0]))
    cos_t, sin_t = np.cos(curve.theta), np.sin(curve.theta)
    x, y = curve.rho * cos_t + center[0], curve.rho * sin_t + center[1]
    dx, dy = curve.drho * cos_t - curve.rho * sin_t, curve.drho * sin_t + curve.rho * cos_t
    r2 = x * x + y * y
    # Angle swept about the origin; where the boundary meets it the integrand's limit is 0.
    sweep = np.divide(x * dy - y * dx, r2, out=np.zeros_like(r2), where=r2 > 0.0)
    f_x = wp.f(np.sqrt(r2))
    total, err = _spectral_integral((f0 - f_x) * sweep)
    # Rounding of f(0) - f(|x|), which the sweep amplifies near the origin.
    err += 2.0 * np.pi * np.finfo(float).eps * abs(f0) * float(np.mean(np.abs(sweep)))
    if not math.hypot(*center) < curve.rho_at(math.atan2(-center[1], -center[0])):
        # The origin is outside, so the sweep closes to zero and the f(0) term may be
        # dropped; far away that term only cancels.  Near the boundary it keeps the
        # integrand smooth, so the form with the smaller error estimate is kept.
        values = -f_x * sweep
        scale = float(np.max(np.abs(values)))
        if scale == 0.0:
            # f(|x|) underflows on the whole boundary: 0 is the correctly rounded area.
            far, far_err = 0.0, 0.0
        else:
            far, far_err = (scale * v for v in _spectral_integral(values / scale))
        if far_err < err:
            total, err = far, far_err
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
        the grid (``curve.refined(grid_size=...)`` helps).
    """
    return float(_weighted_area(curve, wp, center)[0])


def weighted_disk_area(wp: WeightPair, r: float) -> float:
    """Weighted area of the centred disk of radius ``r``: 2 pi (f(0) - f(r))."""
    return 2.0 * np.pi * (_f_at(wp, 0.0) - _f_at(wp, r))


# Matched disks of weights other than the Gaussian have radii in [0, _R_MAX].
_R_MAX = 1e3


def _matched_levels(area: np.ndarray, wp: WeightPair, f0: float) -> np.ndarray:
    """Boundary weights ``f(0) - area / (2 pi)`` of the centred disks with the weighted areas ``area``.

    Raises
    ------
    ValueError
        If an area is not positive, or no centred disk has it: it reaches
        the total Gaussian mass, or for other weights the disk would need a
        radius beyond ``_R_MAX``.
    """
    bad = area[~(area > 0.0)]
    if bad.size:
        raise ValueError(f"weighted area must be positive, got {bad[0]}")
    level = f0 - area / (2.0 * np.pi)
    if wp.is_gaussian:
        if np.any(level <= 0.0):
            raise ValueError("weighted area exceeds the total Gaussian mass")
    elif np.any(_f_at(wp, _R_MAX) >= level):
        raise ValueError("weighted area is out of the attainable range")
    return level


def _matched_disks(f_rho: np.ndarray, wp: WeightPair):
    """Energies of the centred disks matching centred bodies, with the areas' error estimates.

    ``f_rho`` holds the weight at each body's boundary radii.  The disk of
    radius r has area ``2 pi (f(0) - f(r))`` and energy ``2 pi f(r)``, so
    the disk matching the area ``int (f(0) - f(rho)) dtheta`` has energy
    ``2 pi f(0) - area = int f(rho) dtheta``.  That integral is summed
    directly: it needs no radius, and no subtraction cancels where
    ``f(rho)`` is small beside ``f(0)``.  The domain is that of
    :func:`matched_radius`.
    """
    f0 = _f_at(wp, 0.0)
    area, area_err = _centred_area(f0, f_rho)
    _matched_levels(area, wp, f0)
    return 2.0 * np.pi * np.mean(f_rho, axis=-1), area_err


def matched_radius(area: float, wp: WeightPair) -> float:
    """Radius of the centred disk with the given weighted area.

    The Gaussian pair inverts in closed form.  Otherwise the monotone
    ``f(r) = f(0) - area / (2 pi)`` is bisected on ``[0, _R_MAX]`` until the
    midpoint equals an endpoint; the upper endpoint, the first float where
    ``f`` reaches the level, is returned.
    """
    level = float(_matched_levels(np.array([area], dtype=float), wp, _f_at(wp, 0.0))[0])
    if wp.is_gaussian:
        return math.sqrt(-2.0 * math.log(level))
    # The bit patterns of non-negative floats are ordered as the floats are, so
    # bisecting them reaches adjacent floats in at most 63 halvings, keeping
    # f(lo) > level >= f(hi).
    lo, hi = 0, int(np.float64(_R_MAX).view(np.int64))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if wp.f(np.array([mid]).view(np.float64))[0] > level:
            lo = mid
        else:
            hi = mid
    return float(np.int64(hi).view(np.float64))


def _energy(rho, drho, ddrho, f_radii):
    """Curvature energies: the turning density of each grid times the weight at its radii."""
    return _spectral_integral(_certificate(rho, drho, ddrho) / (rho**2 + drho**2) * f_radii)


def _curvature_energy(curve: PolarCurve, wp: WeightPair, center=None):
    if center is None:
        rho, drho, ddrho = curve.on_rule
        return _energy(rho, drho, ddrho, wp.f(rho))
    return _energy(curve.rho, curve.drho, curve.ddrho, wp.f(_radii_about(curve, center)))


def curvature_energy(curve: PolarCurve, wp: WeightPair, center=None) -> float:
    """Boundary integral of curvature times ``f(|x|)``.

    In the angle variable the curvature and arc-length Jacobians collapse to
    the turning density, so the integrand is smooth even for nearly flat arcs.
    """
    return float(_curvature_energy(curve, wp, center)[0])


def disk_energy(wp: WeightPair, r: float) -> float:
    """Curvature energy of the centred disk of radius ``r``: 2 pi f(r)."""
    return 2.0 * np.pi * _f_at(wp, r)


def normal_deficiency(curve: PolarCurve, theta):
    """Misalignment ``|x| - <x, nu>^2 / |x|`` of the normal with the radial ray."""
    rho = curve.rho_at(theta)
    d1 = curve.drho_at(theta)
    return rho * d1**2 / (rho**2 + d1**2)


def _alpha_beta(rho, drho, f_rho, df_rho):
    slant = np.sqrt(rho**2 + drho**2)
    alpha, a_err = _spectral_integral(-drho**2 * df_rho / slant)
    beta, b_err = _spectral_integral(drho**2 * (f_rho - rho * df_rho) / (rho * slant))
    return alpha, beta, a_err, b_err


def alpha_beta(curve: PolarCurve, wp: WeightPair):
    """The two normal-deficiency integrals squeezing the energy gap.

    In boundary form these are the integrals of the normal deficiency times
    ``-f'(|x|)/|x|`` (lower bound) and ``(f(|x|) - |x| f'(|x|)) / |x|^2``
    (upper bound).  The lower integrand is dominated by the upper one
    pointwise, their difference being deficiency times ``f(|x|)/|x|^2``.
    """
    rho, drho, _ = curve.on_rule
    alpha, beta, _, _ = _alpha_beta(rho, drho, wp.f(rho), wp.df(rho))
    return float(alpha), float(beta)


def verify_two_sided(curves: CurveStack, wp: WeightPair) -> TwoSided:
    """Check that the disk-versus-body energy gap sits between alpha and beta, for each curve of a stack.

    Requires convex curves containing the origin; the matched disk's energy
    is ``2 pi f(0)`` less the weighted area of the curve, the boundary
    integral of ``f(rho)``.  Convexity is checked at every grid node and the
    sums run over the quadrature rule.  A :class:`PolarCurve` gets a report
    of floats; a 2-D stack gets columns, each row bit-identical to the
    report of that row as a curve.

    Raises
    ------
    ConvexityError
        If any curve's convexity certificate fails at any grid angle.
    """
    if not np.all(curves.convex):
        raise ConvexityError("two-sided bound needs a convex curve")
    rho, drho, ddrho = curves.on_rule
    f_rho = wp.f(rho)
    disk, area_err = _matched_disks(f_rho, wp)
    energy, e_err = _energy(rho, drho, ddrho, f_rho)
    gap = disk - energy
    alpha, beta, a_err, b_err = _alpha_beta(rho, drho, f_rho, wp.df(rho))
    gap_err = e_err + area_err
    return TwoSided(lower=_report(alpha, gap, a_err + gap_err), upper=_report(gap, beta, b_err + gap_err))


def boundary_inverse_weight(curves: CurveStack, wp: WeightPair) -> InequalityReport:
    """Check the boundary integral of ``f(|x|)/|x|`` against the matched disk, for each curve of a stack.

    Holds for any star-shaped curve with the origin strictly inside, convex
    or not; curves hugging the origin closer than the clearance, at any
    grid node, are rejected because the inequality genuinely degenerates
    there.  The sums run over the quadrature rule, and the report has the
    stack's row shape as in :func:`verify_two_sided`.
    """
    if not np.min(curves.rho) >= ORIGIN_CLEARANCE:
        raise ValueError("origin lies on the boundary within tolerance")
    rho, drho, _ = curves.on_rule
    f_rho = wp.f(rho)
    lhs, area_err = _matched_disks(f_rho, wp)
    rhs, rhs_err = _spectral_integral(f_rho / rho * np.sqrt(rho**2 + drho**2))
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
    rho = _on_grid(curve.spectrum, theta.size)[0]
    return np.column_stack([rho * np.cos(theta), rho * np.sin(theta)])


# Samples whose nearest segments are searched together by _directed_hausdorff.
_HAUSDORFF_BATCH = 8


def _directed_hausdorff(source: PolarCurve, target: PolarCurve, samples: int) -> float:
    theta = 2.0 * np.pi * np.arange(samples) / samples
    pts = _boundary_samples(source, theta)
    inside = np.hypot(pts[:, 0], pts[:, 1]) <= target.rho_at(np.arctan2(pts[:, 1], pts[:, 0]))
    if np.all(inside):
        return 0.0
    idx = np.flatnonzero(~inside)
    pts = pts[idx]
    verts = _boundary_samples(target, theta)
    # Segment j runs from vertex j to j + 1, so it spans the angles [theta_j, theta_j+1].  The
    # segments on either side of a point's ray and their neighbours bound its distance from above.
    upper = _segment_distances(pts, verts, idx[:, None] + np.arange(-2, 2))
    ratio = upper / np.hypot(pts[:, 0], pts[:, 1])
    half = np.where(ratio < 1.0, np.arcsin(np.minimum(ratio, 1.0)), np.pi)
    reach = np.ceil(half * samples / (2.0 * np.pi)).astype(int) + 1
    order = np.argsort(-upper, kind="stable")
    best = 0.0
    for start in range(0, order.size, _HAUSDORFF_BATCH):
        batch = order[start : start + _HAUSDORFF_BATCH]
        if upper[batch[0]] <= best:
            break
        width = min(2 * int(reach[batch].max()), samples)
        cand = (idx[batch] - reach[batch])[:, None] + np.arange(width)
        best = max(best, float(np.max(_segment_distances(pts[batch], verts, cand))))
    return best


def hausdorff_distance(c1: PolarCurve, c2: PolarCurve, samples: int = 4096) -> float:
    """Hausdorff distance between the two closed star-shaped regions.

    The farthest point of one region from the other lies on its boundary
    (distance to a star-shaped set is non-decreasing along rays), so dense
    boundary sampling with exact point-to-segment distances is enough.

    The search is exact and bounded.  A sample ``p`` outside the other region
    is at most ``u_p`` from it, its distance to the segments on either side
    of its ray and their neighbours, so its nearest boundary point lies
    within ``asin(u_p / |p|)`` of that ray (anywhere if ``u_p >= |p|``) and
    only the segments in that window are searched.  Samples are visited in
    decreasing ``u_p``, eight at a time, until the next ``u_p`` is no larger
    than the largest distance found.

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
