"""Headline computations, packaged as reproducible experiments.

Four families: the three-dimensional cylinder whose curvature energy beats
the volume-matched ball at small radii (capped and uncapped), measured
second variations of the energy around the ball under a Gaussian volume
constraint, bisection scans for the radius where a pure even mode changes
the sign of its quadratic gap, and the flux-calibration inequality checks
for convex bodies with bounded curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

from . import body as bd
from . import sphere
from .errors import ConvexityError, QuadratureError
from .plane import InequalityReport, _report
from .weights import psi

__all__ = [
    "CylinderSpec",
    "VariationReport",
    "CalibrationResult",
    "cylinder_volume",
    "cylinder_energy",
    "matched_cylinder_radius",
    "counterexample_gap",
    "capped_cylinder",
    "CappedCylinder",
    "quadratic_coefficient",
    "algebraic_threshold",
    "statement_threshold",
    "measure_second_variation",
    "threshold_scan",
    "calibration_check",
    "mean_zero_leakage",
]

EPSILON_FLOOR = 1e-4
EPSILON_CAP = 1e-2
SCAN_VOLUME_FLOOR = 1e-5


@dataclass(frozen=True)
class CylinderSpec:
    """A round cylinder of cross-section radius ``s``; ``half_height`` None means infinite."""

    s: float
    half_height: float | None = None

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("cross-section radius must be positive")
        if self.half_height is not None and self.half_height < self.s:
            raise ValueError("caps need half_height >= s")


def cylinder_volume(s: float) -> float:
    """Gaussian volume of the infinite cylinder of radius ``s`` in R^3."""
    if s <= 0:
        raise ValueError("cross-section radius must be positive")
    return -math.expm1(-0.5 * s * s)


def cylinder_energy(s: float) -> float:
    """Curvature energy of the infinite cylinder: (2 pi)^(3/2) exp(-s^2/2)."""
    if s <= 0:
        raise ValueError("cross-section radius must be positive")
    return (2.0 * math.pi) ** 1.5 * math.exp(-0.5 * s * s)


def matched_cylinder_radius(r: float) -> float:
    """Cross-section radius ``s(r)`` with the Gaussian volume of the ball ``B_r``."""
    if r <= 0:
        raise ValueError("ball radius must be positive")
    vol = bd.ball_gaussian_volume(3, r)
    if vol >= 1.0:
        # The matching volume saturates double precision near one.
        raise ValueError(f"ball radius {r} leaves no solvable cylinder radius")
    return math.sqrt(-2.0 * math.log1p(-vol))


def counterexample_gap(r: float) -> float:
    """Energy excess of the volume-matched cylinder over the ball ``B_r``."""
    s = matched_cylinder_radius(r)
    return cylinder_energy(s) - bd.ball_energy(3, r)


class CappedCylinder(NamedTuple):
    volume: float
    energy: float
    volume_error: float
    energy_error: float


def _quad(fn, a, b, points=None):
    val, err = quad(fn, a, b, epsabs=1e-14, epsrel=1e-12, limit=300, points=points)
    return val, err


def capped_cylinder(spec: CylinderSpec) -> CappedCylinder:
    """Gaussian volume and curvature energy of a cylinder with hemispherical caps.

    The lateral wall has curvature ``1/s`` and the caps ``2/s``; both pieces
    are integrated by product quadrature over their compact surfaces.  The
    infinite case falls back to the closed forms.
    """
    s = spec.s
    if spec.half_height is None:
        return CappedCylinder(cylinder_volume(s), cylinder_energy(s), 0.0, 0.0)
    T = spec.half_height
    disk_mass = -math.expm1(-0.5 * s * s)
    inv_root = 1.0 / math.sqrt(2.0 * math.pi)

    lat_vol, lv_err = _quad(
        lambda z: inv_root * math.exp(-0.5 * z * z) * disk_mass, -T, T, points=[0.0]
    )
    cap_vol, cv_err = _quad(
        lambda z: inv_root
        * math.exp(-0.5 * z * z)
        * -math.expm1(-0.5 * (s * s - (z - T) ** 2)),
        T,
        T + s,
    )
    volume = lat_vol + 2.0 * cap_vol

    lat_en, le_err = _quad(
        lambda z: 2.0 * math.pi * math.exp(-0.5 * (s * s + z * z)), -T, T, points=[0.0]
    )
    cap_en, ce_err = _quad(
        lambda phi: 4.0
        * math.pi
        * s
        * math.sin(phi)
        * math.exp(-0.5 * ((s * math.sin(phi)) ** 2 + (T + s * math.cos(phi)) ** 2)),
        0.0,
        0.5 * math.pi,
    )
    energy = lat_en + 2.0 * cap_en
    return CappedCylinder(
        volume=volume,
        energy=energy,
        volume_error=lv_err + 2.0 * cv_err,
        energy_error=le_err + 2.0 * ce_err,
    )


def quadratic_coefficient(n: int, r: float, k: int) -> float:
    """Quadratic gap per unit squared amplitude of a pure volume-matched mode ``k``.

    Positive values mean perturbing grows the energy (the ball is a local
    minimiser in that mode); negative values mean the ball is a local
    maximiser.
    """
    if k < 2 or k % 2:
        raise ValueError("mode must be even and at least 2")
    lam = k * (k + n - 2)
    return r ** (n - 2) * math.exp(-0.5 * r * r) * ((n - 2 - r * r) * lam - (n - 1) * (n - 2))


def algebraic_threshold(n: int, k: int) -> float:
    """Squared radius where :func:`quadratic_coefficient` changes sign."""
    lam = k * (k + n - 2)
    return (n - 2) - (n - 1) * (n - 2) / lam


def statement_threshold(n: int) -> float:
    """The alternative constant (n-2)(n-1)/(2n), reported for comparison."""
    return (n - 2) * (n - 1) / (2.0 * n)


@dataclass(frozen=True)
class VariationReport:
    """Measured versus predicted quadratic energy gap for one mode."""

    n: int
    r: float
    k: int
    epsilon: float
    measured_gap: float
    predicted_quadratic: float
    relative_error: float
    measured_coefficient: float
    raw_gaps: tuple


def _mode_field(n: int, k: int, amplitude: float) -> sphere.HarmonicField:
    return sphere.HarmonicField.single_mode(n, k, amplitude, degree=max(k, 8))


def _experiment_quadrature(n: int, k: int):
    return sphere.default_quadrature(n, max(k, 8))


def measure_second_variation(n: int, r: float, k: int, epsilon: float = 1e-3) -> VariationReport:
    """Measure the quadratic energy gap of a pure even mode around the ball.

    The body ``r (1 + eps y_k)`` is volume-matched to the ball by dilation
    and the gap is measured at eps, eps/2, eps/4; two Richardson levels strip
    the cubic Hessian contribution.

    Raises
    ------
    QuadratureError
        If the two extrapolation levels disagree beyond the quadratic scale,
        which signals that ``epsilon`` is outside the asymptotic regime.
    """
    if k < 2 or k % 2:
        raise ValueError("mode must be even and at least 2")
    if epsilon < 4.0 * EPSILON_FLOOR or epsilon > EPSILON_CAP:
        # The smallest Richardson level is epsilon/4 and must clear the noise floor.
        raise ValueError(f"epsilon must lie in [{4 * EPSILON_FLOOR}, {EPSILON_CAP}]")
    quad_rule = _experiment_quadrature(n, k)
    ball = bd.RadialGraph(n, r, None, quad=quad_rule)
    target, ball_energy = bd.gaussian_volume(ball), bd.curvature_energy_nd(ball)

    def matched_gap(eps: float) -> float:
        raw = bd.RadialGraph(n, r, _mode_field(n, k, eps), quad=quad_rule)
        return bd.curvature_energy_nd(bd.volume_match(raw, target)) - ball_energy

    eps_levels = (epsilon, epsilon / 2.0, epsilon / 4.0)
    gaps = tuple(matched_gap(e) for e in eps_levels)
    q = [g / e**2 for g, e in zip(gaps, eps_levels)]
    lvl1 = 2.0 * q[1] - q[0]
    lvl2 = 2.0 * q[2] - q[1]
    coeff = (4.0 * lvl2 - lvl1) / 3.0
    scale = r ** (n - 2) * math.exp(-0.5 * r * r) * (k * (k + n - 2) + n * n)
    if abs(lvl2 - lvl1) > 0.25 * max(abs(lvl1), abs(lvl2)) + 1e-3 * scale:
        raise QuadratureError(
            f"Richardson levels disagree: {lvl1:g} vs {lvl2:g} at epsilon={epsilon:g}"
        )
    predicted_coeff = quadratic_coefficient(n, r, k)
    measured = coeff * epsilon**2
    predicted = predicted_coeff * epsilon**2
    rel = abs(measured - predicted) / max(abs(predicted), 1e-300)
    return VariationReport(
        n=n,
        r=r,
        k=k,
        epsilon=epsilon,
        measured_gap=measured,
        predicted_quadratic=predicted,
        relative_error=rel,
        measured_coefficient=coeff,
        raw_gaps=gaps,
    )


def threshold_scan(n: int, k: int, epsilon: float = 3e-3, tol: float = 1e-4) -> float:
    """Locate the squared radius where the measured quadratic gap changes sign.

    Bisection on the Richardson-extrapolated coefficient; the result should
    match :func:`algebraic_threshold` to about ``tol``.

    Raises
    ------
    QuadratureError
        If the initial bracket does not straddle a sign change.
    """
    if k < 2 or k % 2:
        raise ValueError("mode must be even and at least 2")

    def coeff(r_sq: float) -> float:
        return measure_second_variation(n, math.sqrt(r_sq), k, epsilon).measured_coefficient

    # Volume matching holds the Gaussian volume to 1e-13 absolutely, so the
    # measured gap is noise once the ball's volume nears that scale; in high
    # dimensions it does so at larger radii.  The bracket starts where the
    # ball's volume is SCAN_VOLUME_FLOOR.
    lo = bd.ball_match_radius(n, SCAN_VOLUME_FLOOR) ** 2
    hi = float(n - 2) - 1e-9
    c_lo, c_hi = coeff(lo), coeff(hi)
    if c_lo <= 0.0 or c_hi >= 0.0:
        raise QuadratureError("threshold bisection bracket does not change sign")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if coeff(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class CalibrationResult:
    """Hypothesis gates and the two calibration inequalities for one body."""

    hypothesis_ok: bool
    ineq1: InequalityReport
    ineq3: InequalityReport
    matched_radius: float
    volume: float
    curvature_bound: float
    inscribed_radius: float
    gate_curvature: bool
    gate_inscribed_stated: bool
    gate_inscribed_used: bool


def calibration_check(graph: bd.RadialGraph, M: float) -> CalibrationResult:
    """Check the flux-calibration inequalities for a convex body.

    ``hypothesis_ok`` is the volume gate ``gamma(E) >= max(psi(2M),
    psi(sqrt(n-2)))``.  Three inscribed-radius gates are reported separately
    because they differ subtly: ``r_E >= 2M``, ``r_E >= sqrt(2(n-2))`` and
    ``r_E >= 2 sqrt(n-2)``.  Both inequalities are evaluated regardless of
    the gates so that exploratory runs can see how far they degrade.

    Raises
    ------
    ConvexityError
        When the body's convexity certificate fails.
    """
    n = graph.n
    if n < 3:
        raise ValueError("calibration inequalities need dimension >= 3")
    if not bd.is_convex(graph):
        raise ConvexityError("calibration inequalities need a convex body")
    vol = bd.gaussian_volume(graph)
    gate_volume = vol >= max(psi(2.0 * M), psi(math.sqrt(n - 2)))
    r_in = bd.inscribed_radius(graph)
    r = bd.ball_match_radius(n, vol)
    ball = bd.RadialGraph(n, r, None, quad=graph.quad)
    quad_slack = 1e-9 * (1.0 + abs(bd.ball_energy(n, r)))
    ineq1 = _report(bd.curvature_energy_nd(graph), bd.curvature_energy_nd(ball), quad_slack)
    ineq3 = _report(bd.flux_energy(graph), bd.flux_energy(ball), quad_slack)
    return CalibrationResult(
        hypothesis_ok=bool(gate_volume),
        ineq1=ineq1,
        ineq3=ineq3,
        matched_radius=r,
        volume=vol,
        curvature_bound=M,
        inscribed_radius=r_in,
        gate_curvature=bool(r_in >= 2.0 * M),
        gate_inscribed_stated=bool(r_in >= math.sqrt(2.0 * (n - 2))),
        gate_inscribed_used=bool(r_in >= 2.0 * math.sqrt(n - 2)),
    )


def mean_zero_leakage(u: sphere.HarmonicField) -> float:
    """Squared sphere average of ``u`` relative to its squared L2 norm.

    Vanishes for pure modes; after volume matching it decays quadratically
    in the perturbation amplitude, which quantifies how little the matching
    constraint leaks into the zero mode.
    """
    total = u.coeffs[0] * math.sqrt(sphere.sphere_area(u.n))
    norm_sq = float(np.dot(u.coeffs, u.coeffs))
    if norm_sq == 0.0:
        return 0.0
    return float(total * total / norm_sq)
