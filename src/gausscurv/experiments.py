"""Headline computations, packaged as reproducible experiments.

Four families: the three-dimensional cylinder whose curvature energy beats
the volume-matched ball at small radii (capped and uncapped), measured
second variations of the energy around the ball under a Gaussian volume
constraint, scans for the radius where a pure even mode changes the sign of
its quadratic gap, and the flux-calibration inequality checks for convex
bodies with bounded curvature.  Second variations are exact: order-2 Taylor
jets carry the perturbation through :func:`body.curvature_terms`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import body as bd
from . import sphere
from .errors import ConvexityError, QuadratureError
from .plane import InequalityReport, _equal_columns, _report
from .special import gauss_jacobi, kummer_sum
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
    "capped_matched_radius",
    "quadratic_coefficient",
    "algebraic_threshold",
    "statement_threshold",
    "measure_second_variation",
    "threshold_scan",
    "calibration_check",
]

EPSILON_FLOOR = 4e-4
EPSILON_CAP = 1e-2


@dataclass(frozen=True)
class CylinderSpec:
    """A round cylinder of cross-section radius ``s``; an infinite ``half_height`` means uncapped."""

    s: float
    half_height: float = math.inf

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("cross-section radius must be positive")
        if not self.half_height >= self.s:
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
    """Cross-section radius ``s(r)`` with the Gaussian volume ``v`` of the ball ``B_r``: ``s^2 = -2 log(1 - v)``.

    Below r = 1e-5, ``v = r^3 c < 3e-16`` with ``c = e^-x 1F1(1; 5/2; x) / (3/2 sqrt(2 pi))``, x = r^2 / 2
    (DLMF 8.7.1), so ``s = r^(3/2) sqrt(2 c (1 + v / 2))``: ``v``, subnormal below r = 1e-103, only corrects 1.
    Below r = 9.8e-206 ``s`` leaves the normal floats, and ``ValueError`` names the ball radius.
    """
    if r <= 0:
        raise ValueError("ball radius must be positive")
    if r < 1e-5:
        c = _ball_volume_factor(r)
        s = r * math.sqrt(r) * math.sqrt(2.0 * c * (1.0 + 0.5 * c * r**3))
        if s < sys.float_info.min:
            raise ValueError(f"ball radius {r!r} gives a cylinder radius {s!r} below the least normal float")
        return s
    vol = bd.ball_gaussian_volume(3, r)
    if vol >= 1.0:
        # The matching volume saturates double precision near one.
        raise ValueError(f"ball radius {r} leaves no solvable cylinder radius")
    return math.sqrt(-2.0 * math.log1p(-vol))


def _ball_volume_factor(r: float) -> float:
    """``c = v / r^3`` for the Gaussian volume ``v`` of the ball ``B_r`` in R^3, for ``r^2 / 2 <= 3/2``."""
    x = 0.5 * r * r
    return math.exp(-x) * float(kummer_sum(1.5, x)) / (1.5 * math.sqrt(2.0 * math.pi))


def counterexample_gap(r: float) -> float:
    """Energy excess of the volume-matched cylinder over the ball ``B_r``."""
    s = matched_cylinder_radius(r)
    return cylinder_energy(s) - bd.ball_energy(3, r)


class CappedCylinder(NamedTuple):
    volume: float
    energy: float


# Gauss-Legendre rule for the cap volume, mapped from [-1, 1] to y = s * _CAP_Y
# on [0, s]: _CAP_GAP is (s^2 - y^2) / s^2 and _CAP_W folds in dy / ds and the
# normal density's 1 / sqrt(2 pi).
_GL_X, _GL_W = gauss_jacobi(32, 0.0)
_CAP_Y = 0.5 * (1.0 + _GL_X)
_CAP_GAP = 0.25 * (1.0 - _GL_X) * (3.0 + _GL_X)
_CAP_W = 0.5 * _GL_W / math.sqrt(2.0 * math.pi)


def capped_cylinder(spec: CylinderSpec) -> CappedCylinder:
    """Gaussian volume and curvature energy of a cylinder with hemispherical caps.

    With ``T`` the half-height and ``erf_T = erf(T / sqrt 2)``, the lateral
    wall (curvature ``1/s``) contributes the volume ``(1 - exp(-s^2/2)) erf_T``
    and the energy ``(2 pi)^(3/2) exp(-s^2/2) erf_T``, each cap (curvature
    ``2/s``) the energy ``4 pi s exp(-(s^2 + T^2)/2) (1 - exp(-T s)) / (T s)``.
    A cap's volume ``int_0^s phi(T + y) (1 - exp(-(s^2 - y^2)/2)) dy``, with
    ``phi`` the normal density, has a closed form that cancels at small
    ``s``, so a fixed 32-point Gauss-Legendre rule sums its smooth integrand.
    An infinite half-height gives :func:`cylinder_volume` and
    :func:`cylinder_energy` bit for bit.
    """
    s, T = spec.s, spec.half_height
    erf_T = math.erf(T / math.sqrt(2.0))
    y = T + s * _CAP_Y
    with np.errstate(over="ignore"):  # y * y overflows past T = 1e154; its exponential is 0 either way
        cap_volume = s * float(np.dot(_CAP_W, np.exp(-0.5 * y * y) * -np.expm1(-0.5 * s * s * _CAP_GAP)))
    ts = T * s
    flat = -math.expm1(-ts) / ts if ts > 0.0 else 1.0  # its limit where T s underflows, as for T = 1e-150, s = 1e-300
    cap_energy = 4.0 * math.pi * s * math.exp(-0.5 * (s * s + T * T)) * flat
    volume = cylinder_volume(s) * erf_T + 2.0 * cap_volume
    energy = cylinder_energy(s) * erf_T + 2.0 * cap_energy
    return CappedCylinder(volume, energy)


def capped_matched_radius(spec: CylinderSpec) -> float:
    """Radius of the centred ball with the Gaussian volume of the capped cylinder ``spec``.

    From s = 1e-5 on it is :func:`body.ball_match_radius` of :func:`capped_cylinder`'s volume.
    Below, the volume is formed scaled, ``V = s^2 W``, as it is subnormal from s = 1e-154 on
    and 0 below about s = 1e-162.  The series ``-expm1(-a) = a - a^2/2 + ...`` of the wall and
    of each cap node gives ``W = (1/2 - s^2/8) erf_T + 2 s sum_i w_i phi(y_i) g_i (1/2 - s^2 g_i/8)``,
    with ``g_i`` the node's ``(s^2 - y^2) / s^2``; the next terms are below 5e-22 relative.  The
    ball's volume ``v = r^3 c(r)`` (:func:`matched_cylinder_radius`) then inverts to
    ``r = cbrt(s)^2 cbrt(W / c)``, with ``c`` taken at the previous ``r``, from ``r = 0``, three times.
    """
    s, T = spec.s, spec.half_height
    if s >= 1e-5:
        return bd.ball_match_radius(3, capped_cylinder(spec).volume)
    y = T + s * _CAP_Y
    with np.errstate(over="ignore"):  # as in capped_cylinder
        caps = s * float(np.dot(_CAP_W, np.exp(-0.5 * y * y) * _CAP_GAP * (0.5 - 0.125 * s * s * _CAP_GAP)))
    scaled = (0.5 - 0.125 * s * s) * math.erf(T / math.sqrt(2.0)) + 2.0 * caps
    r = 0.0
    for _ in range(3):
        r = float(np.cbrt(s)) ** 2 * float(np.cbrt(scaled / _ball_volume_factor(r)))
    return r


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
    rule = sphere.default_quadrature(n, max(k, 8))
    if rule.degree < 2 * k:  # mode k's products have degree 2k: from k = 34 on, above 64, they would alias
        raise QuadratureError(f"mode {k} needs a rule of degree {2 * k}, got {rule.degree}")
    return rule


class _Jet:
    """Truncated Taylor series ``c0 + c1 eps + c2 eps^2`` with node-array coefficients.

    Sums, products, quotients, negation, scalar powers, ``sqrt`` and ``exp``
    propagate the three coefficients (Griewank and Walther, *Evaluating
    Derivatives*, 2nd ed., ch. 13).  Numpy defers mixed operations to the
    jet's reflected operators.
    """

    __array_ufunc__ = None

    def __init__(self, c0, c1=0.0, c2=0.0):
        self.c = (c0, c1, c2)

    @staticmethod
    def _lift(x):
        return x if isinstance(x, _Jet) else _Jet(x)

    def __add__(self, other):
        return _Jet(*(a + b for a, b in zip(self.c, _Jet._lift(other).c)))

    __radd__ = __add__

    def __neg__(self):
        return _Jet(*(-a for a in self.c))

    def __mul__(self, other):
        (a0, a1, a2), (b0, b1, b2) = self.c, _Jet._lift(other).c
        return _Jet(a0 * b0, a0 * b1 + a1 * b0, a0 * b2 + a1 * b1 + a2 * b0)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _Jet._lift(other) ** -1

    def _compose(self, f0, f1, f2):
        """``f(self)`` from ``f``, ``f'`` and ``f''`` at ``c0``."""
        _, a1, a2 = self.c
        return _Jet(f0, f1 * a1, f1 * a2 + 0.5 * f2 * a1 * a1)

    def __pow__(self, p):
        a0 = self.c[0]
        return self._compose(a0**p, p * a0 ** (p - 1), p * (p - 1) * a0 ** (p - 2))

    def sqrt(self):
        return self**0.5

    def exp(self):
        e = np.exp(self.c[0])
        return self._compose(e, e, e)


def _quadratic_term(n: int, r: float, u: sphere.HarmonicField, quad_rule) -> float:
    """Exact eps^2 coefficient of the energy of the volume-matched body ``S(eps) r (1 + eps u)``.

    With ``S = 1 + s1 eps + s2 eps^2`` the Gaussian volume is held to second
    order by two linear equations from ``G'(h) = h^(n-1) exp(-h^2/2)`` and
    ``G''/G' = (n-1)/h - h`` at ``h = r``.  The jets of ``h``, ``|grad h|^2``
    and the Laplacian of ``h`` enter :func:`body.curvature_terms`;
    ``Hess h(grad h, grad h)`` is O(eps^3) and drops out.
    ``|grad u|^2`` is read as ``-u Lap u``: its jet has only an eps^2 coefficient, which the density scales
    by a factor of the zeroth coefficients (``r``, 0, 0), the same at every node, so only its quadrature
    sum counts; on a rule exact to degree 2k, integration by parts on the sphere makes that sum ``-u Lap u``'s.
    """
    mean = quad_rule.weights / np.sum(quad_rule.weights)
    vals = sphere.synthesize(u, quad_rule)
    lap = sphere.synthesize(sphere.laplace_beltrami(u), quad_rule)
    sq_grad = -vals * lap
    s1 = -float(mean @ vals)
    s2 = -0.5 * ((n - 1) / r - r) * r * float(mean @ (s1 + vals) ** 2) + s1 * s1  # s1^2 = -s1 mean(u)
    zero = np.zeros_like(vals)
    h = _Jet(np.full_like(vals, r), r * (s1 + vals), r * (s2 + s1 * vals))
    sq = _Jet(zero, zero, r * r * sq_grad)
    _, density = bd.curvature_terms(n, h, sq, _Jet(zero, r * lap, r * s1 * lap), 0.0, xp=_Jet)
    return float(np.dot(quad_rule.weights, density.c[2]))


def measure_second_variation(n: int, r: float, k: int, epsilon: float = 1e-3) -> VariationReport:
    """Measure the quadratic energy gap of a pure even mode around the ball.

    ``measured_coefficient`` is the exact eps^2 coefficient of the energy of
    ``r (1 + eps y_k)`` dilated to the ball's Gaussian volume; ``raw_gaps``
    holds the one finite gap at ``epsilon``, with the body matched by
    :func:`body.volume_match`.  Modes above 32 raise ``QuadratureError``: the rules would alias.
    """
    if k < 2 or k % 2:
        raise ValueError("mode must be even and at least 2")
    if not EPSILON_FLOOR <= epsilon <= EPSILON_CAP:
        raise ValueError(f"epsilon must lie in [{EPSILON_FLOOR}, {EPSILON_CAP}]")
    quad_rule = _experiment_quadrature(n, k)
    ball = bd.RadialGraph(n, r, quad=quad_rule)
    raw = bd.RadialGraph(n, r, _mode_field(n, k, epsilon), quad=quad_rule)
    gap = bd.curvature_energy_nd(bd.volume_match(raw, bd.gaussian_volume(ball))) - bd.curvature_energy_nd(ball)
    coeff = _quadratic_term(n, r, _mode_field(n, k, 1.0), quad_rule)
    measured = coeff * epsilon**2
    predicted = quadratic_coefficient(n, r, k) * epsilon**2
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
        raw_gaps=(gap,),
    )


def _illinois(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of ``f`` in ``[lo, hi]`` by regula falsi that halves the stale endpoint's value.

    ``f_lo`` and ``f_hi`` are ``f`` at the ends and must differ in sign.  It
    stops when ``f`` vanishes or a step moves less than ``1e-15 + 4 eps |x|``.
    """
    tol = 4.0 * np.finfo(float).eps
    x, stale = math.nan, 0
    for _ in range(64):
        x_old, x = x, (lo * f_hi - hi * f_lo) / (f_hi - f_lo)
        fx = f(x)
        if fx == 0.0 or abs(x - x_old) <= 1e-15 + tol * abs(x):
            return x
        if (fx > 0.0) == (f_lo > 0.0):
            lo, f_lo = x, fx
            if stale == 1:
                f_hi *= 0.5
            stale = 1
        else:
            hi, f_hi = x, fx
            if stale == -1:
                f_lo *= 0.5
            stale = -1
    raise QuadratureError("threshold root did not converge")


def threshold_scan(n: int, k: int) -> float:
    """Locate the squared radius where the exact quadratic coefficient changes sign.

    The coefficient divided by the ball's ``r^(n-2) exp(-r^2/2)`` is linear
    in ``r^2`` up to rounding, so the Illinois method (regula falsi that
    halves the stale endpoint's value) meets its root in two steps inside
    ``[(n-2)/4, n-2]``.  Since ``k (k + n - 2) >= 2n``, every even mode's
    :func:`algebraic_threshold` lies above ``(n-2)/2`` in that bracket.

    Raises
    ------
    QuadratureError
        If k > 32 (the rule would alias), the bracket does not change sign,
        or the root search does not converge.
    """
    if k < 2 or k % 2:
        raise ValueError("mode must be even and at least 2")
    quad_rule = _experiment_quadrature(n, k)
    u = _mode_field(n, k, 1.0)

    def scaled(r_sq: float) -> float:
        r = math.sqrt(r_sq)
        return _quadratic_term(n, r, u, quad_rule) / (r ** (n - 2) * math.exp(-0.5 * r_sq))

    lo, hi = 0.25 * (n - 2), float(n - 2)
    f_lo, f_hi = scaled(lo), scaled(hi)
    if not f_lo > 0.0 > f_hi:
        raise QuadratureError("threshold bracket does not change sign")
    return _illinois(scaled, lo, hi, f_lo, f_hi)


@dataclass(frozen=True)
class CalibrationResult:
    """Hypothesis gates and the two calibration inequalities, with the checked body's row shape:
    Python floats and bools for a :class:`body.RadialGraph`, and read-only columns, one element per
    body, for a 2-D :class:`body.BodyStack`.  Equality is column by column, as for reports."""

    hypothesis_ok: bool | np.ndarray
    ineq1: InequalityReport
    ineq3: InequalityReport
    matched_radius: float | np.ndarray
    volume: float | np.ndarray
    curvature_bound: float | np.ndarray
    inscribed_radius: float | np.ndarray
    gate_curvature: bool | np.ndarray
    gate_inscribed_stated: bool | np.ndarray
    gate_inscribed_used: bool | np.ndarray

    __eq__ = _equal_columns


def calibration_check(body: bd.BodyStack, M=None) -> CalibrationResult:
    """Check the flux-calibration inequalities for a convex body, or for every body of a stack at once.

    ``M`` is the curvature bound: a float for a graph, one per row for a
    stack, or None for each body's largest mean curvature over the nodes.
    ``hypothesis_ok`` is the volume gate ``gamma(E) >= max(psi(2M),
    psi(sqrt(n-2)))``.  Three inscribed-radius gates are reported separately
    because they differ subtly: ``r_E >= 2M``, ``r_E >= sqrt(2(n-2))`` and
    ``r_E >= 2 sqrt(n-2)``.  Both inequalities are evaluated regardless of
    the gates so that exploratory runs can see how far they degrade, each as
    one report of columns.  Both compare with :func:`body.ball_energy`, since
    on a ball ``h / slant = 1``; it, the matched radius and ``psi`` are
    scalar functions, taken row by row.  A stack's row is its body's own
    result to the last bit.

    Raises
    ------
    ValueError
        When a body's Gaussian volume outside is 0 to double precision, so
        that no ball matches it; checked before convexity.
    ConvexityError
        When any body's convexity certificate fails.
    """
    n, shape = body.n, body.h_nodes.shape[:-1]

    def by_row(fn, *columns):
        """``fn`` of each row's Python floats, in the body's row shape."""
        return np.reshape([fn(*row) for row in zip(*(np.atleast_1d(c).tolist() for c in columns))], shape)

    volumes, outside = bd._volumes(n, body.quad.weights, body.h_nodes)
    # Above 1/2, 1 - volume loses the volume's last digits, so there the ball matches the body's own
    # volume outside.  Before the convexity gate: a body whose outside volume underflows matches no
    # ball, convex or not.
    matched = by_row(lambda vol, q: bd.ball_match_radius(n, vol, q), volumes, outside)
    if not np.all(bd.is_convex(body)):
        raise ConvexityError("calibration inequalities need a convex body")
    M = np.max(bd.mean_curvature(body), axis=-1) if M is None else np.reshape(np.array(M, float), shape)
    floor = psi(math.sqrt(n - 2))
    ball = by_row(lambda r: bd.ball_energy(n, r), matched)
    slack = 1e-9 * (1.0 + np.abs(ball))
    r_in = bd.inscribed_radius(body)
    return CalibrationResult(
        hypothesis_ok=bd._per_body(volumes >= by_row(lambda m: max(psi(2.0 * m), floor), M)),
        ineq1=_report(bd.curvature_energy_nd(body), ball, slack),
        ineq3=_report(bd.flux_energy(body), ball, slack),
        matched_radius=bd._per_body(matched),
        volume=bd._per_body(volumes),
        curvature_bound=bd._per_body(M),
        inscribed_radius=r_in,
        gate_curvature=bd._per_body(r_in >= 2.0 * M),
        gate_inscribed_stated=bd._per_body(r_in >= math.sqrt(2.0 * (n - 2))),
        gate_inscribed_used=bd._per_body(r_in >= 2.0 * math.sqrt(n - 2)),
    )
