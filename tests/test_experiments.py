import math

import numpy as np
import pytest
from scipy.integrate import quad

import helpers
from gausscurv import body as bd
from gausscurv import cli, experiments as ex, sphere
from gausscurv.body import RadialGraph
from gausscurv.errors import ConvexityError, QuadratureError
from gausscurv.sphere import HarmonicField

# Frozen from the closed forms evaluated through an independent erf route.
GAP_AT_01 = 13.24469458358784
S_AT_01 = 0.023030424274242147


# ---------------------------------------------------------------------------
# cylinders


def test_cylinder_volume_closed_form():
    assert ex.cylinder_volume(40.0) == pytest.approx(1.0, abs=1e-15)
    assert ex.cylinder_volume(math.sqrt(2.0 * math.log(2.0))) == pytest.approx(0.5, rel=1e-14)
    assert ex.cylinder_volume(0.5) == pytest.approx(1.0 - math.exp(-0.125), rel=1e-15)
    assert ex.cylinder_volume(0.5) == pytest.approx(0.117503097415405, abs=1e-12)


def test_cylinder_volume_small_radius_series():
    # s(0.01), the default counterexample scan's smallest radius, where 1 - exp(-s^2/2) cancels.
    s = 7.29e-4
    series = s**2 / 2 - s**4 / 8 + s**6 / 48
    assert ex.cylinder_volume(s) == pytest.approx(series, rel=1e-15, abs=0.0)
    capped = ex.capped_cylinder(ex.CylinderSpec(s=s, half_height=40.0))
    assert capped.volume == pytest.approx(series, rel=1e-12, abs=0.0)


def test_cylinder_energy_closed_form():
    assert ex.cylinder_energy(1e-9) == pytest.approx((2 * math.pi) ** 1.5, rel=1e-12)
    assert ex.cylinder_energy(1.0) == pytest.approx((2 * math.pi) ** 1.5 * math.exp(-0.5), rel=1e-15)


def test_cylinder_energy_lateral_quadrature_oracle():
    # Direct surface integral: curvature 1/s on the wall, truncated at |z| = 40.
    s = 0.7
    oracle, _ = quad(
        lambda z: 2.0 * math.pi * math.exp(-0.5 * (s * s + z * z)),
        -40.0,
        40.0,
        epsabs=1e-14,
        epsrel=1e-12,
        limit=300,
        points=[0.0],
    )
    assert ex.cylinder_energy(s) == pytest.approx(oracle, abs=1e-8)


def test_matched_cylinder_radius():
    assert ex.matched_cylinder_radius(1e-6) == pytest.approx(0.0, abs=1e-3)
    assert ex.matched_cylinder_radius(0.1) == pytest.approx(S_AT_01, abs=1e-12)
    s = ex.matched_cylinder_radius(0.37)
    assert ex.cylinder_volume(s) == pytest.approx(bd.ball_gaussian_volume(3, 0.37), abs=1e-12)


def test_matched_cylinder_radius_below_subnormal_volumes():
    # The ball's volume is subnormal below r = 1e-103 and 0 below about 1e-108; s is not.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for r in (1e-50, 1e-105, 1e-200):
            x = mpmath.mpf(r) ** 2 / 2
            oracle = mpmath.sqrt(-2 * mpmath.log1p(-mpmath.gammainc(1.5, 0, x, regularized=True)))
            assert ex.matched_cylinder_radius(r) == pytest.approx(float(oracle), rel=1e-15, abs=0.0), r
    assert ex.counterexample_gap(1e-110) == pytest.approx((2.0 * math.pi) ** 1.5, rel=1e-15)


def test_capped_matched_radius_below_subnormal_volumes(tmp_path):
    # The capped volume s^2 W is subnormal from s = 1e-154 on and 0 below about 1e-162; its ball's radius is not.
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        for r, T in ((1e-4, 40.0), (1e-110, 40.0), (1e-200, 40.0), (1e-110, 1e-160)):
            s = ex.matched_cylinder_radius(r)
            S, half = mpmath.mpf(s), mpmath.mpf(T)
            caps = mpmath.quad(lambda y: mpmath.npdf(half + y) * -mpmath.expm1(-(S**2 - y**2) / 2), [0, S])
            volume = -mpmath.expm1(-(S**2) / 2) * mpmath.erf(half / mpmath.sqrt(2)) + 2 * caps
            # The ball's radius from log P(3/2, rho^2 / 2) = log volume, in t = log rho.
            ratio = lambda t: mpmath.log(mpmath.gammainc(1.5, 0, mpmath.exp(2 * t) / 2, regularized=True) / volume)
            guess = mpmath.log(mpmath.cbrt(1.5 * mpmath.sqrt(2 * mpmath.pi) * volume))
            oracle = mpmath.exp(mpmath.findroot(ratio, guess))
            radius = ex.capped_matched_radius(ex.CylinderSpec(s=s, half_height=T))
            assert radius == pytest.approx(float(oracle), rel=1e-15, abs=0.0), (r, T)
    # With short caps T s underflows as well, and the cap energy's factor (1 - exp(-T s)) / (T s) takes its limit.
    for flags in (["--r", "1e-110"], ["--r", "1e-200"], ["--r", "1e-200", "--cap-height", "1e-150"]):
        assert cli.main(["counterexample", *flags, "--output", str(tmp_path / "tiny")]) == 0, flags


def test_counterexample_gap_values():
    assert ex.counterexample_gap(0.1) == pytest.approx(GAP_AT_01, abs=1e-10)
    assert ex.counterexample_gap(0.5) > 0.0
    for r in np.linspace(0.0025, 0.25, 100):
        assert ex.counterexample_gap(float(r)) > 1.0


def test_capped_cylinder_matches_infinite_limit():
    # From T = 40 on, erf(T / sqrt 2) rounds to 1 and the caps underflow: the infinite cylinder remains.
    for s in (0.5, ex.matched_cylinder_radius(0.1)):
        for T in (40.0, 5000.0, 1e5, 1e300):
            capped = ex.capped_cylinder(ex.CylinderSpec(s=s, half_height=T))
            assert capped.volume == ex.cylinder_volume(s), (s, T)
            assert capped.energy == ex.cylinder_energy(s), (s, T)
    assert capped.volume == pytest.approx(bd.ball_gaussian_volume(3, 0.1), rel=1e-14)


def test_capped_cylinder_counterexample_persists():
    r = 0.1
    s = ex.matched_cylinder_radius(r)
    capped = ex.capped_cylinder(ex.CylinderSpec(s=s, half_height=40.0))
    r_prime = bd.ball_match_radius(3, capped.volume)
    assert capped.energy > bd.ball_energy(3, r_prime) + 1.0


def test_capped_cylinder_degenerate_capsule():
    s = 0.4
    capsule = ex.capped_cylinder(ex.CylinderSpec(s=s, half_height=s))
    assert 0.0 < capsule.volume < 1.0
    assert np.isfinite(capsule.energy) and capsule.energy > 0.0


@pytest.mark.parametrize("s", np.geomspace(7e-4, 8.0, 9))
def test_capped_cylinder_closed_forms_match_quadrature_oracle(s):
    # From the capsule T = s up to T = 1000, where the oracle still resolves the wall.
    for T in (s, 1.01 * s, 2.0 * s, 1.0, 3.0, 10.0, 40.0, 1000.0):
        if T < s:
            continue
        capped = ex.capped_cylinder(ex.CylinderSpec(s=s, half_height=T))
        volume, energy = helpers.quad_capped_cylinder(s, T)
        assert capped.volume == pytest.approx(volume, rel=1e-14, abs=0.0), T
        assert capped.energy == pytest.approx(energy, rel=1e-14, abs=0.0), T


def test_uncapped_cylinder_is_the_infinite_cylinder():
    for s in np.geomspace(7e-4, 8.0, 25):
        capped = ex.capped_cylinder(ex.CylinderSpec(s=float(s), half_height=math.inf))
        assert capped.volume == ex.cylinder_volume(s)
        assert capped.energy == ex.cylinder_energy(s)


def test_no_module_imports_adaptive_quadrature():
    import ast
    from pathlib import Path

    for path in Path(ex.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            forbidden = ("scipy.integrate", "scipy.optimize", "scipy.spatial")
            assert not any(name.startswith(forbidden) for name in names), (path.name, names)


def test_cylinder_spec_validation():
    with pytest.raises(ValueError):
        ex.CylinderSpec(s=-1.0)
    with pytest.raises(ValueError):
        ex.CylinderSpec(s=1.0, half_height=0.5)
    with pytest.raises(ValueError):
        ex.CylinderSpec(s=1.0, half_height=math.nan)
    assert ex.CylinderSpec(s=1.0).half_height == math.inf


# ---------------------------------------------------------------------------
# quadratic coefficient and thresholds


def test_quadratic_coefficient_values():
    # At r^2 = n - 2 only the volume term survives: the ball is a local max there.
    assert ex.quadratic_coefficient(3, 1.0, 2) == pytest.approx(-2.0 * math.exp(-0.5), rel=1e-14)
    # Small radii flip the sign: k (k + n - 2) = 6 on the two-sphere for k = 2.
    r = 1e-3
    assert ex.quadratic_coefficient(3, r, 2) == pytest.approx(r * (6.0 - 2.0), rel=1e-4)


def test_algebraic_threshold_formula():
    assert ex.algebraic_threshold(3, 2) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert ex.algebraic_threshold(4, 2) == pytest.approx(5.0 / 4.0, rel=1e-15)
    # The coefficient genuinely vanishes at the algebraic root.
    for n, k in ((3, 2), (4, 2), (3, 4), (5, 6)):
        root = math.sqrt(ex.algebraic_threshold(n, k))
        assert ex.quadratic_coefficient(n, root, k) == pytest.approx(0.0, abs=1e-12)


def test_statement_candidate_differs():
    assert ex.statement_threshold(3) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert ex.statement_threshold(3) != pytest.approx(ex.algebraic_threshold(3, 2), rel=1e-3)


def test_quadratic_coefficient_rejects_odd_modes():
    with pytest.raises(ValueError):
        ex.quadratic_coefficient(3, 1.0, 3)


# ---------------------------------------------------------------------------
# measured second variation


def test_zero_perturbation_gap_vanishes():
    quad_rule = sphere.build_quadrature(3, 32)
    ball = RadialGraph(3, 1.0, None, quad=quad_rule)
    matched = bd.volume_match(ball, bd.ball_gaussian_volume(3, 1.0))
    assert bd.curvature_energy_nd(matched) == pytest.approx(
        bd.curvature_energy_nd(ball), abs=1e-12
    )


def test_measured_gap_sign_local_max_regime():
    rep = ex.measure_second_variation(3, 2.0, 2, 1e-3)
    assert rep.measured_gap < 0.0


def test_measured_gap_sign_local_min_regime():
    rep = ex.measure_second_variation(3, 0.3, 2, 1e-3)
    assert rep.measured_gap > 0.0


@pytest.mark.parametrize("n", [6, 7, 8])
def test_second_variation_small_ball_high_dimension(n):
    # The ball's Gaussian volume is ~2e-7 (n=6) to ~4e-10 (n=8) here, so the
    # volume match must hold a relative, not an absolute, tolerance.
    r = math.sqrt(0.02)
    rep = ex.measure_second_variation(n, r, 2, 3e-3)
    assert rep.measured_coefficient == pytest.approx(ex.quadratic_coefficient(n, r, 2), rel=1e-5)


@pytest.mark.parametrize("n", [3, 4])
def test_symmetric_local_min_regime_sweep(n):
    # Below the lowest sign-change radius every even mode raises the energy.
    r = math.sqrt(ex.algebraic_threshold(n, 2) - 0.1)
    for k in (2, 4, 6):
        rep = ex.measure_second_variation(n, r, k, 1e-3)
        assert rep.raw_gaps[0] > 0.0, (n, k)
        assert rep.measured_gap > 0.0, (n, k)


@pytest.mark.parametrize("n", range(3, 9))
@pytest.mark.parametrize("k", [2, 4, 8, 14, 16])
def test_second_variation_matches_prediction(n, k):
    # The jet coefficient is exact, so it meets the closed form to rounding.
    for r in (0.3, 1.0, 2.0):
        rep = ex.measure_second_variation(n, r, k, 1e-3)
        exact = ex.quadratic_coefficient(n, r, k)
        assert rep.measured_coefficient == pytest.approx(exact, rel=1e-13, abs=0.0), r
        assert rep.relative_error < 1e-13
        if n <= 4 and k <= 4:
            # Richardson extrapolation of finite-eps matched energies, independent of the jet.
            oracle = helpers.richardson_coefficient(n, r, k)
            assert rep.measured_coefficient == pytest.approx(oracle, rel=1e-6), r


def test_second_variation_epsilon_range():
    with pytest.raises(ValueError):
        ex.measure_second_variation(3, 1.0, 2, 1e-5)
    with pytest.raises(ValueError):
        ex.measure_second_variation(3, 1.0, 2, 0.5)


@pytest.mark.parametrize("n", range(3, 9))
def test_threshold_scan_matches_algebraic_root(n):
    assert ex.threshold_scan(n, 2) == pytest.approx((n - 2) * (n + 1) / (2.0 * n), abs=1e-10)
    # High modes too, where finite differences in eps drown the coefficient in rounding noise.
    for k in (8, 14, 16):
        assert ex.threshold_scan(n, k) == pytest.approx(ex.algebraic_threshold(n, k), abs=1e-10), k


@pytest.mark.parametrize("n", [3, 5, 8])
def test_modes_above_32_raise_instead_of_aliasing(n):
    # The rules stop at degree 64, so k = 32 is the last mode whose products they sum exactly.
    assert ex.threshold_scan(n, 32) == pytest.approx(ex.algebraic_threshold(n, 32), abs=1e-10)
    with pytest.raises(QuadratureError, match="mode 34 needs a rule of degree 68"):
        ex.threshold_scan(n, 34)
    with pytest.raises(QuadratureError, match="mode 34 needs a rule of degree 68"):
        ex.measure_second_variation(n, 1.0, 34)


@pytest.mark.parametrize("n", range(3, 9))
def test_threshold_scan_matches_brentq_oracle(n, monkeypatch):
    original = ex._quadratic_term
    for k in range(2, 17, 2):
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(ex, "_quadratic_term", counting)
        root = ex.threshold_scan(n, k)
        monkeypatch.setattr(ex, "_quadratic_term", original)
        expected, brentq_calls = helpers.brentq_threshold(n, k)
        assert abs(root - expected) <= 2e-15, k
        assert len(calls) <= brentq_calls, k


def test_threshold_scan_raises_when_root_search_does_not_converge(monkeypatch):
    original = ex._quadratic_term
    calls = []

    def bracket_then_nan(*args):
        calls.append(args)
        return original(*args) if len(calls) <= 2 else math.nan

    monkeypatch.setattr(ex, "_quadratic_term", bracket_then_nan)
    with pytest.raises(QuadratureError, match="did not converge"):
        ex.threshold_scan(3, 2)


@pytest.mark.parametrize("n", [4, 5])
def test_second_variation_meridian_rule_matches_product_rule(n, monkeypatch):
    # The jet coefficient has no eps to divide by; only rounding in the
    # product rule's 10^4..10^5-term sums separates the two rules.
    exact = ex.quadratic_coefficient(n, 1.0, 2)
    meridian = ex.measure_second_variation(n, 1.0, 2, 1e-3).measured_coefficient
    monkeypatch.setattr(
        ex,
        "_experiment_quadrature",
        lambda n_, k: helpers.product_rule(n_, sphere.default_quadrature(n_, max(k, 8)).degree),
    )
    product = ex.measure_second_variation(n, 1.0, 2, 1e-3).measured_coefficient
    assert meridian == pytest.approx(product, rel=1e-12)
    assert meridian == pytest.approx(exact, rel=1e-12)


def test_threshold_scan_high_mode_approaches_limit():
    # As the mode grows the root climbs to n - 2; k = 14 sits within 1e-2.
    measured = ex.threshold_scan(3, 14)
    assert measured == pytest.approx(ex.algebraic_threshold(3, 14), abs=1e-3)
    assert abs(measured - 1.0) < 1e-2


# ---------------------------------------------------------------------------
# calibration


def test_calibration_ball_proof_gate_and_equalities():
    # r = 2 sqrt(n-2) satisfies the inscribed-radius gates with M = (n-1)/r.
    ball = RadialGraph(3, 2.0)
    res = ex.calibration_check(ball, M=1.0)
    assert res.gate_curvature and res.gate_inscribed_used and res.gate_inscribed_stated
    assert res.ineq1.margin == pytest.approx(0.0, abs=1e-10)
    assert res.ineq3.margin == pytest.approx(0.0, abs=1e-10)
    assert res.ineq1.passed and res.ineq3.passed


def test_calibration_ball_volume_gate_needs_larger_radius():
    # The half-space volume gate is strictly stronger than the proof-level
    # inscribed-radius gate: it fails at r = 2 and holds by r = 3.
    assert not ex.calibration_check(RadialGraph(3, 2.0), M=1.0).hypothesis_ok
    assert ex.calibration_check(RadialGraph(3, 3.0), M=2.0 / 3.0).hypothesis_ok


def test_calibration_gentle_perturbation():
    graph = cli.random_even_body(31, 0, 3, 3.0, 1e-2)
    M = float(np.max(bd.mean_curvature_at_nodes(graph)))
    res = ex.calibration_check(graph, M)
    assert res.hypothesis_ok
    assert res.ineq1.passed and res.ineq3.passed


def test_calibration_small_body_reports_without_gate():
    res = ex.calibration_check(RadialGraph(3, 0.5), M=4.0)
    assert not res.hypothesis_ok
    assert np.isfinite(res.ineq1.margin) and np.isfinite(res.ineq3.margin)


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_calibration_ball_side_matches_quadrature_ball(n):
    graph = cli.random_even_body(5, n, n, 2.0, 1e-2)
    res = ex.calibration_check(graph, M=1.0)
    ball = RadialGraph(n, res.matched_radius, quad=graph.quad)
    assert res.ineq1.rhs == pytest.approx(bd.curvature_energy_nd(ball), rel=1e-13, abs=0.0)
    assert res.ineq3.rhs == pytest.approx(bd.flux_energy(ball), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_stacked_calibration_equals_single_checks(n):
    graphs = [cli.random_even_body(17, trial, n, 3.0, 1e-2) for trial in range(50)]
    stacked = ex.calibration_check_many(helpers.body_stack(graphs))
    for graph, res in zip(graphs, stacked):
        M = float(np.max(bd.mean_curvature(graph)))
        assert res == ex.calibration_check(graph, M)
        assert res.curvature_bound == M
    bounds = [0.5 + 0.01 * k for k in range(50)]
    for graph, M, res in zip(graphs, bounds, ex.calibration_check_many(helpers.body_stack(graphs), bounds)):
        assert res == ex.calibration_check(graph, M)


def test_stacked_calibration_rejects_one_nonconvex_body():
    graphs = [cli.random_even_body(17, trial, 3, 3.0, 1e-2) for trial in range(5)]
    graphs[3] = RadialGraph(3, 3.0, HarmonicField.single_mode(3, 4, 0.5, degree=6))
    with pytest.raises(ConvexityError):
        ex.calibration_check_many(helpers.body_stack(graphs))


def test_calibration_rejects_nonconvex():
    rough = RadialGraph(3, 1.0, HarmonicField.single_mode(3, 4, 0.5))
    with pytest.raises(ConvexityError):
        ex.calibration_check(rough, M=10.0)


def _outside_radius(n, outside, mpmath):
    """The radius whose ball leaves the Gaussian volume ``outside`` outside, by a 50-digit inversion of ``Q``."""
    mpmath.mp.dps = 50
    a, q = mpmath.mpf(n) / 2, mpmath.mpf(outside)
    x = mpmath.findroot(lambda x: mpmath.log(mpmath.gammainc(a, x, mpmath.inf, regularized=True) / q), -mpmath.log(q))
    return float(mpmath.sqrt(2 * x))


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_calibration_matches_balls_next_to_volume_one(n):
    # Volumes within 2^-10 of 1 (here down to 1 to double precision) match the ball from the body's own
    # volume outside, so the radius is the body's, not the rounding of 1 - volume.
    mpmath = pytest.importorskip("mpmath")
    for r in (6.0, 9.0, 20.0, 37.0):
        stack = bd.BodyStack(n, r, cli._sample_even(3, range(4), n, 1e-2))
        outside = bd._volume_outside(n, stack.quad.weights, stack.h_nodes)
        results = ex.calibration_check_many(stack)
        for res, q in zip(results, outside.tolist()):
            assert res.volume > ex._OUTSIDE_ABOVE and res.matched_radius == pytest.approx(r, rel=2e-2)
            assert res.matched_radius == pytest.approx(_outside_radius(n, q, mpmath), rel=1e-14, abs=0.0), (r, q)
        ball = ex.calibration_check(RadialGraph(n, r), M=1.0)
        assert ball.matched_radius == pytest.approx(r, rel=1e-14, abs=0.0), r


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_calibration_raises_value_error_where_no_volume_is_outside(n):
    # From r = 38.5 on the volume outside is subnormal or 0 in every dimension here: no ball matches it,
    # and this is a bad radius (ValueError) before any convexity check, even where the certificate overflows.
    for r in (38.5, 40.0, 1e3, 1e300):
        stack = bd.BodyStack(n, r, cli._sample_even(3, range(2), n, 1e-2))
        with pytest.raises(ValueError, match="target Gaussian volume must lie in"):
            ex.calibration_check_many(stack)


def test_calibration_cli_exits_3_where_no_volume_is_outside(tmp_path, capsys):
    for n, r in ((5, "40"), (3, "1e300")):
        argv = ["calibration", "--n", str(n), "--r", r, "--trials", "2", "--output", str(tmp_path / "c")]
        assert cli.main(argv) == 3, (n, r)
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "trial 0 (seed 42): target Gaussian volume must lie in (0, 1)" in err[0], err
    argv = ["calibration", "--n", "3", "--r", "9", "--trials", "2", "--output", str(tmp_path / "c9")]
    assert cli.main(argv) == 0
