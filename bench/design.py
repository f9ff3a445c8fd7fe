"""What the benchmark runs and why: workloads, traced layers, exclusions.

Everything here is data.  ``run.py`` drives the workloads and renders
``MOVES`` and ``LEFT_OUT`` into each per-layer baseline table; ``spans.py``
wraps the functions in ``TRACED``.  The design is written down only here.

Each workload runs ``gausscurv`` CLI commands one after another, each in a
fresh interpreter with the default environment (serial trials,
``GAUSSCURV_THREADS`` unset).  First-call caches such as quadratures and
basis tables are therefore paid inside every timed command, as they are by
every real CLI invocation.  Only the batch commands take the benchmark's
``--seed``; every other input is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Command:
    """One CLI invocation; ``label`` names its report files and trace rows."""

    label: str
    argv: tuple
    batch: bool = False

    def cli_argv(self, seed: int) -> list:
        seeded = ["--seed", str(seed)] if self.batch else []
        return [*self.argv, *seeded]


@dataclass(frozen=True)
class Workload:
    why: str
    commands: tuple


def _second_variation(k: int, n: int) -> Command:
    return Command(f"sv-k{k}-n{n}", ("second-variation", "--r", "1", "--k", str(k), "--n", str(n)))


WORKLOADS = {
    "planar-batch": Workload(
        why=(
            "Random degree-12 planar curves, convex and not, three weights, plus degree-64 "
            "stability families: only plane, integrate_radial and the curve generators run."
        ),
        commands=(
            Command("verify2d", ("verify2d", "--weight", "all", "--trials", "1000"), batch=True),
            Command(
                "bounds2d",
                ("bounds2d", "--weight", "all", "--amplitude", "0.2", "--trials", "1000"),
                batch=True,
            ),
            Command("stability2d", ("stability2d",)),
        ),
    ),
    "spectral-scan": Workload(
        why=(
            "Cold sphere quadratures up to 162k nodes, basis tables and volume matching for "
            "n = 3..5: sphere, body and integrate_radial at large sizes, and memory; no plane code."
        ),
        commands=(
            Command("scan-n3", ("threshold-scan", "--k", "2", "--n", "3")),
            Command("scan-n4", ("threshold-scan", "--k", "2", "--n", "4")),
            *(_second_variation(k, n) for k in (2, 4) for n in (3, 4, 5)),
        ),
    ),
    "calibration3d": Workload(
        why=(
            "300 small random even bodies in R^3 reuse one warm 325-node rule and basis tables; "
            "the convexity certificate dominates, so cheaper cold builds that slow warm use show."
        ),
        commands=(
            Command("calibration", ("calibration", "--n", "3", "--r", "3", "--trials", "300"), batch=True),
        ),
    ),
}

# Configurations deliberately not benchmarked.  Adding one back is a
# benchmark change of its own, made after the defect that keeps it out is fixed.
LEFT_OUT = {
    "second-variation --n 6": "48 s and 3.6 GB peak RSS per call with the full product quadrature (2.76 M nodes), measured on a 2-core, 8 GB machine",
    "second-variation / threshold-scan at n >= 7": "the product rule exceeds the quadrature node budget and raises ValueError",
    "calibration --n 4 / --n 5": "reports 0/N passed because the volume hypothesis gate misses at r = 3, although both inequalities hold",
    "counterexample, moments": "each takes under 0.1 s and exercises no layer the three workloads miss",
}

# Public functions wrapped in the traced run; each yields <name>.calls and <name>.self_s.
# A class name stands for its constructor.
TRACED = (
    "weights.integrate_radial",
    "plane.PolarCurve",
    "plane.verify_two_sided",
    "plane.boundary_inverse_weight",
    "plane.matched_radius",
    "plane.hausdorff_distance",
    "plane.stability_ratio",
    "cli.run",
    "cli.generate_convex_polar",
    "cli.generate_star_polar",
    "cli.random_even_body",
    "sphere.build_quadrature",
    "sphere.synthesize",
    "sphere.field_gradient",
    "sphere.hessian_form_at_nodes",
    "sphere.analyze",
    "body.RadialGraph",
    "body.gaussian_volume",
    "body.volume_match",
    "body.curvature_energy_nd",
    "body.flux_energy",
    "body.mean_curvature_at_nodes",
    "body.ball_match_radius",
    "body.is_convex",
    "experiments.measure_second_variation",
    "experiments.threshold_scan",
    "experiments.calibration_check",
)

LAYERS = ("weights", "plane", "sphere", "body", "experiments", "cli")

# Per-layer metrics beyond <name>.calls and <name>.self_s: (name, unit, better).
EXTRA_LAYER_METRICS = (
    ("weights.integrate_radial.integrand_evals", "count", "lower"),
    ("weights.integrate_radial.batch_points", "count", "lower"),
    ("cli.generate.attempts", "count", "lower"),
    ("cli.generate.accept_ratio", "frac", "higher"),
    ("cli.report_bytes", "bytes", "lower"),
    ("sphere.build_quadrature.misses", "count", "lower"),
    ("sphere.build_quadrature.nodes", "count", "lower"),
    ("sphere.basis.misses", "count", "lower"),
    ("body.volume_match.vol_evals", "count", "lower"),
    ("experiments.measure_second_variation.p50_ms", "ms", "lower"),
    ("experiments.measure_second_variation.p90_ms", "ms", "lower"),
    ("experiments.threshold_scan.bisection_steps", "count", "lower"),
    *((f"{layer}.errors", "count", "lower") for layer in LAYERS),
    ("trace.overhead_frac", "frac", "lower"),
)


def layer_metrics() -> list:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for name in TRACED:
        out.append((f"{name}.calls", "count", "lower"))
        out.append((f"{name}.self_s", "s", "lower"))
    out.extend(EXTRA_LAYER_METRICS)
    return out


# Which end-to-end metric each group of layer metrics should move, and where.
# The shares come from a cProfile of the code this benchmark was defined on.
MOVES = (
    ("weights.integrate_radial (+ integrand_evals, batch_points)",
     "trials_per_ref on planar-batch (~37% of verify2d); wall_ref on spectral-scan (~65% of threshold-scan n=4, inside volume_match/gaussian_volume); little on calibration3d"),
    ("plane.PolarCurve, verify_two_sided, boundary_inverse_weight, matched_radius, hausdorff_distance, stability_ratio",
     "trials_per_ref and wall_ref on planar-batch only (the constructor is ~25% of verify2d)"),
    ("cli.generate_convex_polar, generate_star_polar, random_even_body (+ generate.attempts, generate.accept_ratio)",
     "trials_per_ref on planar-batch and calibration3d"),
    ("cli.report_bytes, cli.run self time", "wall_ref on every workload"),
    ("sphere.build_quadrature (+ misses, nodes), sphere.basis.misses",
     "wall_ref and peak_rss_mb on spectral-scan (162,129 nodes at n=5); one small miss per process on calibration3d; none on planar-batch"),
    ("sphere.synthesize, field_gradient, hessian_form_at_nodes, analyze",
     "wall_ref on spectral-scan (~25% of threshold-scan n=4 in Gegenbauer evaluation); trials_per_ref on calibration3d (warm n=3 tables)"),
    ("body.is_convex", "trials_per_ref on calibration3d (its tangent-frame loop is ~75% of calibration at n=3)"),
    ("body.volume_match (+ vol_evals), body.gaussian_volume", "wall_ref on spectral-scan"),
    ("body.RadialGraph, curvature_energy_nd, flux_energy, mean_curvature_at_nodes, ball_match_radius",
     "wall_ref on spectral-scan; trials_per_ref on calibration3d"),
    ("experiments.measure_second_variation (+ p50_ms, p90_ms), threshold_scan (+ bisection_steps), calibration_check",
     "wall_ref on spectral-scan; trials_per_ref on calibration3d"),
    ("<layer>.errors", "ops_ok_frac on the workload where the layer runs"),
)
