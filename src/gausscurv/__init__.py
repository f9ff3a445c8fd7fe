"""Weighted curvature energies of convex and star-shaped bodies.

Planar two-sided bounds on the energy gap to the matched disk, a
three-dimensional cylinder that beats the ball, second-variation stability
thresholds of the ball under a Gaussian volume constraint, and the
flux-calibration inequalities, all backed by spectral representations and
quadrature with error estimates.
"""

from .body import (
    BodyIntegrals,
    RadialGraph,
    ball_energy,
    ball_gaussian_volume,
    ball_match_radius,
    body_integrals,
    curvature_energy_nd,
    flux_energy,
    gaussian_volume,
    inscribed_radius,
    inverse_square_flux,
    mean_curvature,
    volume_match,
)
from .errors import (
    AdmissibilityError,
    ConfigError,
    ConvexityError,
    GausscurvError,
    QuadratureError,
)
from .experiments import (
    CylinderSpec,
    VariationReport,
    calibration_check,
    capped_cylinder,
    counterexample_gap,
    cylinder_energy,
    cylinder_volume,
    matched_cylinder_radius,
    measure_second_variation,
    quadratic_coefficient,
    threshold_scan,
)
from .plane import (
    InequalityReport,
    PolarCurve,
    alpha_beta,
    boundary_inverse_weight,
    curvature_at,
    curvature_energy,
    hausdorff_distance,
    lemma_gradient_bound,
    matched_radius,
    normal_deficiency,
    stability_ratio,
    verify_two_sided,
    weighted_area,
)
from .sphere import (
    HarmonicField,
    SphereQuadrature,
    build_quadrature,
    field_gradient,
    hessian,
    hessian_form,
    laplace_beltrami,
    zonal_quadrature,
)
from .weights import (
    RadialMoments,
    WeightPair,
    make_gaussian_weight,
    make_weight,
    psi,
    radial_moments,
)

__version__ = "0.1.0"
