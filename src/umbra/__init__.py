"""Shadow boundaries of convex bodies.

Compute and certify the regularity of (a) silhouette boundaries under
parallel illumination and (b) boundaries of the shadow one convex body casts
by orthogonal projection onto another, together with Hoelder-exponent,
cusp, and box-dimension diagnostics and the classical sharpness
counterexamples.
"""

from . import bodies, counterexamples, illumination, projection, regularity
from .bodies import (
    BodySpec,
    ConcaveChart,
    Convexity,
    ImplicitBody,
    Pose,
    body_self_check,
    chart_at,
    instantiate,
)
from .errors import UmbraError
from .illumination import (
    Direction,
    ShadowCurve,
    is_in_shadow,
    normal_from_superdifferential,
    shadow_boundary_gamma,
    shadow_boundary_sweep,
)
from .projection import (
    BoundaryTrace,
    ProjectionPoint,
    assert_disjoint,
    barrier_gamma_bar,
    certify_rank,
    first_hitting_time,
    in_projection_shadow,
    project_point,
    seed_boundary,
    solve_boundary_point,
    trace_boundary,
)
from .regularity import (
    ConeCertificate,
    DimensionEstimate,
    HolderFit,
    box_dimension,
    chart_constants,
    cusp_check,
    holder_fit,
)

__version__ = "0.1.0"

__all__ = [
    "BodySpec",
    "BoundaryTrace",
    "ConcaveChart",
    "ConeCertificate",
    "Convexity",
    "DimensionEstimate",
    "Direction",
    "HolderFit",
    "ImplicitBody",
    "Pose",
    "ProjectionPoint",
    "ShadowCurve",
    "UmbraError",
    "assert_disjoint",
    "barrier_gamma_bar",
    "bodies",
    "body_self_check",
    "box_dimension",
    "certify_rank",
    "chart_at",
    "chart_constants",
    "counterexamples",
    "cusp_check",
    "first_hitting_time",
    "holder_fit",
    "illumination",
    "in_projection_shadow",
    "instantiate",
    "is_in_shadow",
    "normal_from_superdifferential",
    "project_point",
    "projection",
    "regularity",
    "seed_boundary",
    "shadow_boundary_gamma",
    "shadow_boundary_sweep",
    "solve_boundary_point",
    "trace_boundary",
]
