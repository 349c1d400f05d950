"""Tube radii, ortholength spectra and Dirichlet insulator families of closed
geodesics in hyperbolic 3-manifolds, from a matrix presentation of the
holonomy group."""

from .hcore import (
    CircleOnSphere,
    ComplexDistance,
    Geodesic,
    HPoint,
    IdealPoint,
    IntersectingLines,
    Isometry,
    NotLoxodromic,
    PointOnCircle,
    SharedEndpoint,
    axis,
    classify,
    complex_length,
    dist_point_geodesic,
    ideal,
    midplane,
    mobius_apply,
    orthocurve_feet,
    orthodistance,
    separates,
    visual_angle,
)
from .lifts import (
    GroupPresentation,
    LiftSet,
    OrthoEntry,
    Word,
    check_log3_tube,
    enumerate_elements,
    lifts_of_geodesic,
    ortho_spectrum,
    tube_radius,
)
from .insulator import (
    InsulatorFamily,
    Verdict,
    build_family,
    noncoalesceable,
    separating_triple,
)
from .bounds import (
    GM_LEN,
    LOG3_HALF,
    LONG_LEN,
    MEYERHOFF_LEN,
    HypothesisReport,
    hypothesis_report,
    long_geodesic_guarantee,
    short_geodesic_guarantee,
)

__version__ = "0.1.0"
