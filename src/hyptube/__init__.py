"""Tube radii, ortholength spectra and Dirichlet insulator families of closed
geodesics in hyperbolic 3-manifolds, from a matrix presentation of the
holonomy group."""

from .hcore import (
    Geodesic,
    Isometry,
    classify,
    complex_length,
    midplane,
    orthodistance,
    visual_angle,
)
from .lifts import (
    GroupPresentation,
    Word,
    check_log3_tube,
    lifts_of_geodesic,
    ortho_spectrum,
    tube_radius,
)
from .insulator import build_family, noncoalesceable
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
