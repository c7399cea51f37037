"""Numerical laboratory for geodesic dynamics on the chart H^2 x R.

Product, warped and sheared fiber metrics; geodesic flow with parallel
frames; Jacobi propagators and conjugate-point scans; stable Riccati
tensors; Busemann functions; spectra, length spectra and the sharp
inequality calculators; plus a deterministic claim-checking CLI.
"""

__version__ = "0.1.0"

from .errors import DomainError, NumericsError
from .hyperbolic import (
    HPoint,
    MobiusElement,
    disk_area,
    hyp_distance,
    load_generators,
    mobius_apply,
    translation_length,
    vertical_busemann,
)
from .metrics import (
    ChartPoint,
    CurvatureSample,
    MetricSpec,
    WarpProfile,
    christoffel_at,
    curvature_at,
    metric_at,
    r_v_operator,
    register_potential,
    warp_profile_eval,
)
from .geodesics import (
    PhaseState,
    Trajectory,
    integrate_geodesic,
    speed_drift,
    unit_vector,
)
from .jacobi import (
    JacobiRun,
    RiccatiRun,
    first_conjugate_point,
    propagate_jacobi,
    rauch_check,
    riccati_average,
    riccati_stable,
    scan_conjugate_points,
)
from .asymptotics import (
    ProductPoint,
    ball_volume,
    busemann_estimate,
    busemann_hessian_horizontal,
    product_distance,
    volume_entropy,
)
from .invariants import (
    LengthEntry,
    SigmaSpectrum,
    curvature_deviation,
    enumerate_length_spectrum,
    epsilon0,
    isoperimetric_bound,
    mls_length,
    moduli_dimension,
    product_spectrum,
    spectral_gap,
    tube_profiles,
)
