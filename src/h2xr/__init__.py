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
    hyp_distance,
    load_generators,
    mobius_apply,
    translation_length,
)
from .metrics import (
    ChartPoint,
    CurvatureSample,
    MetricSpec,
    WarpProfile,
    curvature_at,
    register_potential,
)
from .geodesics import (
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
