"""Busemann functions, ball volumes and volume entropy for the product.

Everything here rides on the closed-form product distance
sqrt(d_H2^2 + L^2 dt^2).  The reference ray is the unit-speed fiber ray
through (i, 0), gamma(s) = (i, s/L); generic metrics would need a
two-point boundary value solver and stay out of scope.

For this ray the Busemann limit of d(x, gamma(s)) - s is exactly -L t:
the horizontal displacement contributes d_H2^2 / (2s) -> 0.  On the ray's
axis the estimate is exact once s >= L t; off the axis it converges at
rate O(1/s), which busemann_estimate exposes for diagnostics while the
derivative checks use the closed-form derivatives of the limit function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hyperbolic import HPoint, hyp_distance
from .metrics import ChartPoint, MetricSpec, christoffel_many


@dataclass(frozen=True)
class ProductPoint:
    """Point (z, t) of the product chart, z in the upper half-plane."""

    z: HPoint
    t: float

    def chart(self) -> ChartPoint:
        return ChartPoint(self.z.x, self.z.y, self.t)


def _check_L(L: float) -> None:
    if not (L > 0.0 and math.isfinite(L)):
        raise DomainError(f"fiber length L must be > 0, got {L}")


def product_distance(L: float, p: ProductPoint, q: ProductPoint) -> float:
    """sqrt(d_H2(z_p, z_q)^2 + L^2 (t_p - t_q)^2)."""
    _check_L(L)
    return math.hypot(hyp_distance(p.z, q.z), L * (p.t - q.t))


def busemann_estimate(L: float, x: ProductPoint, s: float) -> float:
    """d(x, gamma(s)) - s for the fiber ray gamma(s) = (i, s/L).

    Nonincreasing in s; converges to busemann_limit(L, x), exactly once
    s >= L t for points on the ray's axis and at rate d_H2^2/(2s) off it.
    """
    _check_L(L)
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"ray parameter s must be > 0, got {s}")
    ray = ProductPoint(HPoint(0.0, 1.0), s / L)
    return product_distance(L, x, ray) - s


def busemann_limit(L: float, x: ProductPoint) -> float:
    """The converged Busemann value -L t of the fiber ray."""
    _check_L(L)
    return -L * x.t


def busemann_derivatives(L: float, x: ProductPoint) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate gradient and covariant Hessian of the limit -L t.

    The limit is linear in the chart, so db = (0, 0, -L) and the Hessian
    is the connection term alone, 0 - Gamma^k_ij d_k b.
    """
    _check_L(L)
    grad = np.array([0.0, 0.0, -L])
    gam = christoffel_many(MetricSpec.product(L), x.chart().as_array()[None, :])[0]
    # 0 - (...), not -(...): a zero entry stays +0.0 and never prints as -0.0
    return grad, 0.0 - np.einsum("kij,k->ij", gam, grad)


def ball_volume(L: float, R: float, kappa: float = 1.0) -> float:
    """Volume of the metric R-ball in the universal cover.

    The slice integral of base-disk areas over the fiber displacement,
    Vol = int_{-R}^{R} 2 pi (cosh(sqrt(kappa (R^2 - u^2))) - 1) / kappa du,
    in closed form 2 pi^2 R L_1(sqrt(kappa) R) / kappa with L_1 the
    modified Struve function.  Independent of L, which only rescales the
    fiber coordinate.
    """
    from scipy.special import modstruve

    _check_L(L)
    if not (kappa > 0.0 and math.isfinite(kappa)):
        raise DomainError(f"curvature scale must be > 0, got {kappa}")
    if R < 0.0 or not math.isfinite(R):
        raise DomainError(f"radius must be >= 0, got {R}")
    return 2.0 * math.pi ** 2 * R * float(modstruve(1, math.sqrt(kappa) * R)) / kappa


def entropy_running(L: float, R: float, kappa: float = 1.0) -> float:
    """Plain ratio log Vol(B_R) / R; converges like 1 + O(log R / R)."""
    if R <= 0.0:
        raise DomainError(f"need R > 0, got {R}")
    return math.log(ball_volume(L, R, kappa)) / R


def volume_entropy(L: float, R_max: float, kappa: float = 1.0) -> float:
    """Volume entropy estimate, converged at moderate radii.

    log Vol(B_R) = h R + c + (1/2) log R + o(1): the slice integral is a
    Laplace integral whose width grows like sqrt(R), so the plain ratio
    log V / R carries an O(log R / R) bias (about 0.125 at R = 30).
    Fitting h, c and the log coefficient on three radii removes it.
    """
    if R_max < 20.0:
        raise DomainError(f"entropy estimate needs R_max >= 20, got {R_max}")
    radii = np.array([R_max - 10.0, R_max - 5.0, R_max])
    logv = np.array([math.log(ball_volume(L, r, kappa)) for r in radii])
    design = np.column_stack([radii, np.ones(3), np.log(radii)])
    h, _, _ = np.linalg.solve(design, logv)
    return float(h)
