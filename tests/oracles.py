"""Reference implementations the tests compare the package against."""

import numpy as np

from h2xr.asymptotics import ProductPoint
from h2xr.geodesics import Trajectory
from h2xr.jacobi import _anchor_index, _half_grid_rperp, _propagate_pair
from h2xr.metrics import (ChartPoint, MetricSpec, christoffel_many, curvature_tensor_many,
                          metric_many)


def riccati_from_jacobi(traj: Trajectory, T_anchor: float):
    """U = A' A^{-1} from the anchored Jacobi solution A(T) = I, A'(T) = 0.

    This linear route reproduces the zero-anchored Riccati solution
    exactly (U(T) = A'(T) A(T)^{-1} = 0 and both satisfy the same flow),
    so it serves as an independent check on the nonlinear integration.
    Entries where A is close to singular are returned as nan.
    """
    k = _anchor_index(traj, T_anchor)
    A, Ap = _propagate_pair(traj.times, _half_grid_rperp(traj)[None], np.eye(2),
                            np.zeros((2, 2)), k, 0)
    A, Ap = A[0, : k + 1], Ap[0, : k + 1]
    dets = np.linalg.det(A)
    U = np.full_like(A, np.nan)
    ok = np.abs(dets) > 1e-12
    U[ok] = Ap[ok] @ np.linalg.inv(A[ok])
    return traj.times[: k + 1].copy(), U


def bianchi_residual(r4: np.ndarray) -> float:
    """Max first-Bianchi residual of a lowered curvature tensor."""
    # cyclic sum over the first three slots of Rm; Rm(i,j,k,l) = R4[i,j,l,k]
    rm = np.swapaxes(r4, -2, -1)
    cyc = rm + np.moveaxis(rm, (-4, -3, -2), (-2, -4, -3)) + np.moveaxis(
        rm, (-4, -3, -2), (-3, -2, -4)
    )
    return float(np.max(np.abs(cyc)))


def curvature_at_full_metric(spec: MetricSpec, p: ChartPoint):
    """(R4, sectionals, Ricci) at p through the full 3 x 3 metric.

    The metric comes from metric_many, its inverse from np.linalg.inv, the
    sectional denominators are g_ii g_jj - g_ij^2 and Ricci contracts both
    inverse-metric indices: the general route that curvature_at shortens
    with the diagonal metric.
    """
    q = p.as_array()[None, :]
    r4 = curvature_tensor_many(spec, q)[0]
    g = metric_many(spec, q)[0]
    sectionals = {(i, j): float(r4[i, j, i, j] / (g[i, i] * g[j, j] - g[i, j] ** 2))
                  for i, j in ((0, 1), (0, 2), (1, 2))}
    return r4, sectionals, np.einsum("il,ijlk->jk", np.linalg.inv(g), r4)


def busemann_hessian_christoffel(L: float, x: ProductPoint) -> np.ndarray:
    """Hessian 0 - Gamma^k_ij d_k b of the Busemann limit b = -L t, from christoffel_many."""
    grad = np.array([0.0, 0.0, -L])
    gam = christoffel_many(MetricSpec.product(L), x.chart().as_array()[None, :])[0]
    return 0.0 - np.einsum("kij,k->ij", gam, grad)
