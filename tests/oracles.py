"""Reference implementations the tests compare the package against."""

import numpy as np

from h2xr.geodesics import Trajectory
from h2xr.jacobi import _anchor_index, _half_grid_rperp, _propagate_pair


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
