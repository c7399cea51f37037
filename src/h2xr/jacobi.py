"""Jacobi propagators, conjugate points, and Riccati stable tensors.

The normal-bundle Jacobi propagator A solves A'' + R_perp(t) A = 0 in the
parallel frame, A(0) = 0, A'(0) = I.  Conjugate parameters are zeros of
det A.  Zeros come in two kinds here: simple sign changes, refined by
bisection, and tangential (even-order) zeros, refined by a golden-section
search on |det A|.  The tangential branch is not exotic: along the central
vertical geodesic of the warped family R_perp is a multiple of the
identity, so det A = (sin(w t)/w)^2 touches zero without changing sign.

The stable Riccati tensor is built as the anchored limit: integrate
U' = -U^2 - R_perp backward from U(T) = 0 and let the anchor grow;
anchors T and 2T agreeing at t = 0 declares convergence.

On the Product metric both propagators are closed form.  R_perp = -c c^T
is constant in the parallel frame, |c| = sigma the horizontal speed, so
with P = c c^T / sigma^2 the propagator is A = t (I - P) + (sinh(sigma t)
/ sigma) P, det A = t sinh(sigma t) / sigma > 0 (no conjugate points), and
the stable tensor is U = -sigma tanh(sigma (T - t)) P.  Both read only a
row's start state, so its trajectory samples are never filled; det A
rises strictly, so a Product scan row reads it once, at times[1].

Warped and Twisted runs march on the sample grid in `_march`, which
takes the geodesic flow's own RK4 step, `geodesics._rk4_step`: forward
for (A, A')' = (A', -R A), backward for U' = -U^2 - R; a lone row takes
that step written out on floats (`_pair_step`, `_riccati_step`) with its
batch bits, and `_mul` spells the 2 x 2 products out, so no BLAS kernel
sets the bits.  R is R_perp on the half-step grid, in
closed form from the warped-product fiber kernel:
index 2k holds it at sample k, index 2k + 1 at the midpoint state of
step k, the cubic Hermite interpolant of the stored states (q, v, e1, e2)
and their flow derivative, m = (s_k + s_{k+1})/2 + (h/8)(f_k - f_{k+1});
`_rperp` reads such (..., 12) states directly.
Node i of a step k -> k + d (d = +-1) reads index 2k + d i.  The
midpoint state is O(h^4) off the geodesic, which keeps both propagators
fourth order.  Between samples, A(t) is the cubic Hermite interpolant of
(A, A') at the two ends; root refinement runs on that dense output, with
no re-integration.  The Product/RK4 choice is made only in `_propagators`
(A, A'), `_stable_tensors` (U) and `_scan_values` (a scan row's t* and
det A minimum); every entry point reads one of them.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError
from .geodesics import (Trajectory, _rhs, _rk4_step, integrate_geodesic,
                        integrate_geodesic_batch)
from .metrics import ChartPoint, MetricSpec, _r_v, fiber, inner_many

RICCATI_BLOWUP = 1e6
CONJUGATE_REFINE_TOL = 1e-8
# sampled |det| below this near a strict local minimum triggers tangency
# refinement; scaled with the grid because a double root sampled at
# distance h/2 reads about (h/2)^2
_TANGENT_TRIGGER_FLOOR = 1e-8
SCAN_CHUNK = 32
_VERTICAL_GEODESIC_TOL = 1e-8
_RAUCH_CASES = ((1.0, 0.0), (0.0, 1.0), (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)))


@dataclass(frozen=True)
class JacobiRun:
    """Propagator samples along a trajectory plus detected conjugates."""

    traj: Trajectory
    A: np.ndarray          # (N, 2, 2)
    Ap: np.ndarray         # (N, 2, 2)
    dets: np.ndarray       # (N,) det A
    conjugates: list

    @property
    def times(self) -> np.ndarray:
        return self.traj.times


@dataclass(frozen=True)
class RiccatiRun:
    """Symmetric Riccati solution samples on [0, T_anchor]."""

    traj: Trajectory
    times: np.ndarray
    U: np.ndarray          # (M, 2, 2)
    T_anchor: float


def normal_curvature_samples(traj: Trajectory) -> np.ndarray:
    """R_perp[a, b] = g(R(e_a, v) v, e_b) at every trajectory sample."""
    return _rperp(traj.spec, traj.states)


def _rperp(spec, s):
    """R_perp (..., 2, 2) at states s (..., 12): point q, tangent v, normal frame e1, e2.

    Warped-product closed form: with u, w_a the horizontal parts of v, e_a,
    c_a = w_a x u and xi_a = v_t w_a - (e_a)_t u, the K = -1 base block
    gives -c c^T / y^4 and the mixed block -phi Hess phi(xi, xi).  The
    Hessian form is spelled out on the components, which is several times
    cheaper than stacked 2 x 2 matmuls, and its one off-diagonal entry is
    written to both places, so R_perp is exactly symmetric.
    """
    c = _base_coupling(s)
    out = -(c[..., :, None] * c[..., None, :])
    if spec.kind != "Product":
        ax, ay, bx, by = (s[..., 5] * s[..., a + i] - s[..., a + 2] * s[..., 3 + i]
                          for a in (6, 9) for i in (0, 1))      # xi_1 = (ax, ay), xi_2 = (bx, by)
        phi, _, hess = fiber(spec, s[..., 0:3])
        hxx, hxy, hyy = hess[..., 0, 0], hess[..., 0, 1], hess[..., 1, 1]
        hax, hay = ax * hxx + ay * hxy, ax * hxy + ay * hyy     # Hess phi xi_1
        out[..., 0, 0] -= phi * (hax * ax + hay * ay)
        out[..., 1, 1] -= phi * ((bx * hxx + by * hxy) * bx + (bx * hxy + by * hyy) * by)
        out[..., 0, 1] -= phi * (hax * bx + hay * by)
        out[..., 1, 0] = out[..., 0, 1]
    return out


def _half_grid_rperp(traj: Trajectory, n=None) -> np.ndarray:
    """R_perp on the half-step grid of samples 0..n-1 (all by default), (2 n - 1, 2, 2).

    Sample k sits at index 2k, the Hermite midpoint of step k at 2k + 1.
    """
    s = traj.states[:n]
    f = _rhs(traj.spec, s)
    h = np.diff(traj.times[:n])[:, None]
    half = np.empty((2 * len(s) - 1, 12))
    half[0::2] = s
    half[1::2] = 0.5 * (s[:-1] + s[1:]) + (0.125 * h) * (f[:-1] - f[1:])
    return _rperp(traj.spec, half)


def _half_grid_batch(trajs, n=None):
    """(times of the longest row, every row's half-grid R_perp zero-padded to it).

    Both stop at sample n - 1 when n is given.
    """
    times = max((t.times for t in trajs), key=len)[:n]
    rhalf = np.zeros((len(trajs), 2 * len(times) - 1, 2, 2))
    for b, t in enumerate(trajs):
        rhalf[b, : 2 * min(t.n_samples, len(times)) - 1] = _half_grid_rperp(t, n)
    return times, rhalf


def _base_coupling(s):
    """(w_a x u) / y^2 at states s (..., 12); u, w_a the horizontal parts of v, e_a.

    The K = -1 base block of R_perp is -c c^T with c this vector.
    """
    return (s[..., 6::3] * s[..., 4, None] - s[..., 7::3] * s[..., 3, None]) / s[..., 1, None] ** 2


def _product_axis(traj: Trajectory):
    """(sigma, P) of a Product row: R_perp = -sigma^2 P all along it.

    c is constant along a Product geodesic in its parallel frame, so it is
    read at the start state, and the row's samples are never filled;
    sigma = |c| is the horizontal speed and P = c c^T / sigma^2.  A
    vertical row has c = 0: sigma = 0 and P = 0.
    """
    c = _base_coupling(traj.start)
    sigma = math.hypot(c[0], c[1])
    if sigma == 0.0:
        return 0.0, np.zeros((2, 2))
    c = c / sigma
    return sigma, np.outer(c, c)


def _product_propagators(sigma, P, t):
    """Closed-form fundamental solutions (S, C, C') of A'' = sigma^2 P A at times t.

    S(t) = t (I - P) + (sinh(sigma t) / sigma) P solves A(0) = 0, A'(0) = I;
    C(t) = (I - P) + cosh(sigma t) P = S'(t) solves A(0) = I, A'(0) = 0, and
    C'(t) = sigma sinh(sigma t) P.  Other initial data follow by linearity:
    A = C A0 + S A'0.  sinh(sigma t) / sigma is taken as t sinh(x) / x with
    x = sigma t, which stays exact where x underflows; at sigma = 0 (P = 0)
    that gives S = t I and C = I.
    """
    t = np.asarray(t, float)[:, None, None]
    x = sigma * t
    sh = np.sinh(x)
    Q = np.eye(2) - P
    S = t * Q + (t * np.divide(sh, x, out=np.ones_like(x), where=x > 0.0)) * P
    C = Q + np.cosh(x) * P
    return S, C, (sigma * sh) * P


def _product_riccati(sigma, P, t, T):
    """Zero-anchored Riccati solution U(t) = -sigma tanh(sigma (T - t)) P at times t <= T."""
    u = sigma * np.tanh(sigma * (T - np.asarray(t, float)))
    # 0 - (...), not -(...): a zero entry stays +0.0 and never prints as -0.0
    return 0.0 - u[:, None, None] * P


def _march(times, rhalf, y, k_from, k_to, f, bound=None):
    """RK4 for y' = f(y, R) on the sample grid from state y (..., B, 2, 2) at k_from to k_to.

    R is the (B, 2, 2) stage-node slice of rhalf, R_perp on the half-step
    grid of times (B, 2 N - 1, 2, 2).  Returns (..., B, N, 2, 2), NaN off
    k_from..k_to.  A step past the bound (or to nan) raises NumericsError.
    A lone row (B = 1) steps its flat state on floats, by f's step in
    _LONE_STEP, with the nodes as rows of 4 floats.
    """
    d = 1 if k_to >= k_from else -1
    hs = np.diff(times).tolist()
    out = np.full((len(times), *y.shape), np.nan)   # out[k]: sample k of every row
    if lone := y.shape[-3] == 1:   # steps is a view of out, a row of floats per sample
        steps, y, R, step = (out.reshape(len(times), -1), y.ravel().tolist(),
                             rhalf[0].reshape(-1, 4).tolist(), _LONE_STEP[f])
    else:
        steps, R = out, rhalf.swapaxes(0, 1)   # R[j]: node j of every row

        def step(y, h, *nodes):   # stage i of _rk4_step reads node 0, 1, 1, 2
            return _rk4_step(lambda y, i: f(y, nodes[i]), y, h)
    steps[k_from] = y
    for k in range(k_from, k_to, d):
        j = 2 * k   # h = times[k + d] - times[k], to the bit: hs holds the forward steps
        y = step(y, d * hs[min(k, k + d)], R[j], R[j + d], R[j + 2 * d])
        # NaN-safe: over the bound, inf and nan all fail it (max() skips a nan not first)
        if bound is not None and not (all(abs(c) <= bound for c in y) if lone
                                      else np.max(np.abs(y)) <= bound):
            raise NumericsError("focal blow-up in backward Riccati integration",
                                time=float(times[k + d]))
        steps[k + d] = y
    return np.moveaxis(out, 0, -3)


def _mul(a, b):
    """a @ b of stacked 2 x 2 arrays, summed as a non-FMA BLAS kernel does, whatever the host's."""
    # (a_i0 b_0j + 0.0) + a_i1 b_1j: the kernel's sum starts from 0.0, which keeps its signed zeros
    return (a[..., :, :1] * b[..., :1, :] + 0.0) + a[..., :, 1:] * b[..., 1:, :]


def _pair_rhs(y, R):
    """(A, A')' = (A', -R A) for the stacked state y = (A, A')."""
    dy = np.empty_like(y)
    dy[0] = y[1]
    np.negative(_mul(R, y[0]), out=dy[1])
    return dy


def _riccati_rhs(u, R):
    """U' = -U^2 - R."""
    return -_mul(u, u) - R


def _pair_step(y, h, r0, r1, r2):
    """_rk4_step of _pair_rhs on one row: y = (A, A') as 8 floats, R at the nodes as 4 each.

    Its operations in its order, on named floats, through one loop body as
    in geodesics._geodesic_step; -R A keeps _mul's sums.
    """
    a00, a01, a10, a11, p00, p01, p10, p11 = y0 = y
    s00 = s01 = s10 = s11 = t00 = t01 = t10 = t11 = -0.0
    for c, w, (m00, m01, m10, m11) in ((0.5 * h, 1.0, r0), (0.5 * h, 2.0, r1), (h, 2.0, r1),
                                       (None, 1.0, r2)):
        d00, d01 = -((m00 * a00 + 0.0) + m01 * a10), -((m00 * a01 + 0.0) + m01 * a11)
        d10, d11 = -((m10 * a00 + 0.0) + m11 * a10), -((m10 * a01 + 0.0) + m11 * a11)
        s00, s01, s10, s11 = s00 + w * p00, s01 + w * p01, s10 + w * p10, s11 + w * p11
        t00, t01, t10, t11 = t00 + w * d00, t01 + w * d01, t10 + w * d10, t11 + w * d11
        if c is not None:
            a00, a01, a10, a11 = y0[0] + c * p00, y0[1] + c * p01, y0[2] + c * p10, y0[3] + c * p11
            p00, p01, p10, p11 = y0[4] + c * d00, y0[5] + c * d01, y0[6] + c * d10, y0[7] + c * d11
    c = h / 6.0
    return (y0[0] + c * s00, y0[1] + c * s01, y0[2] + c * s10, y0[3] + c * s11,
            y0[4] + c * t00, y0[5] + c * t01, y0[6] + c * t10, y0[7] + c * t11)


def _riccati_step(u, h, r0, r1, r2):
    """_rk4_step of _riccati_rhs on one row: U and R at the nodes as 4 floats each.

    Its operations in its order, on named floats; -U^2 keeps _mul's sums.
    """
    u00, u01, u10, u11 = u0 = u
    s00 = s01 = s10 = s11 = -0.0
    for c, w, (m00, m01, m10, m11) in ((0.5 * h, 1.0, r0), (0.5 * h, 2.0, r1), (h, 2.0, r1),
                                       (None, 1.0, r2)):
        d00 = -((u00 * u00 + 0.0) + u01 * u10) - m00
        d01 = -((u00 * u01 + 0.0) + u01 * u11) - m01
        d10 = -((u10 * u00 + 0.0) + u11 * u10) - m10
        d11 = -((u10 * u01 + 0.0) + u11 * u11) - m11
        s00, s01, s10, s11 = s00 + w * d00, s01 + w * d01, s10 + w * d10, s11 + w * d11
        if c is not None:
            u00, u01, u10, u11 = u0[0] + c * d00, u0[1] + c * d01, u0[2] + c * d10, u0[3] + c * d11
    c = h / 6.0
    return u0[0] + c * s00, u0[1] + c * s01, u0[2] + c * s10, u0[3] + c * s11


_LONE_STEP = {_pair_rhs: _pair_step, _riccati_rhs: _riccati_step}


def _hermite(times, A, Ap, t):
    """A(t) from the cubic Hermite interpolant of (A, A') on the sample interval holding t."""
    k = min(max(int(np.searchsorted(times, t)) - 1, 0), len(times) - 2)
    h = times[k + 1] - times[k]
    s = (t - times[k]) / h
    s2 = s * s
    return (((2.0 * s - 3.0) * s2 + 1.0) * A[k] + ((3.0 - 2.0 * s) * s2) * A[k + 1]
            + h * ((((s - 2.0) * s + 1.0) * s) * Ap[k] + ((s - 1.0) * s2) * Ap[k + 1]))


def _detect_conjugates(times, A, Ap, dets, step):
    """Refined zeros of det A on (0, T], in increasing order.

    Whole-row masks give the candidates (exact zeros, sign changes, strict
    local minima of |det| below the trigger), tried in that order and
    refined on the Hermite dense output; an accepted tangency skips k + 1.
    """
    trigger = max(_TANGENT_TRIGGER_FLOOR, (5.0 * step) ** 2)
    mag = np.abs(dets)
    d0, d1 = dets[1:-1], dets[2:]
    m0 = mag[1:-1]
    mask = (d0 == 0.0) | (d0 * d1 < 0.0) | ((m0 < trigger) & (m0 < mag[:-2]) & (m0 <= mag[2:]))
    found = []

    def det_at(t):
        a = _hermite(times, A, Ap, t)
        return float(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])

    skip = -1
    for k in np.flatnonzero(mask) + 1:
        if k == skip:
            continue
        if dets[k] == 0.0:
            found.append(float(times[k]))
            continue
        if dets[k] * dets[k + 1] < 0.0:
            lo, hi = times[k], times[k + 1]
            flo = dets[k]
            while hi - lo > CONJUGATE_REFINE_TOL:
                mid = 0.5 * (lo + hi)
                fm = det_at(mid)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            found.append(0.5 * (lo + hi))
            continue
        # strict local minimum of |det| without sign change: golden-section search
        phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = times[k - 1], times[k + 1]
        c = b - phi * (b - a)
        d = a + phi * (b - a)
        fc, fd = abs(det_at(c)), abs(det_at(d))
        while b - a > CONJUGATE_REFINE_TOL:
            if fc < fd:
                b, d, fd = d, c, fc
                c = b - phi * (b - a)
                fc = abs(det_at(c))
            else:
                a, c, fc = c, d, fd
                d = a + phi * (b - a)
                fd = abs(det_at(d))
        t_min = 0.5 * (a + b)
        if abs(det_at(t_min)) <= 1e-10:
            found.append(t_min)
            skip = k + 1
    return found


def _propagators(trajs, companion=False):
    """Each row's (A, A') with A(0) = 0, A'(0) = I, or A(0) = I, A'(0) = 0 if companion.

    The rows share one spec.  Product rows take the closed form one at a
    time, so only one row's arrays are alive; the other kinds step one RK4
    batch over half-grid R_perp zero-padded past each row's end, and each
    row's result is sliced back to its own length.
    """
    if trajs[0].spec.kind == "Product":
        pick = slice(1, 3) if companion else slice(0, 2)
        for t in trajs:
            yield _product_propagators(*_product_axis(t), t.times)[pick]
        return
    times, rhalf = _half_grid_batch(trajs)
    y = np.zeros((2, len(trajs), 2, 2))
    y[0 if companion else 1] = np.eye(2)
    As, Aps = _march(times, rhalf, y, 0, len(times) - 1, _pair_rhs)
    for b, t in enumerate(trajs):
        yield As[b, : t.n_samples], Aps[b, : t.n_samples]


def _jacobi_runs(trajs):
    """One JacobiRun per row of trajs (one spec), yielded a row at a time."""
    for traj, (A, Ap) in zip(trajs, _propagators(trajs)):
        dets = np.linalg.det(A)
        yield JacobiRun(traj=traj, A=A, Ap=Ap, dets=dets,
                        conjugates=_detect_conjugates(traj.times, A, Ap, dets, traj.step))


def propagate_jacobi(traj: Trajectory) -> JacobiRun:
    """Normal-bundle propagator with A(0) = 0, A'(0) = I, plus conjugates."""
    return next(_jacobi_runs([traj]))


def companion_propagator(traj: Trajectory, rperp=None):
    """Propagator with A(0) = I, A'(0) = 0 (fields with J(0) != 0).

    rperp is not read; it stays only because bench/micro.py passes R_perp.
    """
    return next(_propagators([traj], companion=True))


def wronskian_drift(run: JacobiRun) -> float:
    """Max drift of (A')^T A - A^T A' from its initial value."""
    w = np.swapaxes(run.Ap, -2, -1) @ run.A - np.swapaxes(run.A, -2, -1) @ run.Ap
    return float(np.max(np.abs(w - w[0])))


def first_conjugate_point(spec: MetricSpec, q0: ChartPoint, v0, Tmax: float):
    """Smallest refined t* in (0, Tmax] with det A(t*) = 0, else None."""
    if not Tmax > 0.0:
        raise DomainError(f"Tmax must be > 0, got {Tmax}")
    run = propagate_jacobi(integrate_geodesic(spec, q0, v0, Tmax))
    return run.conjugates[0] if run.conjugates else None


# ---------------------------------------------------------------------------
# Riccati
# ---------------------------------------------------------------------------

def _anchor_index(traj: Trajectory, T_anchor: float) -> int:
    if not (0.0 < T_anchor <= traj.T + 1e-12):
        raise DomainError(
            f"anchor {T_anchor} outside the trajectory range (0, {traj.T}]"
        )
    return int(np.argmin(np.abs(traj.times - T_anchor)))


def _stable_tensors(trajs, k):
    """Each row's zero-anchored U on samples 0..k, shape (k + 1, 2, 2).

    The rows share one spec and one time grid.  Product rows take the
    closed form one at a time; the other kinds integrate backward in one
    RK4 batch over the half-grid R_perp of those samples, the only ones
    the backward march reads.
    """
    if trajs[0].spec.kind == "Product":
        for t in trajs:
            yield _product_riccati(*_product_axis(t), t.times[: k + 1], t.times[k])
        return
    u = np.zeros((len(trajs), 2, 2))
    yield from _march(*_half_grid_batch(trajs, k + 1), u, k, 0, _riccati_rhs, RICCATI_BLOWUP)


def riccati_stable(traj: Trajectory, T_anchor: float) -> RiccatiRun:
    """Backward zero-anchored Riccati solution on [0, T_anchor]."""
    k = _anchor_index(traj, T_anchor)
    times = traj.times[: k + 1].copy()
    U = next(_stable_tensors([traj], k))
    return RiccatiRun(traj=traj, times=times, U=U, T_anchor=float(times[k]))


def riccati_stable_limit(traj: Trajectory, T: float, tol: float = 1e-6):
    """Anchored-limit stable tensor: anchors T and 2T must agree at t = 0.

    Returns (RiccatiRun at anchor 2T, agreement delta at t = 0).
    """
    if 2.0 * T > traj.T + 1e-12:
        raise DomainError(f"trajectory too short for anchor doubling: need T >= {2*T}")
    run1 = riccati_stable(traj, T)
    run2 = riccati_stable(traj, 2.0 * T)
    delta = float(np.max(np.abs(run1.U[0] - run2.U[0])))
    if delta > tol:
        raise NumericsError(
            "anchored Riccati solutions did not converge", delta=delta, tol=tol
        )
    return run2, delta


# ---------------------------------------------------------------------------
# flow-averaged trace identity estimator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoxSampler:
    """Uniform sampler over a coordinate box of the chart."""

    x: tuple = (-1.0, 1.0)
    y: tuple = (0.5, 2.0)
    t: tuple = (0.0, 1.0)

    def __call__(self, rng) -> np.ndarray:
        return np.array([
            rng.uniform(*self.x), rng.uniform(*self.y), rng.uniform(*self.t)
        ])


@dataclass(frozen=True)
class PointSampler:
    """Degenerate sampler pinned to one base point."""

    point: ChartPoint

    def __call__(self, rng) -> np.ndarray:
        return self.point.as_array()


@dataclass(frozen=True)
class RiccatiAverage:
    estimate: float
    std_error: float
    n_samples: int
    n_rejected: int
    values: np.ndarray


def riccati_average(spec: MetricSpec, sampler, n: int, seed: int,
                    anchor: float = 20.0, step: float = 1e-2) -> RiccatiAverage:
    """Monte Carlo mean of Tr(U_s^2 + R_V) over sampled vertical geodesics.

    Sampled base points whose vertical curve is not a geodesic (|grad phi|_g
    above _VERTICAL_GEODESIC_TOL) are rejected; more than 50% rejections
    aborts.  U_s is the zero-anchored backward solution at the given
    anchor, evaluated at t = 0.
    """
    if n < 1:
        raise DomainError("need at least one sample")
    rng = np.random.default_rng(seed)
    pts = np.array([sampler(rng) for _ in range(n)])
    phi, (dphi_x, dphi_y), hess = fiber(spec, pts)
    grad = pts[:, 1] * np.hypot(dphi_x, dphi_y)  # |grad phi|_g
    keep = grad <= _VERTICAL_GEODESIC_TOL
    n_rej = int(n - keep.sum())
    if n_rej > 0.5 * n:
        raise NumericsError(
            "more than half of the sampled vertical curves are not geodesics",
            n_samples=n, n_rejected=n_rej,
        )
    pts, phi, hess = pts[keep], phi[keep], hess[keep]
    v0 = np.zeros_like(pts)
    v0[:, 2] = 1.0 / phi

    trajs = integrate_geodesic_batch(spec, pts, v0, anchor, step)
    cut = [b for b, t in enumerate(trajs) if t.truncated]
    if cut:
        raise NumericsError("vertical geodesic left the chart", row=cut[0])
    # copy row 0: a view would keep each row's whole U alive
    u0 = np.stack([U[0].copy() for U in _stable_tensors(trajs, trajs[0].n_samples - 1)])
    rv = _r_v(pts[:, 1], phi, hess)
    values = np.einsum("bij,bji->b", u0, u0) + np.trace(rv, axis1=-2, axis2=-1)
    est = float(np.mean(values))
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return RiccatiAverage(estimate=est, std_error=se, n_samples=int(keep.sum()),
                          n_rejected=n_rej, values=values)


# ---------------------------------------------------------------------------
# Rauch-type comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RauchCase:
    jh0: float
    jv0: float
    min_margin_rel: float
    max_abs_margin_rel: float


@dataclass(frozen=True)
class RauchReport:
    cases: list
    max_violation: float


def rauch_check(run: JacobiRun, k_min: float) -> RauchReport:
    """Split-metric Jacobi comparison for fields with J(0) != 0, J'(0) = 0.

    For each J(0) = jh0 e1 + jv0 e2 of _RAUCH_CASES the squared norm is compared to
    jh0_h^2 cosh^2(sqrt(-k_min) t) + (jv(0) + jv'(0) t)^2, where jv is the
    fiber component of J; the vertical term carries the field's own
    initial data, which for these fields makes it constant.
    """
    traj = run.traj
    if traj.spec.kind != "Product":
        raise DomainError("comparison is stated for the split (Product) metric")
    B, _ = companion_propagator(traj)
    vert = np.zeros_like(traj.q)
    vert[:, 2] = 1.0 / traj.spec.L
    om = math.sqrt(max(-k_min, 0.0))
    t = traj.times
    out = []
    for jh0, jv0 in _RAUCH_CASES:
        j0 = np.array([jh0, jv0])
        coeff = B @ j0                       # (N, 2) frame components
        jvec = coeff[:, :1] * traj.e1 + coeff[:, 1:] * traj.e2
        jn2 = np.einsum("ki,ki->k", coeff, coeff)
        jv = inner_many(traj.spec, traj.q, jvec, vert)
        jh2_0 = jn2[0] - jv[0] ** 2
        bound = jh2_0 * np.cosh(om * t) ** 2 + jv[0] ** 2
        margin = (jn2 - bound) / np.maximum(bound, 1e-30)
        out.append(RauchCase(jh0, jv0, float(np.min(margin)), float(np.max(np.abs(margin)))))
    return RauchReport(cases=out, max_violation=max(0.0, -min(c.min_margin_rel for c in out)))


def fit_frequency(times, values) -> float:
    """Frequency of a c sin(w t) fit; used to read off oscillator rates.

    Seeded from interior zero crossings when the signal completes half
    periods, falling back to the first extremum for short windows that
    stay inside the first quarter period.
    """
    from scipy.optimize import curve_fit

    times = np.asarray(times, float)
    values = np.asarray(values, float)
    k_max = int(np.argmax(np.abs(values)))
    if k_max == 0:
        raise DomainError("signal has no interior extremum to seed the fit")
    sign = np.sign(values[1:])
    crossings = times[1:-1][(sign[:-1] * sign[1:] < 0.0)]
    if len(crossings) >= 1:
        gaps = np.diff(np.concatenate([[0.0], crossings]))
        w0 = math.pi / float(np.mean(gaps))
    else:
        w0 = math.pi / (2.0 * times[k_max])
    popt, _ = curve_fit(lambda t, c, w: c * np.sin(w * t), times, values,
                        p0=(values[k_max], w0))
    return abs(float(popt[1]))


# ---------------------------------------------------------------------------
# conjugate-point scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    index: int
    q0: np.ndarray
    v0: np.ndarray
    t_star: float | None
    det_min: float
    truncated: bool


DEFAULT_SCAN_BOX = BoxSampler()


def _draw_initial_conditions(spec, indices, seed, box):
    q0s = np.empty((len(indices), 3))
    w = np.empty((len(indices), 3))
    for row, i in enumerate(indices):
        rng = np.random.default_rng([seed, i])
        q0s[row] = box(rng)
        w[row] = rng.normal(size=3)
    return q0s, w / np.sqrt(inner_many(spec, q0s, w, w))[:, None]


def _scan_values(trajs):
    """Each row's (first conjugate t* or None, min of det A over samples 1..N-1).

    A row of one sample gives 0.0.  On Product, det A = t sinh(sigma t) /
    sigma (t^2 on a vertical row) rises strictly from 0, so there is no
    conjugate point and the minimum is at the first sample after t = 0:
    only det S(times[1]) is evaluated, with the LAPACK det that
    propagate_jacobi takes, so the value is the same to the bit.  The
    other kinds read the full JacobiRun.
    """
    if trajs[0].spec.kind == "Product":
        for t in trajs:
            S = _product_propagators(*_product_axis(t), t.times[1:2])[0]
            yield None, float(np.linalg.det(S)[0]) if len(S) else 0.0
        return
    for run in _jacobi_runs(trajs):
        yield (run.conjugates[0] if run.conjugates else None,
               float(np.min(run.dets[1:])) if len(run.dets) > 1 else 0.0)


def _scan_chunk(args):
    spec, indices, Tmax, step, seed, box = args
    q0s, v0s = _draw_initial_conditions(spec, indices, seed, box)
    trajs = integrate_geodesic_batch(spec, q0s, v0s, Tmax, step)
    return [ScanRow(index=i, q0=q0, v0=v0, t_star=t_star, det_min=det_min,
                    truncated=traj.truncated)
            for i, q0, v0, traj, (t_star, det_min) in zip(indices, q0s, v0s, trajs,
                                                          _scan_values(trajs))]


def default_workers() -> int:
    env = os.environ.get("H2XR_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise DomainError(f"H2XR_WORKERS must be an integer, got {env!r}") from None
    return max(1, min(os.cpu_count() or 1, 8))


def scan_conjugate_points(spec: MetricSpec, count: int, Tmax: float,
                          step: float = 1e-3, seed: int = 0,
                          workers: int | None = None,
                          box: BoxSampler = DEFAULT_SCAN_BOX) -> list[ScanRow]:
    """Conjugate-point scan over seeded random unit initial conditions.

    Work is split into index chunks, each a pure function of
    (spec, indices, seed); chunks may run in a process pool and results
    are reassembled in index order, so the output is independent of the
    worker count.  The pool never exceeds the chunk count or the CPU count.
    """
    if count < 1:
        raise DomainError("scan needs at least one initial condition")
    workers = workers if workers is not None else default_workers()
    chunks = [
        (spec, list(range(lo, min(lo + SCAN_CHUNK, count))), Tmax, step, seed, box)
        for lo in range(0, count, SCAN_CHUNK)
    ]
    workers = min(workers, len(chunks), os.cpu_count() or 1)
    if workers <= 1:
        results = [_scan_chunk(c) for c in chunks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_chunk, chunks))
    rows = [r for chunk in results for r in chunk]
    rows.sort(key=lambda r: r.index)
    return rows
