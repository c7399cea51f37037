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

R_perp comes in closed form from the warped-product fiber kernel at the
trajectory samples.  The RK4 stages between samples take it from
four-point Lagrange interpolation on the nearest samples, which keeps
both propagators fourth order.  Between samples, A(t) is the cubic
Hermite interpolant of (A, A') at the two ends; root refinement runs on
that dense output, with no re-integration.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericsError
from .geodesics import Trajectory, integrate_geodesic_batch
from .metrics import (
    ChartPoint,
    MetricSpec,
    fiber,
    fiber_hessian,
    metric_many,
    r_v_operator_many,
)

RICCATI_BLOWUP = 1e6
CONJUGATE_REFINE_TOL = 1e-8
# sampled |det| below this near a strict local minimum triggers tangency
# refinement; scaled with the grid because a double root sampled at
# distance h/2 reads about (h/2)^2
_TANGENT_TRIGGER_FLOOR = 1e-8
# steps whose midpoint R_perp is interpolated at once
_MIDPOINT_SLAB = 1024
SCAN_CHUNK = 32


@dataclass(frozen=True)
class JacobiRun:
    """Propagator samples along a trajectory plus detected conjugates."""

    traj: Trajectory
    A: np.ndarray          # (N, 2, 2)
    Ap: np.ndarray         # (N, 2, 2)
    conjugates: list = field(default_factory=list)

    @property
    def times(self) -> np.ndarray:
        return self.traj.times

    def dets(self) -> np.ndarray:
        return np.linalg.det(self.A)


@dataclass(frozen=True)
class RiccatiRun:
    """Symmetric Riccati solution samples on [0, T_anchor]."""

    traj: Trajectory
    times: np.ndarray
    U: np.ndarray          # (M, 2, 2)
    T_anchor: float


def normal_curvature_samples(traj: Trajectory) -> np.ndarray:
    """R_perp[a, b] = g(R(e_a, v) v, e_b) at every trajectory sample.

    Warped-product closed form: with u, w_a the horizontal parts of v, e_a,
    c_a = w_a x u and xi_a = v_t w_a - (e_a)_t u, the K = -1 base block
    gives -c c^T / y^4 and the mixed block -phi Hess phi(xi, xi).
    """
    spec, q, v = traj.spec, traj.q, traj.v
    e = np.stack([traj.e1, traj.e2], axis=1)                       # (N, 2, 3)
    c = (e[:, :, 0] * v[:, 1:2] - e[:, :, 1] * v[:, 0:1]) / q[:, 1:2] ** 2
    out = -(c[:, :, None] * c[:, None, :])
    if spec.kind != "Product":
        xi = v[:, None, 2:3] * e[:, :, 0:2] - e[:, :, 2:3] * v[:, None, 0:2]
        hxx = xi @ fiber_hessian(spec, q) @ np.swapaxes(xi, 1, 2)
        out -= fiber(spec, q)[0][:, None, None] * hxx
    return out


def _midpoint_rperp(times, rperp, counts, lo, hi):
    """R_perp at the midpoints of steps lo..hi-1, shape (B, hi - lo, 2, 2).

    Four-point Lagrange interpolation on each row's nearest samples, the
    stencil shifted inward at the row's ends, weights from the sample times
    (the last step may be partial).  Rows of fewer than four samples take
    the two-point mean; steps past a row's end see 0, like its padding.
    """
    mean = 0.5 * (rperp[:, lo:hi] + rperp[:, lo + 1:hi + 1])
    if len(times) < 4:
        return mean
    k = np.arange(lo, hi)
    nodes = np.clip(k - 1, 0, np.maximum(counts, 4)[:, None] - 4)[..., None] + np.arange(4)
    tn = times[nodes]                                              # (B, S, 4)
    d = 0.5 * (times[k] + times[k + 1])[:, None] - tn
    rows = np.arange(len(counts))[:, None]
    out = base = rperp[:, lo:hi]    # weights sum to 1: exact on constant R_perp
    for i in range(4):
        w = 1.0
        for j in range(4):
            if j != i:
                w = w * (d[..., j] / (tn[..., i] - tn[..., j]))
        out = out + w[..., None, None] * (rperp[rows, nodes[..., i]] - base)
    out = np.where((counts < 4)[:, None, None, None], mean, out)
    return np.where((k < counts[:, None] - 1)[..., None, None], out, 0.0)


def _steps(times, rperp, counts, k_from, k_to):
    """(k, k2, h, midpoint R_perp) per step from sample k_from to k_to, a slab at a time."""
    if counts is None:
        counts = np.full(rperp.shape[0], len(times))
    direction = 1 if k_to >= k_from else -1
    ks = range(k_from, k_to, direction)
    for s0 in range(0, len(ks), _MIDPOINT_SLAB):
        block = ks[s0:s0 + _MIDPOINT_SLAB]
        lo = min(block[0], block[-1] + direction)
        rm = _midpoint_rperp(times, rperp, counts, lo, lo + len(block))
        for k in block:
            k2 = k + direction
            yield k, k2, times[k2] - times[k], rm[:, min(k, k2) - lo]


def _propagate_pair(times, rperp, A0, Ap0, k_from, k_to, counts=None):
    """RK4 for (A, A') on the sample grid, in either time direction.

    rperp is (B, N, 2, 2), zero-padded past each row's counts if given;
    A0, Ap0 broadcast to (B, 2, 2).  Returns (A, Ap) shaped like rperp,
    filled on the indices between k_from and k_to inclusive.
    """
    A = np.full(rperp.shape, np.nan)
    Ap = np.full(rperp.shape, np.nan)
    a = np.broadcast_to(A0, A[:, 0].shape).copy()
    ap = np.broadcast_to(Ap0, A[:, 0].shape).copy()
    A[:, k_from] = a
    Ap[:, k_from] = ap
    for k, k2, h, rm in _steps(times, rperp, counts, k_from, k_to):
        r0 = rperp[:, k]
        r1 = rperp[:, k2]
        k1a, k1p = ap, -(r0 @ a)
        a2 = a + (0.5 * h) * k1a
        k2a, k2p = ap + (0.5 * h) * k1p, -(rm @ a2)
        a3 = a + (0.5 * h) * k2a
        k3a, k3p = ap + (0.5 * h) * k2p, -(rm @ a3)
        a4 = a + h * k3a
        k4a, k4p = ap + h * k3p, -(r1 @ a4)
        a = a + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        ap = ap + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        A[:, k2] = a
        Ap[:, k2] = ap
    return A, Ap


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


def propagate_jacobi(traj: Trajectory, rperp: np.ndarray | None = None) -> JacobiRun:
    """Normal-bundle propagator with A(0) = 0, A'(0) = I, plus conjugates."""
    if rperp is None:
        rperp = normal_curvature_samples(traj)
    A, Ap = _propagate_pair(traj.times, rperp[None], np.zeros((2, 2)), np.eye(2),
                            0, traj.n_samples - 1)
    A, Ap = A[0], Ap[0]
    conj = _detect_conjugates(traj.times, A, Ap, np.linalg.det(A), traj.step)
    return JacobiRun(traj=traj, A=A, Ap=Ap, conjugates=conj)


def companion_propagator(traj: Trajectory, rperp: np.ndarray | None = None):
    """Propagator with A(0) = I, A'(0) = 0 (fields with J(0) != 0)."""
    if rperp is None:
        rperp = normal_curvature_samples(traj)
    A, Ap = _propagate_pair(traj.times, rperp[None], np.eye(2), np.zeros((2, 2)),
                            0, traj.n_samples - 1)
    return A[0], Ap[0]


def wronskian_drift(run: JacobiRun) -> float:
    """Max drift of (A')^T A - A^T A' from its initial value."""
    w = np.swapaxes(run.Ap, -2, -1) @ run.A - np.swapaxes(run.A, -2, -1) @ run.Ap
    return float(np.max(np.abs(w - w[0])))


def first_conjugate_point(spec: MetricSpec, q0: ChartPoint, v0, Tmax: float,
                          step: float = 1e-3):
    """Smallest refined t* in (0, Tmax] with det A(t*) = 0, else None."""
    if not Tmax > 0.0:
        raise DomainError(f"Tmax must be > 0, got {Tmax}")
    traj = integrate_geodesic_batch(spec, q0.as_array()[None, :],
                                    np.asarray(v0, float)[None, :], Tmax, step)[0]
    run = propagate_jacobi(traj)
    return run.conjugates[0] if run.conjugates else None


# ---------------------------------------------------------------------------
# Riccati
# ---------------------------------------------------------------------------

def _riccati_backward(times, rperp, k_anchor, blowup=RICCATI_BLOWUP):
    """Integrate U' = -U^2 - R backward from U = 0 at sample k_anchor; rperp is (B, N, 2, 2)."""
    U = np.full(rperp.shape, np.nan)
    u = np.zeros(rperp.shape[:1] + (2, 2))
    U[:, k_anchor] = u
    for k, j, h, rm in _steps(times, rperp, None, k_anchor, 0):
        r1 = rperp[:, k]
        r0 = rperp[:, j]
        k1 = -(u @ u) - r1
        u2 = u + 0.5 * h * k1
        k2 = -(u2 @ u2) - rm
        u3 = u + 0.5 * h * k2
        k3 = -(u3 @ u3) - rm
        u4 = u + h * k3
        k4 = -(u4 @ u4) - r0
        u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        if np.max(np.abs(u)) > blowup or not np.all(np.isfinite(u)):
            raise NumericsError("focal blow-up in backward Riccati integration",
                                time=float(times[j]))
        U[:, j] = u
    return U


def _anchor_index(traj: Trajectory, T_anchor: float) -> int:
    if not (0.0 < T_anchor <= traj.T + 1e-12):
        raise DomainError(
            f"anchor {T_anchor} outside the trajectory range (0, {traj.T}]"
        )
    k = int(np.argmin(np.abs(traj.times - T_anchor)))
    return k


def riccati_stable(traj: Trajectory, T_anchor: float,
                   rperp: np.ndarray | None = None) -> RiccatiRun:
    """Backward zero-anchored Riccati solution on [0, T_anchor]."""
    if rperp is None:
        rperp = normal_curvature_samples(traj)
    k = _anchor_index(traj, T_anchor)
    U = _riccati_backward(traj.times, rperp[None], k)[0]
    return RiccatiRun(traj=traj, times=traj.times[: k + 1].copy(),
                      U=U[: k + 1], T_anchor=float(traj.times[k]))


def riccati_stable_limit(traj: Trajectory, T: float, tol: float = 1e-6):
    """Anchored-limit stable tensor: anchors T and 2T must agree at t = 0.

    Returns (RiccatiRun at anchor 2T, agreement delta at t = 0).
    """
    if 2.0 * T > traj.T + 1e-12:
        raise DomainError(f"trajectory too short for anchor doubling: need T >= {2*T}")
    rperp = normal_curvature_samples(traj)
    run1 = riccati_stable(traj, T, rperp)
    run2 = riccati_stable(traj, 2.0 * T, rperp)
    delta = float(np.max(np.abs(run1.U[0] - run2.U[0])))
    if delta > tol:
        raise NumericsError(
            "anchored Riccati solutions did not converge", delta=delta, tol=tol
        )
    return run2, delta


def riccati_from_jacobi(traj: Trajectory, T_anchor: float,
                        rperp: np.ndarray | None = None):
    """U = A' A^{-1} from the anchored Jacobi solution A(T) = I, A'(T) = 0.

    This linear route reproduces the zero-anchored Riccati solution
    exactly (U(T) = A'(T) A(T)^{-1} = 0 and both satisfy the same flow),
    so it serves as an independent check on the nonlinear integration.
    Entries where A is close to singular are returned as nan.
    """
    if rperp is None:
        rperp = normal_curvature_samples(traj)
    k = _anchor_index(traj, T_anchor)
    A, Ap = _propagate_pair(traj.times, rperp[None], np.eye(2), np.zeros((2, 2)), k, 0)
    A, Ap = A[0, : k + 1], Ap[0, : k + 1]
    dets = np.linalg.det(A)
    U = np.full_like(A, np.nan)
    ok = np.abs(dets) > 1e-12
    U[ok] = Ap[ok] @ np.linalg.inv(A[ok])
    return traj.times[: k + 1].copy(), U


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
                    anchor: float = 20.0, step: float = 1e-2,
                    geodesic_tol: float = 1e-8) -> RiccatiAverage:
    """Monte Carlo mean of Tr(U_s^2 + R_V) over sampled vertical geodesics.

    Sampled base points whose vertical curve is not a geodesic (fiber
    scale has nonzero gradient) are rejected; more than 50% rejections
    aborts.  U_s is the zero-anchored backward solution at the given
    anchor, evaluated at t = 0.
    """
    if n < 1:
        raise DomainError("need at least one sample")
    rng = np.random.default_rng(seed)
    pts = np.array([sampler(rng) for _ in range(n)])
    phi, (dphi_x, dphi_y) = fiber(spec, pts)
    grad = pts[:, 1] * np.hypot(dphi_x, dphi_y)  # |grad phi|_g
    keep = grad <= geodesic_tol
    n_rej = int(n - keep.sum())
    if n_rej > 0.5 * n:
        raise NumericsError(
            "more than half of the sampled vertical curves are not geodesics",
            n_samples=n, n_rejected=n_rej,
        )
    pts = pts[keep]
    v0 = np.zeros_like(pts)
    v0[:, 2] = 1.0 / phi[keep]

    trajs = integrate_geodesic_batch(spec, pts, v0, anchor, step)
    cut = [b for b, t in enumerate(trajs) if t.truncated]
    if cut:
        raise NumericsError("vertical geodesic left the chart", row=cut[0])
    rperp = np.stack([normal_curvature_samples(t) for t in trajs])
    U = _riccati_backward(trajs[0].times, rperp, trajs[0].n_samples - 1)
    u0 = U[:, 0]
    rv = r_v_operator_many(spec, pts)
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


def rauch_check(run: JacobiRun, k_min: float,
                cases=((1.0, 0.0), (0.0, 1.0), (1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)))) -> RauchReport:
    """Split-metric Jacobi comparison for fields with J(0) != 0, J'(0) = 0.

    For each case J(0) = jh0 e1 + jv0 e2 the squared norm is compared to
    jh0_h^2 cosh^2(sqrt(-k_min) t) + (jv(0) + jv'(0) t)^2, where jv is the
    fiber component of J; the vertical term carries the field's own
    initial data, which for these fields makes it constant.
    """
    traj = run.traj
    if traj.spec.kind != "Product":
        raise DomainError("comparison is stated for the split (Product) metric")
    B, _ = companion_propagator(traj)
    g = metric_many(traj.spec, traj.q)
    vert = np.zeros_like(traj.q)
    vert[:, 2] = 1.0 / traj.spec.L
    om = math.sqrt(max(-k_min, 0.0))
    t = traj.times
    out = []
    worst = 0.0
    for jh0, jv0 in cases:
        j0 = np.array([jh0, jv0])
        coeff = B @ j0                       # (N, 2) frame components
        jvec = coeff[:, :1] * traj.e1 + coeff[:, 1:] * traj.e2
        jn2 = np.einsum("ki,ki->k", coeff, coeff)
        jv = np.einsum("kij,ki,kj->k", g, jvec, vert)
        jh2_0 = jn2[0] - jv[0] ** 2
        bound = jh2_0 * np.cosh(om * t) ** 2 + jv[0] ** 2
        margin = (jn2 - bound) / np.maximum(bound, 1e-30)
        out.append(RauchCase(jh0, jv0, float(np.min(margin)), float(np.max(np.abs(margin)))))
        worst = max(worst, max(0.0, -float(np.min(margin))))
    return RauchReport(cases=out, max_violation=worst)


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


DEFAULT_SCAN_BOX = BoxSampler(x=(-1.0, 1.0), y=(0.5, 2.0), t=(0.0, 1.0))


def _draw_initial_conditions(spec, indices, seed, box):
    q0s = np.empty((len(indices), 3))
    v0s = np.empty((len(indices), 3))
    for row, i in enumerate(indices):
        rng = np.random.default_rng([seed, i])
        q0s[row] = box(rng)
        w = rng.normal(size=3)
        g = metric_many(spec, q0s[row][None, :])[0]
        v0s[row] = w / math.sqrt(float(np.einsum("ij,i,j->", g, w, w)))
    return q0s, v0s


def _scan_chunk(args):
    spec, indices, Tmax, step, seed, box = args
    q0s, v0s = _draw_initial_conditions(spec, indices, seed, box)
    trajs = integrate_geodesic_batch(spec, q0s, v0s, Tmax, step)
    counts = np.array([t.n_samples for t in trajs])
    longest = trajs[int(np.argmax(counts))]
    grid = longest.times
    nmax = longest.n_samples
    # truncated runs are zero-padded past their end; the padded stretch of
    # the propagation of the whole chunk is sliced away before detection
    rperp = np.zeros((len(trajs), nmax, 2, 2))
    for b, traj in enumerate(trajs):
        rperp[b, : counts[b]] = normal_curvature_samples(traj)
    A, Ap = _propagate_pair(grid, rperp, np.zeros((2, 2)), np.eye(2), 0, nmax - 1, counts)
    rows = []
    for b, traj in enumerate(trajs):
        n = counts[b]
        dets = np.linalg.det(A[b, :n])
        conj = _detect_conjugates(grid[:n], A[b, :n], Ap[b, :n], dets, step)
        rows.append(ScanRow(
            index=indices[b],
            q0=q0s[b],
            v0=v0s[b],
            t_star=conj[0] if conj else None,
            det_min=float(np.min(dets[1:])) if n > 1 else 0.0,
            truncated=traj.truncated,
        ))
    return rows


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
