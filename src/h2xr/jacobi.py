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

R_perp is evaluated at trajectory samples by querying the curvature
tensor (vectorized in time slabs) and linearly interpolated between
samples inside integrator stages.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, NumericsError
from .geodesics import Trajectory, integrate_geodesic_batch, parallel_frame
from .metrics import (
    ChartPoint,
    MetricSpec,
    curvature_tensor_many,
    fiber,
    metric_many,
    r_v_operator_many,
)

RICCATI_BLOWUP = 1e6
CONJUGATE_REFINE_TOL = 1e-8
# sampled |det| below this near a strict local minimum triggers tangency
# refinement; scaled with the grid because a double root sampled at
# distance h/2 reads about (h/2)^2
_TANGENT_TRIGGER_FLOOR = 1e-8
_RPERP_SLAB = 40000
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


def normal_curvature_samples(traj: Trajectory, slab: int = _RPERP_SLAB) -> np.ndarray:
    """R_perp[a, b] = g(R(e_a, v) v, e_b) at every trajectory sample."""
    if not traj.has_frame:
        raise DomainError("trajectory has no parallel frame")
    n = traj.n_samples
    out = np.empty((n, 2, 2))
    for lo in range(0, n, slab):
        hi = min(lo + slab, n)
        r4 = curvature_tensor_many(traj.spec, traj.q[lo:hi])
        e = np.stack([traj.e1[lo:hi], traj.e2[lo:hi]], axis=1)  # (S, 2, 3)
        v = traj.v[lo:hi]
        t1 = np.einsum("sj,sl,sijkl->sik", v, v, r4, optimize=True)
        out[lo:hi] = np.einsum("sai,sbk,sik->sab", e, e, t1, optimize=True)
    return 0.5 * (out + np.swapaxes(out, -2, -1))


def _propagate_pair(times, rperp, A0, Ap0, k_from, k_to):
    """RK4 for (A, A') on the sample grid, in either time direction.

    rperp may be (N, 2, 2) or batched (B, N, 2, 2); A0, Ap0 broadcast
    accordingly.  Returns (A, Ap) sampled on indices between k_from and
    k_to inclusive, laid out on the full grid axis.
    """
    batched = rperp.ndim == 4
    shape = (rperp.shape[0], len(times), 2, 2) if batched else (len(times), 2, 2)
    A = np.full(shape, np.nan)
    Ap = np.full(shape, np.nan)
    idx = (slice(None), k_from) if batched else (k_from,)
    A[idx] = A0
    Ap[idx] = Ap0
    a = np.broadcast_to(A0, shape[:-3] + (2, 2)).copy() if batched else np.array(A0, dtype=float)
    ap = np.broadcast_to(Ap0, shape[:-3] + (2, 2)).copy() if batched else np.array(Ap0, dtype=float)

    direction = 1 if k_to >= k_from else -1
    for k in range(k_from, k_to, direction):
        k2 = k + direction
        h = times[k2] - times[k]
        r0 = rperp[:, k] if batched else rperp[k]
        r1 = rperp[:, k2] if batched else rperp[k2]
        rm = 0.5 * (r0 + r1)
        k1a, k1p = ap, -(r0 @ a)
        a2 = a + (0.5 * h) * k1a
        k2a, k2p = ap + (0.5 * h) * k1p, -(rm @ a2)
        a3 = a + (0.5 * h) * k2a
        k3a, k3p = ap + (0.5 * h) * k2p, -(rm @ a3)
        a4 = a + h * k3a
        k4a, k4p = ap + h * k3p, -(r1 @ a4)
        a = a + (h / 6.0) * (k1a + 2.0 * k2a + 2.0 * k3a + k4a)
        ap = ap + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        idx = (slice(None), k2) if batched else (k2,)
        A[idx] = a
        Ap[idx] = ap
    return A, Ap


def _pair_at(times, rperp, A_k, Ap_k, k0, t, nsub=8):
    """(A, A') at an off-grid time t, integrating from sample k0."""
    t0 = times[k0]
    a = np.array(A_k, dtype=float)
    ap = np.array(Ap_k, dtype=float)
    if t == t0:
        return a, ap
    hs = np.linspace(t0, t, nsub + 1)

    def r_of(tt):
        k = np.searchsorted(times, tt) - 1
        k = min(max(k, 0), len(times) - 2)
        w = (tt - times[k]) / (times[k + 1] - times[k])
        return (1.0 - w) * rperp[k] + w * rperp[k + 1]

    for i in range(nsub):
        h = hs[i + 1] - hs[i]
        r0, rm, r1 = r_of(hs[i]), r_of(hs[i] + 0.5 * h), r_of(hs[i + 1])
        k1a, k1p = ap, -(r0 @ a)
        k2a, k2p = ap + 0.5 * h * k1p, -(rm @ (a + 0.5 * h * k1a))
        k3a, k3p = ap + 0.5 * h * k2p, -(rm @ (a + 0.5 * h * k2a))
        k4a, k4p = ap + h * k3p, -(r1 @ (a + h * k3a))
        a = a + (h / 6.0) * (k1a + 2 * k2a + 2 * k3a + k4a)
        ap = ap + (h / 6.0) * (k1p + 2 * k2p + 2 * k3p + k4p)
    return a, ap


def _detect_conjugates(times, rperp, A, Ap, step):
    """Refined zeros of det A on (0, T], in increasing order."""
    dets = np.linalg.det(A)
    n = len(times)
    trigger = max(_TANGENT_TRIGGER_FLOOR, (5.0 * step) ** 2)
    found = []

    def det_at(t, k0):
        a, _ = _pair_at(times, rperp, A[k0], Ap[k0], k0, t)
        return float(np.linalg.det(a))

    k = 1
    while k < n - 1:
        d0, d1 = dets[k], dets[k + 1]
        if d0 == 0.0 and times[k] > 0.0:
            found.append(float(times[k]))
            k += 1
            continue
        if d0 * d1 < 0.0:
            lo, hi = times[k], times[k + 1]
            flo = d0
            while hi - lo > CONJUGATE_REFINE_TOL:
                mid = 0.5 * (lo + hi)
                fm = det_at(mid, k)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            found.append(0.5 * (lo + hi))
            k += 1
            continue
        # strict local minimum of |det| without sign change: tangency candidate
        if 0 < k < n - 1 and abs(d0) < trigger and abs(d0) < abs(dets[k - 1]) and abs(d0) <= abs(d1):
            lo, hi = times[k - 1], times[k + 1]
            # golden-section search on |det|
            phi = (math.sqrt(5.0) - 1.0) / 2.0
            a, b = lo, hi
            c = b - phi * (b - a)
            d = a + phi * (b - a)
            fc, fd = abs(det_at(c, k - 1)), abs(det_at(d, k - 1))
            while b - a > CONJUGATE_REFINE_TOL:
                if fc < fd:
                    b, d, fd = d, c, fc
                    c = b - phi * (b - a)
                    fc = abs(det_at(c, k - 1))
                else:
                    a, c, fc = c, d, fd
                    d = a + phi * (b - a)
                    fd = abs(det_at(d, k - 1))
            t_min = 0.5 * (a + b)
            if abs(det_at(t_min, k - 1)) <= 1e-10:
                found.append(t_min)
                k += 2
                continue
        k += 1
    return found


def propagate_jacobi(traj: Trajectory, rperp: np.ndarray | None = None) -> JacobiRun:
    """Normal-bundle propagator with A(0) = 0, A'(0) = I, plus conjugates."""
    traj = parallel_frame(traj)
    if rperp is None:
        rperp = normal_curvature_samples(traj)
    A, Ap = _propagate_pair(traj.times, rperp, np.zeros((2, 2)), np.eye(2), 0, traj.n_samples - 1)
    conj = _detect_conjugates(traj.times, rperp, A, Ap, traj.step)
    return JacobiRun(traj=traj, A=A, Ap=Ap, conjugates=conj)


def companion_propagator(traj: Trajectory, rperp: np.ndarray | None = None):
    """Propagator with A(0) = I, A'(0) = 0 (fields with J(0) != 0)."""
    traj = parallel_frame(traj)
    if rperp is None:
        rperp = normal_curvature_samples(traj)
    return _propagate_pair(traj.times, rperp, np.eye(2), np.zeros((2, 2)), 0, traj.n_samples - 1)


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
    """Integrate U' = -U^2 - R backward from U = 0 at sample k_anchor."""
    batched = rperp.ndim == 4
    shape = (rperp.shape[0], len(times), 2, 2) if batched else (len(times), 2, 2)
    U = np.full(shape, np.nan)
    u = np.zeros(shape[:-3] + (2, 2)) if batched else np.zeros((2, 2))
    idx = (slice(None), k_anchor) if batched else (k_anchor,)
    U[idx] = u
    for k in range(k_anchor, 0, -1):
        h = times[k - 1] - times[k]  # negative
        r1 = rperp[:, k] if batched else rperp[k]
        r0 = rperp[:, k - 1] if batched else rperp[k - 1]
        rm = 0.5 * (r0 + r1)
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
                                time=float(times[k - 1]))
        idx = (slice(None), k - 1) if batched else (k - 1,)
        U[idx] = u
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
    traj = parallel_frame(traj)
    if rperp is None:
        rperp = normal_curvature_samples(traj)
    k = _anchor_index(traj, T_anchor)
    U = _riccati_backward(traj.times, rperp, k)
    return RiccatiRun(traj=traj, times=traj.times[: k + 1].copy(),
                      U=U[: k + 1], T_anchor=float(traj.times[k]))


def riccati_stable_limit(traj: Trajectory, T: float, tol: float = 1e-6):
    """Anchored-limit stable tensor: anchors T and 2T must agree at t = 0.

    Returns (RiccatiRun at anchor 2T, agreement delta at t = 0).
    """
    traj = parallel_frame(traj)
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
    traj = parallel_frame(traj)
    if rperp is None:
        rperp = normal_curvature_samples(traj)
    k = _anchor_index(traj, T_anchor)
    A, Ap = _propagate_pair(traj.times, rperp, np.eye(2), np.zeros((2, 2)), k, 0)
    A, Ap = A[: k + 1], Ap[: k + 1]
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
    nmax = max(t.n_samples for t in trajs)
    times = trajs[0].times
    rperp = np.zeros((len(trajs), nmax, 2, 2))
    for b, t in enumerate(trajs):
        if t.truncated or t.n_samples != nmax:
            raise NumericsError("vertical geodesic left the chart", row=b)
        rperp[b] = normal_curvature_samples(t)
    U = _riccati_backward(times, rperp, nmax - 1)
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
    counts = [t.n_samples for t in trajs]
    longest = trajs[int(np.argmax(counts))]
    grid = longest.times
    nmax = longest.n_samples
    # truncated runs are zero-padded past their end; the padded stretch of
    # the batched propagation is sliced away before detection
    rperp = np.zeros((len(trajs), nmax, 2, 2))
    for b, traj in enumerate(trajs):
        rperp[b, : counts[b]] = normal_curvature_samples(traj)
    A, Ap = _propagate_pair(grid, rperp, np.zeros((2, 2)), np.eye(2), 0, nmax - 1)
    rows = []
    for b, traj in enumerate(trajs):
        n = counts[b]
        conj = _detect_conjugates(grid[:n], rperp[b, :n], A[b, :n], Ap[b, :n], step)
        dets = np.linalg.det(A[b, :n])
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
