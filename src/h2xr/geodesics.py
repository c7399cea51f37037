"""Unit-speed geodesic integration with parallel frame transport.

The integrator is a classical fixed-step RK4 on the combined state
(q, v, e1, e2); the frame is transported in the same step so geodesic and
frame stay phase locked.  Batches of initial conditions integrate
simultaneously as (B, 12) arrays, which is what makes the large scans in
the conjugate-point module affordable.

Trajectories approaching the chart boundary y <= Y_FLOOR are truncated
and flagged rather than re-charted; non-finite states abort the run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError
from .metrics import ChartPoint, MetricSpec, _fiber, metric_many

DEFAULT_STEP = 1e-3
Y_FLOOR = 1e-6
UNIT_SPEED_TOL = 1e-9


@dataclass(frozen=True)
class PhaseState:
    """Point plus unit coordinate velocity."""

    q: ChartPoint
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))

    @staticmethod
    def checked(spec: MetricSpec, q: ChartPoint, v) -> "PhaseState":
        v = np.asarray(v, dtype=float)
        s = float(np.einsum("ij,i,j->", metric_many(spec, q.as_array()[None, :])[0], v, v))
        if abs(s - 1.0) > UNIT_SPEED_TOL:
            raise DomainError(f"velocity is not unit speed: g(v, v) = {s}")
        return PhaseState(q, v)


@dataclass(frozen=True)
class Trajectory:
    """Sampled geodesic with an attached parallel orthonormal frame.

    e3 of the frame is the tangent itself; e1, e2 span its normal bundle
    (for a horizontal run on the product: in-surface normal, then
    vertical).  frame arrays are None when integrated without transport.
    """

    spec: MetricSpec
    times: np.ndarray          # (N,)
    q: np.ndarray              # (N, 3)
    v: np.ndarray              # (N, 3)
    e1: np.ndarray | None      # (N, 3)
    e2: np.ndarray | None
    step: float
    T: float
    truncated: bool = False

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def has_frame(self) -> bool:
        return self.e1 is not None

    def state(self, k: int) -> PhaseState:
        x, y, t = self.q[k]
        return PhaseState(ChartPoint(float(x), float(y), float(t)), self.v[k].copy())

    def csv_rows(self):
        for k in range(self.n_samples):
            yield (self.times[k], *self.q[k], *self.v[k])


def unit_vector(spec: MetricSpec, q: ChartPoint, v) -> np.ndarray:
    """Normalize a coordinate vector to unit speed at q."""
    v = np.asarray(v, dtype=float)
    g = metric_many(spec, q.as_array()[None, :])[0]
    n2 = float(np.einsum("ij,i,j->", g, v, v))
    if not (n2 > 0.0 and math.isfinite(n2)):
        raise DomainError("cannot normalize a null or non-finite vector")
    return v / math.sqrt(n2)


def initial_frame(spec: MetricSpec, q: ChartPoint, v) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic g-orthonormal basis (e1, e2) of the normal bundle at q.

    Gram-Schmidt of the coordinate directions (d_x, d_y, d_t), in that
    order, against the tangent.  For a horizontal product geodesic this
    yields (in-surface normal, vertical).
    """
    g = metric_many(spec, q.as_array()[None, :])[0]
    v = np.asarray(v, dtype=float)
    accepted = [v / math.sqrt(float(np.einsum("ij,i,j->", g, v, v)))]
    out = []
    for m in range(3):
        c = np.zeros(3)
        c[m] = 1.0
        w = c.copy()
        for p in accepted:
            w = w - float(np.einsum("ij,i,j->", g, w, p)) * p
        n2 = float(np.einsum("ij,i,j->", g, w, w))
        if n2 <= 1e-12 * float(g[m, m]):
            continue  # candidate parallel to the tangent
        w = w / math.sqrt(n2)
        accepted.append(w)
        out.append(w)
        if len(out) == 2:
            return out[0], out[1]
    raise DomainError("degenerate initial frame")


def _rhs(spec: MetricSpec, state: np.ndarray) -> np.ndarray:
    """Derivative of (q, v, transported vectors): one state (dim,) or a batch (B, dim).

    Fused closed-form contractions of the warped-product connection: the
    hyperbolic base block, plus the fiber coupling terms fed by (phi, dphi)
    from the fiber kernel.  Product skips the coupling: its phi is constant.

    Components are read through state.T: s[i] is a numpy scalar for one
    state and a (B,) row for a batch, and the transported vectors' x, y, t
    parts s[3::3], s[4::3], s[5::3] are (nvec,) or (nvec, B).  One
    trajectory therefore costs scalar arithmetic, not 1-element array calls.
    """
    s = state.T
    out = np.empty_like(state)
    o = out.T
    o[0:3] = s[3:6]
    y = s[1]
    vx, vy, vt = s[3], s[4], s[5]
    wx, wy, wt = s[3::3], s[4::3], s[5::3]
    inv_y = 1.0 / y
    # hyperbolic base block: -Gamma^x = (vx wy + vy wx)/y, etc.
    dwx = (vx * wy + vy * wx) * inv_y
    dwy = (vy * wy - vx * wx) * inv_y
    if spec.kind == "Product":
        o[3::3] = dwx
        o[4::3] = dwy
        o[5::3] = 0.0
        return out
    f, (dfx, dfy) = _fiber(spec, state[..., 0:3])
    vtwt = vt * wt
    y2f = y * y * f
    o[3::3] = dwx + y2f * dfx * vtwt
    o[4::3] = dwy + y2f * dfy * vtwt
    o[5::3] = -(dfx * (vx * wt + vt * wx) + dfy * (vy * wt + vt * wy)) / f
    return out


def _rk4_step(spec: MetricSpec, state: np.ndarray, h: float) -> np.ndarray:
    k1 = _rhs(spec, state)
    k2 = _rhs(spec, state + (0.5 * h) * k1)
    k3 = _rhs(spec, state + (0.5 * h) * k2)
    k4 = _rhs(spec, state + h * k3)
    return state + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate_batch(spec, q0s, v0s, T, step, with_frame):
    """Fixed-step batched integration; returns per-row sample arrays."""
    if not (T > 0.0 and math.isfinite(T)):
        raise DomainError(f"total time must be > 0, got {T}")
    if not (step > 0.0 and math.isfinite(step)):
        raise DomainError(f"step must be > 0, got {step}")
    q0s = np.asarray(q0s, dtype=float)
    v0s = np.asarray(v0s, dtype=float)
    B = q0s.shape[0]
    nvec = 3 if with_frame else 1
    dim = 3 + 3 * nvec

    state = np.empty((B, dim))
    state[:, 0:3] = q0s
    state[:, 3:6] = v0s
    if with_frame:
        for b in range(B):
            x, y, t = q0s[b]
            e1, e2 = initial_frame(spec, ChartPoint(float(x), float(y), float(t)), v0s[b])
            state[b, 6:9] = e1
            state[b, 9:12] = e2

    n_full = int(math.floor(T / step + 1e-9))
    rem = T - n_full * step
    haves_partial = rem > 1e-12 * max(1.0, T)
    n_steps = n_full + (1 if haves_partial else 0)

    times = np.empty(n_steps + 1)
    times[: n_full + 1] = np.arange(n_full + 1) * step
    if haves_partial:
        times[-1] = T

    samples = np.empty((B, n_steps + 1, dim))
    samples[:, 0] = state
    active = np.ones(B, dtype=bool)
    counts = np.full(B, n_steps + 1)  # samples kept per row

    for k in range(n_steps):
        h = float(times[k + 1] - times[k])
        # one trajectory steps as a single state vector (see _rhs)
        new = _rk4_step(spec, state[0] if B == 1 else state, h).reshape(B, dim)
        if not np.isfinite(new[active]).all():
            bad = np.where(active & ~np.all(np.isfinite(new), axis=1))[0]
            raise NumericsError("non-finite integrator state", rows=bad.tolist(), time=times[k])
        crossed = active & (new[:, 1] <= Y_FLOOR)
        if crossed.any():
            counts[crossed] = k + 1
            active &= ~crossed
            if not active.any():
                break
        if not active.all():
            new = np.where(active[:, None], new, state)  # finished rows stay put
        state = new
        samples[:, k + 1] = new

    trajectories = []
    for b in range(B):
        n = counts[b]
        trunc = n < n_steps + 1
        e1 = samples[b, :n, 6:9].copy() if with_frame else None
        e2 = samples[b, :n, 9:12].copy() if with_frame else None
        trajectories.append(
            Trajectory(
                spec=spec,
                times=times[:n].copy(),
                q=samples[b, :n, 0:3].copy(),
                v=samples[b, :n, 3:6].copy(),
                e1=e1,
                e2=e2,
                step=step,
                T=float(times[n - 1]),
                truncated=bool(trunc),
            )
        )
    return trajectories


def integrate_geodesic(spec: MetricSpec, q0: ChartPoint, v0, T: float,
                       step: float = DEFAULT_STEP, frame: bool = True) -> Trajectory:
    """Integrate one unit-speed geodesic from (q0, v0) for time T.

    v0 must already be unit speed (use unit_vector to normalize).
    """
    v0 = np.asarray(v0, dtype=float)
    PhaseState.checked(spec, q0, v0)
    if q0.y <= Y_FLOOR:
        raise DomainError(f"start point below the chart floor y = {Y_FLOOR}")
    return _integrate_batch(spec, q0.as_array()[None, :], v0[None, :], T, step, frame)[0]


def integrate_geodesic_batch(spec: MetricSpec, q0s, v0s, T: float,
                             step: float = DEFAULT_STEP, frame: bool = True):
    """Integrate many geodesics at once; returns a list of Trajectory."""
    q0s = np.asarray(q0s, dtype=float)
    v0s = np.asarray(v0s, dtype=float)
    g = metric_many(spec, q0s)
    speeds = np.einsum("bij,bi,bj->b", g, v0s, v0s)
    if np.any(np.abs(speeds - 1.0) > UNIT_SPEED_TOL):
        raise DomainError("batch contains non-unit initial velocities")
    return _integrate_batch(spec, q0s, v0s, T, step, frame)


def parallel_frame(traj: Trajectory) -> Trajectory:
    """Return the trajectory with its parallel frame filled.

    A trajectory integrated without the frame is re-run from its initial
    data with transport switched on, so frame and geodesic are produced by
    the same phase-locked integration.
    """
    if traj.has_frame:
        return traj
    x, y, t = traj.q[0]
    q0 = ChartPoint(float(x), float(y), float(t))
    return integrate_geodesic(traj.spec, q0, traj.v[0], traj.T, traj.step, frame=True)


def speed_drift(traj: Trajectory) -> float:
    """max_t |g(v, v) - 1| over the samples."""
    g = metric_many(traj.spec, traj.q)
    s = np.einsum("kij,ki,kj->k", g, traj.v, traj.v)
    return float(np.max(np.abs(s - 1.0)))


def frame_gram_error(traj: Trajectory) -> float:
    """max deviation of the (e1, e2, e3) Gram matrix from the identity."""
    if not traj.has_frame:
        raise DomainError("trajectory has no frame")
    g = metric_many(traj.spec, traj.q)
    vecs = np.stack([traj.e1, traj.e2, traj.v], axis=1)  # (N, 3, 3)
    gram = np.einsum("kij,kai,kbj->kab", g, vecs, vecs)
    return float(np.max(np.abs(gram - np.eye(3))))
