"""Unit-speed geodesics with parallel frame transport.

Product runs take the exact flow.  The fiber coordinate moves linearly,
and the horizontal part is the H^2 geodesic M(i e^s), where the Mobius
map M takes i to the start point and the upward direction to the
start direction.  Parallel transport along i e^s is w -> e^s w, pushed
forward by M', so the horizontal parts of v, e1 and e2 all turn by one
complex factor and their fiber components stay constant.  The factor
is divided by D twice, so a row stays finite as far as its y does.

Warped and Twisted runs use a classical fixed-step RK4 on the combined
state (q, v, e1, e2); the frame is transported in the same step so
geodesic and frame stay phase locked.  Batches of initial conditions
integrate simultaneously as (B, 12) arrays, which is what makes the
large scans in the conjugate-point module affordable.  A lone row
(B = 1) steps on Python floats instead (`_rk4_lone`): numpy's per-call
cost on 1-element arrays would be most of its step.  `_geodesic_step` is
one `_rk4_step` of `_rhs` written out on named floats, its operations in
its order, so a row gets the same bits alone as in a batch; `jacobi`
steps a lone (A, A') and Riccati U the same way.  `_rk4_step` also steps
`jacobi`'s batches; its f(y, i) gets the stage node i = 0, 1, 1, 2
(start, midpoint, midpoint, end), which the autonomous geodesic flow
ignores.

A lone row on an orbit of the Killing field d_t is filled, not stepped.
That is a vertical row (v_x = v_y = 0) through a critical point of phi:
the warp centre, any point outside the warp ball, any point of a
Twisted metric with alpha = 0.  There every stage derivative but q_t's
is +-0, so once a step returns its input's other eleven components bit
for bit, every later step would return them too, and q_t would move by
(h / 6) times the same stage sum of v_t; `_rk4_lone` writes exactly
that (`_on_killing_orbit` has the argument).  In a batch the row steps,
to the same bits.

Either way the samples sit on the same time grid, and a trajectory
holds them in one (N, 12) state array, each row (q, v, e1, e2): the
layout of the RK4 state and of `Trajectory.start`.  A start at or below
Y_FLOOR is rejected; a trajectory is cut before its first sample with
y <= Y_FLOOR and flagged rather than re-charted; non-finite states
abort the run.  A Product trajectory is built from its start state and
grid alone: the cut and the non-finite check are made then, but its
states are filled on first read and cached, because the closed-form
propagators of `jacobi` read only the start state.
Frames and every g-inner product take the diagonal metric
diag(1/y^2, 1/y^2, phi^2); the initial Gram-Schmidt runs on floats.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericsError
from .metrics import (ChartPoint, MetricSpec, _diagonal_at, _diagonal_dot, _fiber,
                      _fiber_point, inner_many)

DEFAULT_STEP = 1e-3
Y_FLOOR = 1e-6
UNIT_SPEED_TOL = 1e-9


@dataclass(frozen=True)
class Trajectory:
    """Sampled geodesic with an attached parallel orthonormal frame.

    e3 of the frame is the tangent itself; e1, e2 span its normal bundle
    (for a horizontal run on the product: in-surface normal, then
    vertical).  states holds every sample as one (N, 12) array of rows
    (q, v, e1, e2), and q, v, e1, e2 are its column views; start is the
    row at t = 0.  An RK4 row is built with its states; a Product row
    gets them from the exact flow on first read, and keeps them.
    """

    spec: MetricSpec
    times: np.ndarray          # (N,)
    start: np.ndarray          # (12,)
    step: float
    T: float
    truncated: bool = False
    _states: np.ndarray | None = None   # (N, 12)

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def states(self) -> np.ndarray:
        if self._states is None:
            object.__setattr__(self, "_states", _product_samples(self.start, self.times))
        return self._states

    q = property(lambda self: self.states[:, 0:3])      # column views of states, (N, 3)
    v = property(lambda self: self.states[:, 3:6])
    e1 = property(lambda self: self.states[:, 6:9])
    e2 = property(lambda self: self.states[:, 9:12])


def unit_vector(spec: MetricSpec, q: ChartPoint, v) -> np.ndarray:
    """Normalize a coordinate vector to unit speed at q."""
    v = np.asarray(v, dtype=float)
    n2 = _diagonal_dot(_diagonal_at(spec, q), v.tolist(), v.tolist())
    if not (n2 > 0.0 and math.isfinite(n2)):
        raise DomainError("cannot normalize a null or non-finite vector")
    return v / math.sqrt(n2)


def initial_frame(spec: MetricSpec, q: ChartPoint, v) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic g-orthonormal basis (e1, e2) of the normal bundle at q.

    Gram-Schmidt of the coordinate directions (d_x, d_y, d_t), in that
    order, against the tangent.  For a horizontal product geodesic this
    yields (in-surface normal, vertical).  It runs on floats, with the
    inner product of the diagonal metric.
    """
    g = _diagonal_at(spec, q)
    v = np.asarray(v, dtype=float).tolist()
    norm = math.sqrt(_diagonal_dot(g, v, v))
    if norm == 0.0:
        raise DomainError("cannot build a frame on a null tangent")
    accepted = [[c / norm for c in v]]
    for m in range(3):
        w = [0.0, 0.0, 0.0]
        w[m] = 1.0
        for p in accepted:
            k = _diagonal_dot(g, w, p)
            w = [a - k * b for a, b in zip(w, p)]
        n2 = _diagonal_dot(g, w, w)
        if n2 <= 1e-12 * g[m]:
            continue  # candidate parallel to the tangent
        norm = math.sqrt(n2)
        accepted.append([c / norm for c in w])
        if len(accepted) == 3:
            return np.array(accepted[1]), np.array(accepted[2])
    raise DomainError("degenerate initial frame")


def _rhs(spec: MetricSpec, state: np.ndarray) -> np.ndarray:
    """Derivative of (q, v, transported vectors) for a batch state (B, 12).

    Fused closed-form contractions of the warped-product connection: the
    hyperbolic base block, plus the fiber coupling terms fed by (phi, dphi)
    from the fiber kernel.  Only Warped and Twisted runs step through it;
    Product runs take the exact flow of _product_samples.  jacobi also reads
    it at the stored states, for the Hermite midpoint states of its steps.
    Components are read through state.T, so s[i] is a (B,) row and the transported vectors'
    x, y, t parts s[3::3], s[4::3], s[5::3] are (3, B).

    A lone row steps through _geodesic_step instead, which repeats these
    operations in the same order on floats, so a row gets the same bits
    alone as in a batch.
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
    f, (dfx, dfy) = _fiber(spec, state[:, 0:3])
    vtwt = vt * wt
    y2f = y * y * f
    o[3::3] = dwx + y2f * dfx * vtwt
    o[4::3] = dwy + y2f * dfy * vtwt
    o[5::3] = -(dfx * (vx * wt + vt * wx) + dfy * (vy * wt + vt * wy)) / f
    return out


def _rk4_step(f, y: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of y' = f(y, i), i = 0, 1, 1, 2 the stage nodes (see above)."""
    k1 = f(y, 0)
    k2 = f(y + (0.5 * h) * k1, 1)
    k3 = f(y + (0.5 * h) * k2, 1)
    k4 = f(y + h * k3, 2)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _geodesic_step(fiber, s, h):
    """_rk4_step of _rhs on one state s, 12 floats; fiber is metrics._fiber_point(spec).

    Its operations in its order, on named floats: the four stages run
    through one loop body, and the sums k1 + 2 k2 + 2 k3 + k4 build up
    from the left, stage by stage, as _rk4_step adds them; they start
    from -0.0, which adds as an exact zero, signed zeros included.  A
    stage state skips q_t, which no derivative reads.
    """
    x0, y0, t0, vx0, vy0, vt0, ax0, ay0, at0, bx0, by0, bt0 = s
    x, y, _, vx, vy, vt, ax, ay, at, bx, by, bt = s   # the stage state
    sx = sy = st = svx = svy = svt = sax = say = sat = sbx = sby = sbt = -0.0
    # stage k_i has weight w, and stage i + 1 reads s + c k_i
    for c, w in ((0.5 * h, 1.0), (0.5 * h, 2.0), (h, 2.0), (None, 1.0)):
        inv_y = 1.0 / y
        f, dfx, dfy = fiber(x, y)
        y2f = y * y * f
        gx, gy = y2f * dfx, y2f * dfy
        # v, e1 = (ax, ay, at) and e2 = (bx, by, bt) as _rhs transports them
        dvx = (vx * vy + vy * vx) * inv_y + gx * (vt * vt)
        dvy = (vy * vy - vx * vx) * inv_y + gy * (vt * vt)
        dvt = -(dfx * (vx * vt + vt * vx) + dfy * (vy * vt + vt * vy)) / f
        dax = (vx * ay + vy * ax) * inv_y + gx * (vt * at)
        day = (vy * ay - vx * ax) * inv_y + gy * (vt * at)
        dat = -(dfx * (vx * at + vt * ax) + dfy * (vy * at + vt * ay)) / f
        dbx = (vx * by + vy * bx) * inv_y + gx * (vt * bt)
        dby = (vy * by - vx * bx) * inv_y + gy * (vt * bt)
        dbt = -(dfx * (vx * bt + vt * bx) + dfy * (vy * bt + vt * by)) / f
        sx, sy, st, svx, svy, svt = (sx + w * vx, sy + w * vy, st + w * vt,
                                     svx + w * dvx, svy + w * dvy, svt + w * dvt)
        sax, say, sat, sbx, sby, sbt = (sax + w * dax, say + w * day, sat + w * dat,
                                        sbx + w * dbx, sby + w * dby, sbt + w * dbt)
        if c is not None:
            x, y = x0 + c * vx, y0 + c * vy
            vx, vy, vt = vx0 + c * dvx, vy0 + c * dvy, vt0 + c * dvt
            ax, ay, at = ax0 + c * dax, ay0 + c * day, at0 + c * dat
            bx, by, bt = bx0 + c * dbx, by0 + c * dby, bt0 + c * dbt
    c = h / 6.0
    return (x0 + c * sx, y0 + c * sy, t0 + c * st, vx0 + c * svx, vy0 + c * svy, vt0 + c * svt,
            ax0 + c * sax, ay0 + c * say, at0 + c * sat, bx0 + c * sbx, by0 + c * sby, bt0 + c * sbt)


def _rk4_rows(spec, state, times):
    """RK4 through the sample times; returns the (N, 12) states of each row of state (B, 12).

    Each row's states are a copy: a view would keep the whole batch alive.
    A row that leaves the finite range raises NumericsError; the inf and
    nan on the way there are expected, so numpy does not warn about them.
    """
    B, dim = state.shape
    if B == 1:
        return [_rk4_lone(spec, state[0].tolist(), times)]

    def f(y, _):
        return _rhs(spec, y)

    samples = np.empty((B, len(times), dim))
    samples[:, 0] = state
    active = np.ones(B, dtype=bool)
    counts = np.full(B, len(times))  # samples kept per row

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(len(times) - 1):
            h = float(times[k + 1] - times[k])
            new = _rk4_step(f, state, h)
            if not np.isfinite(new[active]).all():
                bad = np.where(active & ~np.all(np.isfinite(new), axis=1))[0]
                raise NumericsError("non-finite integrator state", rows=bad.tolist(),
                                    time=float(times[k]))
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

    return [samples[b, :counts[b]].copy() for b in range(B)]


def _rk4_lone(spec, y, times):
    """_rk4_rows of one row, y its 12 floats, stepped by _geodesic_step.

    A float divided by zero, where numpy would give inf or nan, ends the
    run as a non-finite state would.  Once a step shows the row is an
    orbit of d_t (_on_killing_orbit), the rest of the run is filled with
    that state, q_t advancing as each step would advance it.
    """
    fiber = _fiber_point(spec)
    samples = np.empty((len(times), 12))
    samples[0] = y
    n = len(times)  # samples kept
    hs = np.diff(times)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # numpy scalars in fiber
        for k, h in enumerate(hs.tolist()):
            s = y
            try:
                y = _geodesic_step(fiber, s, h)
                finite = all(map(math.isfinite, y))
            except ArithmeticError:
                finite = False
            if not finite:
                raise NumericsError("non-finite integrator state", rows=[0], time=float(times[k]))
            if y[1] <= Y_FLOOR:
                n = k + 1
                break
            samples[k + 1] = y
            if s[3] == 0.0 and s[4] == 0.0 and _on_killing_orbit(fiber, s, y):
                vt = y[5]
                st = ((vt + 2.0 * vt) + 2.0 * vt) + vt   # _geodesic_step's sum for q_t
                samples[k + 2:] = y
                samples[k + 1:, 2] = np.add.accumulate(np.append(y[2], hs[k + 1:] / 6.0 * st))
                break
    return samples if n == len(times) else samples[:n].copy()


def _on_killing_orbit(fiber, s, new):
    """Whether every later step of new, the step of s, returns it unchanged but for q_t.

    s has v_x = v_y = 0.  If the fiber gradient is zero at s's point, every
    stage derivative of the other eleven components is +-0, whatever h > 0:
    each term has a factor v_x, v_y, d_x phi or d_y phi, the others finite.
    So a stage point differs from s's only in the sign of a zero x, and
    the gradient is checked at both signs.  If new also holds those eleven
    components of s (by their bits: -0.0 == 0.0), a step from new repeats
    this one's arithmetic with the same bits, and only q_t moves, by
    (h / 6) times the stage sum of v_t: the row is an orbit of d_t.
    """
    x, y = s[0], s[1]
    for px in ((x, -x) if x == 0.0 else (x,)):
        _, dfx, dfy = fiber(px, y)
        if dfx != 0.0 or dfy != 0.0:
            return False
    return struct.pack("11d", *s[:2], *s[3:]) == struct.pack("11d", *new[:2], *new[3:])


def _mobius_factors(state, times):
    """(d_x, d_y, c_p, c_m, e^s, e^-s, D) of the exact Product flow from state (12,) at times.

    With u the horizontal velocity, d = u/|u| (upward when u = 0) and
    s = |u| t/y0, D = cosh s - d_y sinh s = (c_p e^s + c_m e^-s)/2 with
    c_p = 1 - d_y and c_m = 1 + d_y; the smaller of the two comes from
    d_x^2 = c_p c_m, so nothing cancels.
    """
    y0, vx, vy = float(state[1]), float(state[3]), float(state[4])
    speed = math.hypot(vx, vy)
    dx, dy = (vx / speed, vy / speed) if speed > 0.0 else (0.0, 1.0)
    if dy > 0.0:
        cp, cm = dx * dx / (1.0 + dy), 1.0 + dy
    else:
        cp, cm = 1.0 - dy, dx * dx / (1.0 - dy)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        es = np.exp((speed / y0) * times)
        em = 1.0 / es
        return dx, dy, cp, cm, es, em, 0.5 * (cp * es + cm * em)


def _product_cut(row, state, times):
    """Samples kept of the exact Product flow of one initial state (12,) on times.

    That is the index of the first sample with y = y0/D <= Y_FLOOR, or
    every sample when there is none.  A y that is not finite there raises
    the NumericsError of an RK4 row.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        y = float(state[1]) / _mobius_factors(state, times)[-1]
    keep = (y > Y_FLOOR) & (y < math.inf)
    keep[0] = True
    n = len(times) if keep.all() else int(keep.argmin())
    if n < len(times) and not math.isfinite(y[n]):
        raise NumericsError("non-finite integrator state", rows=[row], time=float(times[n - 1]))
    return n


def _product_samples(state, times):
    """Exact Product flow of one initial state (12,): its (N, 12) states at times.

    The base point is M(i e^s): y = y0/D and x = x0 + y0 d_x sinh s/D
    (see _mobius_factors).  The horizontal part of every transported
    vector, as a complex number, is multiplied by
    E = (d_y + i d_x)/(c + i d_x), c = d_y cosh s - sinh s, |c + i d_x| = D.
    E is divided by D twice, as 1/D^2 leaves the float range from |s| ~ 355.
    Every time must be kept by _product_cut.
    """
    x0, y0, t0, vx, vy, vt = (float(c) for c in state[:6])
    dx, dy, cp, cm, es, em, D = _mobius_factors(state, times)
    out = np.empty((len(times), 12))
    out[:, 0] = x0 + (y0 * dx) * (0.5 * (es - em)) / D
    out[:, 1] = y0 / D
    out[:, 2] = t0 + vt * times
    c = 0.5 * (cm * em - cp * es)
    er = (dy * c + dx * dx) / D / D
    ei = dx * (c - dy) / D / D
    for i, (wx, wy, wt) in zip((3, 6, 9), ((vx, vy, vt), state[6:9], state[9:12])):
        out[:, i], out[:, i + 1], out[:, i + 2] = er * wx - ei * wy, er * wy + ei * wx, wt
    out[0] = state   # the flow at t = 0 is the identity, exactly
    return out


def _integrate_batch(spec, q0s, v0s, T, step):
    """Integrate a batch on one sample grid; returns one Trajectory per row.

    Every row must start at unit speed and above Y_FLOOR.
    """
    if not (T > 0.0 and math.isfinite(T)):
        raise DomainError(f"total time must be > 0, got {T}")
    if not (step > 0.0 and math.isfinite(step)):
        raise DomainError(f"step must be > 0, got {step}")
    q0s = np.asarray(q0s, dtype=float)
    v0s = np.asarray(v0s, dtype=float)
    speeds = inner_many(spec, q0s, v0s, v0s)
    bad = np.flatnonzero(~(np.abs(speeds - 1.0) <= UNIT_SPEED_TOL))  # a nan speed is bad too
    if len(bad):
        raise DomainError(f"row {bad[0]}: velocity is not unit speed: g(v, v) = {speeds[bad[0]]}")
    low = np.flatnonzero(q0s[:, 1] <= Y_FLOOR)
    if len(low):
        raise DomainError(f"row {low[0]}: start point below the chart floor y = {Y_FLOOR}")
    B = q0s.shape[0]

    state = np.empty((B, 12))
    state[:, 0:3] = q0s
    state[:, 3:6] = v0s
    for b in range(B):
        state[b, 6:9], state[b, 9:12] = initial_frame(spec, ChartPoint(*q0s[b].tolist()), v0s[b])

    n_full = int(math.floor(T / step + 1e-9))
    times = np.arange(n_full + 1) * step
    if T - n_full * step > 1e-12 * max(1.0, T):   # a last, shorter step ends at T
        times = np.append(times, T)

    if spec.kind == "Product":   # states filled on first read
        rows = [(_product_cut(b, state[b], times), None) for b in range(B)]
    else:
        rows = [(len(s), s) for s in _rk4_rows(spec, state, times)]
    return [
        Trajectory(spec=spec, times=times[:n], start=state[b], step=step,
                   T=float(times[n - 1]), truncated=n < len(times), _states=states)
        for b, (n, states) in enumerate(rows)
    ]


def integrate_geodesic(spec: MetricSpec, q0: ChartPoint, v0, T: float,
                       step: float = DEFAULT_STEP) -> Trajectory:
    """Integrate one unit-speed geodesic from (q0, v0) for time T.

    v0 must already be unit speed (use unit_vector to normalize).
    """
    return _integrate_batch(spec, q0.as_array()[None, :], np.asarray(v0, float)[None, :],
                            T, step)[0]


def integrate_geodesic_batch(spec: MetricSpec, q0s, v0s, T: float,
                             step: float = DEFAULT_STEP):
    """Integrate many geodesics at once; returns a list of Trajectory."""
    return _integrate_batch(spec, q0s, v0s, T, step)


def speed_drift(traj: Trajectory) -> float:
    """max_t |g(v, v) - 1| over the samples."""
    s = inner_many(traj.spec, traj.q, traj.v, traj.v)
    return float(np.max(np.abs(s - 1.0)))


def frame_gram_error(traj: Trajectory) -> float:
    """max deviation of the (e1, e2, e3) Gram matrix from the identity."""
    vecs = traj.states[:, 3:12].reshape(-1, 3, 3)  # (N, 3, 3): e3 = v, e1, e2 per sample
    gram = inner_many(traj.spec, traj.q[:, None, None], vecs[:, :, None], vecs[:, None, :])
    return float(np.max(np.abs(gram - np.eye(3))))
