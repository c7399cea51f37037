"""Geodesic integration: exactness, order, frames, equivariance.

Product runs take the exact flow; the RK4 order checks run on a Twisted
metric, whose geodesics still step through RK4.
"""

import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from h2xr import geodesics
from h2xr.errors import DomainError, NumericsError
from h2xr.hyperbolic import HPoint, MobiusElement, hyp_distance, mobius_apply
from h2xr.geodesics import (
    frame_gram_error,
    initial_frame,
    integrate_geodesic,
    integrate_geodesic_batch,
    speed_drift,
    unit_vector,
)
from h2xr.jacobi import DEFAULT_SCAN_BOX, _draw_initial_conditions
from h2xr.metrics import ChartPoint, MetricSpec, christoffel_many, metric_many

PROD = MetricSpec.product(1.0)
WARP = MetricSpec.warped(eps=0.1)
TWIST = MetricSpec.twisted(0.3, "x")  # smooth, non-product: RK4 order checks
ORIGIN = ChartPoint(0.0, 1.0, 0.0)


def mobius_apply_tangent(m, p, v):
    """Differential of the Moebius action at p: v -> v / (cz + d)^2."""
    return v / (m.c * p.z + m.d) ** 2


def test_vertical_fiber_line_is_geodesic():
    v0 = unit_vector(PROD, ORIGIN, [0, 0, 1])
    tr = integrate_geodesic(PROD, ORIGIN, v0, T=10.0, step=1e-2)
    assert np.max(np.abs(tr.q[:, 0])) == 0.0
    assert np.max(np.abs(tr.q[:, 1] - 1.0)) == 0.0
    assert np.allclose(tr.q[:, 2], tr.times, atol=1e-14)
    assert speed_drift(tr) <= 1e-12


def test_upward_surface_geodesic_exponential():
    v0 = unit_vector(PROD, ORIGIN, [0, 1, 0])
    tr = integrate_geodesic(PROD, ORIGIN, v0, T=1.0, step=1e-3)
    assert tr.q[-1] == pytest.approx([0.0, math.e, 0.0], abs=1e-12)


def test_warped_central_vertical_stays_at_center():
    v0 = unit_vector(WARP, ORIGIN, [0, 0, 1])
    tr = integrate_geodesic(WARP, ORIGIN, v0, T=10.0, step=1e-3)
    assert np.max(np.abs(tr.q[:, 0])) <= 1e-12
    assert np.max(np.abs(tr.q[:, 1] - 1.0)) <= 1e-12


def test_speed_drift_small_and_fourth_order():
    q0 = ChartPoint(0.2, 1.3, 0.0)
    v0 = unit_vector(PROD, q0, [1.0, 0.4, 0.6])
    assert speed_drift(integrate_geodesic(PROD, q0, v0, T=10.0, step=1e-3)) <= 1e-14
    # RK4: halving the step cuts the drift ~16x (measured above the roundoff floor)
    v0 = unit_vector(TWIST, q0, [1.0, 0.4, 0.6])
    d1 = speed_drift(integrate_geodesic(TWIST, q0, v0, T=5.0, step=8e-3))
    d2 = speed_drift(integrate_geodesic(TWIST, q0, v0, T=5.0, step=4e-3))
    assert d1 / d2 > 10.0


def test_endpoint_convergence_order():
    # three error levels, each from a halved step; steps chosen coarse
    # enough that truncation still dominates roundoff
    q0 = ChartPoint(0.0, 1.0, 0.0)
    v0 = unit_vector(TWIST, q0, [1.0, 0.3, 0.5])
    steps = [1.6e-2, 8e-3, 4e-3, 2e-3]
    ends = [integrate_geodesic(TWIST, q0, v0, T=2.0, step=h).q[-1] for h in steps]
    errs = [np.max(np.abs(a - b)) for a, b in zip(ends, ends[1:])]
    for e0, e1 in zip(errs, errs[1:]):
        assert e0 / e1 >= 12.0


def test_reversibility():
    q0 = ChartPoint(0.4, 0.9, 0.1)
    v0 = unit_vector(PROD, q0, [0.7, -0.3, 0.4])
    fwd = integrate_geodesic(PROD, q0, v0, T=3.0, step=1e-3)
    qe = fwd.q[-1]
    back = integrate_geodesic(
        PROD, ChartPoint(*qe), -fwd.v[-1], T=3.0, step=1e-3
    )
    assert np.max(np.abs(back.q[-1] - q0.as_array())) <= 1e-12
    assert np.max(np.abs(back.v[-1] + v0)) <= 1e-12


def test_mobius_equivariance_product():
    m = MobiusElement(1.2, 0.3, 0.1, (1 + 0.3 * 0.1) / 1.2)
    q0 = ChartPoint(0.1, 1.1, 0.0)
    v0 = unit_vector(PROD, q0, [0.8, 0.5, 0.3])
    tr = integrate_geodesic(PROD, q0, v0, T=2.0, step=1e-3)

    z0 = HPoint(q0.x, q0.y)
    w0 = mobius_apply(m, z0)
    dv = mobius_apply_tangent(m, z0, complex(v0[0], v0[1]))
    q0m = ChartPoint(w0.x, w0.y, q0.t)
    v0m = np.array([dv.real, dv.imag, v0[2]])
    trm = integrate_geodesic(PROD, q0m, v0m, T=2.0, step=1e-3)

    ze = HPoint(tr.q[-1, 0], tr.q[-1, 1])
    we = mobius_apply(m, ze)
    assert trm.q[-1, 0] == pytest.approx(we.x, abs=1e-12)
    assert trm.q[-1, 1] == pytest.approx(we.y, abs=1e-12)
    assert trm.q[-1, 2] == pytest.approx(tr.q[-1, 2], abs=1e-12)


def test_frame_orthonormal_along_run():
    q0 = ChartPoint(0.3, 1.4, 0.2)
    v0 = unit_vector(WARP, q0, [0.5, 0.2, 0.8])
    tr = integrate_geodesic(WARP, q0, v0, T=5.0, step=1e-3)
    assert frame_gram_error(tr) <= 1e-7


def test_frame_parallel_transport_residual_shrinks():
    # residual of nabla_v e1 via centered differences of the samples
    def residual(step):
        q0 = ChartPoint(0.0, 1.0, 0.0)
        v0 = unit_vector(PROD, q0, [0.9, 0.3, 0.3])
        tr = integrate_geodesic(PROD, q0, v0, T=1.0, step=step)
        k = tr.n_samples // 2
        de = (tr.e1[k + 1] - tr.e1[k - 1]) / (tr.times[k + 1] - tr.times[k - 1])
        gam = christoffel_many(PROD, tr.q[k][None, :])[0]
        corr = np.einsum("kij,i,j->k", gam, tr.v[k], tr.e1[k])
        return float(np.max(np.abs(de + corr)))

    # centered differencing of the stored samples dominates at O(step^2)
    assert residual(1e-3) <= 1e-5
    assert residual(1e-3) / residual(5e-4) > 3.0


def test_frame_ordering_horizontal_run():
    # horizontal product run: e1 = in-surface normal, e2 = vertical
    v0 = unit_vector(PROD, ORIGIN, [1, 0, 0])
    e1, e2 = initial_frame(PROD, ORIGIN, v0)
    assert e1 == pytest.approx([0.0, 1.0, 0.0], abs=1e-14)
    assert e2 == pytest.approx([0.0, 0.0, 1.0], abs=1e-14)
    with pytest.raises(DomainError):
        initial_frame(PROD, ORIGIN, [0.0, -0.0, 0.0])


def test_truncation_at_chart_floor():
    # steep descending start: y(t) ~ e^-t crosses the floor before T
    q0 = ChartPoint(0.0, 1.0, 0.0)
    v0 = unit_vector(PROD, q0, [0, -1, 0])
    tr = integrate_geodesic(PROD, q0, v0, T=20.0, step=1e-3)
    assert tr.truncated
    assert tr.T < 20.0
    assert np.min(tr.q[:, 1]) > 1e-6 * 0.9


def test_product_overflow_is_a_numerics_error():
    # straight up, y = e^t leaves the floating-point range near t = 709
    v0 = unit_vector(PROD, ORIGIN, [0, 1, 0])
    with pytest.raises(NumericsError, match="non-finite"):
        integrate_geodesic(PROD, ORIGIN, v0, T=800.0, step=1.0)


def test_unit_speed_validation():
    with pytest.raises(DomainError, match="unit speed"):
        integrate_geodesic(PROD, ORIGIN, np.array([0.0, 0.0, 2.0]), T=1.0)
    with pytest.raises(DomainError):
        unit_vector(PROD, ORIGIN, [0.0, 0.0, 0.0])


def test_batch_matches_single():
    # a lone trajectory steps on Python floats, a batch through the array
    # kernel: the arithmetic must be the same, bit for bit and sign of zero
    # included.  The rows start inside and outside the warp's cap, and the
    # third crosses the blend annulus r0 < rho < r1 and leaves the ball.
    q0s = np.array([[0.0, 1.0, 0.0], [0.4, 1.5, 0.2], [0.1, 0.9, 0.0]])
    directions = ([1, 0, 0.4], [0.2, 1, -0.3], [0.3, 0.2, 1])
    for spec in (PROD, WARP, MetricSpec.twisted(1e-3, "x"), MetricSpec.twisted(0.05, "log_y")):
        v0s = np.array([unit_vector(spec, ChartPoint(*q), d) for q, d in zip(q0s, directions)])
        batch = integrate_geodesic_batch(spec, q0s, v0s, T=3.0, step=1e-3)
        if spec is WARP:
            rho = [hyp_distance(HPoint(0.0, 1.0), HPoint(x, y)) for x, y in batch[2].q[:, :2]]
            assert rho[0] < WARP.warp.r0 and rho[-1] > WARP.warp.r1
        for b in range(3):
            single = integrate_geodesic(spec, ChartPoint(*q0s[b]), v0s[b], T=3.0, step=1e-3)
            for field in ("q", "v", "e1", "e2"):
                a, c = getattr(single, field), getattr(batch[b], field)
                assert np.array_equal(a, c), (spec, b, field)
                assert np.array_equal(np.signbit(a), np.signbit(c)), (spec, b, field)


def test_lone_warped_row_truncates_like_a_batch():
    # far outside the warp ball the metric is the product, so heading
    # straight down y = e^-t meets the chart floor near t = 13.8: at the
    # same sample alone and in a batch
    q0s = np.array([[5.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    v0s = np.array([unit_vector(WARP, ChartPoint(*q0s[0]), [0, -1, 0]),
                    unit_vector(WARP, ChartPoint(*q0s[1]), [0, 0, 1])])
    lone = integrate_geodesic(WARP, ChartPoint(*q0s[0]), v0s[0], T=20.0, step=1e-2)
    pair = integrate_geodesic_batch(WARP, q0s, v0s, T=20.0, step=1e-2)
    assert lone.truncated and pair[0].truncated and not pair[1].truncated
    assert lone.n_samples == pair[0].n_samples == 1382
    assert lone.T == pair[0].T == pytest.approx(13.81)
    assert np.array_equal(lone.q, pair[0].q)
    assert lone.q[-1, 1] > geodesics.Y_FLOOR


@pytest.mark.parametrize("rows", [1, 2])
@pytest.mark.parametrize("vy, T, step", [(1, 800.0, 1.0), (-1, 10.0, 2.0)])
def test_warped_blowup_is_a_numerics_error_without_warnings(rows, vy, T, step):
    # far outside the ball: straight up, y grows like e^t and leaves the
    # floating-point range; straight down from y = 1 with step 2, the
    # midpoint stage lands exactly on y = 0.  Either way the run stops with
    # NumericsError, and no numpy warning or Python float exception (a lone
    # row steps on floats) gets out on the way.  Both rows fail in the same
    # step (up: the step from t = 356), and a lone row reports the step a batch does
    q0s = np.array([[5.0, 1.0, 0.0], [0.0, 1.0, 0.0]])[:rows]
    v0s = np.array([unit_vector(WARP, ChartPoint(*q), [0, vy, 0]) for q in q0s])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericsError, match="non-finite") as err:
            integrate_geodesic_batch(WARP, q0s, v0s, T=T, step=step)
    assert err.value.info == {"rows": list(range(rows)), "time": 356.0 if vy > 0 else 0.0}


def test_lone_twisted_row_at_zero_shear_factor_fails_like_a_batch():
    # phi = 1 + x: heading to -x from x = -0.5 the row meets phi = 0 inside
    # a step, alone (on floats) as in a batch with a harmless vertical row
    spec = MetricSpec.twisted(1.0, "x")
    q0s = np.array([[-0.5, 1.0, 0.0], [0.0, 1.0, 0.0]])
    v0s = np.array([unit_vector(spec, ChartPoint(*q), d) for q, d in zip(q0s, ([-1, 0, 0], [0, 0, 1]))])
    for rows in (1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="shear factor 1 \\+ alpha h reached zero"):
                integrate_geodesic_batch(spec, q0s[:rows], v0s[:rows], T=5.0, step=1e-2)


@pytest.mark.parametrize("spec", [PROD, WARP], ids=["product", "warped"])
def test_nan_velocity_is_a_domain_error(spec):
    # |nan - 1| > tol is False, so the unit-speed check must be written to fail on nan
    with pytest.raises(DomainError, match="unit speed"):
        integrate_geodesic(spec, ORIGIN, np.array([math.nan, 0.0, 1.0]), T=1.0, step=0.1)


def test_geodesic_equation_residual_locally_small():
    # 4th-order reconstruction of q'' from samples vs -Gamma(v, v); the fused
    # right-hand side of the integrator never forms Gamma, so this ties it to
    # christoffel_many for every kind (the warped run stays inside the cap)
    q0 = ChartPoint(0.0, 1.0, 0.0)
    h = 1e-3
    k = 500
    for spec, direction in ((PROD, [0.6, 0.8, 0.0]), (WARP, [0.6, 0.8, 0.5]),
                            (MetricSpec.twisted(1e-2, "log_y"), [0.6, 0.8, 0.5]),
                            (MetricSpec.twisted(1e-2, "x"), [0.6, 0.8, 0.5])):
        tr = integrate_geodesic(spec, q0, unit_vector(spec, q0, direction), T=1.0, step=h)
        stencil = (-tr.q[k - 2] + 16 * tr.q[k - 1] - 30 * tr.q[k]
                   + 16 * tr.q[k + 1] - tr.q[k + 2]) / (12 * h * h)
        gam = christoffel_many(spec, tr.q[k][None, :])[0]
        acc = -np.einsum("kij,i,j->k", gam, tr.v[k], tr.v[k])
        assert np.max(np.abs(stencil - acc)) <= 1e-7, spec


def test_product_flow_matches_rk4_engine():
    # Twisted with alpha = 0 is the product metric stepped by RK4; the two
    # engines agree to RK4's error (horizontal parts relative to y)
    twin = MetricSpec.twisted(0.0, "x")
    q0 = ChartPoint(0.2, 1.3, 0.1)
    for direction in ((1, 0.3, 0.5), (0.2, -1, 0.1), (0, 1, 0.3), (-0.7, 0.2, -0.4)):
        exact = integrate_geodesic(PROD, q0, unit_vector(PROD, q0, direction), T=5.0)
        rk4 = integrate_geodesic(twin, q0, unit_vector(twin, q0, direction), T=5.0)
        assert exact.n_samples == rk4.n_samples
        y = exact.q[:, 1:2]
        for field in ("q", "v", "e1", "e2"):
            a, b = getattr(exact, field), getattr(rk4, field)
            assert np.max(np.abs(a[:, :2] - b[:, :2]) / y) <= 1e-12, (direction, field)
            assert np.max(np.abs(a[:, 2] - b[:, 2])) <= 1e-12, (direction, field)


def test_product_rows_stay_on_their_geodesic_over_full_horizon():
    # the first scan chunk (seed 0) at Tmax = 50: every sample lies on the
    # H^2 geodesic of its start, in hyperbolic distance, until truncation
    q0s, v0s = _draw_initial_conditions(PROD, list(range(32)), 0, DEFAULT_SCAN_BOX)
    trajs = integrate_geodesic_batch(PROD, q0s, v0s, T=50.0, step=1e-3)
    worst = 0.0
    for (x0, y0, _), v0, tr in zip(q0s, v0s, trajs):
        dx = v0[0] / math.hypot(v0[0], v0[1])
        dy = v0[1] / math.hypot(v0[0], v0[1])
        x, y = tr.q[:, 0], tr.q[:, 1]
        if dx != 0.0:
            c = x0 + y0 * dy / dx
            r2 = (x0 - c) ** 2 + y0 ** 2
            dist = np.arcsinh(np.abs((x - c) ** 2 + y ** 2 - r2) / (2 * math.sqrt(r2) * y))
        else:
            dist = np.arcsinh(np.abs(x - x0) / y)
        worst = max(worst, float(np.max(dist)))
    assert worst <= 1e-7


def _counting_steps(m):
    """Wrap geodesics._geodesic_step in the monkeypatch context m; returns its call list."""
    calls, step = [], geodesics._geodesic_step
    m.setattr(geodesics, "_geodesic_step", lambda *a: calls.append(a[2]) or step(*a))
    return calls


@settings(max_examples=40)
@given(eps=st.floats(0.05, 0.4), cx=st.floats(-1.0, 1.0), cy=st.floats(0.5, 2.0),
       place=st.sampled_from(["centre", "outside", "twisted"]),
       offset=st.floats(1.0, 4.0) | st.floats(-4.0, -1.0),
       potential=st.sampled_from(["x", "log_y"]), T=st.floats(0.05, 5.0), first=st.booleans())
def test_killing_orbit_rows_fill_with_their_batch_bits(eps, cx, cy, place, offset, potential, T,
                                                       first):
    # a vertical row along an orbit of d_t (at the warp centre, outside the
    # warp ball, on Twisted with alpha = 0) is filled after its first step
    # alone, and stepped in a batch next to a slanted row: the same bytes,
    # also where the grid ends with a shorter step
    if place == "twisted":
        spec = MetricSpec.twisted(0.0, potential)
    else:
        spec = MetricSpec.warped(eps, center=HPoint(cx, cy))
    q0 = ChartPoint(cx + offset * cy if place == "outside" else cx, cy, 0.0)
    if place == "outside":
        assert hyp_distance(HPoint(cx, cy), HPoint(q0.x, q0.y)) > spec.warp.r1
    v0 = unit_vector(spec, q0, [0, 0, 1])
    with pytest.MonkeyPatch.context() as m:
        calls = _counting_steps(m)
        lone = integrate_geodesic(spec, q0, v0, T, step=1e-2)
    assert len(calls) <= 3
    slanted = ChartPoint(cx + 0.1 * cy, cy, 0.0)
    rows = [(q0, v0), (slanted, unit_vector(spec, slanted, [0.3, 0.2, 1]))]
    rows = rows if first else rows[::-1]
    batch = integrate_geodesic_batch(spec, [q.as_array() for q, _ in rows],
                                     [v for _, v in rows], T, step=1e-2)[0 if first else 1]
    assert lone.times.tobytes() == batch.times.tobytes()
    assert lone.states.tobytes() == batch.states.tobytes()


def test_killing_orbit_fill_fires_only_on_an_orbit():
    # the central row of Example 2 takes one step of 10,000 and is filled;
    # a vertical row just off the critical point, inside the cap, steps
    # every sample, and gets its batch bits
    v0 = unit_vector(WARP, ORIGIN, [0, 0, 1])
    with pytest.MonkeyPatch.context() as m:
        calls = _counting_steps(m)
        tr = integrate_geodesic(WARP, ORIGIN, v0, T=10.0)
    assert len(calls) <= 3 and tr.n_samples == 10001
    assert np.array_equal(tr.states[:, [0, 1, *range(3, 12)]],
                          np.broadcast_to(tr.start[[0, 1, *range(3, 12)]], (10001, 11)))
    assert np.all(np.diff(tr.q[:, 2]) > 0.0) and tr.q[-1, 2] == pytest.approx(10.0 * v0[2])
    off = ChartPoint(0.1, 0.9, 0.0)
    q0s = np.array([off.as_array(), [0.0, 1.0, 0.0]])
    v0s = np.array([unit_vector(WARP, off, [0, 0, 1]), v0])
    with pytest.MonkeyPatch.context() as m:
        calls = _counting_steps(m)
        lone = integrate_geodesic(WARP, off, v0s[0], T=1.0, step=1e-2)
    assert len(calls) == 100
    assert np.max(np.abs(lone.v[:, 0])) > 0.0
    batch = integrate_geodesic_batch(WARP, q0s, v0s, T=1.0, step=1e-2)
    assert lone.states.tobytes() == batch[0].states.tobytes()


def test_product_never_steps_rk4(monkeypatch):
    def no_rk4(*args, **kwargs):
        raise AssertionError("Product run stepped through the RK4 right-hand side")

    monkeypatch.setattr(geodesics, "_rhs", no_rk4)
    q0s = np.array([[0.0, 1.0, 0.0], [0.4, 1.5, 0.2], [-0.3, 0.7, 0.9]])
    v0s = np.array([unit_vector(PROD, ChartPoint(*q), d)
                    for q, d in zip(q0s, ([1, 0, 0.4], [0.2, 1, -0.3], [0, 0, 1]))])
    trajs = integrate_geodesic_batch(PROD, q0s, v0s, T=1.0, step=1e-3)
    assert [tr.n_samples for tr in trajs] == [1001] * 3


def test_product_samples_filled_on_first_read(monkeypatch):
    # built from its start and grid only: the states come on first read,
    # are filled once and kept, q, v, e1, e2 are views of them, and they
    # survive pickling whether filled or not
    def no_fill(*args, **kwargs):
        raise AssertionError("Product trajectory filled when built")

    q0 = ChartPoint(0.4, 1.5, 0.2)
    v0 = unit_vector(PROD, q0, [0.2, 1, -0.3])
    with monkeypatch.context() as m:
        m.setattr(geodesics, "_product_samples", no_fill)
        tr = integrate_geodesic(PROD, q0, v0, T=3.0)
        lazy = pickle.loads(pickle.dumps(tr))
    assert (tr.n_samples, tr.T, tr.truncated) == (3001, 3.0, False)
    assert np.array_equal(tr.start, np.concatenate([q0.as_array(), v0, *initial_frame(PROD, q0, v0)]))
    fills, fill = [], geodesics._product_samples
    monkeypatch.setattr(geodesics, "_product_samples", lambda *a: fills.append(a) or fill(*a))
    fields = ("q", "v", "e1", "e2")
    first = [getattr(tr, f) for f in fields]
    assert tr.states is tr.states and tr.states.shape == (3001, 12)
    assert len(fills) == 1
    for i, a in enumerate(first):
        assert a.shape == (3001, 3) and np.shares_memory(a, tr.states)
        assert np.array_equal(a, tr.states[:, 3 * i:3 * i + 3])
    for copy in (lazy, pickle.loads(pickle.dumps(tr))):
        for f, a in zip(fields, first):
            assert np.array_equal(getattr(copy, f), a), f


def test_product_fiber_length_two_exact_invariants():
    spec = MetricSpec.product(2.0)
    q0 = ChartPoint(-0.3, 0.7, 0.4)
    tr = integrate_geodesic(spec, q0, unit_vector(spec, q0, [0.4, -0.8, 0.6]), T=8.0)
    assert speed_drift(tr) <= 1e-14
    assert frame_gram_error(tr) <= 1e-14


def test_long_upward_product_row_stays_finite():
    # straight up for T = 500: y = e^t reaches 1.4e217, well past t = 355,
    # where 1/D^2 leaves the float range.  The frame stays finite and
    # g-orthonormal; g_xx = 1/y^2 underflows there, so the Gram matrix is
    # taken with the horizontal parts divided by y (L = 1)
    v0 = unit_vector(PROD, ORIGIN, [0, 1, 0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tr = integrate_geodesic(PROD, ORIGIN, v0, T=500.0, step=0.5)
        q, vecs = tr.q, np.stack([tr.e1, tr.e2, tr.v], axis=1)   # (N, 3, 3)
    assert (tr.truncated, tr.T) == (False, 500.0)
    assert np.isfinite(q).all() and np.isfinite(vecs).all()
    scaled = vecs / np.stack([q[:, 1], q[:, 1], np.ones(len(q))], axis=1)[:, None, :]
    gram = np.einsum("kai,kbi->kab", scaled, scaled)
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-15


def einsum_frame(spec, q, v):
    """Gram-Schmidt of d_x, d_y, d_t against v with np.einsum over metric_many's 3 x 3 tensor."""
    g = metric_many(spec, q.as_array()[None])[0]

    def dot(a, b):
        return float(np.einsum("ij,i,j->", g, a, b))

    basis = [v / math.sqrt(dot(v, v))]
    for m in range(3):
        w = np.eye(3)[m]
        for p in basis:
            w = w - dot(w, p) * p
        if dot(w, w) > 1e-12 * g[m, m]:
            basis.append(w / math.sqrt(dot(w, w)))
    return basis[1], basis[2]


_COMPONENT = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]), st.floats(-10.0, 10.0))


@given(spec=st.sampled_from([PROD, MetricSpec.product(2.5), MetricSpec.warped(0.3, HPoint(0.1, 1.2)),
                             TWIST, MetricSpec.twisted(-0.1, "log_y")]),
       x=st.floats(-2.0, 2.0), y=st.floats(0.05, 4.0),
       v=st.tuples(_COMPONENT, _COMPONENT, _COMPONENT).filter(lambda v: max(map(abs, v)) > 1e-100))
def test_initial_frame_matches_full_metric_gram_schmidt(spec, x, y, v):
    # the float Gram-Schmidt on the diagonal metric gives the bits of the
    # one over the full tensor, sign of zero included
    q = ChartPoint(x, y, 0.0)
    v = np.array(v)
    for got, want in zip(initial_frame(spec, q, v), einsum_frame(spec, q, v)):
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))
