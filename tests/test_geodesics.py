"""Geodesic integration: exactness, order, frames, equivariance."""

import math

import numpy as np
import pytest

from h2xr.errors import DomainError
from h2xr.hyperbolic import HPoint, MobiusElement, mobius_apply, mobius_apply_tangent
from h2xr.geodesics import (
    PhaseState,
    frame_gram_error,
    initial_frame,
    integrate_geodesic,
    integrate_geodesic_batch,
    speed_drift,
    unit_vector,
)
from h2xr.metrics import ChartPoint, MetricSpec, christoffel_many

PROD = MetricSpec.product(1.0)
WARP = MetricSpec.warped(eps=0.1)
ORIGIN = ChartPoint(0.0, 1.0, 0.0)


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
    assert tr.q[-1] == pytest.approx([0.0, math.e, 0.0], abs=1e-10)


def test_warped_central_vertical_stays_at_center():
    v0 = unit_vector(WARP, ORIGIN, [0, 0, 1])
    tr = integrate_geodesic(WARP, ORIGIN, v0, T=10.0, step=1e-3)
    assert np.max(np.abs(tr.q[:, 0])) <= 1e-12
    assert np.max(np.abs(tr.q[:, 1] - 1.0)) <= 1e-12


def test_speed_drift_small_and_fourth_order():
    q0 = ChartPoint(0.2, 1.3, 0.0)
    v0 = unit_vector(PROD, q0, [1.0, 0.4, 0.6])
    assert speed_drift(integrate_geodesic(PROD, q0, v0, T=10.0, step=1e-3)) <= 1e-8
    # halving the step cuts the drift ~16x (measured above the roundoff floor)
    d1 = speed_drift(integrate_geodesic(PROD, q0, v0, T=5.0, step=8e-3))
    d2 = speed_drift(integrate_geodesic(PROD, q0, v0, T=5.0, step=4e-3))
    assert d1 / d2 > 10.0


def test_endpoint_convergence_order():
    # three error levels, each from a halved step; steps chosen coarse
    # enough that truncation still dominates roundoff
    q0 = ChartPoint(0.0, 1.0, 0.0)
    v0 = unit_vector(PROD, q0, [1.0, 0.3, 0.5])
    steps = [1.6e-2, 8e-3, 4e-3, 2e-3]
    ends = [integrate_geodesic(PROD, q0, v0, T=2.0, step=h).q[-1] for h in steps]
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
    assert np.max(np.abs(back.q[-1] - q0.as_array())) <= 1e-6
    assert np.max(np.abs(back.v[-1] + v0)) <= 1e-6


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
    assert trm.q[-1, 0] == pytest.approx(we.x, abs=1e-6)
    assert trm.q[-1, 1] == pytest.approx(we.y, abs=1e-6)
    assert trm.q[-1, 2] == pytest.approx(tr.q[-1, 2], abs=1e-9)


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


def test_truncation_at_chart_floor():
    # steep descending start: y(t) ~ e^-t crosses the floor before T
    q0 = ChartPoint(0.0, 1.0, 0.0)
    v0 = unit_vector(PROD, q0, [0, -1, 0])
    tr = integrate_geodesic(PROD, q0, v0, T=20.0, step=1e-3)
    assert tr.truncated
    assert tr.T < 20.0
    assert np.min(tr.q[:, 1]) > 1e-6 * 0.9


def test_unit_speed_validation():
    with pytest.raises(DomainError, match="unit speed"):
        PhaseState.checked(PROD, ORIGIN, np.array([0.0, 0.0, 2.0]))
    with pytest.raises(DomainError):
        integrate_geodesic(PROD, ORIGIN, np.array([0.0, 0.0, 2.0]), T=1.0)
    with pytest.raises(DomainError):
        unit_vector(PROD, ORIGIN, [0.0, 0.0, 0.0])


def test_batch_matches_single():
    # one trajectory steps as a single state vector, a batch as rows: the
    # arithmetic must be the same, bit for bit (the warped pair starts
    # inside and outside the warp's cap)
    q0s = np.array([[0.0, 1.0, 0.0], [0.4, 1.5, 0.2]])
    for spec in (PROD, WARP):
        v0s = np.array([
            unit_vector(spec, ChartPoint(*q0s[0]), [1, 0, 0.4]),
            unit_vector(spec, ChartPoint(*q0s[1]), [0.2, 1, -0.3]),
        ])
        batch = integrate_geodesic_batch(spec, q0s, v0s, T=1.0, step=1e-3)
        for b in range(2):
            single = integrate_geodesic(spec, ChartPoint(*q0s[b]), v0s[b], T=1.0, step=1e-3)
            assert np.array_equal(single.q, batch[b].q)
            assert np.array_equal(single.v, batch[b].v)
            assert np.array_equal(single.e1, batch[b].e1)
            assert np.array_equal(single.e2, batch[b].e2)


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
