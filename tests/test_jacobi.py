"""Jacobi propagators, conjugate points, Riccati tensors, Rauch bounds."""

import math

import numpy as np
import pytest

from h2xr.errors import DomainError, NumericsError
from h2xr.geodesics import integrate_geodesic, integrate_geodesic_batch, unit_vector
from h2xr.jacobi import (
    DEFAULT_SCAN_BOX,
    BoxSampler,
    PointSampler,
    first_conjugate_point,
    fit_frequency,
    normal_curvature_samples,
    propagate_jacobi,
    rauch_check,
    riccati_average,
    riccati_from_jacobi,
    riccati_stable,
    riccati_stable_limit,
    scan_conjugate_points,
    wronskian_drift,
    _draw_initial_conditions,
    _hermite,
    _propagate_pair,
    _scan_chunk,
)
from h2xr.metrics import ChartPoint, MetricSpec

PROD = MetricSpec.product(1.0)
ORIGIN = ChartPoint(0.0, 1.0, 0.0)

# closed forms for the warped bump (eps = 0.1): R_perp = w^2 I on the
# central vertical geodesic, w^2 = 2 eps / (1 + eps/2)
OMEGA_01 = math.sqrt(0.2 / 1.05)            # 0.43643578...
TSTAR_01 = math.pi / OMEGA_01               # 7.19829304...
TSTAR_02 = math.pi / math.sqrt(0.4 / 1.1)   # 5.20966...


def horizontal_run(T=10.0, step=1e-3):
    v0 = unit_vector(PROD, ORIGIN, [1, 0, 0])
    return integrate_geodesic(PROD, ORIGIN, v0, T=T, step=step)


def upward_run(T=40.0, step=1e-3):
    v0 = unit_vector(PROD, ORIGIN, [0, 1, 0])
    return integrate_geodesic(PROD, ORIGIN, v0, T=T, step=step)


def central_vertical_run(eps, T, step=1e-3):
    spec = MetricSpec.warped(eps=eps)
    v0 = unit_vector(spec, ORIGIN, [0, 0, 1])
    return integrate_geodesic(spec, ORIGIN, v0, T=T, step=step)


def test_product_horizontal_propagator_closed_form():
    run = propagate_jacobi(horizontal_run(T=10.0))
    t = run.times[1:]
    expect_11 = np.sinh(t)
    assert np.max(np.abs(run.A[1:, 0, 0] - expect_11) / expect_11) <= 1e-12
    assert np.max(np.abs(run.A[1:, 1, 1] - t) / t) <= 1e-12
    assert np.max(np.abs(run.A[:, 0, 1])) <= 1e-12
    assert np.max(np.abs(run.A[:, 1, 0])) <= 1e-12
    assert run.conjugates == []


def test_product_vertical_propagator_linear():
    spec = MetricSpec.product(2.0)
    v0 = unit_vector(spec, ORIGIN, [0, 0, 1])
    tr = integrate_geodesic(spec, ORIGIN, v0, T=10.0, step=1e-2)
    run = propagate_jacobi(tr)
    t = run.times
    assert np.max(np.abs(run.A[:, 0, 0] - t)) <= 1e-10
    assert np.max(np.abs(run.A[:, 1, 1] - t)) <= 1e-10
    assert run.conjugates == []


def test_wronskian_conserved():
    run = propagate_jacobi(horizontal_run(T=5.0))
    assert wronskian_drift(run) <= 1e-12
    runw = propagate_jacobi(central_vertical_run(0.1, T=7.0))
    assert wronskian_drift(runw) <= 1e-12


def test_warped_central_radial_block_is_sine():
    tr = central_vertical_run(0.1, T=7.0)
    run = propagate_jacobi(tr)
    t = run.times
    expect = np.sin(OMEGA_01 * t) / OMEGA_01
    assert np.max(np.abs(run.A[:, 0, 0] - expect)) <= 1e-12
    assert np.max(np.abs(run.A[:, 1, 1] - expect)) <= 1e-12


def test_hermite_dense_output_between_samples():
    # (sin(w t)/w) I on the central vertical run, read at the step midpoints
    run = propagate_jacobi(central_vertical_run(0.1, T=7.0))
    tm = 0.5 * (run.times[:-1] + run.times[1:])
    dense = np.array([_hermite(run.times, run.A, run.Ap, t) for t in tm])
    expect = np.sin(OMEGA_01 * tm) / OMEGA_01
    assert np.max(np.abs(dense[:, 0, 0] - expect)) <= 1e-12
    assert np.max(np.abs(np.linalg.det(dense) - expect * expect)) <= 1e-12


def test_propagators_fourth_order_on_smooth_run():
    # smooth Twisted run: successive step halvings must shrink the change
    # of A(T) and of the anchored U(0) by about 16
    spec = MetricSpec.twisted(0.3, "x")
    q0 = ChartPoint(0.1, 0.9, 0.0)
    v0 = unit_vector(spec, q0, [0.3, 0.2, 1.0])
    a_end, u_start = [], []
    for step in (8e-3, 4e-3, 2e-3, 1e-3):
        tr = integrate_geodesic(spec, q0, v0, T=4.0, step=step)
        a_end.append(propagate_jacobi(tr).A[-1])
        u_start.append(riccati_stable(tr, 4.0).U[0])
    for vals in (a_end, u_start):
        diffs = [np.max(np.abs(vals[i] - vals[i + 1])) for i in range(3)]
        assert diffs[0] / diffs[1] >= 12.0
        assert diffs[1] / diffs[2] >= 12.0


def test_warped_frequency_fit():
    run = propagate_jacobi(central_vertical_run(0.1, T=7.0))
    w = fit_frequency(run.times, run.A[:, 0, 0])
    assert w == pytest.approx(OMEGA_01, rel=1e-4)


def test_fit_frequency_synthetic():
    t = np.linspace(0, 6.0, 500)
    assert fit_frequency(t, 2.7 * np.sin(1.3 * t)) == pytest.approx(1.3, abs=1e-9)


def test_first_conjugate_point_warped_01():
    spec = MetricSpec.warped(eps=0.1)
    v0 = unit_vector(spec, ORIGIN, [0, 0, 1])
    t_star = first_conjugate_point(spec, ORIGIN, v0, Tmax=10.0)
    assert t_star is not None
    assert t_star == pytest.approx(TSTAR_01, rel=1e-6)
    # the published rounding: pi/omega ~ 7.20, matched within 0.5%
    assert abs(t_star - 7.20) / 7.20 <= 0.005


def test_first_conjugate_point_warped_02_closed_form():
    spec = MetricSpec.warped(eps=0.2)
    v0 = unit_vector(spec, ORIGIN, [0, 0, 1])
    t_star = first_conjugate_point(spec, ORIGIN, v0, Tmax=10.0)
    assert t_star == pytest.approx(TSTAR_02, rel=1e-6)


def test_sturm_monotonicity_in_eps():
    stars = []
    for eps in (0.05, 0.1, 0.2):
        spec = MetricSpec.warped(eps=eps)
        v0 = unit_vector(spec, ORIGIN, [0, 0, 1])
        stars.append(first_conjugate_point(spec, ORIGIN, v0, Tmax=15.0))
    assert stars[0] > stars[1] > stars[2]


def test_product_scan_no_detections_and_deterministic():
    rows = scan_conjugate_points(PROD, count=8, Tmax=15.0, step=2e-3, seed=3)
    assert len(rows) == 8
    assert all(r.t_star is None for r in rows)
    assert all(r.det_min > 0 for r in rows)
    rows2 = scan_conjugate_points(PROD, count=8, Tmax=15.0, step=2e-3, seed=3, workers=1)
    for a, b in zip(rows, rows2):
        assert np.array_equal(a.q0, b.q0)
        assert np.array_equal(a.v0, b.v0)
        assert a.det_min == b.det_min


@pytest.mark.parametrize("spec", [PROD, MetricSpec.warped(eps=0.1), MetricSpec.twisted(0.3, "x")],
                         ids=["product", "warped", "twisted"])
def test_scan_rows_match_single_trajectory_runs(spec):
    indices, Tmax, step, seed = list(range(5)), 3.0, 2e-3, 4
    rows = _scan_chunk((spec, indices, Tmax, step, seed, DEFAULT_SCAN_BOX))
    q0s, v0s = _draw_initial_conditions(spec, indices, seed, DEFAULT_SCAN_BOX)
    for row, q0, v0 in zip(rows, q0s, v0s):
        tr = integrate_geodesic_batch(spec, q0[None], v0[None], Tmax, step)[0]
        run = propagate_jacobi(tr)
        assert row.det_min == float(np.min(run.dets()[1:]))
        assert row.t_star == (run.conjugates[0] if run.conjugates else None)


def test_truncated_rows_propagate_as_their_own_trajectories():
    # rows cut at the chart floor are zero-padded in the chunk; the midpoint
    # stencil must stay inside each row, so every row matches its own run
    q0s, v0s = _draw_initial_conditions(PROD, list(range(5)), 4, DEFAULT_SCAN_BOX)
    trajs = integrate_geodesic_batch(PROD, q0s, v0s, 20.0, 4e-3)
    counts = np.array([t.n_samples for t in trajs])
    assert counts.min() < counts.max()
    rperp = np.zeros((len(trajs), counts.max(), 2, 2))
    for b, tr in enumerate(trajs):
        rperp[b, : counts[b]] = normal_curvature_samples(tr)
    grid = trajs[int(np.argmax(counts))].times
    A, Ap = _propagate_pair(grid, rperp, np.zeros((2, 2)), np.eye(2), 0, len(grid) - 1, counts)
    for b, tr in enumerate(trajs):
        run = propagate_jacobi(tr)
        assert np.array_equal(A[b, : counts[b]], run.A)
        assert np.array_equal(Ap[b, : counts[b]], run.Ap)


def test_scan_pool_capped_at_cpu_count(monkeypatch):
    import h2xr.jacobi as jacobi_mod

    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(jacobi_mod, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(jacobi_mod, "SCAN_CHUNK", 1)
    monkeypatch.setattr(jacobi_mod.os, "cpu_count", lambda: 2)
    rows = scan_conjugate_points(PROD, count=3, Tmax=0.01, seed=0, workers=64)
    assert sizes == [2]
    assert [r.index for r in rows] == [0, 1, 2]


def test_slanted_run_hits_simple_sign_change_root():
    # a nearly vertical direction splits the two Jacobi blocks, so det A
    # crosses zero with a sign change (unlike the exactly central run,
    # whose double root is caught by the tangency branch)
    spec = MetricSpec.warped(eps=0.1)
    v0 = unit_vector(spec, ORIGIN, [0.02, 0.0, 1.0])
    t_star = first_conjugate_point(spec, ORIGIN, v0, Tmax=12.0)
    assert t_star is not None
    assert t_star == pytest.approx(TSTAR_01, rel=0.05)
    tr = integrate_geodesic(spec, ORIGIN, v0, T=12.0, step=1e-3)
    run = propagate_jacobi(tr)
    dets = run.dets()
    assert np.min(dets[1:]) < 0.0  # genuine sign change on this run


def test_riccati_product_vertical_zero():
    spec = MetricSpec.product(1.0)
    v0 = unit_vector(spec, ORIGIN, [0, 0, 1])
    tr = integrate_geodesic(spec, ORIGIN, v0, T=40.0, step=1e-2)
    run = riccati_stable(tr, 40.0)
    assert np.max(np.abs(run.U)) <= 1e-10


def test_riccati_h2_factor_tanh_closed_form():
    tr = upward_run(T=40.0)
    for anchor in (5.0, 10.0, 20.0):
        run = riccati_stable(tr, anchor)
        u = run.U[:, 0, 0]
        expect = np.tanh(run.times - anchor)
        # dominated by the curvature finite-difference bias (~1e-8 relative
        # in R_perp, hence ~5e-9 in u), not by the integrator
        assert np.max(np.abs(u - expect)) <= 2e-8
        assert np.max(np.abs(run.U[:, 1, 1])) <= 1e-12
        assert np.max(np.abs(run.U[:, 0, 1])) <= 1e-12
    # anchored value converges to -1 at least exponentially until the
    # curvature-bias floor; the closed form itself decays like 2 e^{-2T}
    floor = 2e-8
    vals = [abs(riccati_stable(tr, T).U[0, 0, 0] + 1.0) for T in (5.0, 10.0, 20.0)]
    assert vals[0] == pytest.approx(1.0 - math.tanh(5.0), rel=1e-4)
    assert vals[1] <= max(vals[0] * math.exp(-5.0), floor)
    assert vals[2] <= max(vals[1] * math.exp(-10.0), floor)


def test_riccati_symmetry_preserved():
    run = riccati_stable(upward_run(T=20.0), 10.0)
    assert np.max(np.abs(run.U - np.swapaxes(run.U, -2, -1))) <= 1e-8


def test_riccati_anchor_doubling():
    tr = upward_run(T=40.0)
    run, delta = riccati_stable_limit(tr, T=20.0)
    assert delta <= 1e-6
    assert run.U[0, 0, 0] == pytest.approx(-1.0, abs=1e-4)


def test_riccati_jacobi_consistency():
    tr = upward_run(T=40.0)
    ric = riccati_stable(tr, 20.0)
    tt, uj = riccati_from_jacobi(tr, 20.0)
    assert np.nanmax(np.abs(uj - ric.U[: len(tt)])) <= 1e-6


def test_riccati_blowup_error():
    tr = central_vertical_run(0.1, T=6.0)
    with pytest.raises(NumericsError, match="blow-up") as exc:
        riccati_stable(tr, 6.0)
    # u' = -u^2 - w^2 from 0 blows up pi/(2w) ~ 3.6 before the anchor
    assert exc.value.info["time"] > 0.0


def test_riccati_average_product_zero_and_deterministic():
    res = riccati_average(PROD, BoxSampler(), n=25, seed=5, anchor=5.0, step=1e-2)
    assert abs(res.estimate) <= 1e-8
    assert res.n_rejected == 0
    res2 = riccati_average(PROD, BoxSampler(), n=25, seed=5, anchor=5.0, step=1e-2)
    assert res.estimate == res2.estimate
    assert np.array_equal(res.values, res2.values)
    res3 = riccati_average(PROD, BoxSampler(), n=25, seed=6, anchor=5.0, step=1e-2)
    assert abs(res3.estimate - res.estimate) <= 1e-8  # compatible across seeds


def test_riccati_average_warped_center_positive():
    # closed form at the bump center: U = w tan(w (T - t)) I before blow-up,
    # R_V = w^2 I, so the integrand at t = 0 is 2 (w tan(w T))^2 + 2 w^2
    spec = MetricSpec.warped(eps=0.1)
    res = riccati_average(spec, PointSampler(ORIGIN), n=3, seed=1, anchor=3.0, step=1e-3)
    ut = OMEGA_01 * math.tan(3.0 * OMEGA_01)
    expect = 2.0 * (ut * ut + OMEGA_01 * OMEGA_01)
    assert res.estimate == pytest.approx(expect, rel=1e-6)
    assert res.estimate > 0.0


def test_riccati_average_rejects_nongeodesic_verticals():
    spec = MetricSpec.warped(eps=0.1)
    with pytest.raises(NumericsError, match="not geodesics") as exc:
        riccati_average(spec, BoxSampler(), n=12, seed=2, anchor=3.0)
    assert exc.value.info["n_rejected"] > 6


def test_rauch_pure_and_mixed_cases():
    run = propagate_jacobi(horizontal_run(T=10.0))
    rep = rauch_check(run, k_min=-1.0)
    assert rep.max_violation <= 1e-6
    for case in rep.cases:
        # constant base curvature saturates the comparison
        assert case.max_abs_margin_rel <= 1e-6
    assert rep.cases[0].jh0 == 1.0 and rep.cases[0].jv0 == 0.0


def test_rauch_rejects_non_product():
    run = propagate_jacobi(central_vertical_run(0.1, T=3.0))
    with pytest.raises(DomainError, match="Product"):
        rauch_check(run, k_min=-1.0)


def test_normal_curvature_constant_blocks():
    tr = horizontal_run(T=2.0)
    rp = normal_curvature_samples(tr)
    assert np.max(np.abs(rp[:, 0, 0] + 1.0)) <= 1e-6   # in-surface normal: K = -1
    assert np.max(np.abs(rp[:, 1, 1])) <= 1e-8          # vertical: flat
    assert np.max(np.abs(rp[:, 0, 1])) <= 1e-8


def test_first_conjugate_rejects_bad_tmax():
    spec = MetricSpec.warped(eps=0.1)
    v0 = unit_vector(spec, ORIGIN, [0, 0, 1])
    with pytest.raises(DomainError):
        first_conjugate_point(spec, ORIGIN, v0, Tmax=-1.0)


def test_conjugate_list_increasing_multiple_zeros():
    # central vertical run long enough for two focal passes: pi/w and 2pi/w
    tr = central_vertical_run(0.1, T=16.0)
    run = propagate_jacobi(tr)
    assert len(run.conjugates) == 2
    assert run.conjugates[0] < run.conjugates[1]
    assert run.conjugates[0] == pytest.approx(TSTAR_01, rel=1e-6)
    assert run.conjugates[1] == pytest.approx(2.0 * TSTAR_01, rel=1e-6)


def test_positive_rv_pairs_with_conjugate_point():
    # contrapositive witness: a positive R_V eigenvalue at the bump center
    # coexists with a detected conjugate point on the same vertical
    from h2xr.metrics import r_v_operator

    spec = MetricSpec.warped(eps=0.1)
    eigs = np.linalg.eigvalsh(r_v_operator(spec, ORIGIN))
    assert eigs.max() > 0.0
    v0 = unit_vector(spec, ORIGIN, [0, 0, 1])
    assert first_conjugate_point(spec, ORIGIN, v0, Tmax=10.0) is not None


def test_trajectory_times_strictly_increasing():
    tr = central_vertical_run(0.1, T=2.0, step=3e-4)
    assert np.all(np.diff(tr.times) > 0.0)
    assert tr.times[0] == 0.0 and tr.times[-1] == pytest.approx(2.0, abs=1e-12)


def test_workers_env_override(monkeypatch):
    from h2xr.jacobi import default_workers

    monkeypatch.setenv("H2XR_WORKERS", "5")
    assert default_workers() == 5
    monkeypatch.setenv("H2XR_WORKERS", "zero")
    with pytest.raises(DomainError):
        default_workers()
    monkeypatch.delenv("H2XR_WORKERS")
    assert default_workers() >= 1
