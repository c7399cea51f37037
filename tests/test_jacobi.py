"""Jacobi propagators, conjugate points, Riccati tensors, Rauch bounds."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import h2xr.jacobi as jacobi_mod
from h2xr import geodesics
from h2xr.errors import DomainError, NumericsError
from h2xr.geodesics import integrate_geodesic, integrate_geodesic_batch, unit_vector
from h2xr.jacobi import (
    DEFAULT_SCAN_BOX,
    BoxSampler,
    PointSampler,
    companion_propagator,
    first_conjugate_point,
    fit_frequency,
    normal_curvature_samples,
    propagate_jacobi,
    rauch_check,
    riccati_average,
    riccati_stable,
    riccati_stable_limit,
    scan_conjugate_points,
    wronskian_drift,
    _base_coupling,
    _draw_initial_conditions,
    _half_grid_batch,
    _half_grid_rperp,
    _hermite,
    _product_propagators,
    _product_riccati,
    _propagate_pair,
    _riccati_backward,
    _rperp,
    _scan_chunk,
)
from h2xr.metrics import ChartPoint, MetricSpec, fiber, r_v_operator_many
from oracles import riccati_from_jacobi

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
    assert np.max(np.abs(run.A[1:, 0, 0] - expect_11) / expect_11) <= 1e-15
    assert np.max(np.abs(run.A[1:, 1, 1] - t) / t) <= 1e-15
    assert np.max(np.abs(run.A[:, 0, 1])) <= 1e-15
    assert np.max(np.abs(run.A[:, 1, 0])) <= 1e-15
    assert run.conjugates == []


def test_product_vertical_propagator_linear():
    spec = MetricSpec.product(2.0)
    v0 = unit_vector(spec, ORIGIN, [0, 0, 1])
    tr = integrate_geodesic(spec, ORIGIN, v0, T=10.0, step=1e-2)
    run = propagate_jacobi(tr)
    # sigma = 0: A = t I exactly
    assert np.array_equal(run.A, run.times[:, None, None] * np.eye(2))
    assert run.conjugates == []


def _errors_and_norms(a, ref):
    """Per-sample max-norm errors of a against ref, and the norms of ref."""
    return np.max(np.abs(a - ref), axis=(-2, -1)), np.max(np.abs(ref), axis=(-2, -1))


def test_product_closed_form_matches_rk4_engine():
    # Twisted with alpha = 0 is the product metric with every propagator
    # stepped by RK4; the closed form must agree to RK4's own error
    twin = MetricSpec.twisted(0.0, "x")
    q0 = ChartPoint(0.2, 1.3, 0.1)
    directions = ((1, 0, 0), (0, 0, 1), (0.3, 0.2, 1), (-0.7, 0.2, -0.4))
    q0s = np.repeat(q0.as_array()[None], len(directions), axis=0)
    v0s = np.array([unit_vector(PROD, q0, d) for d in directions])
    runs = zip(directions, integrate_geodesic_batch(PROD, q0s, v0s, 5.0),
               integrate_geodesic_batch(twin, q0s, v0s, 5.0))
    for direction, exact, rk4 in runs:
        je, jr = propagate_jacobi(exact), propagate_jacobi(rk4)
        pairs = [(je.A, jr.A), (je.Ap, jr.Ap),
                 *zip(companion_propagator(exact), companion_propagator(rk4)),
                 (riccati_stable(exact, 5.0).U, riccati_stable(rk4, 5.0).U)]
        for a, ref in pairs:
            err, norm = _errors_and_norms(a, ref)
            assert np.all(err <= 1e-12 * norm), direction


def test_product_never_steps_rk4(monkeypatch):
    def no_rk4(*args, **kwargs):
        raise AssertionError("Product run stepped an RK4 propagator")

    def no_fill(*args, **kwargs):
        raise AssertionError("Product run filled its trajectory samples")

    monkeypatch.setattr(jacobi_mod, "_propagate_pair", no_rk4)
    monkeypatch.setattr(jacobi_mod, "_riccati_backward", no_rk4)
    # the closed forms read only the start state and the time grid
    monkeypatch.setattr(geodesics, "_product_samples", no_fill)
    tr = integrate_geodesic(PROD, ORIGIN, unit_vector(PROD, ORIGIN, [0.3, 1, 0.2]), T=2.0)
    assert propagate_jacobi(tr).conjugates == []
    companion_propagator(tr)
    riccati_stable_limit(tr, 1.0, tol=1.0)
    riccati_average(PROD, BoxSampler(), n=3, seed=0, anchor=1.0, step=1e-2)
    rows = scan_conjugate_points(PROD, count=3, Tmax=2.0, seed=0, workers=1)
    assert [r.t_star for r in rows] == [None] * 3


def _mp_closed_forms(sigma, P, t, T):
    """S, C, C' and U of the Product closed forms at 50 digits, rounded to float."""
    with mpmath.workdps(50):
        s, t, T = mpmath.mpf(sigma), mpmath.mpf(t), mpmath.mpf(T)
        Pm = mpmath.matrix(P.tolist())
        Q = mpmath.eye(2) - Pm
        sh = mpmath.sinh(s * t) / s if sigma > 0.0 else t
        S = t * Q + sh * Pm
        C = Q + mpmath.cosh(s * t) * Pm
        Cp = s * mpmath.sinh(s * t) * Pm
        U = -s * mpmath.tanh(s * (T - t)) * Pm
        return [np.array(m.tolist(), dtype=float) for m in (S, C, Cp, U)]


@given(sigma=st.one_of(st.just(0.0), st.floats(1e-300, 1.0)),
       angle=st.floats(0.0, 2.0 * math.pi),
       times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4))
@example(sigma=0.0, angle=0.3, times=[0.0, 1.0, 50.0])
@example(sigma=1e-9, angle=2.0, times=[0.0, 1e-3, 50.0])
def test_product_closed_forms_match_mpmath(sigma, angle, times):
    # relative to the larger of |exact| and the smallest normal float,
    # below which the exact value is not representable anyway
    c = np.array([math.cos(angle), math.sin(angle)])
    P = np.zeros((2, 2)) if sigma == 0.0 else np.outer(c, c)
    T = 50.0
    got = (*_product_propagators(sigma, P, np.array(times)),
           _product_riccati(sigma, P, np.array(times), T))
    for k, t in enumerate(times):
        for m, ref in zip(got, _mp_closed_forms(sigma, P, t, T)):
            err, norm = _errors_and_norms(m[k], ref)
            assert err <= 1e-14 * max(norm, np.finfo(float).tiny), (t, ref)


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


def test_blend_crossing_warped_run_error_against_step_eighth():
    # this slanted run crosses the warp's C^2 blend, where R_perp has a
    # kink in t; each propagator is compared with its own run at step/8.
    # The bounds sit between the errors of four-point Lagrange midpoints
    # (2.79e-6 for A, 1.05e-5 for U) and of Hermite midpoint states
    # (1.45e-6 and 5.37e-6)
    spec = MetricSpec.warped(eps=0.1)
    q0 = ChartPoint(0.1, 0.9, 0.0)
    v0 = unit_vector(spec, q0, [0.3, 0.2, 1.0])
    a_end, u_start = [], []
    for step in (2e-3, 2e-3 / 8):
        tr = integrate_geodesic(spec, q0, v0, T=4.0, step=step)
        a_end.append(propagate_jacobi(tr).A[-1])
        u_start.append(riccati_stable(tr, 4.0).U[0])
    for (val, ref), bound in ((a_end, 2.0e-6), (u_start, 7.5e-6)):
        assert np.max(np.abs(val - ref)) <= bound * np.max(np.abs(ref))


_KERNEL_SPECS = {"warped": MetricSpec.warped(eps=0.4), "twisted-x": MetricSpec.twisted(0.3, "x"),
                 "twisted-log_y": MetricSpec.twisted(0.05, "log_y")}
_coord = st.floats(-3.0, 3.0)


@settings(max_examples=60)
@given(kind=st.sampled_from(sorted(_KERNEL_SPECS)), x=st.floats(-1.5, 1.5),
       y=st.floats(0.3, 2.5), v=st.tuples(*[_coord] * 3), e=st.tuples(*[_coord] * 6))
def test_rperp_kernel_symmetric_off_trajectory(kind, x, y, v, e):
    # any state, not unit speed and not orthonormal like a Hermite midpoint
    # state: R_perp is exactly symmetric, and within rounding of
    # -c c^T - phi xi Hess phi xi^T taken with matmuls
    spec = _KERNEL_SPECS[kind]
    s = np.array([[x, y, 0.0, *v, *e]])
    q, v, e = s[:, 0:3], s[:, 3:6], s[:, 6:12].reshape(1, 2, 3)
    r = _rperp(spec, s)[0]
    assert r[0, 1] == r[1, 0]
    c = _base_coupling(s)[0]
    xi = v[0, None, 2:3] * e[0, :, 0:2] - e[0, :, 2:3] * v[0, None, 0:2]
    phi, _, hess = fiber(spec, q)
    phi, hess = phi[0], hess[0]
    ref = -np.outer(c, c) - phi * (xi @ hess @ xi.T)
    scale = c @ c + abs(phi) * np.sum(xi * xi) * np.max(np.abs(hess))
    assert np.max(np.abs(r - ref)) <= 4.0 * np.finfo(float).eps * scale


@settings(max_examples=30)
@given(kind=st.sampled_from(sorted(_KERNEL_SPECS)), x=st.floats(-1.0, 1.0),
       y=st.floats(0.5, 2.0), d=st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_half_grid_samples_match_normal_curvature_samples(kind, x, y, d):
    # even half-grid indices are the sample states: the same bits as the
    # public per-sample R_perp, sign of zero included
    spec = _KERNEL_SPECS[kind]
    q0 = ChartPoint(x, y, 0.0)
    if not np.any(d):
        d = (0.0, 0.0, 1.0)
    tr = integrate_geodesic(spec, q0, unit_vector(spec, q0, d), T=0.05, step=1e-2)
    half, samples = _half_grid_rperp(tr)[0::2], normal_curvature_samples(tr)
    assert np.array_equal(half, samples)
    assert np.array_equal(np.signbit(half), np.signbit(samples))


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


def test_scan_rejects_starts_below_the_chart_floor():
    # every row of a scan is checked: an error, not rows of det_min = 0
    box = BoxSampler(y=(1e-8, 1e-7))
    with pytest.raises(DomainError, match="chart floor"):
        scan_conjugate_points(PROD, count=2, Tmax=1.0, seed=0, workers=1, box=box)


@pytest.mark.parametrize("spec, Tmax, count", [
    (PROD, 3.0, 5), (PROD, 20.0, 8), (MetricSpec.warped(eps=0.1), 3.0, 5),
    (MetricSpec.twisted(0.3, "x"), 3.0, 5),
], ids=["product", "product-floor", "warped", "twisted"])
def test_scan_rows_match_single_trajectory_runs(spec, Tmax, count, monkeypatch):
    # a Product scan row reads det A at times[1] only; it must give the
    # full row's minimum, bit for bit, also on rows cut at the chart floor
    # and on a vertical row (sigma = 0), which the last row is made into
    indices, step, seed = list(range(count)), 2e-3, 4
    if spec is PROD:
        def draw(*args):
            q0s, v0s = _draw_initial_conditions(*args)
            v0s[-1] = (0.0, 0.0, 1.0)
            return q0s, v0s

        monkeypatch.setattr(jacobi_mod, "_draw_initial_conditions", draw)
    rows = _scan_chunk((spec, indices, Tmax, step, seed, DEFAULT_SCAN_BOX))
    q0s, v0s = jacobi_mod._draw_initial_conditions(spec, indices, seed, DEFAULT_SCAN_BOX)
    cut = 0
    for row, q0, v0 in zip(rows, q0s, v0s):
        tr = integrate_geodesic_batch(spec, q0[None], v0[None], Tmax, step)[0]
        run = propagate_jacobi(tr)
        assert repr(row.det_min) == repr(float(np.min(run.dets[1:])))
        assert row.t_star == (run.conjugates[0] if run.conjugates else None)
        assert row.truncated == tr.truncated
        cut += tr.truncated
    if Tmax == 20.0:
        assert 0 < cut < count


def test_product_scan_matches_rk4_engine_scan(monkeypatch):
    # Twisted with alpha = 0 is the product metric stepped by RK4: an
    # independent witness that a Product scan row has no conjugate point
    # and its det A minimum at times[1].  The scan chunk takes det_min at
    # sample 1 from the closed form (8.9e-15 relative to the engine,
    # measured; the minimum is at t = 1e-3 whatever the horizon)
    twin = MetricSpec.twisted(0.0, "x")
    args = (list(range(32)), 2.0, 1e-3, 0, DEFAULT_SCAN_BOX)
    argmins = []
    engine_runs = jacobi_mod._jacobi_runs

    def spy(trajs):
        for run in engine_runs(trajs):
            argmins.append(int(np.argmin(run.dets[1:])))
            yield run

    monkeypatch.setattr(jacobi_mod, "_jacobi_runs", spy)
    engine = _scan_chunk((twin, *args))
    monkeypatch.undo()
    exact = _scan_chunk((PROD, *args))
    assert argmins == [0] * 32
    assert [r.t_star for r in engine] == [None] * 32
    for a, b in zip(engine, exact):
        assert np.array_equal(a.q0, b.q0) and np.array_equal(a.v0, b.v0)
        assert abs(a.det_min - b.det_min) <= 2e-14 * b.det_min


def test_truncated_rows_propagate_as_their_own_trajectories():
    # rows cut at the chart floor are zero-padded in the RK4 chunk; the
    # half-grid R_perp must stay inside each row, so every row matches its
    # own RK4 run (Product rows truncate cheaply, so they feed the padding)
    q0s, v0s = _draw_initial_conditions(PROD, list(range(5)), 4, DEFAULT_SCAN_BOX)
    trajs = integrate_geodesic_batch(PROD, q0s, v0s, 20.0, 4e-3)
    counts = np.array([t.n_samples for t in trajs])
    assert counts.min() < counts.max()
    grid, rhalf = _half_grid_batch(trajs)
    assert rhalf.shape == (len(trajs), 2 * counts.max() - 1, 2, 2)
    A, Ap = _propagate_pair(grid, rhalf, np.zeros((2, 2)), np.eye(2), 0, len(grid) - 1)
    for b, tr in enumerate(trajs):
        A1, Ap1 = _propagate_pair(tr.times, _half_grid_rperp(tr)[None], np.zeros((2, 2)),
                                  np.eye(2), 0, counts[b] - 1)
        assert np.array_equal(A[b, : counts[b]], A1[0])
        assert np.array_equal(Ap[b, : counts[b]], Ap1[0])


def test_scan_pool_capped_at_cpu_count(monkeypatch):
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
    dets = run.dets
    assert np.min(dets[1:]) < 0.0  # genuine sign change on this run


def test_riccati_product_vertical_zero():
    spec = MetricSpec.product(1.0)
    v0 = unit_vector(spec, ORIGIN, [0, 0, 1])
    tr = integrate_geodesic(spec, ORIGIN, v0, T=40.0, step=1e-2)
    run = riccati_stable(tr, 40.0)
    assert not np.any(run.U)


def test_riccati_h2_factor_tanh_closed_form():
    tr = upward_run(T=40.0)
    for anchor in (5.0, 10.0, 20.0):
        run = riccati_stable(tr, anchor)
        u = run.U[:, 0, 0]
        expect = np.tanh(run.times - anchor)
        assert np.max(np.abs(u - expect)) <= 1e-15
        assert np.max(np.abs(run.U[:, 1, 1])) <= 1e-12
        assert np.max(np.abs(run.U[:, 0, 1])) <= 1e-12
    # anchored value converges to -1 at least exponentially until the
    # round-off floor; the closed form itself decays like 2 e^{-2T}
    floor = 1e-15
    vals = [abs(riccati_stable(tr, T).U[0, 0, 0] + 1.0) for T in (5.0, 10.0, 20.0)]
    assert vals[0] == pytest.approx(1.0 - math.tanh(5.0), rel=1e-14)
    assert vals[1] <= max(vals[0] * math.exp(-5.0), floor)
    assert vals[2] <= max(vals[1] * math.exp(-10.0), floor)


def test_riccati_symmetry_preserved():
    run = riccati_stable(upward_run(T=20.0), 10.0)
    assert np.array_equal(run.U, np.swapaxes(run.U, -2, -1))


def test_riccati_anchor_doubling():
    tr = upward_run(T=40.0)
    run, delta = riccati_stable_limit(tr, T=20.0)
    assert delta <= 1e-15
    assert run.U[0, 0, 0] == pytest.approx(-1.0, abs=1e-15)


def test_riccati_jacobi_consistency():
    tr = upward_run(T=40.0)
    ric = riccati_stable(tr, 20.0)
    tt, uj = riccati_from_jacobi(tr, 20.0)   # the oracle steps RK4
    assert np.nanmax(np.abs(uj - ric.U[: len(tt)])) <= 1e-13


def test_riccati_blowup_error():
    tr = central_vertical_run(0.1, T=6.0)
    with pytest.raises(NumericsError, match="blow-up") as exc:
        riccati_stable(tr, 6.0)
    # u' = -u^2 - w^2 from 0 blows up pi/(2w) ~ 3.6 before the anchor
    assert exc.value.info["time"] > 0.0


@pytest.mark.parametrize("index, r", [
    pytest.param(11, 2e6, id="2000000.0"), pytest.param(11, -2e6, id="-2000000.0"),
    pytest.param(11, math.nan, id="nan"), pytest.param(10, 2e8, id="sample-200000000.0"),
    pytest.param(10, math.nan, id="sample-nan")])
def test_riccati_guard_stops_at_the_first_bad_step(index, r):
    # one half-grid R_perp over the bound, or nan, spoils U on the first step
    # that reads it: step 6 -> 5 reads index 11 (its midpoint) and 10 (sample 5)
    times = np.linspace(0.0, 1.0, 11)
    rhalf = np.zeros((1, 21, 2, 2))
    rhalf[0, index, 0, 0] = r
    with pytest.raises(NumericsError, match="blow-up") as exc:
        _riccati_backward(times, rhalf, 10)
    assert exc.value.info["time"] == times[5]


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


@pytest.mark.parametrize("spec, sampler", [(PROD, BoxSampler()),
                                            (MetricSpec.warped(eps=0.1), PointSampler(ORIGIN))],
                         ids=["product-box", "warped-center"])
def test_riccati_average_rows_match_single_riccati_runs(spec, sampler):
    n, seed, anchor, step = 4, 7, 3.0, 1e-3
    res = riccati_average(spec, sampler, n=n, seed=seed, anchor=anchor, step=step)
    rng = np.random.default_rng(seed)
    pts = np.array([sampler(rng) for _ in range(n)])
    assert res.n_samples == n
    for p, value in zip(pts, res.values):
        v0 = np.array([0.0, 0.0, 1.0 / fiber(spec, p[None])[0][0]])
        tr = integrate_geodesic_batch(spec, p[None], v0[None], anchor, step)[0]
        u0 = riccati_stable(tr, anchor).U[0]
        rv = r_v_operator_many(spec, p[None])[0]
        assert value == np.einsum("ij,ji->", u0, u0) + np.trace(rv)


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
    assert np.max(np.abs(rp[:, 0, 0] + 1.0)) <= 1e-14  # in-surface normal: K = -1
    assert np.all(rp[:, 1, 1] == 0.0)                   # vertical: flat
    assert np.all(rp[:, 0, 1] == 0.0)


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
    spec = MetricSpec.warped(eps=0.1)
    eigs = np.linalg.eigvalsh(r_v_operator_many(spec, ORIGIN.as_array()[None])[0])
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
