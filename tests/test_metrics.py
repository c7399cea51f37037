"""Metric families: profiles, Christoffels, curvature, the R_V operator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from h2xr.errors import DomainError
from h2xr.hyperbolic import HPoint
from h2xr.metrics import (
    ChartPoint,
    MetricSpec,
    WarpProfile,
    _fiber_point,
    _warp_radius_and_grad,
    christoffel_many,
    curvature_at,
    curvature_tensor_many,
    fiber,
    get_potential,
    inner_many,
    metric_many,
    r_v_operator_many,
)
from oracles import bianchi_residual

EPS = 0.1
WARP = MetricSpec.warped(eps=EPS)
CENTER = ChartPoint(0.0, 1.0, 0.0)
RV_CENTER = 2 * EPS / (1 + EPS / 2)  # 0.19047619...


def profile_at(prof, r):
    """(f, f', f'') at one radius, as floats."""
    return tuple(float(a[0]) for a in prof.eval_many(np.array([r])))


def seeded_points(seed, n, y_range=(0.4, 3.0)):
    rng = np.random.default_rng(seed)
    return np.column_stack([
        rng.uniform(-2.0, 2.0, n), rng.uniform(*y_range, n), rng.uniform(0.0, 1.0, n)
    ])


# ---------------------------------------------------------------------------
# warp profile
# ---------------------------------------------------------------------------

def test_profile_center_values():
    f, fp, fpp = profile_at(WARP.warp, 0.0)
    assert (f, fp, fpp) == (1.05, 0.0, -0.2)


def test_profile_outside_blend():
    assert profile_at(WARP.warp, 0.75) == (1.0, 0.0, 0.0)
    assert profile_at(WARP.warp, 5.0) == (1.0, 0.0, 0.0)


def test_profile_derivatives_match_finite_differences():
    # oracle: central differences of f itself at r = 0.6 (inside the blend)
    prof = WARP.warp
    r = 0.6
    f, fp, fpp = profile_at(prof, r)
    h = 1e-6
    f_p = profile_at(prof, r + h)[0]
    f_m = profile_at(prof, r - h)[0]
    assert fp == pytest.approx((f_p - f_m) / (2 * h), abs=1e-7)
    h = 1e-4
    f_p = profile_at(prof, r + h)[0]
    f_m = profile_at(prof, r - h)[0]
    assert fpp == pytest.approx((f_p - 2 * f + f_m) / (h * h), abs=1e-5)


def test_profile_c2_at_junctions():
    prof = WARP.warp
    for r_j in (prof.r0, prof.r1):
        left = profile_at(prof, r_j - 1e-9)
        right = profile_at(prof, r_j + 1e-9)
        assert left == pytest.approx(right, abs=1e-7)


def test_warp_radius_full_relative_accuracy_near_center():
    # arccosh argument 1 + u with u ~ 1e-9; the first-order series sqrt(2u)
    # would be off by about u/12 relative
    dx = np.sqrt(2e-9)
    q = np.array([[dx, 1.0, 0.0], [0.5 * dx, 1.0, 0.0]])
    rho = _warp_radius_and_grad(WARP.warp, q)[0]
    u = (q[:, 0] ** 2 + (q[:, 1] - 1.0) ** 2) / (2.0 * q[:, 1])
    assert rho == pytest.approx(2.0 * np.arcsinh(np.sqrt(0.5 * u)), rel=1e-15, abs=0.0)


def test_profile_positive_and_validation():
    for eps in (0.05, 0.1, 0.2, 1.0):
        prof = WarpProfile(HPoint(0, 1), eps)
        f = prof.eval_many(np.linspace(0, 1.0, 500))[0]
        assert np.all(f > 0)
    with pytest.raises(DomainError):
        WarpProfile(HPoint(0, 1), -0.1)
    with pytest.raises(DomainError):
        WarpProfile(HPoint(0, 1), 0.1, r0=0.8, r1=0.5)


# ---------------------------------------------------------------------------
# the scalar fiber of a lone trajectory against the array kernel
# ---------------------------------------------------------------------------

def assert_scalar_fiber_matches(spec, pts):
    """_fiber_point equals fiber bit for bit, sign of zero included, on the
    whole batch of points and on each point alone."""
    one = _fiber_point(spec)
    phi, (dx, dy), _ = fiber(spec, pts)
    for k, (x, y, _) in enumerate(pts.tolist()):
        lone_phi, (lone_dx, lone_dy), _ = fiber(spec, pts[k:k + 1])
        expected = np.array([[phi[k], dx[k], dy[k]], [lone_phi[0], lone_dx[0], lone_dy[0]]])
        got = np.array([one(x, y)] * 2)
        assert np.array_equal(got, expected), (spec, x, y, got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected)), (spec, x, y)


@st.composite
def warped_points(draw):
    """A warp profile and points around its centre in the cap, the blend,
    outside, next to rho = r0 and rho = r1, or at the exact centre."""
    r0 = draw(st.floats(0.2, 1.0))
    r1 = r0 + draw(st.floats(0.1, 0.5))
    spec = MetricSpec.warped(eps=draw(st.floats(0.01, 0.5)),
                             center=HPoint(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.5, 2.0))),
                             r0=r0, r1=r1)
    radius = st.one_of(
        st.just(0.0),
        st.floats(0.0, r0),
        st.floats(r0, r1),
        st.floats(r1, r1 + 5.0),
        *(st.integers(-8, 8).map(lambda k, r=r: r * (1.0 + k * 2.0 ** -52)) for r in (r0, r1)),
    )
    pts = [point_from_center(spec.warp.center, rho, theta)
           for rho, theta in draw(st.lists(st.tuples(radius, st.floats(0.0, 2.0 * math.pi)),
                                           min_size=1, max_size=8))]
    return spec, np.array(pts)


def point_from_center(c, rho, theta):
    """The chart point at hyperbolic distance rho from c in direction theta."""
    # from i in the disk model, moved to c by the isometry w -> cx + cy w
    z = math.tanh(rho / 2.0) * complex(math.cos(theta), math.sin(theta))
    w = 1j * (1.0 + z) / (1.0 - z)
    return [c.x + c.y * w.real, c.y * w.imag, 0.0]


@given(warped_points())
def test_scalar_fiber_matches_kernel_warped(case):
    assert_scalar_fiber_matches(*case)


@given(potential=st.sampled_from(["x", "log_y"]), alpha=st.floats(-0.3, 0.3),
       pts=st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.05, 5.0)),
                    min_size=1, max_size=8))
def test_scalar_fiber_matches_kernel_twisted(potential, alpha, pts):
    pts = np.array([[x, y, 0.0] for x, y in pts])
    assert_scalar_fiber_matches(MetricSpec.twisted(alpha, potential), pts)


# ---------------------------------------------------------------------------
# the jet (phi, grad phi, Hess phi) against finite differences
# ---------------------------------------------------------------------------

@st.composite
def smooth_jet_cases(draw):
    """(spec, x, y) where phi is smooth: Twisted anywhere, Warped off the
    centre and at least 0.02 in rho from the junctions r0 and r1."""
    potential = draw(st.sampled_from(["warp", "x", "log_y"]))
    if potential != "warp":
        spec = MetricSpec.twisted(draw(st.floats(-0.3, 0.3)), potential)
        return spec, draw(st.floats(-3.0, 3.0)), draw(st.floats(0.05, 5.0))
    r0 = draw(st.floats(0.2, 1.0))
    r1 = r0 + draw(st.floats(0.1, 0.5))
    spec = MetricSpec.warped(eps=draw(st.floats(0.01, 0.5)),
                             center=HPoint(draw(st.floats(-1.0, 1.0)), draw(st.floats(0.5, 2.0))),
                             r0=r0, r1=r1)
    rho = draw(st.one_of(st.floats(0.05, r0 - 0.02), st.floats(r0 + 0.02, r1 - 0.02),
                         st.floats(r1 + 0.02, r1 + 3.0)))
    x, y, _ = point_from_center(spec.warp.center, rho, draw(st.floats(0.0, 2.0 * math.pi)))
    return spec, x, y


@settings(max_examples=60)
@given(smooth_jet_cases())
def test_jet_matches_finite_differences(case):
    # oracle: central differences of phi for grad phi, and of grad phi for
    # the coordinate second derivatives, minus Gamma^c_ab d_c phi with the
    # hyperbolic Christoffels (Gamma^x_xy = Gamma^y_yy = -1/y, Gamma^y_xx = 1/y)
    spec, x, y = case
    h = 1e-6 * y
    pts = np.array([[x, y, 0.0], [x + h, y, 0.0], [x - h, y, 0.0], [x, y + h, 0.0], [x, y - h, 0.0]])
    phi, (dx, dy), hess = fiber(spec, pts)
    fd_grad = np.array([phi[1] - phi[2], phi[3] - phi[4]]) / (2.0 * h)
    fd_hess = np.array([[dx[1] - dx[2], dx[3] - dx[4]], [dy[1] - dy[2], dy[3] - dy[4]]]) / (2.0 * h)
    fd_hess += np.array([[-dy[0], dx[0]], [dx[0], dy[0]]]) / y
    grad = np.array([dx[0], dy[0]])
    scale1 = abs(phi[0]) / y + np.max(np.abs(grad))        # phi per unit of x or y
    scale2 = scale1 / y + np.max(np.abs(hess[0]))
    assert np.max(np.abs(fd_grad - grad)) <= 1e-8 * scale1
    assert np.max(np.abs(fd_hess - hess[0])) <= 1e-8 * scale2


# ---------------------------------------------------------------------------
# metric components
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec", [MetricSpec.product(2.0), WARP, MetricSpec.twisted(0.3, "x"),
                                  MetricSpec.twisted(-0.2, "log_y")], ids=lambda s: s.kind)
def test_inner_product_matches_full_metric_contraction(spec):
    # the diagonal inner product has the bits of np.einsum over the full
    # tensor; exact zeros may differ in sign only, which array_equal ignores
    rng = np.random.default_rng(11)
    pts = seeded_points(12, 400, y_range=(0.05, 4.0))
    a, b = rng.normal(size=(2, 400, 3)) * 10.0 ** rng.uniform(-3, 3, size=(2, 400, 1))
    a[rng.random(a.shape) < 0.2] = -0.0
    b[rng.random(b.shape) < 0.2] = 0.0
    g = metric_many(spec, pts)
    assert np.array_equal(inner_many(spec, pts, a, b), np.einsum("kij,ki,kj->k", g, a, b))
    vecs = np.stack([a, b, a - b], axis=1)              # Gram matrices broadcast too
    gram = inner_many(spec, pts[:, None, None], vecs[:, :, None], vecs[:, None, :])
    assert np.array_equal(gram, np.einsum("kij,kai,kbj->kab", g, vecs, vecs))

def test_metric_product():
    g = metric_many(MetricSpec.product(2.0), ChartPoint(3.0, 1.0, 0.5).as_array()[None])[0]
    assert np.allclose(g, np.diag([1.0, 1.0, 4.0]))


def test_metric_warped_center():
    g = metric_many(WARP, CENTER.as_array()[None])[0]
    assert g[2, 2] == pytest.approx(1.1025, abs=1e-15)  # (1 + eps/2)^2


def test_metric_twisted_alpha_zero_is_product():
    tw = MetricSpec.twisted(0.0, "log_y")
    pts = seeded_points(0, 20)
    assert np.allclose(metric_many(tw, pts), metric_many(MetricSpec.product(1.0), pts))


def test_metric_rejects_bad_points():
    with pytest.raises(DomainError):
        metric_many(WARP, np.array([[0.0, -1.0, 0.0]]))
    with pytest.raises(DomainError):
        ChartPoint(0.0, 0.0, 0.0)


# ---------------------------------------------------------------------------
# christoffels
# ---------------------------------------------------------------------------

def test_christoffel_product_closed_form():
    g = christoffel_many(MetricSpec.product(1.0), CENTER.as_array()[None])[0]
    expect = np.zeros((3, 3, 3))
    expect[1, 0, 0] = 1.0
    expect[0, 0, 1] = expect[0, 1, 0] = -1.0
    expect[1, 1, 1] = -1.0
    assert np.allclose(g, expect, atol=1e-15)
    assert np.max(np.abs(g[2])) == 0.0  # fiber row identically zero


def test_christoffel_warped_vanishes_at_critical_point():
    g = christoffel_many(WARP, CENTER.as_array()[None])[0]
    assert np.max(np.abs(g[0:2, 2, 2])) <= 1e-12  # Gamma^i_tt = -f grad^i f = 0


def test_christoffel_twisted_first_order():
    # oracle: Gamma^i_tt = -alpha g^{ij} d_j h + O(alpha^2), by hand for both
    # registered potentials
    alpha = 1e-3
    for name in ("log_y", "x"):
        spec = MetricSpec.twisted(alpha, name)
        for p in (ChartPoint(0.0, 1.0, 0.0), ChartPoint(0.5, 1.7, 0.2)):
            gam = christoffel_many(spec, p.as_array()[None])[0]
            hx, hy = get_potential(name).grad(p.x, p.y)
            expect_x = -alpha * p.y**2 * float(hx)
            expect_y = -alpha * p.y**2 * float(hy)
            assert gam[0, 2, 2] == pytest.approx(expect_x, abs=1e-5)
            assert gam[1, 2, 2] == pytest.approx(expect_y, abs=1e-5)


def test_christoffel_symmetric_lower_indices():
    for spec in (MetricSpec.product(2.0), WARP, MetricSpec.twisted(1e-2, "log_y")):
        pts = seeded_points(1, 30)
        gam = christoffel_many(spec, pts)
        assert np.max(np.abs(gam - np.swapaxes(gam, -2, -1))) <= 1e-10


def test_metric_compatibility_all_kinds():
    # nabla g = 0: d_k g_ij = Gamma^l_{ki} g_lj + Gamma^l_{kj} g_il
    for spec in (MetricSpec.product(2.0), WARP, MetricSpec.twisted(1e-2, "log_y")):
        pts = seeded_points(2, 100)
        gam = christoffel_many(spec, pts)
        g = metric_many(spec, pts)
        h = 1e-6 * pts[:, 1]
        worst = 0.0
        for k in range(3):
            shift = np.zeros_like(pts)
            shift[:, k] = h
            dg = (metric_many(spec, pts + shift) - metric_many(spec, pts - shift))
            dg /= (2.0 * h)[:, None, None]
            term = np.einsum("bli,blj->bij", gam[:, :, k, :], g) + np.einsum(
                "blj,bil->bij", gam[:, :, k, :], g
            )
            worst = max(worst, float(np.max(np.abs(dg - term))))
        assert worst <= 1e-6


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_curvature_product_sectionals_and_ricci_seeded():
    spec = MetricSpec.product(1.7)
    for row in seeded_points(3, 50):
        p = ChartPoint(*row)
        cs = curvature_at(spec, p)
        assert cs.sectionals[(0, 1)] == pytest.approx(-1.0, abs=1e-12)
        assert cs.sectionals[(0, 2)] == pytest.approx(0.0, abs=1e-12)
        assert cs.sectionals[(1, 2)] == pytest.approx(0.0, abs=1e-12)
        g = metric_many(spec, p.as_array()[None])[0]
        orth = cs.ricci / np.sqrt(np.outer(np.diag(g), np.diag(g)))
        assert np.allclose(orth, np.diag([-1.0, -1.0, 0.0]), rtol=0.0, atol=1e-12)


def test_curvature_symmetries_and_bianchi_all_kinds():
    for spec in (MetricSpec.product(1.0), WARP, MetricSpec.twisted(1e-2, "log_y")):
        pts = seeded_points(4, 25)
        r4 = curvature_tensor_many(spec, pts)
        assert np.max(np.abs(r4 + np.swapaxes(r4, 1, 2))) <= 1e-12
        assert np.max(np.abs(r4 + np.swapaxes(r4, 3, 4))) <= 1e-12
        pair = np.moveaxis(r4, (1, 2, 3, 4), (3, 4, 1, 2))
        assert np.max(np.abs(r4 - pair)) <= 1e-12
        assert bianchi_residual(r4) <= 1e-12


# Finite-difference oracle: central differences of the Christoffel symbols,
# projected onto the curvature symmetries.  Steps scale with the local y, the
# hyperbolic length scale in coordinates; inside the warp blend a 1e-4 step
# leaves a truncation error of about 5e-6, a 1e-5 step about 5e-8.
# christoffel_many itself is checked against the metric by
# test_metric_compatibility_all_kinds.
FD_CURVATURE_STEP = 1e-5


def _shift(q, m, h):
    out = q.copy()
    out[:, m] += h
    return out


def _fd_curvature(spec, q):
    gam = christoffel_many(spec, q)
    h = FD_CURVATURE_STEP * q[:, 1]
    dgam = np.empty((len(q), 3, 3, 3, 3))  # [:, m, k, i, j] = d_m Gamma^k_ij
    for m in range(3):
        dgam[:, m] = (christoffel_many(spec, _shift(q, m, h))
                      - christoffel_many(spec, _shift(q, m, -h))) / (2.0 * h[:, None, None, None])
    # R^m_{lij} = d_i Gamma^m_jl - d_j Gamma^m_il + Gamma^m_ia Gamma^a_jl - Gamma^m_ja Gamma^a_il
    gg = np.einsum("bmia,bajl->bmlij", gam, gam)
    rup = (np.einsum("bimjl->bmlij", dgam) - np.einsum("bjmil->bmlij", dgam)
           + gg - np.swapaxes(gg, -2, -1))
    t = np.einsum("bkm,bmlij->bijkl", metric_many(spec, q), rup)
    t = 0.5 * (t - np.swapaxes(t, 1, 2))
    t = 0.5 * (t - np.swapaxes(t, 3, 4))
    return 0.5 * (t + np.moveaxis(t, (1, 2, 3, 4), (3, 4, 1, 2)))


def _orthonormal(spec, q, r4):
    s = 1.0 / np.sqrt(np.diagonal(metric_many(spec, q), axis1=1, axis2=2))
    return r4 * np.einsum("bi,bj,bk,bl->bijkl", s, s, s, s)


def test_closed_form_curvature_matches_finite_difference_oracle():
    pts = seeded_points(9, 400, y_range=(0.5, 2.0))
    prof = WARP.warp
    u = (pts[:, 0] ** 2 + (pts[:, 1] - 1.0) ** 2) / (2.0 * pts[:, 1])
    rho = np.arccosh(1.0 + u)
    # the oracle's stencil reaches about 1e-5 in rho and the quintic
    # blend's third derivative jumps at r0 and r1: keep the stencil more
    # than 1e-3 away from both junctions
    smooth = (np.abs(rho - prof.r0) > 1.2e-3) & (np.abs(rho - prof.r1) > 1.2e-3)
    assert smooth.sum() > 350
    q = pts[smooth]
    for spec in (MetricSpec.product(1.7), WARP, MetricSpec.twisted(1e-2, "log_y"),
                 MetricSpec.twisted(1e-2, "x")):
        exact = _orthonormal(spec, q, curvature_tensor_many(spec, q))
        oracle = _orthonormal(spec, q, _fd_curvature(spec, q))
        assert np.max(np.abs(exact - oracle)) <= 1e-6, spec


def test_curvature_warped_center_mixed_sectional():
    cs = curvature_at(WARP, CENTER)
    assert cs.sectionals[(0, 2)] == pytest.approx(RV_CENTER, rel=1e-5)
    assert cs.sectionals[(1, 2)] == pytest.approx(RV_CENTER, rel=1e-5)
    assert cs.sectionals[(0, 1)] == pytest.approx(-1.0, abs=1e-5)


def test_curvature_twisted_mixed_component():
    # R_xtxt = -f Hess_xx(f) -> +alpha/y^2 at first order for h = log y
    alpha = 1e-3
    cs = curvature_at(MetricSpec.twisted(alpha, "log_y"), ChartPoint(0.0, 1.0, 0.0))
    assert cs.riemann[0, 2, 0, 2] == pytest.approx(alpha, rel=0.02)


def test_curvature_twisted_converges_to_product_linearly():
    pts = seeded_points(5, 10)
    r4_prod = curvature_tensor_many(MetricSpec.product(1.0), pts)
    errs = []
    for alpha in (1e-2, 1e-3, 1e-4):
        r4 = curvature_tensor_many(MetricSpec.twisted(alpha, "log_y"), pts)
        errs.append(float(np.max(np.abs(r4 - r4_prod))))
    assert errs[0] > errs[1] > errs[2]
    # O(alpha): successive ratios track the 10x amplitude steps
    assert errs[0] / errs[1] == pytest.approx(10.0, rel=0.35)
    assert errs[1] / errs[2] == pytest.approx(10.0, rel=0.35)


# ---------------------------------------------------------------------------
# R_V operator
# ---------------------------------------------------------------------------

def test_r_v_product_zero():
    rv = r_v_operator_many(MetricSpec.product(1.0), seeded_points(6, 20))
    assert np.max(np.abs(rv)) <= 1e-12


def test_r_v_warped_center_eigenvalue():
    rv = r_v_operator_many(WARP, CENTER.as_array()[None])[0]
    eig = np.linalg.eigvalsh(rv)
    assert eig == pytest.approx([RV_CENTER, RV_CENTER], rel=1e-5)
    assert eig.max() > 0  # positive mixed curvature at the bump


def test_r_v_warped_outside_bump_zero():
    far = ChartPoint(3.0, 1.0, 0.0)  # hyperbolic distance from center > r1
    assert np.max(np.abs(r_v_operator_many(WARP, far.as_array()[None])[0])) <= 1e-12


def test_r_v_warped_exact_at_blend_junction():
    # within 1e-5 of rho = r0 a finite-difference stencil straddles the jump
    # of the blend's third derivative; the closed form keeps the radial and
    # angular eigenvalues -f''/f and -f' coth(rho)/f
    prof = WARP.warp
    for rho in (prof.r0 - 1e-5, prof.r0 + 1e-5):
        q = np.array([[0.0, np.exp(rho), 0.0]])  # on the vertical through the center
        f, fp, fpp = profile_at(prof, rho)
        eig = np.linalg.eigvalsh(r_v_operator_many(WARP, q)[0])
        expect = np.sort([-fpp / f, -fp / np.tanh(rho) / f])
        assert eig == pytest.approx(expect, abs=1e-12)


def test_spec_validation():
    with pytest.raises(DomainError):
        MetricSpec(kind="Spherical")
    with pytest.raises(DomainError):
        MetricSpec.product(-1.0)
    with pytest.raises(DomainError):
        MetricSpec(kind="Warped")
    with pytest.raises(DomainError):
        MetricSpec.twisted(1e-3, "unknown_potential")
