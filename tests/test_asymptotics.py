"""Product Busemann functions, ball volumes, volume entropy."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from h2xr.errors import DomainError, NumericsError
from h2xr.hyperbolic import HPoint
from h2xr.metrics import MetricSpec, christoffel_many
from oracles import busemann_hessian_christoffel
from h2xr.asymptotics import (
    ProductPoint,
    ball_volume,
    busemann_derivatives,
    busemann_estimate,
    busemann_limit,
    entropy_running,
    product_distance,
    volume_entropy,
)

# frozen from the oracles below
D_MIXED_L2 = 0.9167622450331391           # sqrt(ln(2)^2 + (2 * 0.3)^2)
B_2I_S30 = 0.0080064818361123             # sqrt(ln(2)^2 + 900) - 30

_GAUSS5 = np.polynomial.legendre.leggauss(5)


def product_path_oracle(L, p, q, n_interior=10):
    """Shortest discretized path in the product chart (independent route).

    Nodes carry (x, log y, t); segment lengths integrate
    sqrt((dx^2 + dy^2)/y^2 + L^2 dt^2) by Gauss quadrature on the chord.
    """
    nodes, weights = _GAUSS5
    s = 0.5 * (nodes + 1.0)

    def length(flat):
        xs = np.concatenate([[p.z.x], flat[:n_interior], [q.z.x]])
        ys = np.concatenate([[p.z.y], np.exp(flat[n_interior:2 * n_interior]), [q.z.y]])
        ts = np.concatenate([[p.t], flat[2 * n_interior:], [q.t]])
        dx, dy, dt = np.diff(xs), np.diff(ys), np.diff(ts)
        yq = ys[:-1, None] + np.outer(dy, s)
        sp = np.sqrt((dx**2 + dy**2)[:, None] / yq**2 + (L * dt)[:, None] ** 2)
        return float(np.sum(sp @ (0.5 * weights)))

    w = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    x0 = np.concatenate([
        p.z.x + w * (q.z.x - p.z.x),
        np.log(p.z.y) + w * (np.log(q.z.y) - np.log(p.z.y)),
        p.t + w * (q.t - p.t),
    ])
    res = minimize(length, x0, method="L-BFGS-B",
                   options={"maxiter": 8000, "ftol": 1e-15, "gtol": 1e-12})
    return res.fun


def test_product_distance_pure_factors():
    i = HPoint(0.0, 1.0)
    assert product_distance(1.0, ProductPoint(i, 0.0), ProductPoint(i, 3.0)) == 3.0
    assert product_distance(
        1.0, ProductPoint(i, 0.0), ProductPoint(HPoint(0.0, 2.0), 0.0)
    ) == pytest.approx(math.log(2.0), abs=1e-15)


def test_product_distance_mixed_with_path_oracle():
    p = ProductPoint(HPoint(0.0, 1.0), 0.0)
    q = ProductPoint(HPoint(0.0, 2.0), 0.3)
    d = product_distance(2.0, p, q)
    assert d == pytest.approx(D_MIXED_L2, abs=1e-14)
    assert product_path_oracle(2.0, p, q) == pytest.approx(d, abs=1e-3)


def test_busemann_estimate_examples():
    i = HPoint(0.0, 1.0)
    assert busemann_estimate(1.0, ProductPoint(i, 0.0), 17.0) == 0.0
    assert busemann_estimate(1.0, ProductPoint(i, 5.0), 40.0) == pytest.approx(-5.0, abs=1e-12)
    got = busemann_estimate(1.0, ProductPoint(HPoint(0.0, 2.0), 0.0), 30.0)
    assert got == pytest.approx(B_2I_S30, abs=1e-14)


def test_busemann_monotone_nonincreasing_in_s():
    x = ProductPoint(HPoint(1.0, 0.7), 2.0)
    s_grid = np.linspace(1.0, 80.0, 200)
    vals = [busemann_estimate(1.5, x, float(s)) for s in s_grid]
    assert all(b <= a + 1e-14 for a, b in zip(vals, vals[1:]))


def test_busemann_estimate_converges_to_limit():
    L = 1.5
    x = ProductPoint(HPoint(1.0, 0.7), 2.0)
    lim = busemann_limit(L, x)
    # off-axis convergence is O(d_H^2 / 2s): check the bound explicitly
    from h2xr.hyperbolic import hyp_distance
    dh = hyp_distance(x.z, HPoint(0.0, 1.0))
    for s in (50.0, 200.0, 1000.0):
        gap = busemann_estimate(L, x, s) - lim
        assert 0.0 <= gap <= dh * dh / (2.0 * (s - L * x.t)) * 1.01
    # on the ray's axis the estimate is exact at finite s
    on_axis = ProductPoint(HPoint(0.0, 1.0), 2.0)
    assert busemann_estimate(L, on_axis, 40.0) == busemann_limit(L, on_axis)


def test_busemann_one_lipschitz_seeded():
    rng = np.random.default_rng(21)
    L = 2.0
    for _ in range(200):
        p = ProductPoint(HPoint(rng.uniform(-2, 2), rng.uniform(0.2, 3)), rng.uniform(-2, 2))
        q = ProductPoint(HPoint(rng.uniform(-2, 2), rng.uniform(0.2, 3)), rng.uniform(-2, 2))
        assert abs(busemann_limit(L, p) - busemann_limit(L, q)) <= (
            product_distance(L, p, q) + 2e-9
        )


def test_busemann_hessian_zero():
    # b = -L t is linear and the product's Gamma^t_ij vanish: exactly zero
    for z, t in ((HPoint(0.0, 1.0), 0.0), (HPoint(1.0, 2.0), 3.0)):
        _, h = busemann_derivatives(1.0, ProductPoint(z, t))
        assert np.max(np.abs(h[:2, :2])) == 0.0
    _, full = busemann_derivatives(2.0, ProductPoint(HPoint(0.5, 1.5), 1.0))
    assert full[2, 2] / 4.0 == 0.0  # Hess(b)(V, V), V = d_t / L
    assert not np.signbit(full).any()  # no -0.0 to print


def test_busemann_gradient_unit_and_fiber_aligned():
    L = 2.0
    g, _ = busemann_derivatives(L, ProductPoint(HPoint(0.5, 1.5), 2.0))
    assert g[0] == 0.0 and g[1] == 0.0
    assert g[2] / L == -1.0
    # g-norm: |grad b|^2 = g^tt (d_t b)^2 = (d_t b / L)^2 = 1
    assert (g[2] / L) ** 2 == 1.0


def _fd_busemann_derivatives(L, q, s, h=1e-3):
    """Central-difference gradient and covariant Hessian of busemann_estimate at chart point q."""
    def b(p):
        return busemann_estimate(L, ProductPoint(HPoint(p[0], p[1]), p[2]), s)

    E = np.eye(3) * h
    grad = np.array([(b(q + E[i]) - b(q - E[i])) / (2.0 * h) for i in range(3)])
    hess = np.array([[(b(q + E[i] + E[j]) - b(q + E[i] - E[j]) - b(q - E[i] + E[j])
                       + b(q - E[i] - E[j])) / (4.0 * h * h) for j in range(3)]
                     for i in range(3)])
    gam = christoffel_many(MetricSpec.product(L), q[None])[0]
    return grad, hess - np.einsum("kij,k->ij", gam, grad)


@pytest.mark.parametrize("L", [0.5, 1.0, 2.0])
def test_busemann_hessian_matches_christoffel_contraction_bit_for_bit(L):
    # the closed-form +0.0 Hessian is the bits of 0 - Gamma^k_ij d_k b
    rng = np.random.default_rng(3)
    for x, y, t in zip(rng.uniform(-2, 2, 50), rng.uniform(0.2, 3, 50), rng.uniform(-2, 2, 50)):
        p = ProductPoint(HPoint(x, y), t)
        assert busemann_derivatives(L, p)[1].tobytes() == busemann_hessian_christoffel(L, p).tobytes()


def test_busemann_derivatives_are_the_limit_of_finite_s_differences():
    # the ledger's Busemann points: the finite-s estimate differenced in the
    # chart approaches the closed-form derivatives like O(1/s), so its error
    # halves each time s - L|t| doubles
    for L, q in ((1.0, (0.0, 1.0, 0.0)), (1.0, (1.0, 2.0, 3.0)), (2.0, (0.5, 1.5, 2.0))):
        q = np.array(q)
        grad, hess = busemann_derivatives(L, ProductPoint(HPoint(q[0], q[1]), q[2]))
        errs = []
        for s in (30.0, 60.0, 120.0):
            g, h = _fd_busemann_derivatives(L, q, s + L * abs(q[2]))
            errs.append(max(np.max(np.abs(g - grad)), np.max(np.abs(h - hess))))
        assert errs[0] <= 0.05
        for e_s, e_2s in zip(errs, errs[1:]):
            assert 1.9 <= e_s / e_2s <= 2.1, (L, q, errs)


def test_ball_volume_small_radius_euclidean():
    assert ball_volume(1.0, 0.0) == 0.0
    r = 0.01
    assert ball_volume(1.0, r) == pytest.approx(4.0 / 3.0 * math.pi * r**3, rel=1e-2)


def test_ball_volume_closed_form_matches_slice_quadrature():
    # oracle: the slice integral of base-disk areas over the fiber displacement
    from scipy.integrate import quad

    worst = 0.0
    for kappa in (0.5, 1.0, 2.0):
        for R in (0.5, 1.0, 3.0, 10.0, 30.0):
            def area(u):
                return 2.0 * math.pi * (math.cosh(math.sqrt(kappa * (R * R - u * u))) - 1.0) / kappa
            oracle, _ = quad(area, -R, R, epsabs=0.0, epsrel=1e-13, limit=400)
            worst = max(worst, abs(ball_volume(1.0, R, kappa) / oracle - 1.0))
    assert worst <= 1e-12


def test_ball_volume_log_slope_approaches_one():
    v10, v14 = ball_volume(1.0, 10.0), ball_volume(1.0, 14.0)
    slope = (math.log(v14) - math.log(v10)) / 4.0
    assert slope == pytest.approx(1.0, abs=0.05)


def test_ball_volume_independent_of_L():
    assert ball_volume(1.0, 5.0) == ball_volume(7.0, 5.0)


def test_volume_entropy_unit_curvature():
    assert volume_entropy(1.0, 30.0) == pytest.approx(1.0, abs=1e-2)


def test_volume_entropy_curvature_rescaling():
    for kappa in (0.5, 2.0):
        r_max = max(30.0 / math.sqrt(kappa), 20.0)
        assert volume_entropy(1.0, r_max, kappa) == pytest.approx(
            math.sqrt(kappa), abs=1e-2
        )


def test_volume_entropy_cauchy_convergence():
    e20, e40 = volume_entropy(1.0, 20.0), volume_entropy(1.0, 40.0)
    assert abs(e40 - e20) <= 5e-2
    assert abs(e40 - 1.0) <= abs(e20 - 1.0)


def test_entropy_running_carries_prefactor_bias():
    # the plain ratio converges like 1 + O(log R / R); pin the bias scale
    assert entropy_running(1.0, 30.0) == pytest.approx(1.125, abs=0.01)


def test_ball_volume_past_the_float_range_raises():
    assert math.isfinite(ball_volume(1.0, 700.0))
    with pytest.raises(NumericsError, match="R = 710.0"):
        ball_volume(1.0, 710.0)


def test_validation():
    with pytest.raises(DomainError):
        product_distance(0.0, ProductPoint(HPoint(0, 1), 0), ProductPoint(HPoint(0, 1), 1))
    with pytest.raises(DomainError):
        ball_volume(1.0, -1.0)
    with pytest.raises(DomainError):
        volume_entropy(1.0, 10.0)
    with pytest.raises(DomainError):
        busemann_estimate(1.0, ProductPoint(HPoint(0, 1), 0), -1.0)
