"""Upper half-plane geometry: closed forms vs independent oracles."""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from h2xr.errors import DomainError
from h2xr.hyperbolic import (
    HPoint,
    MobiusElement,
    hyp_distance,
    load_generators,
    mobius_apply,
    translation_length,
)
from h2xr.invariants import tube_profiles

# frozen from the oracles below
D_I_TO_1PLUSI = 0.9624236501192069       # = arccosh(1.5)
TRANSLATION_TRACE_3 = 1.9248473002384139  # = 2 arccosh(1.5)
DISK_AREA_1 = 3.412276265284902           # = 2 pi (cosh 1 - 1)


_GAUSS5 = np.polynomial.legendre.leggauss(5)


def path_length_oracle(p, q, n_interior=10):
    """Shortest-path length over discretized curves between p and q.

    Polyline through n_interior free nodes; each segment's length is the
    5-point Gauss quadrature of |dz| / y along the chord.  Minimized with
    L-BFGS-B.  Deliberately independent of the arccosh formula; remaining
    bias is the O(n^-2) chord-vs-arc defect.
    """
    nodes, weights = _GAUSS5
    s = 0.5 * (nodes + 1.0)  # quadrature abscissas on [0, 1]

    def length(flat):
        xs = np.concatenate([[p.x], flat[:n_interior], [q.x]])
        ys = np.concatenate([[p.y], np.exp(flat[n_interior:]), [q.y]])
        dx = np.diff(xs)
        dy = np.diff(ys)
        yq = ys[:-1, None] + np.outer(dy, s)
        seg = np.hypot(dx, dy)[:, None] / yq
        return float(np.sum(seg @ (0.5 * weights)))

    w = np.linspace(0.0, 1.0, n_interior + 2)[1:-1]
    x0 = np.concatenate([p.x + w * (q.x - p.x),
                         np.log(p.y) + w * (np.log(q.y) - np.log(p.y))])
    res = minimize(length, x0, method="L-BFGS-B",
                   options={"maxiter": 5000, "ftol": 1e-15, "gtol": 1e-12})
    return res.fun


def test_distance_closed_form_matches_path_oracle():
    p, q = HPoint(0.0, 1.0), HPoint(1.0, 1.0)
    d = hyp_distance(p, q)
    assert d == pytest.approx(D_I_TO_1PLUSI, abs=1e-12)
    assert d == pytest.approx(math.acosh(1.5), abs=1e-15)
    # discretization bias of the oracle is O(1/n^2), well under 1e-3
    assert path_length_oracle(p, q) == pytest.approx(d, abs=1e-3)


def test_distance_vertical_and_identity():
    assert hyp_distance(HPoint(0, 1), HPoint(0, 2)) == pytest.approx(math.log(2), abs=1e-14)
    assert hyp_distance(HPoint(0.3, 0.7), HPoint(0.3, 0.7)) == 0.0


def test_distance_short_range_series_branch():
    p = HPoint(0.0, 1.0)
    q = HPoint(1e-7, 1.0)
    # nearly Euclidean at y = 1
    assert hyp_distance(p, q) == pytest.approx(1e-7, rel=1e-6)
    # vertical pair at arccosh argument 1 + u, u ~ 1e-9: the distance is
    # log(1 + h) to full relative accuracy (h = y - 1 is exact); the
    # first-order series sqrt(2u) is off by about u/12
    y = 1.0 + 4.5e-5
    exact = math.log1p(y - 1.0)
    assert hyp_distance(p, HPoint(0.0, y)) == pytest.approx(exact, rel=1e-15, abs=0.0)


def test_distance_triangle_inequality_seeded():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        pts = [HPoint(rng.uniform(-5, 5), rng.uniform(0.05, 5)) for _ in range(3)]
        p, q, r = pts
        assert hyp_distance(p, r) <= hyp_distance(p, q) + hyp_distance(q, r) + 1e-12


def test_distance_rejects_bad_points():
    with pytest.raises(DomainError):
        HPoint(0.0, 0.0)
    with pytest.raises(DomainError):
        HPoint(math.nan, 1.0)


def _random_hyperbolic(rng):
    # conjugate of a dilation: guaranteed hyperbolic, unimodular
    ell = rng.uniform(0.3, 2.0)
    d = MobiusElement(math.exp(ell / 2), 0.0, 0.0, math.exp(-ell / 2))
    theta = rng.uniform(0, math.pi)
    rot = MobiusElement(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta))
    return rot.compose(d).compose(rot.inverse())


def test_mobius_identity_and_dilation():
    i = HPoint(0.0, 1.0)
    assert mobius_apply(MobiusElement.identity(), i) == i
    s = math.sqrt(2.0)
    two_i = mobius_apply(MobiusElement(s, 0, 0, 1 / s), i)
    assert (two_i.x, two_i.y) == pytest.approx((0.0, 2.0), abs=1e-14)


def test_mobius_repeated_dilation():
    m = MobiusElement(2.0, 0.0, 0.0, 0.5)  # z -> 4z
    p = mobius_apply(m, mobius_apply(m, HPoint(0.0, 1.0)))
    assert (p.x, p.y) == pytest.approx((0.0, 16.0), abs=1e-12)


def test_mobius_composition_law_seeded():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m, n = _random_hyperbolic(rng), _random_hyperbolic(rng)
        p = HPoint(rng.uniform(-2, 2), rng.uniform(0.1, 3))
        lhs = mobius_apply(m.compose(n), p)
        rhs = mobius_apply(m, mobius_apply(n, p))
        assert (lhs.x, lhs.y) == pytest.approx((rhs.x, rhs.y), abs=1e-10)


def test_mobius_isometry_invariance_seeded():
    rng = np.random.default_rng(11)
    for _ in range(200):
        m = _random_hyperbolic(rng)
        p = HPoint(rng.uniform(-3, 3), rng.uniform(0.1, 4))
        q = HPoint(rng.uniform(-3, 3), rng.uniform(0.1, 4))
        assert hyp_distance(mobius_apply(m, p), mobius_apply(m, q)) == pytest.approx(
            hyp_distance(p, q), abs=1e-10
        )


def test_mobius_rejects_nonunimodular():
    with pytest.raises(DomainError):
        MobiusElement(2.0, 0.0, 0.0, 1.0)


def test_products_and_inverses_skip_the_unimodular_check():
    g = MobiusElement(1.2, 0.3, 0.1, 0.8583333333333334).inverse()
    h = MobiusElement(2.0, 1.0, 1.0, 1.0).inverse()
    m = g.compose(g)
    for _ in range(5):
        m = m.compose(h)
    # the word g^-2 h^-5: rounding moves det past the tolerance every factor met
    assert m.a * m.d - m.b * m.c - 1.0 == 1.8189894035458565e-12
    with pytest.raises(DomainError, match="not unimodular: det = 1.001"):
        MobiusElement(1.001, 0.0, 0.0, 1.0)


def test_arccosh_past_the_square_range():
    # u (u + 2) overflows above u ~ 1.3e154; the lengths are 2 ln(1e100) and ln(1e200)
    m = MobiusElement(1e100, 0.0, 0.0, 1e-100)
    assert translation_length(m) == pytest.approx(200.0 * math.log(10.0), rel=1e-15)
    d = hyp_distance(HPoint(0.0, 1e-100), HPoint(0.0, 1e100))
    assert d == pytest.approx(200.0 * math.log(10.0), rel=1e-15)


def test_mobius_point_to_infinity():
    m = MobiusElement(0.0, 1.0, -1.0, 0.0)  # z -> -1/z, pole at 0... on boundary
    # a genuine interior pole needs cz + d = 0 with Im z > 0: impossible for
    # real entries, so drive the denominator to zero via the boundary limit
    with pytest.raises(DomainError):
        mobius_apply(m, HPoint(0.0, 0.0))  # rejected earlier: y > 0 invariant


def test_translation_length_parabolic_rejected():
    with pytest.raises(DomainError, match="not hyperbolic"):
        translation_length(MobiusElement(1.0, 1.0, 0.0, 1.0))  # trace 2


def test_translation_length_band_rejected():
    m = MobiusElement(1.0 + 5e-13, 0.0, 0.0, 1.0 / (1.0 + 5e-13))
    with pytest.raises(DomainError):
        translation_length(m)


def test_translation_length_trace_three_vs_min_displacement():
    m = MobiusElement(2.0, 1.0, 1.0, 1.0)
    ell = translation_length(m)
    assert ell == pytest.approx(TRANSLATION_TRACE_3, abs=1e-14)

    def displacement(u):
        p = HPoint(u[0], math.exp(u[1]))
        return hyp_distance(p, mobius_apply(m, p))

    oracle = min(
        minimize(displacement, x0, method="Nelder-Mead",
                 options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000}).fun
        for x0 in ([0.0, 0.0], [1.0, 0.5], [-1.0, -0.5])
    )
    assert oracle == pytest.approx(ell, abs=1e-9)


def test_translation_length_dilation():
    m = MobiusElement(math.e, 0.0, 0.0, 1.0 / math.e)
    assert translation_length(m) == pytest.approx(2.0, abs=1e-12)


def test_translation_length_conjugation_invariant_seeded():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = _random_hyperbolic(rng)
        g = _random_hyperbolic(rng)
        conj = g.compose(m).compose(g.inverse())
        assert translation_length(conj) == pytest.approx(
            translation_length(m), abs=1e-10
        )


# The Busemann function of the upward ray s -> i e^s is -log y.

def test_vertical_busemann_values():
    top = HPoint(0.0, math.exp(30.0))
    assert hyp_distance(HPoint(0.0, 1.0), top) - 30.0 == pytest.approx(0.0, abs=1e-12)
    assert hyp_distance(HPoint(0.0, 2.0), top) - 30.0 == pytest.approx(-math.log(2), abs=1e-12)


def test_vertical_busemann_matches_numeric_limit():
    p = HPoint(1.0, 1.0)
    s = 30.0
    numeric = hyp_distance(p, HPoint(0.0, math.exp(s))) - s
    assert -math.log(p.y) == pytest.approx(numeric, abs=1e-9)


def test_vertical_busemann_dilation_cocycle_seeded():
    rng = np.random.default_rng(13)
    for _ in range(100):
        lam = rng.uniform(0.2, 5.0)
        m = MobiusElement(math.sqrt(lam), 0.0, 0.0, 1.0 / math.sqrt(lam))
        p = HPoint(rng.uniform(-2, 2), rng.uniform(0.1, 3))
        got = -math.log(mobius_apply(m, p).y) + math.log(p.y)
        assert got == pytest.approx(-math.log(lam), abs=1e-10)


def grid_area_oracle(r, n=3000):
    """Area of the hyperbolic disk about i by indicator grid quadrature."""
    pad = math.sinh(r) * 1.1 + 0.1
    xs = np.linspace(-pad, pad, n)
    ys = np.linspace(max(1e-3, math.exp(-r) * 0.8), math.exp(r) * 1.2, n)
    dx = xs[1] - xs[0]
    dy = ys[1] - ys[0]
    X, Y = np.meshgrid(xs, ys)
    u = (X**2 + (Y - 1.0) ** 2) / (2.0 * Y)
    inside = np.log1p(u + np.sqrt(u * (u + 2.0))) <= r
    return float(np.sum(inside / Y**2) * dx * dy)


def disk_area(r):
    """Disk area from the volume of the disk tube D_r x S^1 with L = 1."""
    return tube_profiles(1.0, [r], 1.0, [])[0].volume


def test_disk_area_values_and_oracle():
    a1 = disk_area(1.0)
    assert a1 == pytest.approx(DISK_AREA_1, abs=1e-12)
    assert grid_area_oracle(1.0) == pytest.approx(a1, rel=3e-3)
    with pytest.raises(DomainError):
        disk_area(-0.1)


def test_disk_area_exponential_asymptotics():
    r = 20.0
    assert disk_area(r) == pytest.approx(math.pi * math.exp(r), rel=1e-4)


def test_disk_area_monotone():
    rs = np.linspace(0.1, 5.0, 40)
    vals = [disk_area(float(r)) for r in rs]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_load_generators(tmp_path):
    f = tmp_path / "gens.txt"
    f.write_text("# comment\n1.2 0 0 0.8333333333333334\n\n0 1 -1 0\n")
    gens = load_generators(f)
    assert len(gens) == 2
    assert gens[0].a == 1.2
    bad = tmp_path / "bad.txt"
    bad.write_text("1 0 0\n")
    with pytest.raises(DomainError, match="four entries"):
        load_generators(bad)
