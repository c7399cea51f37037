"""Spectra, length spectra, isoperimetric tubes, gap constants, deviation."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from h2xr import invariants
from h2xr.errors import DomainError, NumericsError
from h2xr.hyperbolic import MobiusElement, translation_length
from h2xr.metrics import MetricSpec
from h2xr.invariants import (
    SigmaSpectrum,
    curvature_deviation,
    enumerate_length_spectrum,
    epsilon0,
    isoperimetric_bound,
    mls_length,
    moduli_dimension,
    product_spectrum,
    spectral_gap,
    tube_profiles,
)
from oracles import length_spectrum_by_word_list

# frozen direct arithmetic on the displayed formulas
ISO_BOUND_1_1 = 5.112019290722439         # 2 pi sqrt(2/pi + 1/(4 pi^2))
DISK_TUBE_R1 = (3.412276265284902,         # 2 pi (cosh 1 - 1)
                7.384006872882645,         # 2 pi sinh 1
                9.869320426803943)         # bound at that volume
COLLAR_W1_L2 = (4.7008047745752055, 6.172322539260975)  # 4 sinh 1, 4 cosh 1


def brute_force_spectrum(eigenvalues, L, cutoff, n_range=400):
    merged = {}
    for lam in eigenvalues:
        for n in range(-n_range, n_range + 1):
            val = lam + (2.0 * math.pi * n / L) ** 2
            if val <= cutoff:
                merged[val] = merged.get(val, 0) + 1
    return sorted(merged.items())


def test_product_spectrum_circle_modes():
    sig = SigmaSpectrum((0.0,))
    got = product_spectrum(sig, 2.0 * math.pi, 4.5)
    assert got == [(0.0, 1), (1.0, 2), (4.0, 2)]


def test_product_spectrum_mixed():
    sig = SigmaSpectrum((0.0, 0.25))
    got = product_spectrum(sig, 2.0 * math.pi, 1.1)
    assert got == [(0.0, 1), (0.25, 1), (1.0, 2)]
    assert got == brute_force_spectrum(sig.eigenvalues, 2.0 * math.pi, 1.1)


def test_product_spectrum_high_mode_excluded():
    sig = SigmaSpectrum((0.0, 3.83))
    got = product_spectrum(sig, 1.0, 10.0)
    assert (3.83, 1) in got
    assert all(not (abs(v - (3.83 + (2 * math.pi) ** 2)) < 1e-9) for v, _ in got)


def test_product_spectrum_matches_brute_force_seeded():
    rng = np.random.default_rng(9)
    for _ in range(20):
        evs = tuple(sorted(rng.uniform(0.05, 8.0, size=rng.integers(1, 7))))
        sig = SigmaSpectrum((0.0, *evs))
        L = float(rng.uniform(0.3, 9.0))
        cutoff = float(rng.uniform(2.0, 30.0))
        assert product_spectrum(sig, L, cutoff) == brute_force_spectrum(
            sig.eigenvalues, L, cutoff
        )


def test_sigma_spectrum_validation():
    with pytest.raises(DomainError):
        SigmaSpectrum(())
    with pytest.raises(DomainError):
        SigmaSpectrum((0.1, 0.2))       # no zero mode
    with pytest.raises(DomainError):
        SigmaSpectrum((0.0, 0.0, 1.0))  # disconnected
    with pytest.raises(DomainError):
        SigmaSpectrum((0.0, -1.0))


def test_spectral_gap_cases():
    assert spectral_gap(SigmaSpectrum((0.0, 0.25)), 2.0 * math.pi) == 0.25
    assert spectral_gap(SigmaSpectrum((0.0, 2.0)), 2.0 * math.pi) == 1.0
    assert spectral_gap(SigmaSpectrum((0.0, 1.0)), 2.0 * math.pi) == 1.0  # tie
    with pytest.raises(DomainError):
        spectral_gap(SigmaSpectrum((0.0,)), 1.0)


def test_mls_length():
    assert mls_length(3.0, 4, 1.0) == 5.0
    assert mls_length(1.7, 0, 3.0) == 1.7
    assert mls_length(0.0, 2, 1.5) == 3.0
    with pytest.raises(DomainError, match="closed geodesic"):
        mls_length(0.0, 0, 1.0)


def test_enumerate_single_generator_against_powers():
    g = MobiusElement(math.e, 0.0, 0.0, 1.0 / math.e)
    entries = enumerate_length_spectrum([g], max_word=3, L=1.0, n_max=1)
    fiber = [e for e in entries if e.word == "e"]
    assert sorted(e.ell for e in fiber) == [1.0, 1.0]
    # oracle: translation lengths of explicit powers
    m = g
    for k, word in ((1, "a"), (2, "aa"), (3, "aaa")):
        ell_k = translation_length(m)
        assert ell_k == pytest.approx(2.0 * k, abs=1e-12)
        ours = [e for e in entries if e.word == word]
        assert {e.n for e in ours} == {-1, 0, 1}
        for e in ours:
            assert e.ell_sigma == pytest.approx(ell_k, abs=1e-12)
            assert e.ell == pytest.approx(math.hypot(ell_k, e.n), abs=1e-12)
        m = m.compose(g)
    # inverse words deduplicated against their mirror classes by |trace|
    assert not any(e.word == "A" for e in entries)


def test_enumerate_empty_generators_fiber_classes():
    entries = enumerate_length_spectrum([], max_word=4, L=2.5, n_max=2)
    assert [(e.word, e.n) for e in entries] == [("e", -1), ("e", 1), ("e", -2), ("e", 2)]
    assert [e.ell for e in entries] == [2.5, 2.5, 5.0, 5.0]


def test_enumerate_entries_satisfy_identity_exactly():
    g1 = MobiusElement(math.e, 0.0, 0.0, 1.0 / math.e)
    g2 = MobiusElement(1.2, 0.3, 0.1, (1 + 0.3 * 0.1) / 1.2)
    entries = enumerate_length_spectrum([g1, g2], max_word=3, L=1.3, n_max=2)
    assert entries == sorted(entries, key=lambda e: e.ell)
    for e in entries:
        assert e.ell ** 2 == pytest.approx(e.ell_sigma ** 2 + (e.n * 1.3) ** 2, rel=1e-15)
    keys = [(round(abs(e.trace), 9), e.n) for e in entries]
    assert len(keys) == len(set(keys))  # deduplicated


def test_enumerate_guards():
    with pytest.raises(DomainError):
        enumerate_length_spectrum([], max_word=9, L=1.0, n_max=1)
    with pytest.raises(DomainError):
        enumerate_length_spectrum([], max_word=2, L=-1.0, n_max=1)


def test_enumerate_word_limit_counts_reduced_words(monkeypatch):
    # one generator has 2 reduced words of each length
    monkeypatch.setattr(invariants, "MAX_REDUCED_WORDS", 6)
    g = MobiusElement(math.e, 0.0, 0.0, 1.0 / math.e)
    assert len(enumerate_length_spectrum([g], max_word=3, L=1.0, n_max=0)) == 3
    with pytest.raises(DomainError, match="1 generators at max_word 4 give 8 reduced words, over 6"):
        enumerate_length_spectrum([g], max_word=4, L=1.0, n_max=0)


_ENTRY = st.floats(-3.0, 3.0)
# (a, b, c, (1 + b c) / a): unimodular up to rounding, which the constructor may still reject
_GENERATOR = st.tuples(st.floats(0.25, 3.0) | st.floats(-3.0, -0.25), _ENTRY, _ENTRY).map(
    lambda abc: (*abc, (1.0 + abc[1] * abc[2]) / abc[0]))


@given(st.lists(_GENERATOR, max_size=3), st.integers(0, 4), st.floats(0.1, 10.0),
       st.integers(0, 2))
def test_enumeration_matches_the_word_list_oracle(gens, max_word, L, n_max):
    def run(enumerate_):
        try:
            entries = enumerate_(gens, max_word, L, n_max)
        except DomainError as exc:
            return str(exc)
        return [(e.word, e.trace.hex(), e.ell_sigma.hex(), e.n, e.ell.hex()) for e in entries]

    assert run(enumerate_length_spectrum) == run(length_spectrum_by_word_list)


def test_isoperimetric_bound_values():
    assert isoperimetric_bound(0.0, 1.0) == 0.0
    L = 1.7
    v = 2.0 * math.pi * L
    assert isoperimetric_bound(v, L) == pytest.approx(
        2.0 * math.pi * L * math.sqrt(5.0), rel=1e-15
    )
    assert isoperimetric_bound(1.0, 1.0) == pytest.approx(ISO_BOUND_1_1, abs=1e-15)


def test_tube_profiles_disk_and_collar():
    rows = tube_profiles(1.0, [1.0], 2.0, [1.0])
    disk, collar = rows
    v, a, b = DISK_TUBE_R1
    assert disk.volume == pytest.approx(v, abs=1e-14)
    assert disk.area == pytest.approx(a, abs=1e-14)
    assert disk.bound == pytest.approx(b, abs=1e-14)
    # u-form identity oracle: bound = 2 pi L sqrt(u^2 + 4u), u = cosh r - 1
    u = math.cosh(1.0) - 1.0
    assert disk.bound == pytest.approx(2.0 * math.pi * math.sqrt(u * u + 4.0 * u), rel=1e-15)
    assert disk.status == "area<bound"          # the recorded violation
    assert collar.volume == pytest.approx(COLLAR_W1_L2[0], abs=1e-14)
    assert collar.area == pytest.approx(COLLAR_W1_L2[1], abs=1e-14)


def test_tube_inputs_named_when_not_finite_and_positive():
    # a NaN passes r <= 0; the error names the tube input, not the volume
    for args, name in (((1.0, [math.nan], 2.0, []), "disk radius"),
                       ((1.0, [math.inf], 2.0, []), "disk radius"),
                       ((1.0, [], 2.0, [math.nan]), "collar width"),
                       ((1.0, [], math.nan, [1.0]), "collar geodesic length"),
                       ((math.nan, [1.0], 2.0, []), "fiber length")):
        with pytest.raises(DomainError, match=name):
            tube_profiles(*args)


def test_tube_overflow_names_the_radius_or_width():
    # past the float range in cosh/sinh, in the bound's square, or in the
    # collar's product 2 L ell sinh w
    for args, name in (((1.0, [1000.0], 2.0, []), "disk radius 1000.0"),
                       ((1.0, [400.0], 2.0, []), "disk radius 400.0"),
                       ((1.0, [], 2.0, [1000.0]), "collar width 1000.0"),
                       ((1e300, [], 1e10, [5.0]), "collar width 5.0")):
        with pytest.raises(NumericsError, match=name):
            tube_profiles(*args)
    with pytest.raises(NumericsError, match="v = 1e"):
        isoperimetric_bound(1e300, 1.0)


def test_tube_ratio_small_radius_limit():
    rows = tube_profiles(1.0, [1e-4], 2.0, [])
    # area/bound -> 1/sqrt(2) as r -> 0: the bound exceeds the dominant term
    assert rows[0].ratio == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)


def test_epsilon0_formula_and_asymptotics():
    assert epsilon0(2.0, math.pi, 1.0) == (1.0, 0.125)
    assert epsilon0(1e9, 1.0, 1.0)[0] == pytest.approx(math.pi ** 2, rel=1e-15)
    delta, e0 = epsilon0(2.0, math.pi, 1e4)
    assert e0 == pytest.approx(delta / (4.0 * 1e8), rel=1e-6)


def test_epsilon0_monotone_grid():
    diams = np.linspace(0.5, 5.0, 10)
    Ls = np.linspace(0.5, 5.0, 10)
    for lam in (0.7, 3.0):
        for L in Ls:
            es = [epsilon0(lam, float(L), float(d))[1] for d in diams]
            assert all(b <= a for a, b in zip(es, es[1:]))
        for d in diams:
            es = [epsilon0(lam, float(L), float(d))[1] for L in Ls]
            assert all(b <= a + 1e-15 for a, b in zip(es, es[1:]))


def warped_deviation_grid_oracle(spec, box, nx=1000, ny=1000):
    """Deterministic grid quadrature of the deviation integrand.

    Uses the closed-form warped-product curvature instead of the
    finite-difference tensor: R_V eigenvalues (-f''/f, -f' coth(rho)/f)
    and |nabla V|^2 = (f'/f)^2, with volume density f / y^2.  The
    integrand is fiber-independent, so the t-extent multiplies a 2D grid.
    """
    (x0, x1), (y0, y1), (t0, t1) = box
    prof = spec.warp
    xs = np.linspace(x0, x1, nx + 1)[:-1] + (x1 - x0) / (2 * nx)
    ys = np.linspace(y0, y1, ny + 1)[:-1] + (y1 - y0) / (2 * ny)
    X, Y = np.meshgrid(xs, ys)
    cx, cy = prof.center.x, prof.center.y
    u = ((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * cy * Y)
    rho = np.log1p(u + np.sqrt(u * (u + 2.0)))
    f, fp, fpp = prof.eval_many(rho)
    with np.errstate(divide="ignore", invalid="ignore"):
        ang = np.where(rho > 1e-12, fp / np.tanh(rho), fpp)
    rv2 = (fpp / f) ** 2 + (ang / f) ** 2
    grad2 = (fp / f) ** 2
    integrand = (rv2 + grad2) * f / Y**2
    cell = (x1 - x0) * (y1 - y0) / (nx * ny)
    return float(np.sum(integrand) * cell * (t1 - t0))


def test_curvature_deviation_product_zero():
    res = curvature_deviation(MetricSpec.product(1.0), ((-1, 1), (0.5, 2), (0, 1)), 500, 0)
    assert abs(res.estimate) <= 1e-10
    assert res.std_error == 0.0


def test_curvature_deviation_warped_matches_grid_oracle():
    spec = MetricSpec.warped(eps=0.1)
    box = ((-1.2, 1.2), (0.4, 2.6), (0.0, 1.0))
    oracle = warped_deviation_grid_oracle(spec, box)
    res = curvature_deviation(spec, box, 4000, 3)
    assert res.estimate > 0.0
    assert abs(res.estimate - oracle) <= 3.0 * res.std_error
    # stable across seeds at the 3 sigma level
    res2 = curvature_deviation(spec, box, 4000, 4)
    assert abs(res2.estimate - oracle) <= 3.0 * res2.std_error


def test_curvature_deviation_outside_bump_zero():
    spec = MetricSpec.warped(eps=0.1)
    res = curvature_deviation(spec, ((3.0, 4.0), (0.8, 1.2), (0.0, 1.0)), 200, 0)
    assert res.estimate == 0.0


def test_curvature_deviation_validation():
    spec = MetricSpec.product(1.0)
    with pytest.raises(DomainError):
        curvature_deviation(spec, ((-1, 1), (-0.5, 2), (0, 1)), 500, 0)
    with pytest.raises(DomainError):
        curvature_deviation(spec, ((-1, 1), (0.5, 2), (0, 1)), 50, 0)


def test_moduli_dimension():
    assert moduli_dimension(2) == 7
    assert moduli_dimension(3) == 13
    with pytest.raises(DomainError, match="chi < 0"):
        moduli_dimension(1)
