"""Acceptance suite: one test per exit criterion, tolerances pinned.

Each test prints a single PASS line (visible with pytest -s or on
failure) naming the criterion and the measured numbers.
"""

import math
import time

import numpy as np
import pytest

from h2xr import claims as claims_mod
from h2xr.asymptotics import (
    ProductPoint,
    busemann_gradient,
    busemann_hessian,
    volume_entropy,
)
from h2xr.cli import main
from h2xr.geodesics import integrate_geodesic, unit_vector
from h2xr.hyperbolic import HPoint, MobiusElement, hyp_distance, mobius_apply, translation_length
from h2xr.invariants import (
    SigmaSpectrum,
    curvature_deviation,
    epsilon0,
    isoperimetric_bound,
    mls_length,
    moduli_dimension,
    product_spectrum,
    spectral_gap,
    tube_profiles,
)
from h2xr.jacobi import (
    BoxSampler,
    first_conjugate_point,
    fit_frequency,
    propagate_jacobi,
    rauch_check,
    riccati_average,
    riccati_from_jacobi,
    riccati_stable,
    riccati_stable_limit,
    scan_conjugate_points,
)
from h2xr.metrics import ChartPoint, MetricSpec, curvature_at, get_potential

PROD = MetricSpec.product(1.0)
WARP = MetricSpec.warped(eps=0.1)
ORIGIN = ChartPoint(0.0, 1.0, 0.0)
OMEGA = math.sqrt(0.2 / 1.05)


def report(num, text):
    print(f"ACCEPTANCE {num:>2}: PASS - {text}")


def test_criterion_01_warped_conjugate_point():
    t0 = time.perf_counter()
    v0 = unit_vector(WARP, ORIGIN, [0, 0, 1])
    t_star = first_conjugate_point(WARP, ORIGIN, v0, Tmax=10.0)
    elapsed = time.perf_counter() - t0
    assert t_star is not None
    assert abs(t_star - 7.198) / 7.198 <= 0.005
    assert elapsed < 5.0

    tr = integrate_geodesic(WARP, ORIGIN, v0, T=7.0, step=1e-3)
    run = propagate_jacobi(tr)
    w_fit = fit_frequency(run.times, run.A[:, 0, 0])
    assert abs(w_fit - 0.436) / 0.436 <= 0.01
    report(1, f"t* = {t_star:.6f} (pi/omega = {math.pi/OMEGA:.6f}), "
              f"omega_fit = {w_fit:.6f}, {elapsed:.2f}s")


def test_criterion_02_product_no_conjugate_sweep():
    t0 = time.perf_counter()
    rows = scan_conjugate_points(PROD, count=200, Tmax=50.0, step=1e-3, seed=0)
    elapsed = time.perf_counter() - t0
    assert len(rows) == 200
    detections = [r for r in rows if r.t_star is not None]
    assert detections == []
    assert elapsed < 120.0
    report(2, f"200 initial conditions, 0 detections, {elapsed:.1f}s")


def test_criterion_03_product_curvature_table():
    rng = np.random.default_rng(2024)
    worst_sec = worst_ric = 0.0
    target = np.diag([-1.0, -1.0, 0.0])
    for _ in range(50):
        p = ChartPoint(rng.uniform(-2, 2), rng.uniform(0.4, 3.0), rng.uniform(0, 1))
        cs = curvature_at(PROD, p)
        worst_sec = max(
            worst_sec,
            abs(cs.sectionals[(0, 1)] + 1.0),
            abs(cs.sectionals[(0, 2)]),
            abs(cs.sectionals[(1, 2)]),
        )
        g = np.diag([1.0 / p.y**2, 1.0 / p.y**2, 1.0])
        orth = cs.ricci / np.sqrt(np.outer(np.diag(g), np.diag(g)))
        worst_ric = max(worst_ric, float(np.max(np.abs(orth - target))))
    assert worst_sec <= 1e-12
    assert worst_ric <= 1e-12
    report(3, f"max sectional dev {worst_sec:.2e}, max Ricci dev {worst_ric:.2e}")


def test_criterion_04_jacobi_closed_forms_and_rauch():
    v0 = unit_vector(PROD, ORIGIN, [1, 0, 0])
    tr = integrate_geodesic(PROD, ORIGIN, v0, T=10.0, step=1e-3)
    run = propagate_jacobi(tr)
    t = run.times[1:]
    rel_11 = np.max(np.abs(run.A[1:, 0, 0] - np.sinh(t)) / np.sinh(t))
    rel_22 = np.max(np.abs(run.A[1:, 1, 1] - t) / t)
    assert rel_11 <= 1e-12
    assert rel_22 <= 1e-12

    rep = rauch_check(run, k_min=-1.0)
    eq_gap = max(c.max_abs_margin_rel for c in rep.cases if c.jh0 == 0.0 or c.jv0 == 0.0)
    assert eq_gap <= 1e-12
    assert rep.max_violation <= 1e-12
    report(4, f"sinh/t rel dev ({rel_11:.2e}, {rel_22:.2e}), rauch equality gap {eq_gap:.2e}")


def test_criterion_05_stable_riccati():
    v0 = unit_vector(PROD, ORIGIN, [0, 1, 0])
    tr = integrate_geodesic(PROD, ORIGIN, v0, T=40.0, step=1e-3)
    run, delta = riccati_stable_limit(tr, T=20.0)
    anchored = riccati_stable(tr, 20.0)
    u0 = float(anchored.U[0, 0, 0])
    assert abs(u0 + 1.0) <= 1e-12
    assert delta <= 1e-6
    # closed form of the H^2 factor: U11(t) = -tanh(20 - t)
    tanh_gap = float(np.max(np.abs(anchored.U[:, 0, 0] + np.tanh(20.0 - anchored.times))))
    assert tanh_gap <= 1e-12
    tt, uj = riccati_from_jacobi(tr, 20.0)
    consistency = float(np.nanmax(np.abs(uj - anchored.U)))
    assert consistency <= 1e-12
    report(5, f"U11(0) = {u0:.10f}, anchor-doubling delta {delta:.2e}, "
              f"tanh gap {tanh_gap:.2e}, Riccati/Jacobi gap {consistency:.2e}")


def test_criterion_06_riccati_average_product():
    res = riccati_average(PROD, BoxSampler(), n=100, seed=0, anchor=20.0, step=1e-2)
    assert abs(res.estimate) <= 1e-8
    report(6, f"mean Tr(U^2 + R_V) = {res.estimate:.2e} (n = {res.n_samples})")


def test_criterion_07_busemann_suite():
    rng = np.random.default_rng(7)
    s = 30.0
    top = HPoint(0.0, math.exp(s))
    worst = 0.0
    for _ in range(10):
        z = HPoint(rng.uniform(-1, 1), rng.uniform(0.5, 2.0))
        worst = max(worst, abs((hyp_distance(z, top) - s) + math.log(z.y)))
    assert worst <= 1e-9

    hess_dev = 0.0
    for z, t in ((HPoint(0.0, 1.0), 0.0), (HPoint(1.0, 2.0), 3.0)):
        h = busemann_hessian(1.0, ProductPoint(z, t))
        hess_dev = max(hess_dev, float(np.max(np.abs(h[:2, :2]))), abs(h[2, 2]))
    assert hess_dev <= 1e-6

    L = 2.0
    g = busemann_gradient(L, ProductPoint(HPoint(0.5, 1.5), 1.0))
    grad_dev = max(abs(g[0]), abs(g[1]), abs(g[2] / L + 1.0))
    assert grad_dev <= 1e-6

    sign_claim = next(c for c in claims_mod.CLAIMS if c.claim_id == "example6_busemann_sign")
    rec = sign_claim.evaluate(0)
    assert rec.status == "REPORT_ONLY"
    assert rec.computed == -1.0 and rec.paper_value == 1.0
    report(7, f"ray dev {worst:.2e}, hessian dev {hess_dev:.2e}, "
              f"gradient dev {grad_dev:.2e}, sign recorded REPORT_ONLY")


def test_criterion_08_spectrum_and_gap():
    rng = np.random.default_rng(8)
    for _ in range(20):
        evs = tuple(sorted(rng.uniform(0.05, 8.0, size=rng.integers(1, 7))))
        sig = SigmaSpectrum((0.0, *evs))
        L = float(rng.uniform(0.3, 9.0))
        cutoff = float(rng.uniform(2.0, 30.0))
        brute = {}
        for lam in sig.eigenvalues:
            for n in range(-400, 401):
                val = lam + (2.0 * math.pi * n / L) ** 2
                if val <= cutoff:
                    brute[val] = brute.get(val, 0) + 1
        assert product_spectrum(sig, L, cutoff) == sorted(brute.items())
        assert spectral_gap(sig, L) == min(evs[0], (2.0 * math.pi / L) ** 2)
    report(8, "20 random spectra equal brute-force enumeration exactly; gap formula exact")


def test_criterion_09_length_spectrum():
    assert mls_length(3.0, 4, 1.0) == 5.0
    m = MobiusElement(2.0, 1.0, 1.0, 1.0)
    ell = translation_length(m)
    assert ell == pytest.approx(1.924847, abs=1e-6)

    from scipy.optimize import minimize

    def displacement(u):
        p = HPoint(u[0], math.exp(u[1]))
        return hyp_distance(p, mobius_apply(m, p))

    oracle = min(
        minimize(displacement, x0, method="Nelder-Mead",
                 options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000}).fun
        for x0 in ([0.0, 0.0], [1.0, 0.5], [-1.0, -0.5])
    )
    assert abs(oracle - ell) <= 1e-9
    report(9, f"translation length {ell:.9f}, displacement oracle gap {abs(oracle-ell):.2e}")


def test_criterion_10_volume_entropy():
    h1 = volume_entropy(1.0, 30.0)
    assert abs(h1 - 1.0) <= 0.01
    for kappa in (0.5, 2.0):
        r_max = max(30.0 / math.sqrt(kappa), 20.0)
        assert abs(volume_entropy(1.0, r_max, kappa) - math.sqrt(kappa)) <= 0.01

    norm_claim = next(c for c in claims_mod.CLAIMS
                      if c.claim_id == "entropy_genus2_normalization")
    rec = norm_claim.evaluate(0)
    assert rec.status == "REPORT_ONLY"
    assert rec.paper_value == pytest.approx(math.sqrt(2.0))
    assert rec.computed == pytest.approx(h1)
    report(10, f"h_vol = {h1:.4f} (both numbers ledgered against sqrt(-chi) = {math.sqrt(2):.4f})")


def test_criterion_11_isoperimetric_comparator():
    t0 = time.perf_counter()
    L = 1.7
    v = 2.0 * math.pi * L
    assert isoperimetric_bound(v, L) == 2.0 * math.pi * L * math.sqrt(5.0)
    rows = tube_profiles(1.0, [0.5, 1.0, 2.0], 2.0, [0.5, 1.0])
    disk = next(r for r in rows if r.kind == "disk" and r.param == 1.0)
    assert disk.area == pytest.approx(7.384006872882645, abs=1e-12)
    assert disk.bound == pytest.approx(9.869320426803943, abs=1e-12)
    assert disk.status == "area<bound"
    iso_claim = next(c for c in claims_mod.CLAIMS
                     if c.claim_id == "isoperimetric_disk_tube_r1")
    rec = iso_claim.evaluate(0)
    assert rec.status == "REPORT_ONLY"
    assert rec.computed == pytest.approx(disk.area_minus_bound)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(11, f"area {disk.area:.3f} < bound {disk.bound:.3f}: REPORT_ONLY, {elapsed*1e3:.0f}ms")


def _warped_grid_oracle(spec, box, nx=1000, ny=1000):
    # closed-form warped integrand on a 10^6-node midpoint grid
    (x0, x1), (y0, y1), (t0, t1) = box
    prof = spec.warp
    xs = np.linspace(x0, x1, nx + 1)[:-1] + (x1 - x0) / (2 * nx)
    ys = np.linspace(y0, y1, ny + 1)[:-1] + (y1 - y0) / (2 * ny)
    X, Y = np.meshgrid(xs, ys)
    cx, cy = prof.center.x, prof.center.y
    u = ((X - cx) ** 2 + (Y - cy) ** 2) / (2.0 * cy * Y)
    rho = np.log1p(u + np.sqrt(u * (u + 2.0)))
    f, fp, fpp = prof.eval_many(rho)
    ang = np.where(rho > 1e-12, fp / np.tanh(rho), fpp)
    integrand = ((fpp / f) ** 2 + (ang / f) ** 2 + (fp / f) ** 2) * f / Y**2
    return float(np.sum(integrand) * (x1 - x0) * (y1 - y0) / (nx * ny) * (t1 - t0))


def test_criterion_12_curvature_deviation():
    res_p = curvature_deviation(PROD, ((-1, 1), (0.5, 2), (0, 1)), 1000, 0)
    assert abs(res_p.estimate) <= 1e-10

    box = ((-1.2, 1.2), (0.4, 2.6), (0.0, 1.0))
    oracle = _warped_grid_oracle(WARP, box)
    res_w = curvature_deviation(WARP, box, 10000, 0)
    assert res_w.estimate > 0.0
    assert abs(res_w.estimate - oracle) <= 3.0 * res_w.std_error
    report(12, f"D(product) = {res_p.estimate:.1e}; D(warped) = {res_w.estimate:.4f} "
               f"+- {res_w.std_error:.4f} vs grid {oracle:.4f}")


def test_criterion_13_shear_curvature_component():
    alpha = 1e-3
    spec = MetricSpec.twisted(alpha, "log_y")
    p = ChartPoint(0.0, 1.0, 0.0)
    cs = curvature_at(spec, p)
    got = cs.riemann[0, 2, 0, 2]
    hess = get_potential("log_y").hess(np.float64(p.x), np.float64(p.y))
    assert hess[0][0] == -1.0 and hess[1][1] == 0.0  # analytic oracle diag(-1/y^2, 0)
    expect = -alpha * float(hess[0][0])
    assert abs(got - expect) / expect <= 0.02
    report(13, f"R_xtxt = {got:.6e} vs alpha = {expect:.6e} "
               f"({abs(got-expect)/expect:.2e} relative)")


def test_criterion_14_gap_constant_and_moduli():
    delta, e0 = epsilon0(2.0, math.pi, 1.0)
    assert (delta, e0) == (1.0, 0.125)
    assert moduli_dimension(2) == 7
    report(14, f"(delta, eps0) = ({delta}, {e0}); moduli dimension 7")


SMALL_JOBS = {
    "scan-conjugate": "job: scan-conjugate\ncount: 4\nTmax: 5\nstep: 0.002\n",
    "jacobi": "job: jacobi\nT: 2\nstep: 0.01\n",
    "riccati-stable": "job: riccati-stable\nT: 8\nanchor: 4\nstep: 0.005\n",
    "riccati-average": "job: riccati-average\nN: 10\nanchor: 2\nstep: 0.02\n",
    "busemann": "job: busemann\nq0_x: 1\nq0_y: 2\nq0_t: 1\n",
    "volume-growth": "job: volume-growth\nR_max: 20\nR_count: 4\n",
    "spectrum": None,        # fixture file below
    "length-spectrum": None,
    "isoperimetric": "job: isoperimetric\n",
    "curvature-deviation": "job: curvature-deviation\nN: 120\n",
    "gap-constant": "job: gap-constant\n",
    "moduli-dim": "job: moduli-dim\ngenus: 3\n",
    "ledger": "job: ledger\n",
}


def test_criterion_15_determinism_and_order(tmp_path):
    # byte-identical data outputs for every subcommand under fixed config+seed
    (tmp_path / "sigma.txt").write_text("0.0\n0.25\n1.7\n")
    (tmp_path / "gens.txt").write_text("1.2 0.3 0.1 0.8583333333333334\n")
    SMALL_JOBS["spectrum"] = f"job: spectrum\nsigma_file: {tmp_path/'sigma.txt'}\ncutoff: 5\n"
    SMALL_JOBS["length-spectrum"] = (
        f"job: length-spectrum\ngenerators_file: {tmp_path/'gens.txt'}\nmax_word: 2\n"
    )
    for job, text in SMALL_JOBS.items():
        cfg = tmp_path / f"{job}.cfg"
        cfg.write_text(text)
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{job}-{run}"
            assert main([job, "--config", str(cfg), "--out", str(out)]) == 0, job
            outputs.append({
                p.name: p.read_bytes() for p in out.iterdir() if p.suffix == ".csv"
            })
        assert outputs[0] == outputs[1], f"{job} not byte-deterministic"

    # the ledger run covers the shipped claim registry: spot-check content
    claims_csv = (tmp_path / "ledger-1" / "claims.csv").read_text().splitlines()
    ids = [ln.split(",")[0] for ln in claims_csv[1:]]
    for required in ("example2_conjugate_distance", "example1_no_conjugate_points",
                     "example8_spectral_gap", "example6_busemann_sign",
                     "entropy_genus2_normalization", "isoperimetric_disk_tube_r1"):
        assert required in ids
    statuses = {ln.split(",")[0]: ln.split(",")[-1] for ln in claims_csv[1:]}
    assert statuses["example2_conjugate_distance"] == "MATCH"
    assert not any(s == "MISMATCH" for s in statuses.values())

    # 4th-order convergence on the three-step test
    q0 = ChartPoint(0.0, 1.0, 0.0)
    v0 = unit_vector(PROD, q0, [1.0, 0.3, 0.5])
    steps = [1.6e-2, 8e-3, 4e-3, 2e-3]
    ends = [integrate_geodesic(PROD, q0, v0, T=2.0, step=h).q[-1] for h in steps]
    errs = [np.max(np.abs(a - b)) for a, b in zip(ends, ends[1:])]
    ratios = [e0 / e1 for e0, e1 in zip(errs, errs[1:])]
    assert all(r >= 12.0 for r in ratios)
    report(15, f"all subcommands byte-deterministic; order ratios {[f'{r:.1f}' for r in ratios]}")
