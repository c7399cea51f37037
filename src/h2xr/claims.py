"""Registry of quantitative claims checked by the ledger subcommand.

Each claim pairs a published expected value with a freshly computed one
and a tolerance.  Status is MATCH/MISMATCH for asserted claims;
REPORT_ONLY marks claims the desk analysis contradicts or that carry no
asserted number -- the ledger shows both values without passing them.

Both Example 2 claims read one Jacobi run of the central Warped geodesic
to T = 10, built once per evaluate_claims call and dropped on return.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import asymptotics, invariants, jacobi
from .errors import NumericsError
from .geodesics import integrate_geodesic, speed_drift, unit_vector
from .hyperbolic import HPoint, MobiusElement, hyp_distance
from .metrics import ChartPoint, MetricSpec, curvature_at

OMEGA_WARPED = math.sqrt(0.2 / 1.05)          # oscillator rate at eps = 0.1
WARPED_SPEC = MetricSpec.warped(eps=0.1)
CENTER = ChartPoint(0.0, 1.0, 0.0)
CENTRAL_T = 10.0        # horizon of the central run, which holds the conjugate point
FREQUENCY_FIT_T = 7.0   # the oscillator fit reads the samples with t <= this


@dataclass(frozen=True)
class ClaimRecord:
    claim_id: str
    paper_value: float | None
    computed: float
    tolerance: float | None
    status: str
    seconds: float


@dataclass(frozen=True)
class Claim:
    claim_id: str
    paper_value: float | None
    tolerance: float | None
    compute: object
    report_only: bool = False
    reads_central_run: bool = False   # compute takes _central_run()'s run, not the seed

    def evaluate(self, seed: int, central_run=None) -> ClaimRecord:
        """central_run gives the shared central run (by default the claim's own), timed with it."""
        started = time.perf_counter()
        arg = (central_run or _central_run)() if self.reads_central_run else seed
        computed = float(self.compute(arg))
        if self.report_only:
            status = "REPORT_ONLY"
        elif abs(computed - self.paper_value) <= self.tolerance:
            status = "MATCH"
        else:
            status = "MISMATCH"
        return ClaimRecord(self.claim_id, self.paper_value, computed,
                           self.tolerance, status, time.perf_counter() - started)


def _seeded_points(seed, n, y_range=(0.4, 3.0), x_range=(-2.0, 2.0)):
    rng = np.random.default_rng([seed, 1])
    return [
        ChartPoint(rng.uniform(*x_range), rng.uniform(*y_range), rng.uniform(0.0, 1.0))
        for _ in range(n)
    ]


def _killing_vertical(seed):
    spec = MetricSpec.product(2.0)
    q0 = ChartPoint(0.3, 1.4, 0.0)
    tr = integrate_geodesic(spec, q0, unit_vector(spec, q0, [0, 0, 1]), T=10.0, step=1e-2)
    drift = max(
        float(np.max(np.abs(tr.q[:, 0] - q0.x))),
        float(np.max(np.abs(tr.q[:, 1] - q0.y))),
        speed_drift(tr),
    )
    return drift


def _sectional_deviation(seed):
    spec = MetricSpec.product(1.0)
    worst = 0.0
    for p in _seeded_points(seed, 50):
        cs = curvature_at(spec, p)
        worst = max(
            worst,
            abs(cs.sectionals[(0, 1)] + 1.0),
            abs(cs.sectionals[(0, 2)]),
            abs(cs.sectionals[(1, 2)]),
        )
    return worst


def _ricci_deviation(seed):
    spec = MetricSpec.product(1.0)
    target = np.diag([-1.0, -1.0, 0.0])
    worst = 0.0
    for p in _seeded_points(seed, 50):
        cs = curvature_at(spec, p)
        g = np.diag([1.0 / p.y**2, 1.0 / p.y**2, spec.L**2])
        orth = cs.ricci / np.sqrt(np.outer(np.diag(g), np.diag(g)))
        worst = max(worst, float(np.max(np.abs(orth - target))))
    return worst


def _product_scan_detections(seed):
    rows = jacobi.scan_conjugate_points(
        MetricSpec.product(1.0), count=12, Tmax=20.0, step=1e-3, seed=seed
    )
    return sum(1 for r in rows if r.t_star is not None)


def _central_run():
    """JacobiRun of the central vertical geodesic of WARPED_SPEC to CENTRAL_T, step 1e-3.

    RK4, the half-step R_perp grid and the Jacobi pair are causal, so its
    samples up to FREQUENCY_FIT_T have the bits of a run to that time.
    """
    v0 = unit_vector(WARPED_SPEC, CENTER, [0, 0, 1])
    tr = integrate_geodesic(WARPED_SPEC, CENTER, v0, T=CENTRAL_T, step=1e-3)
    return jacobi.propagate_jacobi(tr)


def _warped_conjugate(run):
    if not run.conjugates:
        raise NumericsError("no conjugate point detected on the central geodesic",
                            Tmax=CENTRAL_T)
    return run.conjugates[0]


def _warped_frequency(run):
    n = int(np.searchsorted(run.times, FREQUENCY_FIT_T, side="right"))
    return jacobi.fit_frequency(run.times[:n], run.A[:n, 0, 0])


def _rauch_equality(seed):
    spec = MetricSpec.product(1.0)
    q0 = ChartPoint(0.0, 1.0, 0.0)
    tr = integrate_geodesic(spec, q0, unit_vector(spec, q0, [1, 0, 0]), T=5.0, step=1e-3)
    rep = jacobi.rauch_check(jacobi.propagate_jacobi(tr), k_min=-1.0)
    return max(c.max_abs_margin_rel for c in rep.cases)


def _stable_riccati(seed):
    spec = MetricSpec.product(1.0)
    q0 = ChartPoint(0.0, 1.0, 0.0)
    tr = integrate_geodesic(spec, q0, unit_vector(spec, q0, [0, 1, 0]), T=40.0, step=1e-3)
    run, _ = jacobi.riccati_stable_limit(tr, T=20.0)
    return float(run.U[0, 0, 0])


def _riccati_average_product(seed):
    res = jacobi.riccati_average(
        MetricSpec.product(1.0), jacobi.BoxSampler(), n=100, seed=seed,
        anchor=20.0, step=1e-2,
    )
    return res.estimate


def _busemann_vertical(seed):
    worst = 0.0
    s = 30.0
    top = HPoint(0.0, math.exp(s))
    for p in _seeded_points(seed, 10, y_range=(0.5, 2.0), x_range=(-1.0, 1.0)):
        z = HPoint(p.x, p.y)
        worst = max(worst, abs((hyp_distance(z, top) - s) - (-math.log(z.y))))
    return worst


def _busemann_hessian(seed):
    worst = 0.0
    for z, t in ((HPoint(0.0, 1.0), 0.0), (HPoint(1.0, 2.0), 3.0)):
        x = asymptotics.ProductPoint(z, t)
        _, h = asymptotics.busemann_derivatives(1.0, x)
        worst = max(worst, float(np.max(np.abs(h[:2, :2]))), abs(h[2, 2]))
    return worst


def _busemann_gradient(seed):
    x = asymptotics.ProductPoint(HPoint(0.5, 1.5), 2.0)
    L = 2.0
    g, _ = asymptotics.busemann_derivatives(L, x)
    # unit length and fiber alignment: d_t b / L = -1, horizontal parts 0
    return max(abs(g[2] / L + 1.0), abs(g[0]), abs(g[1]))


def _busemann_sign(seed):
    # sign of d_t b relative to the fiber coordinate; +1 was printed
    x = asymptotics.ProductPoint(HPoint(0.0, 1.0), 1.0)
    return math.copysign(1.0, asymptotics.busemann_limit(1.0, x) / x.t)


def _spectral_gap(seed):
    sig = invariants.SigmaSpectrum((0.0, 0.25, 1.7))
    return invariants.spectral_gap(sig, 2.0 * math.pi)


def _spectrum_vs_bruteforce(seed):
    rng = np.random.default_rng([seed, 2])
    worst = 0.0
    for _ in range(5):
        evs = np.sort(rng.uniform(0.05, 6.0, size=6))
        sig = invariants.SigmaSpectrum((0.0, *evs))
        L = rng.uniform(0.5, 8.0)
        cutoff = rng.uniform(3.0, 25.0)
        fast = invariants.product_spectrum(sig, L, cutoff)
        brute = {}
        for lam in sig.eigenvalues:
            for n in range(-200, 201):
                val = lam + (2.0 * math.pi * n / L) ** 2
                if val <= cutoff:
                    brute[val] = brute.get(val, 0) + 1
        worst = max(worst, 0.0 if sorted(brute.items()) == fast else 1.0)
    return worst


def _translation_oracle(seed):
    """Min displacement min_p d(p, Mp), attained on the axis."""
    from scipy.optimize import minimize

    from .hyperbolic import mobius_apply

    m = MobiusElement(2.0, 1.0, 1.0, 1.0)  # trace 3

    def displacement(u):
        p = HPoint(u[0], math.exp(u[1]))
        return hyp_distance(p, mobius_apply(m, p))

    best = min(
        minimize(displacement, x0, method="Nelder-Mead",
                 options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 4000}).fun
        for x0 in ([0.0, 0.0], [1.0, 0.5], [-1.0, -0.5])
    )
    return best


def _mls_pythagoras(seed):
    return invariants.mls_length(3.0, 4, 1.0)


def _volume_entropy(seed):
    return asymptotics.volume_entropy(1.0, 30.0)


def _isoperimetric_gap(seed):
    row = invariants.tube_profiles(1.0, [1.0], 2.0, [])[0]
    return row.area_minus_bound


def _deviation_product(seed):
    res = invariants.curvature_deviation(
        MetricSpec.product(1.0), ((-1.0, 1.0), (0.5, 2.0), (0.0, 1.0)), 500, seed
    )
    return res.estimate


def _deviation_warped(seed):
    res = invariants.curvature_deviation(
        WARPED_SPEC, ((-1.2, 1.2), (0.4, 2.6), (0.0, 1.0)), 2000, seed
    )
    return res.estimate


def _shear_curvature(seed):
    alpha = 1e-3
    spec = MetricSpec.twisted(alpha, "log_y")
    cs = curvature_at(spec, ChartPoint(0.0, 1.0, 0.0))
    return cs.riemann[0, 2, 0, 2] / alpha


def _gap_eps0(seed):
    return invariants.epsilon0(2.0, math.pi, 1.0)[1]


def _moduli(seed):
    return float(invariants.moduli_dimension(2))


TRANSLATION_LENGTH_TRACE3 = 2.0 * math.acosh(1.5)

CLAIMS = (
    Claim("killing_vertical_geodesic", 0.0, 1e-12, _killing_vertical),
    Claim("example1_sectional_curvatures", 0.0, 1e-12, _sectional_deviation),
    Claim("example1_ricci", 0.0, 1e-12, _ricci_deviation),
    Claim("example1_no_conjugate_points", 0.0, 0.0, _product_scan_detections),
    Claim("example2_conjugate_distance", 7.20, 0.005 * 7.20, _warped_conjugate,
          reads_central_run=True),
    Claim("example2_oscillator_frequency", 0.436, 0.01 * 0.436, _warped_frequency,
          reads_central_run=True),
    Claim("rauch_split_equality", 0.0, 1e-6, _rauch_equality),
    Claim("stable_riccati_h2_factor", -1.0, 1e-4, _stable_riccati),
    Claim("riccati_trace_identity_product", 0.0, 1e-8, _riccati_average_product),
    Claim("busemann_vertical_ray", 0.0, 1e-9, _busemann_vertical),
    Claim("busemann_horizontal_hessian", 0.0, 1e-6, _busemann_hessian),
    Claim("busemann_gradient_killing", 0.0, 1e-6, _busemann_gradient),
    Claim("example6_busemann_sign", 1.0, None, _busemann_sign, report_only=True),
    Claim("example8_spectral_gap", 0.25, 0.0, _spectral_gap),
    Claim("product_spectrum_vs_enumeration", 0.0, 0.0, _spectrum_vs_bruteforce),
    Claim("translation_length_trace3", TRANSLATION_LENGTH_TRACE3, 1e-9, _translation_oracle),
    Claim("mls_pythagorean_triple", 5.0, 0.0, _mls_pythagoras),
    Claim("volume_entropy_curvature_minus_one", 1.0, 1e-2, _volume_entropy),
    Claim("entropy_genus2_normalization", math.sqrt(2.0), None, _volume_entropy,
          report_only=True),
    Claim("isoperimetric_disk_tube_r1", 0.0, None, _isoperimetric_gap,
          report_only=True),
    Claim("curvature_deviation_product", 0.0, 1e-10, _deviation_product),
    Claim("curvature_deviation_warped_positive", None, None, _deviation_warped,
          report_only=True),
    Claim("example3_shear_curvature", 1.0, 0.02, _shear_curvature),
    Claim("curvature_gap_eps0", 0.125, 0.0, _gap_eps0),
    Claim("example7_moduli_dimension", 7.0, 0.0, _moduli),
)


def evaluate_claims(seed: int = 0):
    """Evaluate every registered claim; deterministic in the seed."""
    runs = []   # the central run, built when a claim first reads it

    def central_run():
        if not runs:
            runs.append(_central_run())
        return runs[0]

    return [c.evaluate(seed, central_run) for c in CLAIMS]
