"""The ledger's claims: the shared central Warped run of Example 2."""

import time
from types import SimpleNamespace

import numpy as np

from h2xr import claims, jacobi
from h2xr.geodesics import integrate_geodesic, unit_vector

T_STAR = 7.198293069112671
OMEGA = 0.4364357804719843


def test_central_run_built_once_per_evaluate_claims(monkeypatch):
    # both Example 2 claims read one run per call, and nothing outlives the call
    example2 = tuple(c for c in claims.CLAIMS if c.claim_id.startswith("example2_"))
    assert len(example2) == 2
    monkeypatch.setattr(claims, "CLAIMS", example2)
    calls = []

    def counting(spec, q0, *args, **kwargs):
        calls.append((spec, q0))
        return integrate_geodesic(spec, q0, *args, **kwargs)

    monkeypatch.setattr(claims, "integrate_geodesic", counting)
    for n in (1, 2):
        records = claims.evaluate_claims(0)
        assert len(calls) == n
        assert [r.computed for r in records] == [T_STAR, OMEGA]
        assert [r.status for r in records] == ["MATCH", "MATCH"]
    assert calls == [(claims.WARPED_SPEC, claims.CENTER)] * 2


def test_frequency_window_is_a_prefix_of_the_central_run():
    # RK4, the half-step grid and the Jacobi pair are causal: a run to
    # t = 7 has the bits of the central run's first 7,001 samples
    v0 = unit_vector(claims.WARPED_SPEC, claims.CENTER, [0, 0, 1])
    short = jacobi.propagate_jacobi(
        integrate_geodesic(claims.WARPED_SPEC, claims.CENTER, v0, T=claims.FREQUENCY_FIT_T, step=1e-3))
    central = claims._central_run()
    n = short.traj.n_samples
    assert n == 7001 and central.traj.n_samples == 10001
    assert np.array_equal(short.times, central.times[:n])
    assert np.array_equal(short.traj.q, central.traj.q[:n])
    assert np.array_equal(short.A, central.A[:n])
    assert jacobi.fit_frequency(short.times, short.A[:, 0, 0]) == OMEGA
    assert claims._warped_frequency(central) == OMEGA
    assert claims._warped_conjugate(central) == T_STAR


def test_first_reader_of_the_central_run_is_charged_for_building_it(monkeypatch):
    example2 = tuple(c for c in claims.CLAIMS if c.claim_id.startswith("example2_"))
    monkeypatch.setattr(claims, "CLAIMS", example2)
    times = np.linspace(0.0, 10.0, 1001)
    A = np.zeros((len(times), 2, 2))
    A[:, 0, 0] = np.sin(OMEGA * times) / OMEGA
    jacobi.fit_frequency(times, A[:, 0, 0])   # scipy.optimize is imported before the timing

    def slow_run():
        time.sleep(0.3)
        return SimpleNamespace(conjugates=[T_STAR], times=times, A=A)

    monkeypatch.setattr(claims, "_central_run", slow_run)
    first, second = claims.evaluate_claims(0)
    assert first.seconds >= 0.3 > second.seconds
