"""Layer micro-benchmarks: µs per point, per trajectory-step, per sample.

Each row times one public h2xr call on seeded inputs, repeats it until
at least `MIN_SECONDS` have passed (and at least `MIN_REPS` times), and
reports the median repetition divided by the work in it.  Tracing is off
while these run.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from h2xr import asymptotics, geodesics, jacobi, metrics
from h2xr.metrics import ChartPoint, MetricSpec

KINDS = {
    "product": MetricSpec.product(1.0),
    "warped": MetricSpec.warped(eps=0.1),
    "twisted": MetricSpec.twisted(1e-3, "log_y"),
}
BATCHES = (1, 32, 256)
# RK4 steps per timed call at each batch size, so that each call does
# enough work to time without the B = 1 Twisted row taking seconds.
RK4_STEPS = {1: 200, 32: 50, 256: 20}
STEP = 1e-3
CURVATURE_POINTS = 2000
RPERP_SAMPLES = 1000
PROPAGATE_STEPS = 2000
BALL_RADII = (20.0, 25.0, 30.0)
MIN_SECONDS = 0.2
MIN_REPS = 3


def _median_seconds(fn) -> float:
    times = []
    start = time.perf_counter()
    while len(times) < MIN_REPS or time.perf_counter() - start < MIN_SECONDS:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _box_points(rng, n):
    return np.column_stack([rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 2.0, n),
                            rng.uniform(0.0, 1.0, n)])


def _unit_directions(spec, q, rng):
    w = rng.normal(size=q.shape)
    g = metrics.metric_many(spec, q)
    return w / np.sqrt(np.einsum("bij,bi,bj->b", g, w, w))[:, None]


def run_micro(seed: int) -> dict:
    """Every micro-benchmark row, keyed by metric name (values in µs)."""
    rng = np.random.default_rng([seed, 11])
    out = {}
    points = _box_points(rng, CURVATURE_POINTS)
    for kind, spec in KINDS.items():
        sec = _median_seconds(lambda: metrics.curvature_tensor_many(spec, points))
        out[f"metrics.curvature_us_per_point.{kind}"] = 1e6 * sec / len(points)
    sec = _median_seconds(lambda: metrics.christoffel_many(KINDS["twisted"], points))
    out["metrics.christoffel_us_per_point.twisted"] = 1e6 * sec / len(points)

    for kind, spec in KINDS.items():
        for B in BATCHES:
            q0 = _box_points(rng, B)
            v0 = _unit_directions(spec, q0, rng)
            steps = RK4_STEPS[B]
            sec = _median_seconds(
                lambda: geodesics.integrate_geodesic_batch(spec, q0, v0, steps * STEP, STEP))
            out[f"geodesics.rk4_us_per_traj_step.{kind}.B{B}"] = 1e6 * sec / (B * steps)

    for kind, spec in KINDS.items():
        q0 = _box_points(rng, 1)
        v0 = _unit_directions(spec, q0, rng)
        traj = geodesics.integrate_geodesic_batch(
            spec, q0, v0, (RPERP_SAMPLES - 1) * STEP, STEP)[0]
        sec = _median_seconds(lambda: jacobi.normal_curvature_samples(traj))
        out[f"jacobi.rperp_us_per_sample.{kind}"] = 1e6 * sec / traj.n_samples

    spec = KINDS["product"]
    q0 = ChartPoint(*_box_points(rng, 1)[0])
    v0 = _unit_directions(spec, q0.as_array()[None, :], rng)[0]
    traj = geodesics.integrate_geodesic(spec, q0, v0, PROPAGATE_STEPS * STEP, STEP)
    rperp = jacobi.normal_curvature_samples(traj)
    sec = _median_seconds(lambda: jacobi.companion_propagator(traj, rperp))
    out["jacobi.propagate_us_per_step"] = 1e6 * sec / (traj.n_samples - 1)

    sec = _median_seconds(lambda: [asymptotics.ball_volume(1.0, r) for r in BALL_RADII])
    out["asymptotics.ball_volume_us"] = 1e6 * sec / len(BALL_RADII)
    return out
