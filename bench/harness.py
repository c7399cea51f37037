"""Closed-loop workload runs, set-up probes, traced runs and gate headroom.

One client runs one job at a time: the next job starts only after the
previous one has returned and been checked.  Jobs call the h2xr CLI entry
point in this process, so a job is exactly what `h2xr <subcommand>` does
after start-up; start-up itself is measured separately as setup_s, in
fresh interpreters.
"""

from __future__ import annotations

import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from h2xr import cli

import micro
import workloads
from spans import LAYERS, Tracer, summarize

END_TO_END = {
    "setup_s": "s",
    "job_s": "s",
    "job_cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}

# Per-layer metrics measured on every workload by the traced run; the
# layer -> end-to-end map is in README.md.
TRACED_LAYER = {
    "metrics.self_s": "s",
    "metrics.curvature_points": "count",
    "geodesics.self_s": "s",
    "geodesics.traj_steps": "count",
    "geodesics.truncated_rows": "count",
    "jacobi.self_s": "s",
    "cli.self_s": "s",
    "cli.write_s": "s",
    "config.load_s": "s",
    "trace.job_s": "s",
    "trace.overhead_s": "s",
}
MICRO_LAYER = {
    **{f"metrics.curvature_us_per_point.{k}": "us" for k in micro.KINDS},
    "metrics.christoffel_us_per_point.twisted": "us",
    **{f"geodesics.rk4_us_per_traj_step.{k}.B{b}": "us"
       for k in micro.KINDS for b in micro.BATCHES},
    **{f"jacobi.rperp_us_per_sample.{k}": "us" for k in micro.KINDS},
    "jacobi.propagate_us_per_step": "us",
    "asymptotics.ball_volume_us": "us",
}
PER_LAYER = {**MICRO_LAYER, **TRACED_LAYER}

SETUP_PROBES = 5
GATES = {"criterion_01_warped_conjugate_point": 5.0,
         "criterion_02_product_scan_200": 120.0}


@dataclass
class JobResult:
    wall: float
    cpu: float
    ok: bool
    error: str = ""
    outputs: dict = field(default_factory=dict, repr=False)


def src_line_count(root: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((root / "src").rglob("*.py")))


def machine_block(root: Path) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_THREADS") or k == "H2XR_WORKERS"},
        "src_lines": src_line_count(root),
        "loadavg_before": list(os.getloadavg()),
    }


def time_setup(root: Path, job: workloads.Job) -> list:
    """Seconds from a fresh interpreter to a parsed config, SETUP_PROBES times.

    One unmeasured probe runs first, so byte-code caches are written
    before timing, as they are after a user's first run.
    """
    argv = job.calls[0]
    extra = [argv[2]] if len(argv) > 2 and argv[1] == "--config" else []
    cmd = [sys.executable, str(Path(__file__).with_name("setup_probe.py")),
           str(root / "src"), argv[0], *extra]
    times = []
    for k in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL)
        if k:
            times.append(time.perf_counter() - t0)
    return times


def run_job(job: workloads.Job, rep_dir: Path, reference: dict | None) -> JobResult:
    """Run every call of a job, check the output, compare it to `reference`."""
    outs = [rep_dir / str(k) for k in range(len(job.calls))]
    wall = cpu = None
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        codes = [cli.main([*argv, "--out", str(out)]) for argv, out in zip(job.calls, outs)]
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        if any(codes):
            raise workloads.CheckFailed(f"exit codes {codes}")
        job.check(outs)
        outputs = workloads.output_bytes(outs)
        if reference is not None and outputs != reference:
            raise workloads.CheckFailed("CSV output differs from the run's first repetition")
        return JobResult(wall, cpu, True, outputs=outputs)
    except Exception as exc:  # job boundary: a failed job is counted, not fatal
        if wall is None:  # the program raised; otherwise the check failed
            wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        traceback.print_exc(file=sys.stderr)
        return JobResult(wall, cpu, False, error=f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(rep_dir, ignore_errors=True)


def closed_loop(job, seconds, work: Path, results: list, tracer=None) -> list:
    """Jobs one after another until the next would end past `seconds`.

    At least one job runs.  The first successful repetition of the run is
    the byte reference for every later one.
    """
    start = time.perf_counter()
    own = []
    while True:
        reference = next((r.outputs for r in results if r.ok), None)
        if tracer is not None:
            tracer.run_id = len(results)
        result = run_job(job, work / f"rep{len(results)}", reference)
        results.append(result)
        own.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r.wall for r in own) > seconds:
            return own


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: Path, tiny: bool = False) -> dict:
    """One benchmark run; returns the report, with the JSON result line in it."""
    machine = machine_block(root)
    run_dir = root / ".bench_run"
    work = run_dir / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    job = workloads.make_job(workload, seed, work / "inputs", tiny=tiny)
    results = []
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine}
    try:
        if not trace:
            setup = time_setup(root, job)
            own = closed_loop(job, seconds, work, results)
            metrics = {
                "setup_s": statistics.median(setup),
                "job_s": statistics.median(r.wall for r in own),
                "job_cpu_s": statistics.median(r.cpu for r in own),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "ok_share": sum(r.ok for r in results) / len(results),
            }
            units = END_TO_END
            report["setup_samples_s"] = setup
        else:
            values = micro.run_micro(seed)
            closed_loop(job, 0.0, work, results)  # untraced reference job
            with Tracer() as tracer:
                traced = closed_loop(job, seconds, work, results, tracer)
            layer_values, report["layers"] = _layers(tracer, traced, results[0])
            values.update(layer_values)
            report["spans"] = tracer.spans
            metrics = {name: values[name] for name in PER_LAYER}
            units = PER_LAYER
    finally:
        shutil.rmtree(work, ignore_errors=True)
    machine["loadavg_after"] = list(os.getloadavg())
    failed = sum(not r.ok for r in results)
    report["jobs"] = [{"wall_s": r.wall, "cpu_s": r.cpu, "ok": r.ok, "error": r.error}
                      for r in results]
    report["result"] = {
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return report


def _layers(tracer, traced, reference):
    """Per-layer metrics of the traced jobs, and the full layer report.

    Times and counts are per traced job.  The report adds every layer's
    self and total time, each claim's time, and the sum of self times
    against the traced wall time it must add up to.
    """
    n = len(traced)
    layer_self, layer_total, by_name = summarize(tracer.spans)
    traced_wall = statistics.median(r.wall for r in traced)
    values = {f"{layer}.self_s": layer_self.get(layer, 0.0) / n
              for layer in ("metrics", "geodesics", "jacobi", "cli")}
    for name in ("metrics.curvature_points", "geodesics.traj_steps",
                 "geodesics.truncated_rows"):
        values[name] = tracer.counts.get(name, 0) / n
    values["cli.write_s"] = by_name.get("cli.write_outputs", 0.0) / n
    values["config.load_s"] = layer_total.get("config", 0.0) / n
    values["trace.job_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - reference.wall

    self_sum = sum(layer_self.values()) / n
    mean_wall = sum(r.wall for r in traced) / n
    report = {
        "self_s": {layer: layer_self.get(layer, 0.0) / n for layer in LAYERS},
        "total_s": {layer: layer_total.get(layer, 0.0) / n for layer in LAYERS},
        "invariants.curvature_deviation_s":
            by_name.get("invariants.curvature_deviation", 0.0) / n,
        "claims": {name.split(".", 1)[1] + ".s": t / n for name, t in by_name.items()
                   if name.startswith("claims.") and name != "claims.evaluate_claims"},
        "self_sum_s": self_sum,
        "traced_job_s": mean_wall,
        "unattributed_s": mean_wall - self_sum,
        "spans_per_job": len(tracer.spans) / n,
    }
    return values, report


def run_gates() -> dict:
    """Criteria 01 and 02 of the acceptance suite, timed once each.

    The calls are the acceptance tests' own, in this process, with the
    worker count the environment gives (as when the suite runs).
    """
    from h2xr import jacobi
    from h2xr.geodesics import unit_vector
    from h2xr.metrics import ChartPoint, MetricSpec

    warp, origin = MetricSpec.warped(eps=0.1), ChartPoint(0.0, 1.0, 0.0)
    rows = {}
    t0 = time.perf_counter()
    v0 = unit_vector(warp, origin, [0, 0, 1])
    t_star = jacobi.first_conjugate_point(warp, origin, v0, Tmax=10.0)
    elapsed = time.perf_counter() - t0
    ok = t_star is not None and bool(abs(t_star - 7.198) / 7.198 <= 0.005)
    rows["criterion_01_warped_conjugate_point"] = (elapsed, ok, {"t_star": t_star})

    t0 = time.perf_counter()
    scan = jacobi.scan_conjugate_points(MetricSpec.product(1.0), count=200, Tmax=50.0,
                                        step=1e-3, seed=0)
    elapsed = time.perf_counter() - t0
    detections = sum(1 for r in scan if r.t_star is not None)
    ok = len(scan) == 200 and detections == 0
    rows["criterion_02_product_scan_200"] = (
        elapsed, ok, {"detections": detections, "workers": jacobi.default_workers()})

    return {
        name: {"seconds": sec, "gate_s": GATES[name], "headroom_s": GATES[name] - sec,
               "headroom_share": 1.0 - sec / GATES[name], "within_gate": sec < GATES[name],
               "ok": ok, **info}
        for name, (sec, ok, info) in rows.items()
    }
