"""Command-line front end: config ingestion, experiments, CSV persistence.

Usage: h2xr <subcommand> [--config PATH] [--seed N] [--out DIR]

Exit codes: 0 success, 2 validation error, 3 numerical failure.  Data
CSVs are byte-identical for identical (config, seed); wall time and
versions live only in the run manifest.  The only environment knob is
H2XR_WORKERS (worker count for batch scans).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, asymptotics, claims, invariants, jacobi
from .config import JobConfig, build_config, load_config
from .errors import DomainError, NumericsError
from .geodesics import integrate_geodesic, unit_vector
from .hyperbolic import HPoint, load_generators
from .metrics import ChartPoint

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    """CSV with the documented header, '.'-decimals and LF endings."""
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _numpy_cpu_dispatch() -> list[str]:
    """numpy's CPU dispatch targets that are enabled on this host, as np.show_runtime reads them."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    return [t for t in __cpu_dispatch__ if __cpu_features__.get(t)]


def write_outputs(out_dir: Path, tables: dict, cfg: JobConfig, summary: dict,
                  started: float) -> list[str]:
    """Write data CSVs plus the run manifest; returns the file names."""
    out_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for name, (header, rows) in tables.items():
        write_csv(out_dir / name, header, rows)
        names.append(name)
    manifest = {
        "job": cfg.job,
        "config": cfg.echo,
        "seed": cfg.params.get("seed", 0),
        "outputs": names,
        "summary": summary,
        "versions": {
            "h2xr": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
            # the bits of numpy's transcendental loops and of BLAS follow these
            "numpy_cpu_dispatch": _numpy_cpu_dispatch(),
            "openblas_coretype": os.environ.get("OPENBLAS_CORETYPE"),
        },
        "wall_time_s": time.perf_counter() - started,
    }
    with (out_dir / "manifest.json").open("w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return names


def _point(p) -> ChartPoint:
    return ChartPoint(p["q0_x"], p["q0_y"], p["q0_t"])


def _product_L(cfg: JobConfig) -> float:
    """L of the Product metric, for the jobs whose formulas hold only there."""
    if cfg.metric.kind != "Product":
        raise DomainError(f"job {cfg.job!r} requires the Product metric, got {cfg.metric.kind!r}")
    return cfg.metric.L


def _box(p):
    return ((p["box_x0"], p["box_x1"]), (p["box_y0"], p["box_y1"]),
            (p["box_t0"], p["box_t1"]))


# ---------------------------------------------------------------------------
# subcommand handlers: JobConfig -> (tables, summary)
# ---------------------------------------------------------------------------

def _run_scan_conjugate(cfg: JobConfig):
    p = cfg.params
    rows = jacobi.scan_conjugate_points(
        cfg.metric, count=p["count"], Tmax=p["Tmax"], step=p["step"], seed=p["seed"]
    )
    table = [
        (r.index, *r.q0, *r.v0, r.t_star, r.det_min)
        for r in rows
    ]
    header = ["seed", "q0_x", "q0_y", "q0_t", "v0_x", "v0_y", "v0_t",
              "t_star", "det_min"]
    summary = {
        "detections": sum(1 for r in rows if r.t_star is not None),
        "truncated": sum(1 for r in rows if r.truncated),
    }
    return {"scan_conjugate.csv": (header, table)}, summary


def _run_jacobi(cfg: JobConfig):
    p = cfg.params
    q0 = _point(p)
    v0 = unit_vector(cfg.metric, q0, [p["v0_x"], p["v0_y"], p["v0_t"]])
    traj = integrate_geodesic(cfg.metric, q0, v0, T=p["T"], step=p["step"])
    run = jacobi.propagate_jacobi(traj)
    table = [
        (run.times[k], run.A[k, 0, 0], run.A[k, 0, 1], run.A[k, 1, 0],
         run.A[k, 1, 1], run.dets[k])
        for k in range(len(run.times))
    ]
    header = ["t", "A11", "A12", "A21", "A22", "det_A"]
    summary = {
        "conjugates": [float(t) for t in run.conjugates],
        "truncated": traj.truncated,
        "wronskian_drift": jacobi.wronskian_drift(run),
    }
    return {"jacobi.csv": (header, table)}, summary


def _run_riccati_stable(cfg: JobConfig):
    p = cfg.params
    q0 = _point(p)
    v0 = unit_vector(cfg.metric, q0, [p["v0_x"], p["v0_y"], p["v0_t"]])
    traj = integrate_geodesic(cfg.metric, q0, v0, T=p["T"], step=p["step"])
    run = jacobi.riccati_stable(traj, p["anchor"])
    table = [
        (run.times[k], run.U[k, 0, 0], run.U[k, 0, 1], run.U[k, 1, 1])
        for k in range(len(run.times))
    ]
    header = ["t", "U11", "U12", "U22"]
    summary = {"anchor": run.T_anchor, "U0": run.U[0].tolist()}
    return {"riccati_stable.csv": (header, table)}, summary


def _run_riccati_average(cfg: JobConfig):
    p = cfg.params
    if p["sampler"] == "point":
        sampler = jacobi.PointSampler(_point(p))
    else:
        sampler = jacobi.BoxSampler(*_box(p))
    res = jacobi.riccati_average(
        cfg.metric, sampler, n=p["N"], seed=p["seed"],
        anchor=p["anchor"], step=p["step"],
    )
    header = ["estimate", "std_error", "n_samples", "n_rejected"]
    table = [(res.estimate, res.std_error, res.n_samples, res.n_rejected)]
    return {"riccati_average.csv": (header, table)}, {"estimate": res.estimate}


def _run_busemann(cfg: JobConfig):
    p = cfg.params
    L = _product_L(cfg)
    x = asymptotics.ProductPoint(HPoint(p["q0_x"], p["q0_y"]), p["q0_t"])
    s_grid = np.linspace(1.0, p["s_max"], p["s_count"])
    table = [(s, asymptotics.busemann_estimate(L, x, s)) for s in s_grid]
    grad, hess = asymptotics.busemann_derivatives(L, x)
    checks = [
        ("limit", asymptotics.busemann_limit(L, x)),
        ("hess_xx", hess[0, 0]),
        ("hess_xy", hess[0, 1]),
        ("hess_yy", hess[1, 1]),
        ("hess_vv", hess[2, 2] / (L * L)),
        ("grad_x", grad[0]),
        ("grad_y", grad[1]),
        ("grad_t_over_L", grad[2] / L),
    ]
    return (
        {
            "busemann.csv": (["s", "b_estimate"], table),
            "busemann_checks.csv": (["quantity", "value"], checks),
        },
        {"limit": asymptotics.busemann_limit(L, x)},
    )


def _run_volume_growth(cfg: JobConfig):
    p = cfg.params
    radii = np.linspace(2.0, p["R_max"], p["R_count"])
    table = []
    for r in radii:
        vol = asymptotics.ball_volume(1.0, float(r), p["kappa"])
        table.append((r, vol, math.log(vol) / r))
    h = asymptotics.volume_entropy(1.0, p["R_max"], p["kappa"])
    header = ["R", "volume", "entropy_running"]
    return {"volume_growth.csv": (header, table)}, {"volume_entropy": h}


def _run_spectrum(cfg: JobConfig):
    p = cfg.params
    L = _product_L(cfg)
    sig = invariants.SigmaSpectrum.from_file(p["sigma_file"])
    pairs = invariants.product_spectrum(sig, L, p["cutoff"])
    gap = invariants.spectral_gap(sig, L) if any(v > 0 for v in sig.eigenvalues) else None
    header = ["eigenvalue", "multiplicity"]
    summary = {"count": len(pairs), "spectral_gap": gap}
    return {"spectrum.csv": (header, pairs)}, summary


def _run_length_spectrum(cfg: JobConfig):
    p = cfg.params
    L = _product_L(cfg)
    gens = load_generators(p["generators_file"])
    entries = invariants.enumerate_length_spectrum(
        gens, max_word=p["max_word"], L=L, n_max=p["n_max"]
    )
    header = ["word", "trace", "ell_sigma", "n", "ell"]
    table = [(e.word, e.trace, e.ell_sigma, e.n, e.ell) for e in entries]
    return {"length_spectrum.csv": (header, table)}, {"count": len(entries)}


def _run_isoperimetric(cfg: JobConfig):
    p = cfg.params
    L = _product_L(cfg)
    rows = invariants.tube_profiles(L, p["r_list"], p["ell"], p["w_list"])
    header = ["kind", "param", "volume", "area", "bound", "area_minus_bound",
              "ratio", "status"]
    table = [
        (r.kind, r.param, r.volume, r.area, r.bound, r.area_minus_bound,
         r.ratio, r.status)
        for r in rows
    ]
    tables = {"isoperimetric.csv": (header, table)}
    if p["v_list"]:
        tables["isoperimetric_bound.csv"] = (
            ["v", "bound"],
            [(v, invariants.isoperimetric_bound(v, L)) for v in p["v_list"]],
        )
    violations = sum(1 for r in rows if r.status == "area<bound")
    return tables, {"bound_violations": violations}


def _run_curvature_deviation(cfg: JobConfig):
    p = cfg.params
    res = invariants.curvature_deviation(cfg.metric, _box(p), p["N"], p["seed"])
    header = ["estimate", "std_error", "n_samples"]
    return (
        {"curvature_deviation.csv": (header, [(res.estimate, res.std_error, res.n_samples)])},
        {"estimate": res.estimate},
    )


def _run_gap_constant(cfg: JobConfig):
    p = cfg.params
    delta, eps0 = invariants.epsilon0(p["lambda1"], _product_L(cfg), p["diam"])
    return {"gap_constant.csv": (["delta", "eps0"], [(delta, eps0)])}, {"eps0": eps0}


def _run_moduli_dim(cfg: JobConfig):
    p = cfg.params
    dim = invariants.moduli_dimension(p["genus"])
    return (
        {"moduli_dim.csv": (["genus", "dimension"], [(p["genus"], dim)])},
        {"dimension": dim},
    )


def _run_ledger(cfg: JobConfig):
    records = claims.evaluate_claims(cfg.params["seed"])
    header = ["claim_id", "paper_value", "computed", "tolerance", "status"]
    table = [
        (r.claim_id, r.paper_value, r.computed, r.tolerance, r.status)
        for r in records
    ]
    summary = {
        "match": sum(1 for r in records if r.status == "MATCH"),
        "mismatch": sum(1 for r in records if r.status == "MISMATCH"),
        "report_only": sum(1 for r in records if r.status == "REPORT_ONLY"),
        "claim_seconds": {r.claim_id: r.seconds for r in records},
    }
    return {"claims.csv": (header, table)}, summary


HANDLERS = {
    "scan-conjugate": _run_scan_conjugate,
    "jacobi": _run_jacobi,
    "riccati-stable": _run_riccati_stable,
    "riccati-average": _run_riccati_average,
    "busemann": _run_busemann,
    "volume-growth": _run_volume_growth,
    "spectrum": _run_spectrum,
    "length-spectrum": _run_length_spectrum,
    "isoperimetric": _run_isoperimetric,
    "curvature-deviation": _run_curvature_deviation,
    "gap-constant": _run_gap_constant,
    "moduli-dim": _run_moduli_dim,
    "ledger": _run_ledger,
}


def run_subcommand(argv) -> int:
    """Parse argv, run the job, write outputs; returns the exit code."""
    parser = argparse.ArgumentParser(prog="h2xr", add_help=True)
    parser.add_argument("subcommand", choices=sorted(HANDLERS), metavar="subcommand")
    parser.add_argument("--config", default=None, help="config file (text or JSON)")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", default="h2xr_out", help="output directory")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_VALIDATION

    started = time.perf_counter()
    try:
        if args.config is None:
            cfg = build_config({}, args.subcommand)
        else:
            cfg = load_config(args.config, args.subcommand)
        cfg = cfg.seeded(args.seed)
        tables, summary = HANDLERS[cfg.job](cfg)
        write_outputs(Path(args.out), tables, cfg, summary, started)
    except DomainError as exc:
        print(f"h2xr: validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"h2xr: i/o error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericsError as exc:
        info = f" {exc.info}" if exc.info else ""
        print(f"h2xr: numerical failure: {exc}{info}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def main(argv=None) -> int:
    return run_subcommand(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
