"""Benchmark workloads: inputs generated from the benchmark seed, and checks.

Each workload turns the seed into the inputs of one job: a list of h2xr
CLI calls (argv without `--out`) plus a check that reads the files those
calls wrote and raises `CheckFailed` when they are wrong.  The program
sees only the generated config files and arguments.

Why these three (see README.md for the metric map, and for why
BENCHMARK.json lists only scan_product and ledger):

- scan_product: `h2xr scan-conjugate` on Product (L = 1), one whole
  32-row chunk (SCAN_CHUNK) at the acceptance horizon (Tmax = 50, step
  1e-3).  The batched B = 32 path; FD curvature slabs are about a third
  of its time.  Product has no conjugate points, so root refinement is
  bypassed: the "no change" side for detection work.  Most rows hit
  Y_FLOOR, so it also shows the work recharting would add.
- jacobi_twisted: `h2xr jacobi` on Twisted (alpha = 1e-3), once per
  shipped potential, from a seeded start and direction over a short
  horizon.  The only workload where Twisted geodesics run: B = 1 through
  the generic finite-difference Christoffel branch of the RK4 right-hand
  side.
- ledger: `h2xr ledger --seed S`, every registered claim.  B = 1 Product
  RK4 over 40k steps, the warped central geodesic with its tangential
  double root, backward Riccati at two anchors, `riccati_average` at
  B = 100, and the asymptotics/invariants closed forms and quadrature.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("scan_product", "jacobi_twisted", "ledger")

SCAN_CHUNK = 32
# The scan's row draws are fixed to the first chunk of the acceptance scan
# (criterion 02, seed 0).  How long a product row lives before Y_FLOOR
# depends on its draw, and between scan seeds the work of one chunk moves
# by about 20%, which would swamp any change the benchmark has to resolve.
SCAN_SEED = 0
JACOBI_T = 0.5
JACOBI_STEP = 1e-3
POTENTIALS = ("log_y", "x")
WRONSKIAN_TOL = 1e-14
CONJUGATE_DISTANCE_TOL = 1e-6
OMEGA_WARPED = math.sqrt(0.2 / 1.05)

# Ledger status of every claim at the commit that defined the benchmark.
EXPECTED_STATUS = {
    "killing_vertical_geodesic": "MATCH",
    "example1_sectional_curvatures": "MATCH",
    "example1_ricci": "MATCH",
    "example1_no_conjugate_points": "MATCH",
    "example2_conjugate_distance": "MATCH",
    "example2_oscillator_frequency": "MATCH",
    "rauch_split_equality": "MATCH",
    "stable_riccati_h2_factor": "MATCH",
    "riccati_trace_identity_product": "MATCH",
    "busemann_vertical_ray": "MATCH",
    "busemann_horizontal_hessian": "MATCH",
    "busemann_gradient_killing": "MATCH",
    "example6_busemann_sign": "REPORT_ONLY",
    "example8_spectral_gap": "MATCH",
    "product_spectrum_vs_enumeration": "MATCH",
    "translation_length_trace3": "MATCH",
    "mls_pythagorean_triple": "MATCH",
    "volume_entropy_curvature_minus_one": "MATCH",
    "entropy_genus2_normalization": "REPORT_ONLY",
    "isoperimetric_disk_tube_r1": "REPORT_ONLY",
    "curvature_deviation_product": "MATCH",
    "curvature_deviation_warped_positive": "REPORT_ONLY",
    "example3_shear_curvature": "MATCH",
    "curvature_gap_eps0": "MATCH",
    "example7_moduli_dimension": "MATCH",
}


class CheckFailed(Exception):
    """A job's output is wrong."""


@dataclass(frozen=True)
class Job:
    """The CLI calls of one job and the check of their output directories."""

    calls: list          # argv lists, each without --out
    check: object        # check(out_dirs) -> None, raises CheckFailed


def _write_config(path: Path, values: dict) -> str:
    path.write_text("".join(f"{k}: {v!r}\n" if isinstance(v, float) else f"{k}: {v}\n"
                            for k, v in values.items()), encoding="utf-8")
    return str(path)


def _read_csv(path: Path):
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{path.name} is empty")
    return rows[0], rows[1:]


def _summary(out: Path) -> dict:
    with (out / "manifest.json").open(encoding="utf-8") as fh:
        return json.load(fh)["summary"]


def make_job(workload: str, seed: int, workdir: Path, tiny: bool = False) -> Job:
    """Inputs of one job of `workload` for benchmark seed `seed`.

    `tiny` shrinks every size so the whole path runs in about a second;
    for the ledger it keeps the registry as it is at run time.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "scan_product":
        count = 2 if tiny else SCAN_CHUNK
        cfg = _write_config(workdir / "scan_product.txt", {
            "kind": "Product", "L": 1.0, "count": count,
            "Tmax": 0.2 if tiny else 50.0, "step": 1e-3, "seed": SCAN_SEED,
        })
        return Job([["scan-conjugate", "--config", cfg]],
                   lambda outs: check_scan(outs, count))
    if workload == "jacobi_twisted":
        rng = np.random.default_rng([seed, 7])
        q0 = (rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0), rng.uniform(0.0, 1.0))
        v0 = rng.normal(size=3)
        T = 0.02 if tiny else JACOBI_T
        calls = []
        for potential in POTENTIALS:
            cfg = _write_config(workdir / f"jacobi_{potential}.txt", {
                "kind": "Twisted", "alpha": 1e-3, "potential": potential,
                "q0_x": float(q0[0]), "q0_y": float(q0[1]), "q0_t": float(q0[2]),
                "v0_x": float(v0[0]), "v0_y": float(v0[1]), "v0_t": float(v0[2]),
                "T": T, "step": JACOBI_STEP,
            })
            calls.append(["jacobi", "--config", cfg])
        n_samples = int(round(T / JACOBI_STEP)) + 1
        return Job(calls, lambda outs: check_jacobi(outs, n_samples))
    if workload == "ledger":
        if tiny:
            from h2xr import claims
            expected = [c.claim_id for c in claims.CLAIMS]
        else:
            expected = list(EXPECTED_STATUS)
        return Job([["ledger", "--seed", str(seed)]],
                   lambda outs: check_ledger(outs, expected))
    raise ValueError(f"unknown workload {workload!r}")


def check_scan(outs, count: int) -> None:
    """0 detections, one row per requested index, in index order."""
    (out,) = outs
    header, rows = _read_csv(out / "scan_conjugate.csv")
    if header[0] != "seed" or "t_star" not in header:
        raise CheckFailed(f"unexpected scan header {header}")
    indices = [int(r[0]) for r in rows]
    if indices != list(range(count)):
        raise CheckFailed(f"scan rows {indices[:5]}... do not match indices 0..{count - 1}")
    t_col = header.index("t_star")
    detections = sum(1 for r in rows if r[t_col] != "")
    if detections or _summary(out)["detections"] != 0:
        raise CheckFailed(f"product scan reported {detections} conjugate points")


def check_jacobi(outs, n_samples: int) -> None:
    """No conjugate points and round-off Wronskian drift, per potential."""
    for out in outs:
        summary = _summary(out)
        if summary["conjugates"]:
            raise CheckFailed(f"conjugate points {summary['conjugates']} on a short Twisted run")
        if summary["truncated"]:
            raise CheckFailed("short Twisted run was truncated")
        if not summary["wronskian_drift"] <= WRONSKIAN_TOL:
            raise CheckFailed(f"Wronskian drift {summary['wronskian_drift']} > {WRONSKIAN_TOL}")
        _, rows = _read_csv(out / "jacobi.csv")
        if len(rows) != n_samples:
            raise CheckFailed(f"jacobi.csv has {len(rows)} rows, expected {n_samples}")


def check_ledger(outs, expected_ids) -> None:
    """Every claim present with the status it had when the benchmark was set."""
    (out,) = outs
    _, rows = _read_csv(out / "claims.csv")
    ids = [r[0] for r in rows]
    if ids != list(expected_ids):
        raise CheckFailed(f"ledger claims {ids} differ from {list(expected_ids)}")
    for claim_id, _, computed, _, status in rows:
        if status != EXPECTED_STATUS.get(claim_id):
            raise CheckFailed(f"{claim_id}: status {status}, expected {EXPECTED_STATUS.get(claim_id)}")
        if claim_id == "example2_conjugate_distance":
            err = abs(float(computed) - math.pi / OMEGA_WARPED)
            if not err <= CONJUGATE_DISTANCE_TOL:
                raise CheckFailed(f"conjugate distance off pi/omega by {err}")


def output_bytes(outs) -> dict:
    """CSV bytes of a job, keyed by call index and file name."""
    return {(k, p.name): p.read_bytes()
            for k, out in enumerate(outs) for p in sorted(out.glob("*.csv"))}

