"""Check that two source trees write byte-identical data CSVs.

    python3 tools/same_outputs.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are the `src` directories of two checkouts, e.g. a
`git archive` of the parent commit and the working tree.  Every job of
JOBS runs once per tree as `python -m h2xr.cli` in a fresh process, with
PYTHONPATH set to that tree and the job's H2XR_WORKERS.  The scans run at
one and at two workers.  One line is printed per job; a CSV that differs
also gets its largest absolute change over the numeric cells the two
trees share and its largest change relative to a column's magnitude,
each with its column.  A job that exits non-zero must print the same
one-line diagnostic on stderr in both trees.  The exit status is 0 when
every job exits with the same code in both trees, with the same
diagnostic if that code is not 0, and writes the same CSV files with the
same bytes, and 1 otherwise.  manifest.json is
not compared: it holds wall times and versions.  A full run takes a few
minutes on two cores.

Code that calls BLAS (numpy's `@` on float arrays, for one) can give
other bits under another OpenBLAS kernel: an FMA kernel rounds a
product's sum once, a non-FMA kernel twice.  OpenBLAS picks its kernel
from the CPU, so run both trees under one pinned kernel, e.g. with
OPENBLAS_CORETYPE=Nehalem in the environment, to compare a change to
such code.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_CENTRAL = "kind: Warped\neps: 0.1\nv0_x: 0\nv0_t: 1\n"
_SLANTED = "kind: Warped\neps: 0.1\nq0_x: 0.1\nq0_y: 0.9\nv0_x: 0.3\nv0_y: 0.2\nv0_t: 1\n"

# (label, subcommand, config text, H2XR_WORKERS)
JOBS = [
    ("jacobi-warped-central", "jacobi", _CENTRAL + "T: 10\n", 1),
    ("jacobi-warped-slanted", "jacobi", _SLANTED + "T: 8\n", 1),
    # vertical rows on orbits of d_t off the centre: outside the warp ball
    # (phi == 1) and on Twisted with alpha = 0; both are filled after one step
    ("jacobi-warped-outside-vertical", "jacobi",
     "kind: Warped\neps: 0.1\nq0_x: 5\nv0_x: 0\nv0_t: 1\nT: 10\n", 1),
    ("jacobi-twisted-alpha0-vertical", "jacobi",
     "kind: Twisted\nalpha: 0\nv0_x: 0\nv0_t: 1\nT: 5\n", 1),
    # far outside the warp ball, straight down: the lone row is cut at Y_FLOOR
    ("jacobi-warped-floor", "jacobi",
     "kind: Warped\neps: 0.1\nq0_x: 5\nq0_y: 1\nv0_x: 0\nv0_y: -1\nv0_t: 0\nT: 20\nstep: 0.01\n", 1),
    # Product, straight down: the lone row is cut at Y_FLOOR
    ("jacobi-product-floor", "jacobi",
     "kind: Product\nv0_x: 0\nv0_y: -1\nv0_t: 0\nT: 20\nstep: 0.01\n", 1),
    ("jacobi-twisted-x", "jacobi",
     "kind: Twisted\npotential: x\nalpha: 0.05\nv0_x: 1\nv0_y: 0.3\nv0_t: 0.5\nT: 5\n", 1),
    ("jacobi-twisted-log_y", "jacobi",
     "kind: Twisted\nalpha: 0.05\nv0_x: 1\nv0_y: 0.3\nv0_t: 0.5\nT: 5\n", 1),
    # Twisted, straight down: the lone row, stepped on floats, is cut at Y_FLOOR
    ("jacobi-twisted-floor", "jacobi",
     "kind: Twisted\npotential: log_y\nalpha: 0.001\nv0_x: 0\nv0_y: -1\nv0_t: 0\nT: 20\nstep: 0.01\n", 1),
    # far outside the warp ball, straight up: y = e^t leaves the float range, exit 3 at t = 356
    ("jacobi-warped-overflow", "jacobi",
     "kind: Warped\neps: 0.1\nq0_x: 5\nq0_y: 1\nv0_x: 0\nv0_y: 1\nv0_t: 0\nT: 800\nstep: 1\n", 1),
    # phi = 1 + x: heading to -x from x = -0.5 the lone row meets phi = 0, exit 2
    ("jacobi-twisted-zero-shear", "jacobi",
     "kind: Twisted\npotential: x\nalpha: 1\nq0_x: -0.5\nq0_y: 1\nv0_x: -1\nv0_y: 0\nv0_t: 0\n"
     "T: 5\nstep: 0.01\n", 1),
    ("riccati-stable-warped", "riccati-stable", _SLANTED + "T: 8\nanchor: 4\n", 1),
    ("riccati-stable-twisted", "riccati-stable",
     "kind: Twisted\npotential: x\nalpha: 0.05\nv0_x: 0.2\nv0_t: 0.5\nT: 8\nanchor: 4\n", 1),
    # u' = -u^2 - w^2 blows up about pi / (2 w) before the anchor: exit 3 at time 4.07
    ("riccati-stable-warped-blowup", "riccati-stable",
     "kind: Warped\neps: 0.4\nv0_x: 0\nv0_y: 0\nv0_t: 1\nT: 24\nanchor: 6\nstep: 0.01\n", 1),
    ("riccati-stable-product", "riccati-stable",
     "kind: Product\nq0_x: 0.1\nq0_y: 0.9\nv0_x: 0.3\nv0_y: 0.2\nv0_t: 1\nT: 8\nanchor: 4\n", 1),
    ("riccati-average-product", "riccati-average", "kind: Product\nN: 8\nanchor: 3\n", 1),
    ("riccati-average-warped-point", "riccati-average",
     "kind: Warped\neps: 0.1\nsampler: point\nN: 4\nanchor: 3\n", 1),
    *((f"scan-{name}-w{w}", "scan-conjugate", text, w)
      for name, text in (
          ("product", "kind: Product\ncount: 40\nTmax: 20\n"),
          ("warped", "kind: Warped\neps: 0.4\ncount: 40\nTmax: 12\n"),
          ("twisted", "kind: Twisted\npotential: x\nalpha: 0.05\ncount: 40\nTmax: 10\n"),
      )
      for w in (1, 2)),
    # the Monte Carlo integral of |R_V|^2 + |nabla V|^2, read from the fiber jet
    ("curvature-deviation-warped", "curvature-deviation",
     "kind: Warped\neps: 0.4\nbox_x0: -0.6\nbox_x1: 0.6\nbox_y0: 0.5\nbox_y1: 1.8\nN: 4000\n", 1),
    ("curvature-deviation-twisted-x", "curvature-deviation",
     "kind: Twisted\npotential: x\nalpha: 0.05\nN: 4000\n", 1),
    ("curvature-deviation-product", "curvature-deviation", "kind: Product\nL: 2\nN: 500\n", 1),
    # the scan_product benchmark workload: one 32-row chunk at Tmax = 50
    ("scan-product-bench", "scan-conjugate",
     "kind: Product\nL: 1.0\ncount: 32\nTmax: 50.0\nstep: 0.001\nseed: 0\n", 1),
    ("ledger-seed-0", "ledger", "seed: 0\n", 1),
    # busemann_checks.csv prints the Hessian entries of the Busemann limit
    ("busemann-product", "busemann", "kind: Product\nL: 2\nq0_x: 0.3\nq0_y: 1.4\nq0_t: 0.7\n", 1),
    ("isoperimetric-default", "isoperimetric", "", 1),
    ("volume-growth-default", "volume-growth", "", 1),
]


def run_job(src: Path, workdir: Path, subcommand: str, config: str, workers: int):
    """Run one job against src; returns (exit code, stderr, {csv name: bytes})."""
    workdir.mkdir(parents=True)
    cfg = workdir / "job.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = workdir / "out"
    env = dict(os.environ, PYTHONPATH=str(src), H2XR_WORKERS=str(workers))
    proc = subprocess.run(
        [sys.executable, "-m", "h2xr.cli", subcommand, "--config", str(cfg), "--out", str(out)],
        env=env, capture_output=True, text=True,
    )
    csvs = {p.name: p.read_bytes() for p in out.glob("*.csv")} if out.is_dir() else {}
    return proc.returncode, proc.stderr.strip(), csvs


def largest_change(a: list[bytes], b: list[bytes]) -> str:
    """Largest absolute and relative change between the numeric cells of two CSVs.

    a and b are the lines of the two files; cells are paired by row and
    column, and a cell that is blank or not a number on either side is
    skipped.  A column's relative change is its largest absolute change
    over its largest magnitude, so values near a zero crossing do not
    dominate it.
    """
    rows_a, rows_b = (list(csv.reader(line.decode() for line in lines)) for lines in (a, b))
    change, size = {}, {}
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for col, x, y in zip(rows_a[0], row_a, row_b):
            try:
                x, y = float(x), float(y)
            except ValueError:
                continue
            change[col] = max(change.get(col, 0.0), abs(x - y))
            size[col] = max(size.get(col, 0.0), abs(x), abs(y))
    if not change:
        return "no numeric cells to compare"
    rel = {col: d / size[col] if size[col] > 0.0 else 0.0 for col, d in change.items()}
    col_abs, col_rel = max(change, key=change.get), max(rel, key=rel.get)
    return (f"max abs change {change[col_abs]:.3g} ({col_abs}), "
            f"max rel change {rel[col_rel]:.3g} ({col_rel})")


def compare(old, new) -> list[str]:
    """Differences between two run_job results, one message each."""
    (code_a, err_a, csv_a), (code_b, err_b, csv_b) = old, new
    problems = []
    if code_a != code_b:
        problems.append(f"exit {code_a} -> {code_b} ({err_a or err_b})")
    elif code_a != 0 and err_a != err_b:
        problems.append(f"diagnostic {err_a!r} -> {err_b!r}")
    for name in sorted(set(csv_a) | set(csv_b)):
        if name not in csv_a or name not in csv_b:
            problems.append(f"{name} written by one tree only")
            continue
        a, b = csv_a[name].splitlines(), csv_b[name].splitlines()
        if a != b:
            k = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
            problems.append(f"{name} differs from line {k + 1}: {largest_change(a, b)}")
    return problems


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/same_outputs.py OLD_SRC NEW_SRC", file=sys.stderr)
        return 2
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if not (tree / "h2xr" / "cli.py").is_file():
            print(f"{tree}: not an h2xr source tree (no h2xr/cli.py)", file=sys.stderr)
            return 2
    failed = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for label, subcommand, config, workers in JOBS:
            old, new = (run_job(tree, Path(tmp) / side / label, subcommand, config, workers)
                        for side, tree in zip(("old", "new"), trees))
            problems = compare(old, new)
            failed += bool(problems)
            if problems:
                status = "; ".join(problems)
            elif old[0] != 0:
                status = f"same (exit {old[0]}: {old[1]})"
            else:
                status = f"same ({len(old[2])} CSV)"
            print(f"{label:32s} {status}", flush=True)
    print(f"{len(JOBS) - failed} of {len(JOBS)} jobs byte-identical")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
