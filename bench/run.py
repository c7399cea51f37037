#!/usr/bin/env python3
"""h2xr benchmark: one workload per process, a closed loop of checked jobs.

Run from the root of a source checkout (the program is imported from
./src; nothing needs installing):

    python3 bench/run.py --workload scan_product --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload ledger --seed 1 --seconds 45 --trace 1
    python3 bench/run.py --gates

--trace 0 measures the end-to-end metrics with tracing off; --trace 1 runs
the layer micro-benchmarks, one untraced reference job, then traced jobs,
and reports the per-layer metrics.  The last line of standard output is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it are the human-readable report.  The full report (machine block,
every job, every layer and claim time, and in traced runs every span) is
written to .bench_run/ in the checkout.  --gates times acceptance
criteria 01 and 02 once against their gates.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# One client, one thread: the BLAS/OpenMP pools read these when numpy loads.
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def _parse(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py")
    parser.add_argument("--workload", help="scan_product, jacobi_twisted or ledger")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--gates", action="store_true",
                        help="time acceptance criteria 01 and 02 against their gates")
    args = parser.parse_args(argv)
    if (args.workload is None) == (not args.gates):
        parser.error("give exactly one of --workload or --gates")
    return parser, args


def _import_program():
    """Import h2xr from this checkout's src/, or exit 2 when it is missing."""
    src = ROOT / "src"
    if not (src / "h2xr" / "__init__.py").is_file():
        print(f"bench: no h2xr sources under {src}; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(BENCH)]
    import h2xr

    if Path(h2xr.__file__).resolve().parent != (src / "h2xr").resolve():
        print(f"bench: imported h2xr from {h2xr.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def _print_report(report):
    print(f"# h2xr benchmark: workload={report['workload']} seed={report['seed']} "
          f"seconds={report['seconds']} trace={report['trace']}")
    print("machine " + json.dumps(report["machine"], sort_keys=True))
    for k, job in enumerate(report["jobs"]):
        status = "ok" if job["ok"] else f"FAILED {job['error']}"
        print(f"job {k}: wall {job['wall_s']:.4f} s, cpu {job['cpu_s']:.4f} s, {status}")
    if "layers" in report:
        layers = report["layers"]
        for layer, sec in layers["self_s"].items():
            print(f"layer {layer:<12} self {sec:.4f} s  total {layers['total_s'][layer]:.4f} s")
        print(f"layer self-time sum {layers['self_sum_s']:.4f} s, traced job_s "
              f"{layers['traced_job_s']:.4f} s, outside the wrapped layers "
              f"{layers['unattributed_s']:.4f} s, spans per job {layers['spans_per_job']:.0f}")
        print(f"invariants.curvature_deviation_s "
              f"{layers['invariants.curvature_deviation_s']:.4f} s")
        for name, sec in layers["claims"].items():
            print(f"claims.{name} {sec:.4f} s")
    result = report["result"]
    fail_share = result["failed"] / result["attempted"]
    print(f"fail_share {fail_share:.4f} ratio ({result['failed']} of {result['attempted']} jobs)")
    for name, m in result["metrics"].items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")


def main(argv=None) -> int:
    parser, args = _parse(argv)
    os.environ.update(PINNED_ENV)
    if not args.gates:
        os.environ["H2XR_WORKERS"] = "1"
    _import_program()
    import harness
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {workloads.WORKLOADS}")

    out_dir = ROOT / ".bench_run"
    out_dir.mkdir(exist_ok=True)
    if args.gates:
        gates = harness.run_gates()
        report = {"machine": harness.machine_block(ROOT), "gates": gates}
        for name, g in gates.items():
            print(f"gate {name}: {g['seconds']:.3f} s of {g['gate_s']:.0f} s, "
                  f"headroom {g['headroom_s']:.3f} s ({100 * g['headroom_share']:.1f}%), "
                  f"{'within' if g['within_gate'] else 'OVER'} the gate, "
                  f"output {'ok' if g['ok'] else 'WRONG'}")
        (out_dir / "gates.json").write_text(json.dumps(report, indent=1) + "\n")
        print(json.dumps(gates))
        return 0 if all(g["ok"] and g["within_gate"] for g in gates.values()) else 1

    report = harness.run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), ROOT)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(report) + "\n")
    _print_report(report)
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
