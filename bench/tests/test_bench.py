"""Fast tests of the benchmark itself: tiny workloads, wrappers, self time.

Run from the checkout root: python3 -m pytest bench/tests -q
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import micro
import spans
import workloads
from h2xr import claims

ROOT = Path(__file__).resolve().parents[2]
CHEAP_CLAIMS = ("example6_busemann_sign", "example8_spectral_gap",
                "mls_pythagorean_triple", "curvature_gap_eps0",
                "example7_moduli_dimension")


def declared():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_PROBES", 1)
    monkeypatch.setattr(micro, "MIN_SECONDS", 0.0)
    monkeypatch.setattr(micro, "MIN_REPS", 1)
    monkeypatch.setattr(micro, "RK4_STEPS", {1: 2, 32: 2, 256: 2})
    monkeypatch.setattr(micro, "CURVATURE_POINTS", 8)
    monkeypatch.setattr(micro, "RPERP_SAMPLES", 8)
    monkeypatch.setattr(micro, "PROPAGATE_STEPS", 8)
    monkeypatch.setattr(claims, "CLAIMS",
                        tuple(c for c in claims.CLAIMS if c.claim_id in CHEAP_CLAIMS))


def test_declared_metrics_match_the_harness():
    end_to_end, per_layer, names = declared()
    assert end_to_end == harness.END_TO_END
    assert per_layer == harness.PER_LAYER
    assert set(names) <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_workload_emits_every_metric_with_its_unit(tiny, workload, trace):
    end_to_end, per_layer, _ = declared()
    report = harness.run_workload(workload, 3, 0.0, trace, ROOT, tiny=True)
    result = report["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = per_layer if trace else end_to_end
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())
    if trace:
        layers = report["layers"]
        assert layers["self_sum_s"] == pytest.approx(layers["traced_job_s"], rel=0.02, abs=1e-3)
        if workload == "ledger":
            assert set(layers["claims"]) == {f"{c}.s" for c in CHEAP_CLAIMS}


def test_jobs_with_wrong_output_count_as_failed(tmp_path):
    job = workloads.make_job("scan_product", 0, tmp_path / "in", tiny=True)
    wrong = workloads.Job(job.calls, lambda outs: workloads.check_scan(outs, 3))
    result = harness.run_job(wrong, tmp_path / "rep", None)
    assert not result.ok and "do not match" in result.error
    ok = harness.run_job(job, tmp_path / "rep", None)
    assert ok.ok
    changed = {key: value + b"x" for key, value in ok.outputs.items()}
    again = harness.run_job(job, tmp_path / "rep", changed)
    assert not again.ok and "differs" in again.error


def _layer_attributes():
    out = {}
    for layer in spans.LAYERS:
        module = importlib.import_module(f"h2xr.{layer}")
        out.update({(layer, k): v for k, v in vars(module).items() if callable(v)})
    out["Claim.evaluate"] = claims.Claim.__dict__["evaluate"]
    return out


def test_span_wrappers_restore_the_original_functions():
    from h2xr import cli, jacobi

    before = _layer_attributes()
    with pytest.raises(RuntimeError):
        with spans.Tracer() as tracer:
            assert jacobi.integrate_geodesic_batch is not before[
                ("geodesics", "integrate_geodesic_batch")]
            assert cli.main is not before[("cli", "main")]
            assert cli.main(["moduli-dim", "--out", str(ROOT / ".bench_run" / "t")]) == 0
            raise RuntimeError("leave the block by an exception")
    shutil.rmtree(ROOT / ".bench_run" / "t", ignore_errors=True)
    after = _layer_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = [s[0] for s in tracer.spans]
    assert names[0] == "cli.main" and "cli.write_outputs" in names


def test_same_layer_calls_get_no_span_but_are_counted():
    from h2xr import metrics

    with spans.Tracer() as tracer:
        metrics.curvature_at(metrics.MetricSpec.product(1.0),
                             metrics.ChartPoint(0.0, 1.0, 0.0))
    # curvature_at was called from this test, not from a layer: one span,
    # and its inner curvature_tensor_many call is counted but not spanned
    assert [s[0] for s in tracer.spans] == ["metrics.curvature_at"]
    assert tracer.counts["metrics.curvature_points"] == 1


def test_self_time_on_a_synthetic_span_tree():
    tree = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["jacobi.a", 1.0, 4.0, 0, 0],
        ["metrics.b", 2.0, 3.0, 1, 0],
        ["geodesics.c", 5.0, 9.0, 0, 0],
        ["geodesics.d", 8.0, 9.5, 0, 0],   # overlaps c: covered once
        ["metrics.e", 12.0, 13.0, 0, 0],   # outside its parent: clipped away
        ["cli.main", 20.0, 21.0, -1, 1],
    ]
    assert spans.self_times(tree) == pytest.approx([2.5, 2.0, 1.0, 4.0, 1.5, 1.0, 1.0])
    # without overlaps, the layer self times add up to the root durations
    nested = tree[:4] + tree[6:]
    layer_self, layer_total, by_name = spans.summarize(nested)
    assert layer_self == pytest.approx({"cli": 4.0, "jacobi": 2.0, "metrics": 1.0,
                                        "geodesics": 4.0})
    assert sum(layer_self.values()) == pytest.approx(11.0)
    assert layer_total == pytest.approx({"cli": 11.0, "jacobi": 3.0, "metrics": 1.0,
                                         "geodesics": 4.0})
    assert by_name["cli.main"] == pytest.approx(11.0)


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ledger", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
