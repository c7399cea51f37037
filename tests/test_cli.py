"""Config schema, subcommand plumbing, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import h2xr
from h2xr import invariants
from h2xr.cli import _numpy_cpu_dispatch, main
from h2xr.config import build_config, load_config
from h2xr.errors import DomainError

GENS = "1.2 0.3 0.1 0.8583333333333334\n2.0 1.0 1.0 1.0\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def read_outputs(out_dir):
    return {
        p.name: p.read_bytes()
        for p in Path(out_dir).iterdir()
        if p.suffix == ".csv"
    }


# ---------------------------------------------------------------------------
# config loading
# ---------------------------------------------------------------------------

def test_minimal_config_defaults():
    cfg = build_config({"kind": "Product", "L": "1"}, "scan-conjugate")
    assert cfg.params["Tmax"] == 50.0
    assert cfg.params["step"] == 1e-3
    assert cfg.params["seed"] == 0
    assert cfg.params["count"] == 200
    assert cfg.metric.kind == "Product"


def test_config_range_error_names_key():
    with pytest.raises(DomainError, match="'eps'"):
        build_config({"kind": "Warped", "eps": "-0.1"}, "jacobi")


def test_config_unknown_key_named():
    with pytest.raises(DomainError, match="'warp_eps'"):
        build_config({"kind": "Warped", "warp_eps": "0.1"}, "jacobi")


@pytest.mark.parametrize("kind, key", [("Warped", "L"), ("Warped", "alpha"),
                                       ("Product", "r0"), ("Product", "potential"),
                                       ("Twisted", "eps"), ("Twisted", "L")])
def test_config_rejects_other_kinds_metric_keys(tmp_path, capsys, kind, key):
    # a key the kind never reads is an error, not a silently echoed value
    cfg = write(tmp_path, "k.cfg", f"kind: {kind}\n{key}: 0.8\nT: 0.01\n")
    out = tmp_path / "o"
    assert main(["jacobi", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and repr(kind) in err
    assert not out.exists()


def test_config_echo_lists_only_the_kinds_keys():
    echo = build_config({"kind": "Twisted", "alpha": "0.01"}, "jacobi").echo
    metric = [k for k in echo if k in ("kind", "L", "eps", "center_x", "center_y",
                                       "r0", "r1", "alpha", "potential")]
    assert metric == ["kind", "alpha", "potential"]
    assert build_config({"kind": "Product", "L": "2"}, "jacobi").metric.L == 2.0


def test_config_job_mismatch_rejected():
    with pytest.raises(DomainError, match="subcommand"):
        build_config({"job": "jacobi"}, "spectrum")


def test_config_type_errors_named():
    with pytest.raises(DomainError, match="'count'"):
        build_config({"count": "3.5"}, "scan-conjugate")
    with pytest.raises(DomainError, match="'L'"):
        build_config({"L": "abc"}, "jacobi")


def test_config_text_and_json_agree(tmp_path):
    text = write(tmp_path, "a.cfg", "kind: Warped\neps: 0.2\njob: jacobi\nT: 5\n")
    js = write(tmp_path, "a.json", json.dumps({"kind": "Warped", "eps": 0.2,
                                               "job": "jacobi", "T": 5}))
    a = load_config(text, "jacobi")
    b = load_config(js, "jacobi")
    assert a.echo == b.echo


def test_config_round_trip(tmp_path):
    cfg = build_config({"kind": "Warped", "eps": "0.15", "T": "3"}, "jacobi")
    lines = "\n".join(f"{k}: {v}" for k, v in cfg.echo.items())
    again = load_config(write(tmp_path, "echo.cfg", lines))
    assert again.echo == cfg.echo
    assert again.job == "jacobi"


def test_config_duplicate_key_rejected(tmp_path):
    p = write(tmp_path, "dup.cfg", "L: 1\nL: 2\n")
    with pytest.raises(DomainError, match="duplicate"):
        load_config(p, "jacobi")


def test_config_malformed_json(tmp_path):
    p = write(tmp_path, "bad.json", "{broken")
    with pytest.raises(DomainError, match="malformed"):
        load_config(p, "jacobi")


# ---------------------------------------------------------------------------
# CLI runs
# ---------------------------------------------------------------------------

def test_unknown_subcommand_exits_2(capsys):
    assert main(["does-not-exist"]) == 2


def test_validation_error_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "bad.cfg", "kind: Warped\neps: -0.1\njob: jacobi\n")
    code = main(["jacobi", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "eps" in capsys.readouterr().err


def test_start_below_chart_floor_exits_2(tmp_path, capsys):
    cfg = write(tmp_path, "low.cfg", "job: riccati-average\nbox_y0: 1e-8\nbox_y1: 1e-7\nN: 2\n")
    code = main(["riccati-average", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "chart floor" in capsys.readouterr().err


@pytest.mark.parametrize("job", ["busemann", "spectrum", "length-spectrum", "isoperimetric",
                                 "gap-constant"])
def test_product_only_jobs_reject_other_kinds(tmp_path, capsys, job):
    # these jobs read the Product L; a Warped spec carries L = 1 whatever the config says
    files = {
        "spectrum": f"sigma_file: {write(tmp_path, 'sigma.txt', '0.0')}\n",
        "length-spectrum": f"generators_file: {write(tmp_path, 'gens.txt', GENS)}\n",
    }
    cfg = write(tmp_path, "w.cfg", f"kind: Warped\n{files.get(job, '')}")
    out = tmp_path / "o"
    assert main([job, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert job in err and "Product" in err
    assert not out.exists()


def test_twisted_jacobi_bytes_do_not_follow_numpy_cpu_dispatch(tmp_path):
    # one job run with numpy's dispatched loops and once on its baseline loops,
    # both on one OpenBLAS kernel: a transcendental ufunc on this path would split them
    targets = _numpy_cpu_dispatch()
    if not targets:
        pytest.skip("numpy dispatches no CPU target beyond its baseline on this host")
    cfg = write(tmp_path, "j.cfg", "kind: Twisted\npotential: x\nalpha: 0.05\n"
                                   "v0_x: 1\nv0_y: 0.3\nv0_t: 0.5\nT: 1\n")
    env = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env.update(OPENBLAS_CORETYPE="Nehalem", PYTHONPATH=str(Path(h2xr.__file__).parents[1]))
    outputs = []
    for leg, extra in (("dispatch", {}), ("baseline", {"NPY_DISABLE_CPU_FEATURES": " ".join(targets)})):
        out = tmp_path / leg
        proc = subprocess.run(
            [sys.executable, "-m", "h2xr.cli", "jacobi", "--config", str(cfg), "--out", str(out)],
            env={**env, **extra}, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        manifest = json.loads((out / "manifest.json").read_text())
        outputs.append(((out / "jacobi.csv").read_bytes(), manifest["versions"]["numpy_cpu_dispatch"]))
    (csv_a, dispatch_a), (csv_b, dispatch_b) = outputs
    assert dispatch_a == targets and dispatch_b == []
    assert csv_a == csv_b


def test_numerical_failure_exits_3(tmp_path, capsys):
    # backward Riccati through the warped focal point blows up
    cfg = write(tmp_path, "blow.cfg",
                "kind: Warped\neps: 0.1\njob: riccati-stable\n"
                "T: 6\nanchor: 6\nv0_x: 0\nv0_y: 0\nv0_t: 1\n")
    code = main(["riccati-stable", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "blow-up" in capsys.readouterr().err


def test_non_finite_state_diagnostic_prints_a_plain_time(tmp_path, capsys):
    # far outside the warp ball, straight up: y = e^t leaves the float range
    # in the step from t = 356, and the diagnostic names that time as a float
    cfg = write(tmp_path, "up.cfg", "kind: Warped\neps: 0.1\nq0_x: 5\nq0_y: 1\n"
                "v0_x: 0\nv0_y: 1\nv0_t: 0\nT: 800\nstep: 1\n")
    code = main(["jacobi", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "non-finite integrator state" in err and "'time': 356.0}" in err


def test_riccati_average_warped_runs_at_the_bump_centre(tmp_path, capsys):
    # the documented Warped setting: the default box rejects most vertical
    # curves (exit 3), and the default anchor 20 lies past the conjugate
    # distance 7.2; at the bump centre with anchor 3 every sample is kept
    cfg = write(tmp_path, "box.cfg", "kind: Warped\n")
    assert main(["riccati-average", "--config", str(cfg), "--out", str(tmp_path / "box")]) == 3
    assert "not geodesics" in capsys.readouterr().err
    cfg = write(tmp_path, "point.cfg", "kind: Warped\nsampler: point\nanchor: 3\n")
    out = tmp_path / "point"
    assert main(["riccati-average", "--config", str(cfg), "--out", str(out)]) == 0
    header, row = (out / "riccati_average.csv").read_text().splitlines()
    assert row.endswith(",100,0")


def test_ledger_claim_numerical_failure_exits_3(tmp_path, monkeypatch, capsys):
    from types import SimpleNamespace

    from h2xr import claims

    # the claim reads the shared central run; give it one without conjugates
    warped = next(c for c in claims.CLAIMS if c.claim_id == "example2_conjugate_distance")
    monkeypatch.setattr(claims, "CLAIMS", (warped,))
    monkeypatch.setattr(claims, "_central_run", lambda: SimpleNamespace(conjugates=[]))
    assert main(["ledger", "--out", str(tmp_path / "o")]) == 3
    assert "no conjugate point" in capsys.readouterr().err


def test_ledger_manifest_times_every_claim(tmp_path):
    from h2xr import claims

    out = tmp_path / "o"
    assert main(["ledger", "--out", str(out)]) == 0
    seconds = json.loads((out / "manifest.json").read_text())["summary"]["claim_seconds"]
    assert list(seconds) == sorted(c.claim_id for c in claims.CLAIMS)   # json sorts the keys
    assert len(seconds) == 25 and all(s > 0.0 for s in seconds.values())
    header = (out / "claims.csv").read_text().splitlines()[0]
    assert header == "claim_id,paper_value,computed,tolerance,status"


def test_moduli_dim_run_and_outputs(tmp_path):
    out = tmp_path / "out"
    assert main(["moduli-dim", "--out", str(out)]) == 0
    assert (out / "moduli_dim.csv").read_text() == "genus,dimension\n2,7\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["job"] == "moduli-dim"
    assert manifest["config"]["genus"] == 2
    assert "wall_time_s" in manifest


def test_manifest_records_what_the_bits_depend_on(tmp_path, monkeypatch):
    # numpy's enabled CPU dispatch targets and the pinned OpenBLAS kernel,
    # null when none is pinned, so two manifests show why their bytes differ
    from numpy._core._multiarray_umath import __cpu_dispatch__

    for coretype in (None, "Nehalem"):
        if coretype is None:
            monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_CORETYPE", coretype)
        out = tmp_path / str(coretype)
        assert main(["moduli-dim", "--out", str(out)]) == 0
        versions = json.loads((out / "manifest.json").read_text())["versions"]
        assert versions["openblas_coretype"] == coretype
        targets = versions["numpy_cpu_dispatch"]
        assert isinstance(targets, list) and set(targets) <= set(__cpu_dispatch__)


def test_spectrum_run(tmp_path):
    sig = write(tmp_path, "sigma.txt", "0.0\n0.25\n1.7\n")
    cfg = write(tmp_path, "s.cfg", f"job: spectrum\nsigma_file: {sig}\nL: {2*math.pi}\ncutoff: 4.5\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "eigenvalue,multiplicity"
    assert lines[1] == "0.0,1"
    assert lines[2] == "0.25,1"


def test_spectrum_over_the_mode_limit_exits_2_before_enumerating(tmp_path, capsys):
    # sqrt(cutoff) = 1000001.5 and L = 2 pi: floor(1000001.5) = 1000001 circle
    # modes, one over the limit
    sig = write(tmp_path, "sigma.txt", "0.0\n")
    cfg = write(tmp_path, "s.cfg", f"sigma_file: {sig}\nL: {2*math.pi}\ncutoff: {1000001.5**2}\n")
    out = tmp_path / "out"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cutoff 1000003000002.25" in err and "1000001 circle modes" in err
    assert not out.exists()
    assert invariants.SPECTRUM_MAX_MODES == 1_000_000


def test_length_spectrum_over_the_word_limit_exits_2_before_enumerating(tmp_path, capsys):
    # 5 generators: sum of 10 * 9^(l - 1) over l = 1..8 reduced words
    gens = write(tmp_path, "gens.txt", "2 1 1 1\n" * 5)
    cfg = write(tmp_path, "ls.cfg", f"generators_file: {gens}\nmax_word: 8\n")
    out = tmp_path / "out"
    assert main(["length-spectrum", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "5 generators at max_word 8 give 53808400 reduced words, over 10000000" in err
    assert not out.exists()
    assert invariants.MAX_REDUCED_WORDS == 10 ** 7


def test_length_spectrum_run_and_header_only(tmp_path):
    gens = write(tmp_path, "gens.txt", GENS)
    cfg = write(tmp_path, "ls.cfg", f"job: length-spectrum\ngenerators_file: {gens}\nmax_word: 2\nn_max: 1\n")
    out = tmp_path / "out"
    assert main(["length-spectrum", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "length_spectrum.csv").read_text().splitlines()
    assert lines[0] == "word,trace,ell_sigma,n,ell"
    assert len(lines) > 3

    empty = write(tmp_path, "empty.txt", "# no generators\n")
    cfg2 = write(tmp_path, "ls2.cfg", f"job: length-spectrum\ngenerators_file: {empty}\nmax_word: 2\nn_max: 0\n")
    out2 = tmp_path / "out2"
    assert main(["length-spectrum", "--config", str(cfg2), "--out", str(out2)]) == 0
    assert (out2 / "length_spectrum.csv").read_text() == "word,trace,ell_sigma,n,ell\n"


def test_length_spectrum_products_are_not_revalidated(tmp_path, capsys):
    # rounding moves det of GENS's length-7 products past 1e-12; each generator passes
    gens = write(tmp_path, "gens.txt", GENS)
    cfg = write(tmp_path, "ls.cfg", f"generators_file: {gens}\nmax_word: 8\n")
    assert main(["length-spectrum", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert capsys.readouterr().err == ""

    bad = write(tmp_path, "bad.txt", "1.001 0 0 1\n")
    cfg = write(tmp_path, "bad.cfg", f"generators_file: {bad}\nmax_word: 2\n")
    assert main(["length-spectrum", "--config", str(cfg), "--out", str(tmp_path / "o2")]) == 2
    assert capsys.readouterr().err == "h2xr: validation error: matrix is not unimodular: det = 1.001\n"


def test_length_spectrum_overflowing_product_exits_3(tmp_path, capsys):
    # 1e40^8 leaves the float range at the first word of length 8
    gens = write(tmp_path, "big.txt", "1e40 0 0 1e-40\n")
    cfg = write(tmp_path, "big.cfg", f"generators_file: {gens}\nmax_word: 8\n")
    out = tmp_path / "o"
    assert main(["length-spectrum", "--config", str(cfg), "--out", str(out)]) == 3
    assert "product of word aaaaaaaa is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_isoperimetric_run_fast(tmp_path):
    import time

    out = tmp_path / "out"
    t0 = time.perf_counter()
    assert main(["isoperimetric", "--out", str(out)]) == 0
    assert time.perf_counter() - t0 < 1.0
    lines = (out / "isoperimetric.csv").read_text().splitlines()
    assert lines[0] == "kind,param,volume,area,bound,area_minus_bound,ratio,status"
    assert any("area<bound" in ln for ln in lines[1:])


def test_busemann_run(tmp_path):
    cfg = write(tmp_path, "b.cfg", "job: busemann\nq0_x: 1\nq0_y: 2\nq0_t: 3\n")
    out = tmp_path / "out"
    assert main(["busemann", "--config", str(cfg), "--out", str(out)]) == 0
    checks = dict(
        ln.split(",") for ln in (out / "busemann_checks.csv").read_text().splitlines()[1:]
    )
    assert float(checks["limit"]) == -3.0
    assert abs(float(checks["hess_xx"])) <= 1e-6
    assert abs(float(checks["grad_t_over_L"]) + 1.0) <= 1e-6


def test_volume_growth_run(tmp_path):
    cfg = write(tmp_path, "v.cfg", "job: volume-growth\nR_max: 20\nR_count: 4\n")
    out = tmp_path / "out"
    assert main(["volume-growth", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "volume_growth.csv").read_text().splitlines()
    assert lines[0] == "R,volume,entropy_running"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["summary"]["volume_entropy"] == pytest.approx(1.0, abs=2e-2)


@pytest.mark.parametrize("job, text, name", [
    ("isoperimetric", "r_list: 1000\n", "disk radius 1000.0"),
    ("isoperimetric", "w_list: 1000\n", "collar width 1000.0"),
    # cosh(r) - 1 rounds to 0: volume and bound are 0, and area / bound would divide by it
    ("isoperimetric", "r_list: 1e-9\n", "disk radius 1e-09"),
    ("volume-growth", "R_max: 800\n", "ball volume overflows"),
])
def test_overflowing_closed_form_exits_3_and_names_input(tmp_path, capsys, job, text, name):
    # cosh/sinh overflow and a Struve volume past the float range: exit 3
    # with the input named, no traceback and no inf or nan in a CSV
    cfg = write(tmp_path, "o.cfg", text)
    out = tmp_path / "out"
    assert main([job, "--config", str(cfg), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and name in err
    assert not out.exists()


def test_seed_override_changes_echo(tmp_path):
    cfg = write(tmp_path, "c.cfg", "job: curvature-deviation\nN: 150\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["curvature-deviation", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["curvature-deviation", "--config", str(cfg), "--seed", "7", "--out", str(out2)]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["seed"] == 0 and m2["seed"] == 7


def test_byte_determinism_across_reruns(tmp_path):
    jobs = [
        ("jacobi", "kind: Warped\neps: 0.1\njob: jacobi\nT: 2\nstep: 0.01\nv0_x: 0\nv0_t: 1\n"),
        ("riccati-average", "job: riccati-average\nN: 10\nanchor: 2\nstep: 0.02\n"),
        ("curvature-deviation", "job: curvature-deviation\nN: 120\n"),
    ]
    for job, text in jobs:
        cfg = write(tmp_path, f"{job}.cfg", text)
        outs = []
        for run in (1, 2):
            out = tmp_path / f"{job}-{run}"
            assert main([job, "--config", str(cfg), "--out", str(out)]) == 0
            outs.append(read_outputs(out))
        assert outs[0] == outs[1]


def test_csv_lf_line_endings(tmp_path):
    out = tmp_path / "out"
    assert main(["gap-constant", "--out", str(out)]) == 0
    raw = (out / "gap_constant.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
