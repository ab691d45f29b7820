import csv
import json
from pathlib import Path

import numpy as np
import pytest

from qhahn_polymer import cli
from qhahn_polymer.cli import EXIT_NUMERIC, EXIT_OK, EXIT_OUTPUT, EXIT_VALIDATION, main


def run(args):
    return main(args)


def test_verify_ybe_exit_zero(capsys):
    code = run(["verify", "ybe", "--kind", "WYB", "--colors", "2", "--max-entry", "2",
                "--trials", "25", "--seed", "7"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == EXIT_OK
    manifest = json.loads(out[-1])
    assert manifest["summary"]["nonzero_residuals"] == 0
    assert manifest["seed"] == 7


def test_verify_all_kind_aliases(capsys):
    for kind in ("hsYB", "defWYB", "defhsYB"):
        assert run(["verify", "ybe", "--kind", kind, "--trials", "5", "--seed", "1"]) == EXIT_OK
        capsys.readouterr()


def test_verify_local_and_hecke(capsys):
    assert run(["verify", "local-alg", "--trials", "10", "--seed", "3"]) == EXIT_OK
    capsys.readouterr()
    assert run(["verify", "local-rat", "--trials", "10", "--seed", "3"]) == EXIT_OK
    capsys.readouterr()
    assert run(["verify", "hecke", "--trials", "10", "--seed", "3", "--colors", "2"]) == EXIT_OK
    capsys.readouterr()


@pytest.fixture
def qhahn_config(tmp_path):
    cfg = {
        "model": {
            "q": 0.6,
            "mu": [2.4, 2.5, 2.6],
            "kappa": [1.25, 1.3],
            "lam": [0.16, 0.18],
            "colors": [1, 1],
        }
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture
def polymer_config(tmp_path):
    cfg = {
        "model": {
            "sigma": [1.30, 1.26, 1.33],
            "rho": [0.20, 0.28, 0.24, 0.26, 0.22],
            "omega": [-1.6, -1.75, -1.68, -1.7, -1.72],
        }
    }
    path = tmp_path / "polymer.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_sample_emits_height_csv(tmp_path, qhahn_config, capsys):
    out = tmp_path / "heights.csv"
    code = run(["sample", "qhahn", "--config", qhahn_config, "--samples", "2",
                "--seed", "5", "-o", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "replica,facet_x2,facet_y2,color,value"
    assert len(lines) > 1


def test_malformed_config_names_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": {"q": 0.5, "mu": [2.0, 2.1], "lam": [0.1], "colors": [1]}}))
    code = run(["sample", "qhahn", "--config", str(path), "-o", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "kappa" in err


def test_moments_qhahn_json(tmp_path, qhahn_config, capsys):
    out = tmp_path / "m.jsonl"
    code = run(["moments", "qhahn", "--config", qhahn_config, "--x", "0.5", "--y", "2.5",
                "--colors-list", "1", "-o", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["converged"] is True
    assert abs(rec["value_im"]) < 1e-10
    # rerun reproduces bit-identically
    out2 = tmp_path / "m2.jsonl"
    run(["moments", "qhahn", "--config", qhahn_config, "--x", "0.5", "--y", "2.5",
         "--colors-list", "1", "-o", str(out2)])
    capsys.readouterr()
    assert json.loads(out2.read_text().splitlines()[0])["value_re"] == rec["value_re"]


def test_moments_polymer_and_single(tmp_path, polymer_config, capsys):
    out = tmp_path / "p.jsonl"
    code = run(["moments", "polymer", "--config", polymer_config, "--x", "1", "--y", "3",
                "--r", "0", "-o", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    rec1 = json.loads(out.read_text().splitlines()[0])
    code = run(["moments", "single-contour", "--config", polymer_config, "--x", "1",
                "--y", "3", "--k", "1", "-o", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    rec2 = json.loads(out.read_text().splitlines()[0])
    assert abs(rec1["value_re"] - rec2["value_re"]) < 1e-9


def test_moments_polymer_unequal_corners(tmp_path, capsys):
    # the omegas of corner (0, 5) beyond those of corner (2, 3) must stay outside the circles
    from qhahn_polymer.polymer import PolymerModel, joint_moment_annealed

    cfg = {"sigma": [1.2, 1.3, 1.25], "rho": [0.3, 0.2, 0.25, 0.35, 0.3], "omega": [-3.0, -3.1, -2.9, -0.05, -0.08]}
    path, out = tmp_path / "corners.json", tmp_path / "p.jsonl"
    path.write_text(json.dumps({"model": cfg}))
    code = run(["moments", "polymer", "--config", str(path), "--x", "0", "2", "--y", "5", "3",
                "--r", "0", "0", "-o", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    rec = json.loads(out.read_text().splitlines()[0])
    tgt = joint_moment_annealed(PolymerModel(cfg["sigma"], cfg["rho"], cfg["omega"]), [(0, 5, 0), (2, 3, 0)])
    assert abs(rec["value_re"] - tgt) <= 1e-10 * tgt


def test_moments_single_contour_records_refinement(tmp_path, polymer_config, capsys):
    from qhahn_polymer.moments import single_contour_moment
    from qhahn_polymer.polymer import PolymerModel

    out = tmp_path / "s.jsonl"
    code = run(["moments", "single-contour", "--config", polymer_config, "--x", "1",
                "--y", "3", "--k", "2", "-o", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    rec = json.loads(out.read_text().splitlines()[0])
    cfg = json.loads(Path(polymer_config).read_text())["model"]
    pmodel = PolymerModel(cfg["sigma"], cfg["rho"], cfg["omega"])
    val, info = single_contour_moment(pmodel, 1, 3, 2, with_info=True)
    assert rec["nodes"] == info["nodes"] and rec["nodes"] > 48
    assert rec["converged"] is info["converged"] is True
    assert rec["value_re"] == val.real


@pytest.mark.parametrize("k", ["-1", "5"])
def test_moments_single_contour_rejects_bad_k(tmp_path, polymer_config, capsys, k):
    code = run(["moments", "single-contour", "--config", polymer_config, "--x", "1",
                "--y", "3", "--k", k, "-o", str(tmp_path / "s.jsonl")])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "k" in err


@pytest.mark.parametrize("target, extra, flag", [
    ("polymer", ["--r", "0", "--k", "3"], "--k"),
    ("qhahn", ["--colors-list", "1", "--k", "2"], "--k"),
    ("single-contour", ["--r", "5"], "--r"),
    ("single-contour", ["--tau", "2", "1"], "--tau"),
    ("qhahn", ["--colors-list", "1", "--r", "0"], "--r"),
    ("polymer", ["--r", "0", "--colors-list", "1"], "--colors-list"),
    ("single-contour", ["--q", "0.5"], "--q"),
])
def test_moments_refuses_flags_its_target_does_not_read(target, extra, flag, tmp_path, qhahn_config,
                                                        polymer_config, monkeypatch, capsys):
    # each of these used to compute a value that ignored the flag, with exit 0
    from qhahn_polymer import moments

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the flag was refused")

    for name in ("qmoment_integral", "beta_moment_integral", "single_contour_moment"):
        monkeypatch.setattr(moments, name, no_work)
    config = qhahn_config if target == "qhahn" else polymer_config
    out = tmp_path / "m.jsonl"
    code = run(["moments", target, "--config", config, "--x", "1", "--y", "3", *extra, "-o", str(out)])
    assert code == EXIT_VALIDATION
    assert f"moments {target} does not read {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target, argv, message", [
    ("polymer", ["--x", "1.7", "--y", "3", "--r", "0"], "integer --x values"),
    ("polymer", ["--x", "0", "2", "--y", "5", "3.5", "--r", "0", "0"], "integer --y values"),
    ("single-contour", ["--x", "1.7", "--y", "3"], "integer --x values"),
    ("single-contour", ["--x", "1", "--y", "inf"], "integer --y values"),
    ("qhahn", ["--x", "1.7", "--y", "2.6", "--colors-list", "1"], "half-integers"),
])
def test_moments_refuses_corners_off_the_lattice(target, argv, message, tmp_path, qhahn_config, polymer_config,
                                                 capsys):
    # these used to be rounded: polymer --x 1.7 returned the record of x = 1, and qhahn computed the
    # value at (1.5, 2.5) while its record echoed (1.7, 2.6), both with exit 0
    config = qhahn_config if target == "qhahn" else polymer_config
    out = tmp_path / "m.jsonl"
    code = run(["moments", target, "--config", config, *argv, "-o", str(out)])
    assert code == EXIT_VALIDATION
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_polymer_brute_and_mc(tmp_path, polymer_config, capsys):
    code = run(["polymer", "brute", "--config", polymer_config, "--x", "2", "--y", "5",
                "--seed", "3", "-o", str(tmp_path / "b.jsonl")])
    capsys.readouterr()
    assert code == EXIT_OK
    rec = json.loads((tmp_path / "b.jsonl").read_text().splitlines()[0])
    assert rec["max_abs_diff"] < 1e-13
    export = tmp_path / "samples.csv"
    code = run(["polymer", "mc", "--config", polymer_config, "--x", "2", "--y", "5",
                "--samples", "500", "--seed", "3", "--export", str(export),
                "-o", str(tmp_path / "mc.jsonl")])
    capsys.readouterr()
    assert code == EXIT_OK
    assert export.read_text().startswith("replica,x,y,r,value")


def test_polymer_dp_csv_is_the_dp_table(tmp_path, polymer_config, capsys):
    from qhahn_polymer.polymer import partition_dp, sample_environment
    from qhahn_polymer.qtools import spawn_rng

    out, manifest = tmp_path / "d.csv", tmp_path / "m.json"
    assert run(["polymer", "dp", "--config", polymer_config, "--x", "2", "--y", "5", "--r", "1",
                "--seed", "4", "--manifest", str(manifest), "-o", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    pm = cli._polymer_model(json.loads(Path(polymer_config).read_text()))
    table = partition_dp(sample_environment(pm, 2, 5, spawn_rng(4)), 1, 2, 5).table
    want = [(x, y, table[x, y]) for x in range(3) for y in range(6) if not np.isnan(table[x, y])]
    with out.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["replica", "x", "y", "r", "value"]
    assert [(int(x), int(y), float(v)) for _, x, y, _, v in rows] == want
    assert {(rep, r) for rep, _, _, r, _ in rows} == {("0", "1")}
    assert len(rows) == 12
    (rec,) = [json.loads(line) for line in manifest.read_text().splitlines()]
    assert rec["manifest"] and rec["seed"] == 4 and rec["config"] == json.loads(Path(polymer_config).read_text())


def test_polymer_mc_records_independent_of_workers(tmp_path, polymer_config, capsys):
    # 9000 replicas are three 4096-replica blocks in linear mode, 36 blocks in log mode
    for log in ([], ["--log"]):
        outs = []
        for workers in ("1", "2"):
            out = tmp_path / f"mc{workers}.jsonl"
            assert run(["polymer", "mc", "--config", polymer_config, "--x", "2", "--y", "5",
                        "--samples", "9000", "--seed", "4", "--workers", workers, *log,
                        "--export", str(tmp_path / f"z{workers}.csv"), "-o", str(out)]) == EXIT_OK
            capsys.readouterr()
            *recs, manifest = [json.loads(line) for line in out.read_text().splitlines()]
            assert manifest["workers"] == int(workers)
            outs.append((recs, (tmp_path / f"z{workers}.csv").read_text()))
        assert outs[0] == outs[1]


@pytest.mark.parametrize("value", ["0", "-2", "1.5", "abc"])
def test_workers_flag_must_be_positive_int(value, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["tw", "--t", "12", "--samples", "120", "--workers", value])
    assert exc.value.code == EXIT_VALIDATION
    assert "--workers: need a positive integer" in capsys.readouterr().err


def test_workers_environment_default(monkeypatch, capsys):
    monkeypatch.setenv("QHAHN_POLYMER_WORKERS", "abc")
    with pytest.raises(SystemExit) as exc:
        run(["verify", "stochastic", "--trials", "2"])
    assert exc.value.code == EXIT_VALIDATION
    assert "QHAHN_POLYMER_WORKERS" in capsys.readouterr().err
    monkeypatch.setenv("QHAHN_POLYMER_WORKERS", "3")
    assert run(["verify", "stochastic", "--trials", "2"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["workers"] == 3


@pytest.mark.parametrize("argv, flag", [
    (["verify", "ybe", "--trials", "0"], "--trials"),
    (["verify", "stochastic", "--trials", "-3"], "--trials"),
    (["verify", "ybe", "--colors", "0"], "--colors"),
    (["polymer", "mc", "--x", "1", "--y", "3", "--samples", "0"], "--samples"),
    (["polymer", "mc", "--x", "1", "--y", "3", "--samples", "1"], "--samples"),
    (["descent", "--grid", "0"], "--grid"),
    (["sample", "qhahn", "--samples", "0"], "--samples"),
    (["polymer", "mc", "--x", "1", "--y", "3", "--max-power", "0"], "--max-power"),
    (["verify", "ybe", "--max-entry", "-1"], "--max-entry"),
    (["tw", "--t", "0"], "--t"),
    (["tw", "--t", "64", "-5"], "--t"),
    (["tw", "--samples", "50"], "--samples"),
])
def test_unusable_counts_are_usage_errors(argv, flag, capsys):
    # each of these used to exit 0 with a vacuous pass, no rows or no or NaN moments, or fail
    # with a traceback or a message that does not name the flag
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == EXIT_VALIDATION
    assert f"argument {flag}: need " in capsys.readouterr().err


def test_closed_stdout_is_an_output_failure(monkeypatch, capsys):
    def closed_pipe(*args, **kwargs):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "_emit", closed_pipe)
    assert run(["verify", "stochastic", "--trials", "2"]) == EXIT_OUTPUT
    err = capsys.readouterr().err
    assert "output failure" in err and "validation error" not in err


@pytest.mark.parametrize("action", ["brute", "mc"])
def test_polymer_manifest_flag_is_only_for_dp(action, tmp_path, polymer_config, monkeypatch, capsys):
    from qhahn_polymer import polymer

    def no_work(*args, **kwargs):
        raise AssertionError("work started before --manifest was refused")

    monkeypatch.setattr(polymer, "sample_environment", no_work)
    monkeypatch.setattr(polymer, "mc_statistics", no_work)
    manifest = tmp_path / "m.jsonl"
    code = run(["polymer", action, "--config", polymer_config, "--x", "2", "--y", "5", "--samples", "100",
                "--manifest", str(manifest)])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert "--manifest is only for polymer dp" in captured.err and captured.out == ""
    assert not manifest.exists()


def test_fredholm_subcommands(tmp_path, polymer_config, capsys):
    out = tmp_path / "f.jsonl"
    code = run(["fredholm", "tw-cdf", "--r", "0", "-o", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    rec = json.loads(out.read_text().splitlines()[0])
    assert abs(rec["F2"] - 0.9693728283) < 1e-7
    code = run(["fredholm", "mb-check", "--config", polymer_config, "--u", "-2.0",
                "-o", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["abs_diff"] < 1e-6


def test_fredholm_mb_check_record_carries_diagnostics(tmp_path, polymer_config, capsys):
    from qhahn_polymer.fredholm import laplace_series_det, mb_determinant
    from qhahn_polymer.polymer import PolymerModel

    out = tmp_path / "f.jsonl"
    assert run(["fredholm", "mb-check", "--config", polymer_config, "--u", "-2.0", "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    rec = json.loads(out.read_text().splitlines()[0])
    model = json.loads(Path(polymer_config).read_text())["model"]
    pm = PolymerModel(model["sigma"], model["rho"], model["omega"])
    d1, series = laplace_series_det(pm, 2, 5, -2.0, with_info=True)
    d2, mb = mb_determinant(pm, 2, 5, -2.0, with_info=True)
    assert rec["abs_diff"] == abs(d1 - d2)
    assert (rec["series_nodes"], rec["series_converged"], rec["series_terms"]) == (
        series["nodes"], series["converged"], series["terms"])
    assert rec["series_converged"] is True and 0 < rec["series_terms"] < 2000
    assert (rec["nodes_C"], rec["nodes_L"], rec["T"]) == (mb["nodes"], mb["nodes_L"], mb["T"])


def test_fredholm_laplace_records_carry_line_diagnostics(tmp_path, polymer_config, capsys):
    from qhahn_polymer.fredholm import mb_determinant
    from qhahn_polymer.polymer import PolymerModel

    model = json.loads(Path(polymer_config).read_text())["model"]
    det, mb = mb_determinant(PolymerModel(model["sigma"], model["rho"], model["omega"]), 2, 5, -2.0,
                             with_info=True)
    out = tmp_path / "f.jsonl"
    assert run(["fredholm", "laplace", "--config", polymer_config, "--u", "-2.0", "-o", str(out)]) == EXIT_OK
    rec = json.loads(out.read_text().splitlines()[0])
    assert (rec["det_re"], rec["det_im"]) == (det.real, det.imag)
    assert (rec["nodes_C"], rec["nodes_L"], rec["T"]) == (mb["nodes"], mb["nodes_L"], mb["T"])
    assert (rec["converged"], rec["panels"], rec["tail"]) == (True, mb["panels"], mb["tail"])
    assert run(["fredholm", "mb-check", "--config", polymer_config, "--u", "-2.0", "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    rec = json.loads(out.read_text().splitlines()[0])
    assert (rec["mb_converged"], rec["panels"], rec["tail"]) == (True, mb["panels"], mb["tail"])
    assert rec["panels"] * 16 == rec["nodes_L"] and rec["tail"] < 1e-12


def test_fredholm_tw_cdf_record_carries_nodes(tmp_path, capsys):
    out = tmp_path / "f.jsonl"
    assert run(["fredholm", "tw-cdf", "--r", "-2", "-o", str(out)]) == EXIT_OK
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["nodes"] == 64 and rec["converged"] is True
    for bad in ("nan", "-9.5"):
        assert run(["fredholm", "tw-cdf", "--r", bad, "-o", str(out)]) == EXIT_VALIDATION
    capsys.readouterr()


def test_descent_subcommand(tmp_path, capsys):
    cfg = {"model": {"sigma": [0.0], "alpha": [1.0], "rho": [-1.0], "beta": [1.0],
                     "omega": [-1.5, -3.0], "gamma": [0.5, 0.5]}}
    path = tmp_path / "fm.json"
    path.write_text(json.dumps(cfg))
    code = run(["descent", "--config", str(path), "--theta", "0.3",
                "--which", "line", "circle", "arcs", "-o", str(tmp_path / "d.jsonl")])
    capsys.readouterr()
    assert code == EXIT_OK


def test_tw_subcommand_small(tmp_path, capsys):
    out = tmp_path / "tw.jsonl"
    code = run(["tw", "--theta", "0.3", "--t", "12", "--samples", "120", "--seed", "2",
                "--workers", "1", "-o", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    rec = json.loads(out.read_text().splitlines()[0])
    assert rec["regime"] == "proven"
    assert 0 <= rec["ks"] <= 1


def test_tw_records_carry_ks_scale(tmp_path, capsys):
    out = tmp_path / "tw.jsonl"
    assert run(["tw", "--theta", "0.3", "--t", "12", "16", "--samples", "144", "--seed", "2",
                "--workers", "1", "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    *recs, manifest = [json.loads(line) for line in out.read_text().splitlines()]
    assert [rec["t"] for rec in recs] == [12, 16]
    for rec in recs:
        assert set(rec) == {"t", "ks", "n", "ks_null_mean", "ks_null_95", "mean", "sd", "regime"}
        assert rec["n"] == 144
        assert rec["ks_null_mean"] == pytest.approx(0.8687 / 12)
        assert rec["ks_null_95"] == pytest.approx(1.3581 / 12)
    assert manifest["manifest"]


def test_tw_export_rows_are_the_batch_samples(tmp_path, capsys):
    from qhahn_polymer.asymptotics import tw_experiment

    export = tmp_path / "tw.csv"
    assert run(["tw", "--theta", "0.3", "--t", "12", "16", "--samples", "120", "--seed", "2",
                "--workers", "1", "--export", str(export), "-o", str(tmp_path / "tw.jsonl")]) == EXIT_OK
    capsys.readouterr()
    batches = tw_experiment(cli._freq_model({}), 0.3, [12, 16], 120, seed=2, workers=1)
    with export.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["t", "replica", "rescaled_value"]
    assert [(int(t), int(i), float(v)) for t, i, v in rows] == [
        (b.t, i, float(v)) for b in batches for i, v in enumerate(b.samples)]
    assert len(rows) == 240


def test_manifest_records_blas_build_and_threads(monkeypatch, capsys):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    assert run(["verify", "stochastic", "--trials", "2", "--seed", "1"]) == EXIT_OK
    manifest = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert isinstance(manifest["blas"], str) and manifest["blas"]
    assert "blas_version" in manifest
    assert manifest["blas_threads"] == "3"
    assert manifest["numpy"] == np.__version__


def test_nonconvergence_exit_code(tmp_path, qhahn_config, capsys, monkeypatch):
    import qhahn_polymer.moments as mm

    monkeypatch.setitem(mm._NODE_CAPS, 1, 8)
    code = run(["moments", "qhahn", "--config", qhahn_config, "--x", "1.5", "--y", "2.5",
                "--colors-list", "2", "-o", str(tmp_path / "n.jsonl")])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert "non-convergence" in err


def test_boundary_cap_is_a_numerical_failure(tmp_path, capsys):
    # a valid model whose boundary law is too heavy-tailed for the table's cap: exit 3, not 2
    path = tmp_path / "heavy.json"
    path.write_text(json.dumps({"model": {"q": 0.99999, "mu": [1.0, 1.01], "kappa": [0.9], "lam": [0.1],
                                          "colors": [1]}}))
    code = run(["sample", "qhahn", "--config", str(path), "-o", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert "non-convergence" in err and "cap=131072 (the next doubling passes max_cap=200000)" in err


def test_verify_stochastic(capsys):
    assert run(["verify", "stochastic", "--trials", "15", "--seed", "4", "--colors", "2"]) == EXIT_OK
    capsys.readouterr()


@pytest.mark.parametrize("block, field", [
    ({"q": "0.5", "mu": [2.4, 2.5, 2.6], "kappa": [1.25, 1.3], "lam": [0.16, 0.18], "colors": [1, 1]}, "q"),
    ({"q": 0.6, "mu": 2.4, "kappa": [1.25, 1.3], "lam": [0.16, 0.18], "colors": [1, 1]}, "mu"),
    ({"q": 0.6, "mu": [2.4, 2.5, 2.6], "kappa": [1.25, None], "lam": [0.16, 0.18], "colors": [1, 1]}, "kappa"),
    ({"q": 0.6, "mu": [2.4, 2.5, 2.6], "kappa": [1.25, 1.3], "lam": [0.16, 0.18], "colors": [1.5, 0.5]}, "colors"),
])
def test_malformed_model_field_is_named(tmp_path, capsys, block, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"model": block}))
    code = run(["sample", "qhahn", "--config", str(path), "-o", str(tmp_path / "x.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert f"'{field}'" in err


def test_polymer_point_outside_schedule_is_validation_error(tmp_path, polymer_config, capsys):
    code = run(["polymer", "dp", "--config", polymer_config, "--x", "4", "--y", "9", "-o", str(tmp_path / "d.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_VALIDATION
    assert "sigma" in err


def test_internal_lookup_errors_are_not_reported_as_validation(tmp_path, qhahn_config, monkeypatch):
    import qhahn_polymer.model as qm

    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(qm, "sample_grids", broken)
    with pytest.raises(KeyError):
        run(["sample", "qhahn", "--config", qhahn_config, "-o", str(tmp_path / "x.csv")])


def test_sample_rows_cover_every_facet_and_color(tmp_path, qhahn_config, capsys):
    out = tmp_path / "h.csv"
    assert run(["sample", "qhahn", "--config", qhahn_config, "--samples", "3", "--seed", "2",
                "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    rows = [tuple(int(v) for v in line.split(",")) for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 3 * 2 * 3 * 3
    assert [row[1:4] for row in rows[:4]] == [(1, 1, 1), (1, 3, 1), (1, 5, 1), (3, 1, 1)]
    assert rows[0][4] == 0  # heights vanish at (1/2, 1/2)
    assert all(v >= 0 for *_, v in rows)
    # a leading replica column: replica r holds rows r * 18 .. r * 18 + 17
    assert [row[0] for row in rows] == [r for r in range(3) for _ in range(2 * 3 * 3)]


def test_failing_ybe_check_keeps_its_records(monkeypatch, capsys):
    import qhahn_polymer.weights as weights

    real, calls = weights.ybe_residual, []

    def second_trial_fails(*args):
        calls.append(args)
        return 1 if len(calls) == 2 else real(*args)

    monkeypatch.setattr(weights, "ybe_residual", second_trial_fails)
    code = run(["verify", "ybe", "--trials", "3", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_VALIDATION
    assert "nonzero residuals: 1" in captured.err
    *recs, manifest = [json.loads(line) for line in captured.out.splitlines()]
    assert [(rec["trial"], rec["residual_zero"]) for rec in recs] == [(0, True), (1, False), (2, True)]
    assert manifest["manifest"] and manifest["summary"] == {"kind": "qhahn", "trials": 3, "nonzero_residuals": 1}


def test_failing_descent_check_records_every_contour(monkeypatch, tmp_path, capsys):
    import qhahn_polymer.asymptotics as asymptotics

    real = asymptotics.check_steep_descent

    def circle_fails(hf, which, **kwargs):
        ok, profile = real(hf, which, **kwargs)
        return ok and which != "circle", profile

    monkeypatch.setattr(asymptotics, "check_steep_descent", circle_fails)
    out = tmp_path / "d.jsonl"
    code = run(["descent", "--which", "line", "circle", "arcs", "-o", str(out)])
    assert code == EXIT_VALIDATION
    assert "descent profile check failed for circle" in capsys.readouterr().err
    _, *recs, manifest = [json.loads(line) for line in out.read_text().splitlines()]
    assert [(rec["contour"], rec["monotone_or_positive"]) for rec in recs] == [
        ("line", True), ("circle", False), ("arcs", True)]
    assert manifest["manifest"]


_MANIFEST_KEYS = {"manifest", "version", "seed", "workers", "argv", "numpy", "blas", "blas_version", "blas_threads"}
_VALUE_KEYS = {"request", "value_re", "value_im", "nodes", "converged"}
_MB_KEYS = {"nodes_C", "nodes_L", "T", "panels", "tail"}
_HECKE_KEYS = {"quadratic", "braid", "word_independence", "composition", "symmetric_eigenvalue"}


@pytest.mark.parametrize("argv, config, record_keys, summary_keys", [
    (["verify", "ybe", "--trials", "2"], None, [{"trial", "kind", "residual_zero"}] * 2,
     {"kind", "trials", "nonzero_residuals"}),
    (["verify", "stochastic", "--trials", "2"], None, [{"trial", "ok"}] * 2, {"trials", "failures"}),
    (["verify", "local-alg", "--trials", "2"], None, [{"trial", "ok"}] * 2, {"trials", "failures"}),
    (["verify", "local-rat", "--trials", "2"], None, [{"trial", "r", "residual"}] * 2, {"trials", "worst_residual"}),
    (["verify", "hecke", "--trials", "2"], None, [_HECKE_KEYS], _HECKE_KEYS),
    (["moments", "qhahn", "--x", "0.5", "--y", "2.5", "--colors-list", "1"], "qhahn_config", [_VALUE_KEYS], None),
    (["moments", "polymer", "--x", "1", "--y", "3", "--r", "0"], "polymer_config", [_VALUE_KEYS], None),
    (["moments", "single-contour", "--x", "1", "--y", "3"], "polymer_config", [_VALUE_KEYS], None),
    (["polymer", "brute", "--x", "2", "--y", "5"], "polymer_config",
     [{"dp", "bruteforce", "rwre", "max_abs_diff"}], None),
    (["polymer", "mc", "--x", "2", "--y", "5", "--samples", "50"], "polymer_config", [{"n", "moments"}], None),
    (["polymer", "mc", "--x", "2", "--y", "5", "--samples", "50", "--log"], "polymer_config",
     [{"n", "log_mean", "log_sd"}], None),
    (["fredholm", "laplace"], "polymer_config", [{"u_re", "u_im", "det_re", "det_im", "converged"} | _MB_KEYS], None),
    (["fredholm", "mb-check"], "polymer_config",
     [{"u_re", "series_re", "mb_re", "abs_diff", "series_nodes", "series_converged", "series_terms",
       "mb_converged"} | _MB_KEYS], None),
    (["fredholm", "tw-cdf"], None, [{"r", "F2", "nodes", "converged"}], None),
    (["tw", "--t", "12", "--samples", "120", "--workers", "1"], None,
     [{"t", "ks", "n", "ks_null_mean", "ks_null_95", "mean", "sd", "regime"}], None),
    (["descent", "--which", "line", "arcs"], None,
     [{"h_checks"}] + [{"contour", "monotone_or_positive", "profile_head"}] * 2, None),
], ids=lambda v: " ".join(v) if isinstance(v, list) and isinstance(v[0], str) else None)
def test_output_schema_is_pinned(request, tmp_path, capsys, argv, config, record_keys, summary_keys):
    # the record, manifest and verify-summary key sets of every JSON-lines subcommand
    out = tmp_path / "o.jsonl"
    if config is not None:
        argv = [*argv, "--config", request.getfixturevalue(config)]
    assert run([*argv, "-o", str(out)]) == EXIT_OK
    capsys.readouterr()
    *recs, manifest = [json.loads(line) for line in out.read_text().splitlines()]
    assert [set(rec) for rec in recs] == record_keys
    extra = {"config"} if config is not None else set()
    if summary_keys is not None:
        assert set(manifest.pop("summary")) == summary_keys
    assert set(manifest) == _MANIFEST_KEYS | extra
