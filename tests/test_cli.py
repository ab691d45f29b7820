import json
from pathlib import Path

import numpy as np
import pytest

from qhahn_polymer.cli import EXIT_NUMERIC, EXIT_OK, EXIT_VALIDATION, main


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
    assert lines[0] == "facet_x2,facet_y2,color,value"
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
    assert rec["nodes"] == 192 and rec["converged"] is True
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
    monkeypatch.setitem(mm._NODE_STARTS, 1, 4)
    code = run(["moments", "qhahn", "--config", qhahn_config, "--x", "1.5", "--y", "2.5",
                "--colors-list", "2", "-o", str(tmp_path / "n.jsonl")])
    err = capsys.readouterr().err
    assert code == EXIT_NUMERIC
    assert "non-convergence" in err


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
    assert [row[:3] for row in rows[:4]] == [(1, 1, 1), (1, 3, 1), (1, 5, 1), (3, 1, 1)]
    assert rows[0][3] == 0  # heights vanish at (1/2, 1/2)
    assert all(v >= 0 for *_, v in rows)
