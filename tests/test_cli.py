import csv
import json
import sys

import pytest

from deltaresolvent.cli import main

D3_AT_ONE = 0.029274915762159584


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def write_config(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


def test_kernels_report(tmp_path):
    out = tmp_path / "reports"
    assert run("kernels", "--out", str(out)) == 0
    rows = read_csv(out / "kernels.csv")
    # three dims, one z, 20 lattice points, closed + quadrature
    assert len(rows) == 120
    closed_d3 = [r for r in rows
                 if r["d"] == "3" and r["method"] == "closed"]
    nearest = min(closed_d3, key=lambda r: abs(float(r["x"]) - 1.0))
    assert float(nearest["value"]) == pytest.approx(D3_AT_ONE, rel=1e-10)
    meta = read_json(out / "kernels.json")
    assert meta["command"] == "kernels"
    assert meta["seed"] == 0
    assert meta["supported"] is True
    assert meta["profile"]["support_radius"] == 1.0
    assert meta["profile"]["normalization"] == pytest.approx(
        2.7411551457069723, rel=1e-12)
    assert "timestamp" in meta and "wallclock_ms" in meta


def test_kernels_rerun_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("kernels", "--out", str(a)) == 0
    assert run("kernels", "--out", str(b)) == 0
    assert (a / "kernels.csv").read_bytes() == (b / "kernels.csv").read_bytes()


def test_out_dir_environment_fallback(tmp_path, monkeypatch):
    target = tmp_path / "envreports"
    monkeypatch.setenv("DELTARESOLVENT_OUT", str(target))
    monkeypatch.chdir(tmp_path)
    assert run("kernels") == 0
    assert (target / "kernels.csv").exists()


def test_kk_check_report(tmp_path):
    cfg = write_config(tmp_path, "[kk]\nprobes = 4\n")
    out = tmp_path / "reports"
    assert run("kk-check", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "kk-check.csv")
    assert len(rows) == 4
    assert all(float(r["deviation"]) < 1e-10 for r in rows)
    meta = read_json(out / "kk-check.json")
    assert meta["mode_pair"] == ["konno-kuroda", "direct-grid"]
    assert meta["iterations"] == 4
    assert meta["distance"] < 1e-10
    assert meta["z"] == -16.0 and meta["eps"] == 0.25


def test_kk_check_forced_above_threshold(tmp_path):
    cfg = write_config(tmp_path, "[kk]\nz = -1.0\nprobes = 2\n")
    out = tmp_path / "reports"
    # z0 = -2.25 for unit masses at g = 1, so -1.0 needs the unlock
    assert run("kk-check", "--config", cfg, "--out", str(out)) == 2
    assert not (out / "kk-check.csv").exists()
    assert run("kk-check", "--config", cfg, "--out", str(out),
               "--force") == 0
    meta = read_json(out / "kk-check.json")
    assert meta["force"] is True
    assert meta["supported"] is False
    assert meta["distance"] < 1e-6


def test_converge_report(tmp_path):
    cfg = write_config(tmp_path, "\n".join([
        "[grid]", "npoints = 32", "box = 6.4",
        "[converge]", "z = -20.0", "eps = 0.4, 0.2",
        "iters = 8", "restarts = 1", "",
    ]))
    out = tmp_path / "reports"
    assert run("converge", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "converge.csv")
    assert len(rows) == 2
    dists = [float(r["distance"]) for r in rows]
    assert dists[0] > dists[1] > 0.0
    meta = read_json(out / "converge.json")
    assert meta["mode_pair"] == ["konno-kuroda", "limit"]
    assert meta["monotone"] == {"0,-20": True}
    assert "0,-20" in meta["orders"]


def test_spectrum_single_width(tmp_path):
    cfg = write_config(tmp_path, "\n".join([
        "[grid]", "npoints = 32", "box = 6.4",
        "[spectrum]", "eps = 0.8", "steps = 40", "",
    ]))
    out = tmp_path / "reports"
    assert run("spectrum", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "spectrum.csv")
    assert len(rows) == 1  # single width, so no extrapolated row
    assert float(rows[0]["energy"]) == pytest.approx(-0.232196, abs=1e-4)
    meta = read_json(out / "spectrum.json")
    assert meta["analytic"] == pytest.approx(-0.25)
    assert meta["levels"]["0"]["extrapolated"] is None
    assert "relative_deviation" not in meta


def test_spectrum_unconverged_lanczos_is_a_solver_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "\n".join([
        "[grid]", "npoints = 32", "box = 6.4",
        "[spectrum]", "eps = 0.8", "steps = 3", "",
    ]))
    assert run("spectrum", "--config", cfg,
               "--out", str(tmp_path / "reports")) == 3
    assert "did not converge" in capsys.readouterr().err


def test_spectrum_repulsive_stays_nonnegative(tmp_path):
    cfg = write_config(tmp_path, "\n".join([
        "[system]", "g = -1.0",
        "[grid]", "npoints = 128", "box = 12.8",
        "[spectrum]", "eps = 0.4", "steps = 40", "",
    ]))
    out = tmp_path / "reports"
    assert run("spectrum", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "spectrum.csv")
    assert float(rows[0]["energy"]) > -1e-6
    meta = read_json(out / "spectrum.json")
    assert "analytic" not in meta


def test_spectrum_three_particles_binds_deeper(tmp_path):
    cfg = write_config(tmp_path, "\n".join([
        "[system]", "masses = 1.0, 1.0, 1.0",
        "[grid]", "npoints = 32", "box = 6.4",
        "[spectrum]", "eps = 0.8", "shift = -3.0", "steps = 40", "",
    ]))
    out = tmp_path / "reports"
    assert run("spectrum", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "spectrum.csv")
    assert float(rows[0]["energy"]) == pytest.approx(-0.781766, abs=1e-3)
    assert float(rows[0]["energy"]) < -0.232196


def test_bounds_report(tmp_path):
    cfg = write_config(tmp_path, "[bounds]\nsamples = 100000\n")
    out = tmp_path / "reports"
    assert run("bounds", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "bounds.csv")
    assert len(rows) == 60
    assert all(r["verdict"] == "PASS" for r in rows)
    blocks = read_csv(out / "blocks.csv")
    assert len(blocks) == 4
    assert all(float(r["ratio"]) <= 1.0 for r in blocks)
    meta = read_json(out / "bounds.json")
    assert meta["failed"] == []
    assert meta["audits"] == 60


def test_forms_report(tmp_path):
    cfg = write_config(tmp_path, "[forms]\ncount = 5\n")
    out = tmp_path / "reports"
    assert run("forms", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "forms.csv")
    # 3 identities + 1 trace bound + 1 hermiticity per field at n = 2
    assert len(rows) == 25
    assert all(r["verdict"] == "PASS" for r in rows)
    assert not any(r["check"] == "positivity" for r in rows)
    meta = read_json(out / "forms.json")
    assert meta["all_pass"] is True


def test_forms_checks_positivity_for_repulsive_coupling(tmp_path):
    cfg = write_config(tmp_path,
                       "[system]\ng = -2.0\n[forms]\ncount = 3\n")
    out = tmp_path / "reports"
    assert run("forms", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "forms.csv")
    positivity = [r for r in rows if r["check"] == "positivity"]
    assert len(positivity) == 3
    assert all(r["verdict"] == "PASS" for r in positivity)


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "reports"
    code = run("kernels", "--config", str(tmp_path / "absent.ini"),
               "--out", str(out))
    assert code == 2
    assert "config file not found" in capsys.readouterr().err
    assert not out.exists()


def test_threshold_gate_names_both_numbers(tmp_path, capsys):
    cfg = write_config(tmp_path, "[converge]\nz = -1.0\n")
    out = tmp_path / "reports"
    assert run("converge", "--config", cfg, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "z = -1" in err and "z0 = -2.25" in err
    assert not out.exists()


def test_empty_width_list_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "[converge]\neps =\n")
    assert run("converge", "--config", cfg,
               "--out", str(tmp_path / "r")) == 2
    assert "empty list" in capsys.readouterr().err


def test_argument_validation(tmp_path, capsys):
    out = str(tmp_path / "r")
    assert run("kernels", "--seed", "-1", "--out", out) == 2
    assert run("kernels", "--threads", "0", "--out", out) == 2
    err = capsys.readouterr().err
    assert "seed" in err and "--threads" in err


def test_thread_cap_not_applied_is_recorded_as_null(tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import fails
    plain, capped = tmp_path / "plain", tmp_path / "capped"
    assert run("kernels", "--out", str(plain)) == 0
    assert capsys.readouterr().err == ""
    assert run("kernels", "--threads", "2", "--out", str(capped)) == 0
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--threads 2 not applied" in err
    assert read_json(capped / "kernels.json")["threads"] is None
    assert ((capped / "kernels.csv").read_bytes()
            == (plain / "kernels.csv").read_bytes())


def test_bad_grid_size_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "[grid]\nnpoints = 4\n")
    assert run("forms", "--config", cfg,
               "--out", str(tmp_path / "r")) == 2
    assert "at least 8" in capsys.readouterr().err
