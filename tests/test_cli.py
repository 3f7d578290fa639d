import csv
import json

import pytest

from deltaresolvent.blocks import CHANNEL_TOL
from deltaresolvent.cli import main
from deltaresolvent.grid import EIGEN_TOL, LANCZOS_STEPS

D3_AT_ONE = 0.029274915762159584


def run(*argv):
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _reject_constant(name):
    raise ValueError("report holds %s, which is not JSON" % name)


def read_json(path):
    """Parse a report strictly: NaN and Infinity are not JSON."""
    with open(path) as fh:
        return json.load(fh, parse_constant=_reject_constant)


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
    assert meta["seed"] is None  # kernels draws no random numbers
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
    assert meta["probes"] == 4
    assert meta["distance"] < 1e-10
    assert meta["z"] == -16.0 and meta["eps"] == 0.25
    # the fixed precisions in force
    assert meta["channel_tol"] == CHANNEL_TOL and meta["threshold"] == 1e-6


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
        "[converge]", "z = -20.0", "eps = 0.4, 0.2", "",
    ]))
    out = tmp_path / "reports"
    assert run("converge", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "converge.csv")
    assert len(rows) == 2
    dists = [float(r["distance"]) for r in rows]
    assert dists[0] > dists[1] > 0.0
    meta = read_json(out / "converge.json")
    assert meta["mode_pair"] == ["konno-kuroda", "limit"]
    assert meta["channel_tol"] == CHANNEL_TOL
    assert meta["monotone"] == {"0,-20": True}
    assert "0,-20" in meta["orders"]
    for row, entry in zip(rows, meta["entries"]):
        # the spread column is the distance's Ritz residual, in the JSON too
        assert float(row["spread"]) == entry["spread"]
        assert 0.0 <= entry["spread"] <= 1e-4 * entry["distance"]
        assert entry["iterations"] > 1
    again = tmp_path / "again"
    assert run("converge", "--config", cfg, "--out", str(again)) == 0
    assert ((again / "converge.csv").read_bytes()
            == (out / "converge.csv").read_bytes())


def test_converge_forced_above_threshold(tmp_path):
    cfg = write_config(tmp_path, "\n".join([
        "[grid]", "npoints = 32", "box = 6.4",
        "[converge]", "z = -1.0", "eps = 0.4, 0.2", "",
    ]))
    out = tmp_path / "reports"
    # z0 = -2.25, so the sweep's own channel inversions need the unlock too
    assert run("converge", "--config", cfg, "--out", str(out),
               "--force") == 0
    meta = read_json(out / "converge.json")
    assert meta["force"] is True
    assert meta["supported"] is False


def test_spectrum_single_width(tmp_path):
    cfg = write_config(tmp_path, "\n".join([
        "[grid]", "npoints = 32", "box = 6.4",
        "[spectrum]", "eps = 0.8", "",
    ]))
    out = tmp_path / "reports"
    assert run("spectrum", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "spectrum.csv")
    assert len(rows) == 1  # single width, so no extrapolated row
    assert float(rows[0]["energy"]) == pytest.approx(-0.232196, abs=1e-4)
    meta = read_json(out / "spectrum.json")
    assert meta["analytic"] == pytest.approx(-0.25)
    assert meta["eigen_tol"] == EIGEN_TOL
    assert meta["lanczos_steps"] == LANCZOS_STEPS
    assert meta["levels"]["0"]["extrapolated"] is None
    assert "relative_deviation" not in meta


def test_spectrum_unconverged_lanczos_is_a_solver_error(tmp_path, capsys,
                                                         monkeypatch):
    monkeypatch.setattr("deltaresolvent.grid.LANCZOS_STEPS", 3)
    cfg = write_config(tmp_path, "\n".join([
        "[grid]", "npoints = 32", "box = 6.4",
        "[spectrum]", "eps = 0.8", "",
    ]))
    assert run("spectrum", "--config", cfg,
               "--out", str(tmp_path / "reports")) == 3
    assert "did not converge" in capsys.readouterr().err


def test_spectrum_repulsive_stays_nonnegative(tmp_path):
    cfg = write_config(tmp_path, "\n".join([
        "[system]", "g = -1.0",
        "[grid]", "npoints = 128", "box = 12.8",
        "[spectrum]", "eps = 0.4", "",
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
        "[spectrum]", "eps = 0.8", "shift = -3.0", "",
    ]))
    out = tmp_path / "reports"
    assert run("spectrum", "--config", cfg, "--out", str(out)) == 0
    rows = read_csv(out / "spectrum.csv")
    assert float(rows[0]["energy"]) == pytest.approx(-0.781766, abs=1e-3)
    assert float(rows[0]["energy"]) < -0.232196


def test_bounds_report(tmp_path):
    out = tmp_path / "reports"
    assert run("bounds", "--out", str(out)) == 0
    rows = read_csv(out / "bounds.csv")
    assert len(rows) == 60
    assert all(r["verdict"] == "PASS" for r in rows)
    blocks = read_csv(out / "blocks.csv")
    assert len(blocks) == 4
    assert all(float(r["ratio"]) <= 1.0 for r in blocks)
    meta = read_json(out / "bounds.json")
    assert meta["failed"] == []
    assert meta["audits"] == 60
    assert meta["seed"] is None  # the audits draw no random numbers


def test_bounds_report_does_not_follow_the_seed(tmp_path):
    """Every audit and kernel table is deterministic, so bounds and kernels
    take no --seed and their reports state none."""
    for command in ("bounds", "kernels"):
        with pytest.raises(SystemExit) as exc:
            run(command, "--seed", "5", "--out", str(tmp_path / "r"))
        assert exc.value.code == 2
        assert not (tmp_path / "r").exists()


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


def test_width_overflowing_the_box_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "\n".join([
        "[grid]", "npoints = 16", "box = 3.2",
        "[converge]", "eps = 2.0", "",
    ]))
    out = tmp_path / "reports"
    assert run("converge", "--config", cfg, "--out", str(out)) == 2
    assert "exceeds half box" in capsys.readouterr().err
    assert not out.exists()


def test_empty_width_list_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "[converge]\neps =\n")
    assert run("converge", "--config", cfg,
               "--out", str(tmp_path / "r")) == 2
    assert "empty list" in capsys.readouterr().err


def test_force_only_on_commands_it_unlocks(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("kernels", "--force", "--out", str(tmp_path / "r"))
    assert exc.value.code == 2
    assert not (tmp_path / "r").exists()


def test_single_width_converge_writes_strict_json(tmp_path):
    cfg = write_config(tmp_path, "\n".join([
        "[grid]", "npoints = 32", "box = 6.4",
        "[converge]", "eps = 0.4", "",
    ]))
    out = tmp_path / "reports"
    assert run("converge", "--config", cfg, "--out", str(out)) == 0
    assert read_json(out / "converge.json")["orders"] == {"0,-20": None}


def test_non_finite_report_value_is_an_internal_error(tmp_path, capsys,
                                                      monkeypatch):
    from deltaresolvent import cli

    def nan_report(args, cfg):
        return cli.Report(("x",), [(1.0,)], {"x": float("nan")}, True, "")

    monkeypatch.setitem(cli._HANDLERS, "kernels", nan_report)
    out = tmp_path / "r"
    assert run("kernels", "--out", str(out)) == 1
    assert "internal error" in capsys.readouterr().err
    assert not out.exists()


def test_argument_validation(tmp_path, capsys):
    out = str(tmp_path / "r")
    assert run("forms", "--seed", "-1", "--out", out) == 2
    assert run("kernels", "--threads", "0", "--out", out) == 2
    err = capsys.readouterr().err
    assert "seed" in err and "--threads" in err


def test_thread_cap_not_applied_is_recorded_as_null(tmp_path, capsys,
                                                   monkeypatch):
    from deltaresolvent import cli

    monkeypatch.setattr(cli, "_bundled_openblas", lambda: [])  # symbols missing
    plain, capped = tmp_path / "plain", tmp_path / "capped"
    assert run("kernels", "--out", str(plain)) == 0
    assert run("kernels", "--threads", "2", "--out", str(capped)) == 0
    assert capsys.readouterr().err == ""
    meta = read_json(capped / "kernels.json")
    assert meta["threads"] == 2  # FFT workers, set through scipy.fft
    assert meta["blas_threads"] is None
    assert read_json(plain / "kernels.json")["threads"] == 1
    assert ((capped / "kernels.csv").read_bytes()
            == (plain / "kernels.csv").read_bytes())


def test_blas_threads_are_capped_read_back_and_restored(tmp_path):
    from deltaresolvent.cli import _bundled_openblas

    controls = _bundled_openblas()
    if not controls:
        pytest.skip("numpy/scipy do not bundle OpenBLAS here")
    before = [get() for get, _ in controls]
    assert run("kernels", "--threads", "1", "--out", str(tmp_path)) == 0
    assert read_json(tmp_path / "kernels.json")["blas_threads"] == 1
    assert [get() for get, _ in controls] == before


def _thread_config(tmp_path):
    return write_config(tmp_path, "\n".join([
        "[grid]", "npoints = 64", "box = 4.0",
        "[kk]", "probes = 2",
        "[spectrum]", "eps = 0.8, 0.4", "",
    ]))


def _three_particle_config(tmp_path):
    """One n = 3 width: its spread's last digits followed a multi-threaded
    BLAS, which the n = 2 config above never showed."""
    return write_config(tmp_path, "\n".join([
        "[system]", "masses = 1, 1, 1",
        "[grid]", "npoints = 32", "box = 4.0",
        "[converge]", "eps = 0.2", "",
    ]))


_CSV_COMMANDS = pytest.mark.parametrize("command, tables, config", [
    ("kernels", ("kernels.csv",), _thread_config),
    ("forms", ("forms.csv",), _thread_config),
    ("bounds", ("bounds.csv", "blocks.csv"), _thread_config),
    ("kk-check", ("kk-check.csv",), _thread_config),
    ("spectrum", ("spectrum.csv",), _thread_config),
    ("converge", ("converge.csv",), _thread_config),
    ("converge", ("converge.csv",), _three_particle_config),
], ids=["kernels", "forms", "bounds", "kk-check", "spectrum", "converge",
        "converge-n3"])


@_CSV_COMMANDS
def test_thread_count_leaves_csv_bodies_unchanged(tmp_path, command, tables,
                                                 config):
    """--threads sets the FFT workers only: BLAS runs at one thread in every
    command, since the last digits of LAPACK and GEMM results (blocks.csv's
    eigenvalue, the dense sector inverses behind kk-check.csv and spectrum.csv,
    the ARPACK sweep behind converge.csv) follow the BLAS thread count."""
    cfg = config(tmp_path)
    one, two = tmp_path / "one", tmp_path / "two"
    for threads, out in (("1", one), ("2", two)):
        assert run(command, "--config", cfg, "--threads", threads,
                   "--out", str(out)) == 0
    meta = read_json(two / (command + ".json"))
    assert meta["threads"] == 2
    assert meta["blas_threads"] in (1, None)
    for table in tables:
        assert (one / table).read_bytes() == (two / table).read_bytes()


@_CSV_COMMANDS
def test_blas_thread_environment_leaves_csv_bodies_unchanged(tmp_path, command,
                                                             tables, config):
    """The default path: no --threads, and the BLAS thread count set by
    OPENBLAS_NUM_THREADS, which OpenBLAS reads once at load, so each count
    runs in a process of its own; the CLI sets it to one either way."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import deltaresolvent

    cfg = config(tmp_path)
    path = [str(Path(deltaresolvent.__file__).resolve().parents[1]),
            os.environ.get("PYTHONPATH", "")]
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, path)))
        subprocess.run([sys.executable, "-m", "deltaresolvent.cli", command,
                        "--config", cfg, "--out", str(tmp_path / threads)],
                       env=env, check=True, capture_output=True)
    assert read_json(tmp_path / "2" / (command + ".json"))["blas_threads"] in (1, None)
    for table in tables:
        assert ((tmp_path / "1" / table).read_bytes()
                == (tmp_path / "2" / table).read_bytes())


@pytest.mark.parametrize("command, section, key, value", [
    ("converge", "converge", "iters", "12"),  # a key that no longer exists
    ("converge", "converge", "tol", "-1"),
    ("converge", "converge", "tol", "1e-10"),  # fixed precisions: no keys
    ("kk-check", "kk", "z", "minus"),
    ("kk-check", "kk", "tolerance", "-1"),
    ("kk-check", "kk", "tolerance", "1e-6"),
    ("kk-check", "kk", "tol", "1e-10"),
    ("forms", "forms", "count", "2.5"),
    ("spectrum", "spectrum", "steps", "0"),  # the Lanczos budget is fixed
    ("spectrum", "spectrum", "tol", "-1"),
    ("spectrum", "spectrum", "tol", "1e-9"),
    ("kernels", "kernels", "point", "3"),
    ("forms", "form", "count", "5"),
    ("kernels", "DEFAULT", "masses", "1.0, 2.0"),
    ("forms", "grid", "box", "inf"),  # non-finite values
    ("kernels", "kernels", "x_max", "inf"),
    ("converge", "converge", "z", "-inf"),
    ("kk-check", "kk", "eps", "nan"),
    ("forms", "system", "g", "inf"),
    ("forms", "system", "masses", "1.0, nan"),
    ("spectrum", "spectrum", "eps", "0.8, 0.8"),  # width lists must decrease
    ("converge", "converge", "eps", "0.4, 0.4"),
    ("converge", "converge", "eps", "0.1, 0.2, 0.4"),
    ("converge", "converge", "z", "-20, -20"),  # a repeat merges two sweeps
    ("forms", "grid", "npoints", "16, 32"),  # single-grid commands take no ladder
    ("kk-check", "grid", "box", "4.0, 8.0"),
    ("bounds", "bounds", "samples", "1000000"),  # the audits draw no samples
])
def test_bad_value_is_a_config_error_naming_its_key(tmp_path, capsys, command,
                                                    section, key, value):
    cfg = write_config(tmp_path, "[%s]\n%s = %s\n" % (section, key, value))
    out = tmp_path / "r"
    assert run(command, "--config", cfg, "--out", str(out)) == 2
    assert "%s %s" % (section, key) in capsys.readouterr().err
    assert not out.exists()


def test_readme_config_block_matches_the_options_table():
    """The README's Configuration block lists every key, with the table's
    defaults outside [grid] (whose defaults depend on the command)."""
    import configparser
    from pathlib import Path

    from deltaresolvent.cli import _OPTIONS

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Configuration"):]
    block = section[section.index("```ini\n") + 7:]
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";",))
    cfg.read_string(block[:block.index("```")])
    assert {s: set(cfg[s]) for s in cfg.sections()} == {
        s: set(keys) for s, keys in _OPTIONS.items()}
    for section, keys in _OPTIONS.items():
        if section == "grid":
            continue
        for key, (parse, default, _) in keys.items():
            assert parse(cfg[section][key]) == parse(default), (section, key)


def test_readme_usage_block_matches_the_parser():
    """Each line of the README's command-line block names the commands that
    take its flags (<command>: all six), and every flag has a line."""
    import argparse
    import re
    from pathlib import Path

    from deltaresolvent.cli import _HANDLERS, build_parser

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Command line"):]
    block = section[section.index("```sh\n") + 6:]
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices

    def takers(flag):
        return {name for name, sub in commands.items()
                if any(flag in a.option_strings for a in sub._actions)}

    listed = set()
    for line in block[:block.index("```")].splitlines():
        names = re.match(r"deltaresolvent (<command>|\{([\w,-]+)\})", line)
        names = set(_HANDLERS) if names[2] is None else set(names[2].split(","))
        for flag in re.findall(r"\[(--[\w-]+)", line):
            assert takers(flag) == names, flag
            listed.add(flag)
    assert listed == {s for sub in commands.values() for a in sub._actions
                      for s in a.option_strings if s.startswith("--")} - {"--help"}


def test_bad_grid_size_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, "[grid]\nnpoints = 4\n")
    assert run("forms", "--config", cfg,
               "--out", str(tmp_path / "r")) == 2
    assert "at least 8" in capsys.readouterr().err
