"""Batch front end for sweeps, audits, and report files.

Subcommands
-----------
converge   width sweep of ||R_eps - R_limit|| with monotonicity verdict
spectrum   ground-state energies per width, with linear extrapolation
bounds     the full inequality audit sweep (CSV + block-norm table)
kernels    Green's function tables, closed form vs quadrature
kk-check   block-factorized resolvent against the dense direct solve
forms      trace/form identity residuals on random fields

Configuration is an INI file (every section and key optional; built-in
defaults otherwise):

    [system]
    masses = 1.0, 1.0
    g = 1.0

    [grid]
    npoints = 64, 128        ; ladder, paired with box entries
    box = 12.8, 12.8         ; single value broadcasts

    [converge]
    z = -20.0                ; list allowed
    eps = 0.4, 0.2, 0.1, 0.05
    iters = 12
    restarts = 2
    tol = 1e-10

    [spectrum]
    eps = 0.4, 0.2
    shift = -2.0
    steps = 80
    tol = 1e-9

    [kk]
    z = -16.0
    eps = 0.25
    probes = 10
    tol = 1e-10
    tolerance = 1e-6         ; verdict threshold on the deviation

    [kernels]
    dims = 1, 3, 4
    z = -1.0
    x_min = 0.1
    x_max = 2.0
    points = 20

    [forms]
    count = 25

    [bounds]
    samples = 1000000

Reports land in --out (or $DELTARESOLVENT_OUT, default ./reports) as
<command>.csv plus <command>.json; CSV bodies are byte-identical across
reruns with the same config and seed, while timestamps and wallclock
live in the JSON.  Exit codes: 0 pass, 1 internal error, 2 config
error, 3 solver non-convergence, 4 a verified bound or contract FAILED.
"""

import argparse
import configparser
import contextlib
import csv
import json
import math
import os
import sys
import time

import numpy as np
import scipy.fft

from . import __version__
from . import audits as auditsmod
from . import blocks as blocksmod
from . import forms as formsmod
from . import greens
from . import grid as gridmod
from . import resolvent as resolventmod
from . import system as sysmod
from .bump import DEFAULT_PROFILE
from .errors import (AboveThreshold, ConfigError, DeltaResolventError,
                     NoConvergence, PotentialOverflowsBox, SeriesDiverging,
                     ShiftTooCloseToSpectrum, UnresolvedBump)

_FLOAT_FMT = "%.17g"


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _parse_float_list(text, what):
    try:
        values = [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise ConfigError("%s: expected numbers, got %r" % (what, text))
    if not values:
        raise ConfigError("%s: empty list" % what)
    return values


def _parse_int_list(text, what):
    values = _parse_float_list(text, what)
    out = []
    for v in values:
        if v != int(v):
            raise ConfigError("%s: expected integers, got %r" % (what, text))
        out.append(int(v))
    return out


def load_config(path):
    cfg = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    if path is not None:
        if not os.path.exists(path):
            raise ConfigError("config file not found: %s" % path)
        try:
            with open(path) as fh:
                cfg.read_file(fh)
        except configparser.Error as exc:
            raise ConfigError("config parse error: %s" % exc)
    return cfg


def _get(cfg, section, key, default):
    if cfg.has_option(section, key):
        return cfg.get(section, key)
    return default


def _system_from(cfg):
    masses_text = _get(cfg, "system", "masses", "1.0, 1.0")
    g_text = _get(cfg, "system", "g", "1.0")
    try:
        masses = sysmod.parse_masses(masses_text)
        spec = sysmod.SystemSpec(masses=masses, g=float(g_text))
    except ValueError as exc:
        raise ConfigError("system section: %s" % exc)
    return spec


def _grid_ladder(cfg, ndim, default_npoints, default_box):
    npoints = _parse_int_list(
        _get(cfg, "grid", "npoints", default_npoints), "grid npoints")
    boxes = _parse_float_list(_get(cfg, "grid", "box", default_box),
                              "grid box")
    if len(boxes) == 1:
        boxes = boxes * len(npoints)
    if len(boxes) != len(npoints):
        raise ConfigError("grid section: %d npoints entries vs %d box entries"
                          % (len(npoints), len(boxes)))
    grids = []
    for n, box in zip(npoints, boxes):
        if n < 8:
            raise ConfigError("grid npoints must be at least 8, got %d" % n)
        if box <= 0:
            raise ConfigError("grid box must be positive, got %g" % box)
        grids.append(gridmod.Grid(n, box, ndim))
    return grids


def _check_spectral_points(z_values, spec, force, what):
    z0 = sysmod.bound_constants(spec).threshold
    for z in z_values:
        if z >= 0:
            raise ConfigError("%s: z = %g must be negative" % (what, z))
        if z >= z0 and not force:
            raise ConfigError(
                "%s: z = %g is not below the inversion threshold z0 = %g "
                "(--force unlocks this, unsupported)" % (what, z, z0))


def _check_widths(eps_values, what):
    for eps in eps_values:
        if eps <= 0:
            raise ConfigError("%s: widths must be positive, got %g"
                              % (what, eps))


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------


def _fmt(value):
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return str(value)


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _metadata(args, command, wallclock_ms):
    return {
        "command": command,
        "version": __version__,
        "seed": args.seed,
        "threads": scipy.fft.get_workers(),
        "blas_threads": args.blas_threads,
        "force": bool(args.force),
        "supported": not bool(args.force),
        "profile": {
            "support_radius": DEFAULT_PROFILE.support_radius,
            "normalization": DEFAULT_PROFILE.normalization,
        },
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wallclock_ms": wallclock_ms,
    }


def _json_coerce(value):
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    raise TypeError("not JSON serializable: %r" % (value,))


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_json_coerce)
        fh.write("\n")


def _write_report(args, command, wallclock_ms, header, rows, fields):
    """Write <command>.csv and <command>.json; return the report directory.

    The JSON payload is the run metadata updated with ``fields``.
    """
    out = args.out or os.environ.get("DELTARESOLVENT_OUT") or "reports"
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, command + ".csv"), header, rows)
    payload = _metadata(args, command, wallclock_ms)
    payload.update(fields)
    _write_json(os.path.join(out, command + ".json"), payload)
    return out


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_converge(args, cfg):
    spec = _system_from(cfg)
    grids = _grid_ladder(cfg, spec.n, "64", "12.8")
    z_values = _parse_float_list(_get(cfg, "converge", "z", "-20.0"),
                                 "converge z")
    eps_values = _parse_float_list(
        _get(cfg, "converge", "eps", "0.4, 0.2, 0.1, 0.05"), "converge eps")
    iters = int(_get(cfg, "converge", "iters", "12"))
    restarts = int(_get(cfg, "converge", "restarts", "2"))
    tol = float(_get(cfg, "converge", "tol", "1e-10"))
    _check_spectral_points(z_values, spec, args.force, "converge")
    _check_widths(eps_values, "converge")

    start = time.perf_counter()
    report = resolventmod.convergence_sweep(
        spec, z_values, eps_values, grids,
        rng=np.random.default_rng(args.seed), iters=iters, restarts=restarts,
        tol=tol)
    wall = 1000.0 * (time.perf_counter() - start)

    rows = [(e.level, e.npoints, e.box, e.z, e.eps, e.distance, e.spread)
            for e in report.entries]
    monotone = {}
    for level in range(len(grids)):
        for z in z_values:
            monotone["%d,%g" % (level, z)] = report.monotone(level, z)
    _write_report(args, "converge", wall,
                  ("level", "npoints", "box", "z", "eps", "distance", "spread"),
                  rows, {
        "spec": {"masses": list(spec.masses), "g": spec.g},
        "grid": [{"npoints": g.npoints, "box": g.box} for g in grids],
        "z": z_values,
        "eps": eps_values,
        "mode_pair": ["konno-kuroda", "limit"],
        "entries": [{
            "level": e.level, "z": e.z, "eps": e.eps,
            "distance": e.distance, "iterations": e.iterations,
            "wallclock_ms": e.wallclock_ms,
        } for e in report.entries],
        "orders": {"%d,%g" % k: v for k, v in report.orders.items()},
        "monotone": monotone,
    })
    ok = all(monotone.values())
    print("converge: %d entries, monotone=%s" % (len(report.entries), ok))
    return 0 if ok else 4


def cmd_spectrum(args, cfg):
    spec = _system_from(cfg)
    grids = _grid_ladder(cfg, spec.n, "512", "25.6")
    eps_values = _parse_float_list(_get(cfg, "spectrum", "eps", "0.4, 0.2"),
                                   "spectrum eps")
    shift = float(_get(cfg, "spectrum", "shift", "-2.0"))
    steps = int(_get(cfg, "spectrum", "steps", "80"))
    tol = float(_get(cfg, "spectrum", "tol", "1e-9"))
    _check_widths(eps_values, "spectrum")
    if shift >= 0:
        raise ConfigError("spectrum: shift must be negative, got %g" % shift)

    start = time.perf_counter()
    rows = []
    table = {}
    for level, grid in enumerate(grids):
        energies = []
        for eps in eps_values:
            e = resolventmod.ground_energy(
                grid, spec, eps, shift=shift, steps=steps, tol=tol,
                rng=np.random.default_rng(args.seed))
            energies.append(e)
            rows.append((level, grid.npoints, grid.box, eps, e, ""))
        extrapolated = None
        if len(energies) >= 2:
            e1, e2 = energies[-2], energies[-1]
            w1, w2 = eps_values[-2], eps_values[-1]
            extrapolated = (w1 * e2 - w2 * e1) / (w1 - w2)
            rows.append((level, grid.npoints, grid.box, 0.0, extrapolated,
                         "extrapolated"))
        table[level] = (energies, extrapolated)
    wall = 1000.0 * (time.perf_counter() - start)

    fields = {
        "spec": {"masses": list(spec.masses), "g": spec.g},
        "grid": [{"npoints": g.npoints, "box": g.box} for g in grids],
        "eps": eps_values,
        "shift": shift,
        "levels": {
            str(level): {"energies": energies, "extrapolated": extrapolated}
            for level, (energies, extrapolated) in table.items()
        },
    }
    if spec.n == 2 and spec.g > 0:
        pair = sysmod.enumerate_pairs(spec)[0]
        analytic = -pair.mu * spec.g ** 2 / 2.0
        fields["analytic"] = analytic
        last = table[len(grids) - 1][1]
        if last is not None:
            fields["relative_deviation"] = abs(last - analytic) / abs(analytic)
    _write_report(args, "spectrum", wall,
                  ("level", "npoints", "box", "eps", "energy", "note"), rows,
                  fields)
    for level, (energies, extrapolated) in table.items():
        msg = ", ".join("E(%g)=%.6f" % (w, e)
                        for w, e in zip(eps_values, energies))
        if extrapolated is not None:
            msg += ", extrapolated=%.6f" % extrapolated
        print("spectrum level %d: %s" % (level, msg))
    return 0


def _default_block_rows(seed):
    """Block norms against their claims for the bounds report."""
    rows = []
    grid1 = auditsmod.default_audit_grid()
    spec2 = sysmod.SystemSpec(masses=(1.0, 1.0), g=1.0)
    pair = sysmod.enumerate_pairs(spec2)[0]
    z = -25.0
    for eps in (0.4, 0.2, 0.1):
        block = blocksmod.DiagonalBlock(grid1, spec2, pair, z, eps)
        norm = block.norm()
        bound = block.claimed_bound()
        rows.append(("(1,2)", "(1,2)", eps, norm, bound, norm / bound))
    spec3 = sysmod.SystemSpec(masses=(1.0, 1.0, 1.0), g=1.0)
    grid3 = gridmod.Grid(16, 3.2, 1)
    shared = blocksmod.OffDiagonalBlock(
        grid3, spec3, sysmod.enumerate_pairs(spec3)[0],
        sysmod.enumerate_pairs(spec3)[1], z)
    norm = shared.norm(rng=np.random.default_rng(seed))
    bound = shared.claimed_bound()
    rows.append(("(1,2)", "(1,3)", "", norm, bound, norm / bound))
    return rows


def cmd_bounds(args, cfg):
    samples = int(_get(cfg, "bounds", "samples", "1000000"))
    if samples < 1000:
        raise ConfigError("bounds: samples must be at least 1000")

    start = time.perf_counter()
    results = auditsmod.run_default_sweep(seed=args.seed, samples=samples)
    block_rows = _default_block_rows(args.seed)
    wall = 1000.0 * (time.perf_counter() - start)

    rows = [(r.name, json.dumps(r.inputs, sort_keys=True), r.claimed,
             r.measured, r.mc_ci, "PASS" if r.passed else "FAIL")
            for r in results]
    failed = [r for r in results if not r.passed]
    out = _write_report(
        args, "bounds", wall,
        ("name", "inputs", "claimed", "measured", "ci", "verdict"), rows, {
            "samples": samples,
            "audits": len(results),
            "failed": [r.name for r in failed],
            "block_rows": len(block_rows),
        })
    _write_csv(os.path.join(out, "blocks.csv"),
               ("sigma", "nu", "eps", "norm", "bound", "ratio"), block_rows)
    print("bounds: %d audits, %d failed" % (len(results), len(failed)))
    for r in failed:
        print("  FAIL %s %s claimed=%.6g measured=%.6g"
              % (r.name, r.inputs, r.claimed, r.measured))
    return 0 if not failed else 4


def cmd_kernels(args, cfg):
    dims = _parse_int_list(_get(cfg, "kernels", "dims", "1, 3, 4"),
                           "kernels dims")
    z_values = _parse_float_list(_get(cfg, "kernels", "z", "-1.0"),
                                 "kernels z")
    x_min = float(_get(cfg, "kernels", "x_min", "0.1"))
    x_max = float(_get(cfg, "kernels", "x_max", "2.0"))
    points = int(_get(cfg, "kernels", "points", "20"))
    for d in dims:
        if d not in (1, 2, 3, 4):
            raise ConfigError("kernels: dimension %d not supported" % d)
    for z in z_values:
        if z >= 0:
            raise ConfigError("kernels: z = %g must be negative" % z)
    if not (0 < x_min < x_max):
        raise ConfigError("kernels: need 0 < x_min < x_max")
    if points < 2:
        raise ConfigError("kernels: need at least 2 lattice points")

    start = time.perf_counter()
    lattice = np.linspace(x_min, x_max, points)
    rows = []
    for d in dims:
        for z in z_values:
            for x in lattice:
                if d != 2:
                    rows.append((d, z, float(x),
                                 greens.greens_closed(d, z, float(x)),
                                 "closed"))
                rows.append((d, z, float(x),
                             greens.greens_quadrature(d, z, float(x)),
                             "quadrature"))
    wall = 1000.0 * (time.perf_counter() - start)

    _write_report(args, "kernels", wall, ("d", "z", "x", "value", "method"),
                  rows, {"dims": dims, "z": z_values,
                         "lattice": [float(x) for x in lattice]})
    print("kernels: %d rows" % len(rows))
    return 0


def cmd_kk_check(args, cfg):
    spec = _system_from(cfg)
    grids = _grid_ladder(cfg, spec.n, "64", "4.0")
    grid = grids[0]
    z = float(_get(cfg, "kk", "z", "-16.0"))
    eps = float(_get(cfg, "kk", "eps", "0.25"))
    probes = int(_get(cfg, "kk", "probes", "10"))
    tol = float(_get(cfg, "kk", "tol", "1e-10"))
    threshold = float(_get(cfg, "kk", "tolerance", "1e-6"))
    _check_spectral_points([z], spec, args.force, "kk")
    _check_widths([eps], "kk")
    if probes < 1:
        raise ConfigError("kk: need at least one probe")

    start = time.perf_counter()
    direct = resolventmod.DirectAssembly(grid, spec, z, eps, tol=tol)
    factored = resolventmod.FactoredAssembly(grid, spec, z, eps, tol=tol,
                                             force=args.force)
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    for k in range(probes):
        psi = (rng.standard_normal(grid.shape)
               + 1j * rng.standard_normal(grid.shape))
        ua = direct.apply(psi)
        ub = factored.apply(psi)
        dev = float(np.linalg.norm(ub - ua) / np.linalg.norm(ua))
        worst = max(worst, dev)
        rows.append((k, dev))
    wall = 1000.0 * (time.perf_counter() - start)

    _write_report(args, "kk-check", wall, ("probe", "deviation"), rows, {
        "spec": {"masses": list(spec.masses), "g": spec.g},
        "grid": {"npoints": grid.npoints, "box": grid.box},
        "z": z,
        "eps": eps,
        "mode_pair": ["konno-kuroda", "direct-grid"],
        "distance": worst,
        "iterations": probes,
        "wallclock_ms": wall,
        "threshold": threshold,
    })
    print("kk-check: max relative deviation %.3e over %d probes"
          % (worst, probes))
    return 0 if worst < threshold else 4


def cmd_forms(args, cfg):
    spec = _system_from(cfg)
    grids = _grid_ladder(cfg, spec.n, "64", "12.8")
    grid = grids[0]
    count = int(_get(cfg, "forms", "count", "25"))
    if count < 1:
        raise ConfigError("forms: count must be positive")

    start = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    pairs = sysmod.enumerate_pairs(spec)
    rows = []
    ok = True

    for k in range(count):
        f = gridmod.random_band_limited(grid, rng)
        res = formsmod.fourier_trace_identities(grid, f)
        for name, value in sorted(res.items()):
            verdict = value <= 1e-8
            ok = ok and verdict
            rows.append(("identity-" + name, k, value, 1e-8,
                         "PASS" if verdict else "FAIL"))

    for k in range(count):
        psi = gridmod.random_band_limited(grid, rng)
        h1 = formsmod.h1_norm_squared(grid, psi)
        for pair in pairs:
            t = formsmod.apply_trace(grid, spec, pair, psi)
            ratio = (grid.h ** (spec.n - 1)
                     * float(np.sum(np.abs(t) ** 2)) / h1)
            verdict = ratio <= 1.0
            ok = ok and verdict
            rows.append(("trace-bound-(%d,%d)" % (pair.i, pair.j), k,
                         ratio, 1.0, "PASS" if verdict else "FAIL"))

    for k in range(count):
        phi = gridmod.random_band_limited(grid, rng)
        psi = gridmod.random_band_limited(grid, rng)
        a = formsmod.evaluate_form(grid, spec, phi, psi)
        b = formsmod.evaluate_form(grid, spec, psi, phi)
        scale = max(abs(a), abs(b), 1.0)
        residual = abs(a - np.conj(b)) / scale
        verdict = residual <= 1e-10
        ok = ok and verdict
        rows.append(("hermiticity", k, residual, 1e-10,
                     "PASS" if verdict else "FAIL"))

    if spec.g < 0:
        for k in range(count):
            phi = gridmod.random_band_limited(grid, rng)
            q = formsmod.evaluate_form(grid, spec, phi, phi).real
            verdict = q >= -1e-10
            ok = ok and verdict
            rows.append(("positivity", k, q, 0.0,
                         "PASS" if verdict else "FAIL"))
    wall = 1000.0 * (time.perf_counter() - start)

    _write_report(args, "forms", wall,
                  ("check", "field", "value", "threshold", "verdict"), rows, {
        "spec": {"masses": list(spec.masses), "g": spec.g},
        "grid": {"npoints": grid.npoints, "box": grid.box},
        "count": count,
        "checks": len(rows),
        "all_pass": ok,
    })
    print("forms: %d checks, all_pass=%s" % (len(rows), ok))
    return 0 if ok else 4


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


_HANDLERS = {
    "converge": cmd_converge,
    "spectrum": cmd_spectrum,
    "bounds": cmd_bounds,
    "kernels": cmd_kernels,
    "kk-check": cmd_kk_check,
    "forms": cmd_forms,
}


def _thread_cap(args):
    """Context capping FFT workers and BLAS threads at ``args.threads``.

    FFT workers are set through scipy.fft; the BLAS cap needs threadpoolctl.
    Leaves in ``args.blas_threads`` the BLAS cap in force (None if none).
    """
    stack = contextlib.ExitStack()
    args.blas_threads = None
    if args.threads is None:
        return stack
    stack.enter_context(scipy.fft.set_workers(args.threads))
    try:
        import threadpoolctl
    except ImportError:
        print("warning: --threads %d not applied to BLAS: threadpoolctl is "
              "not installed" % args.threads, file=sys.stderr)
        return stack
    stack.enter_context(threadpoolctl.threadpool_limits(limits=args.threads))
    args.blas_threads = args.threads
    return stack


def build_parser():
    parser = argparse.ArgumentParser(
        prog="deltaresolvent",
        description="Contact-interaction resolvent toolbox: sweeps, "
                    "audits, and report files.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="INI configuration file")
    common.add_argument("--out", metavar="DIR",
                        help="report directory (default $DELTARESOLVENT_OUT "
                             "or ./reports)")
    common.add_argument("--seed", type=int, default=0, metavar="U64",
                        help="master RNG seed (default 0)")
    common.add_argument("--threads", type=int, default=None, metavar="N",
                        help="FFT worker threads; also caps BLAS threads "
                             "when threadpoolctl is installed")
    common.add_argument("--force", action="store_true",
                        help="unlock z at or above the inversion threshold "
                             "(unsupported; labeled in output metadata)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(_HANDLERS):
        sub.add_parser(name, parents=[common],
                       help="run the %s report" % name)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        print("error: seed must fit in 64 unsigned bits", file=sys.stderr)
        return 2
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be positive", file=sys.stderr)
        return 2
    handler = _HANDLERS[args.command]
    try:
        cfg = load_config(args.config)
        with _thread_cap(args):
            return handler(args, cfg)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except AboveThreshold as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (UnresolvedBump, PotentialOverflowsBox) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (NoConvergence, SeriesDiverging, ShiftTooCloseToSpectrum) as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 3
    except DeltaResolventError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, np.linalg.LinAlgError) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
