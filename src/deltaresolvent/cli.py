"""Batch front end for sweeps, audits, and report files.

Subcommands
-----------
converge   width sweep of ||R_eps - R_limit|| with monotonicity verdict
spectrum   ground-state energies per width, with linear extrapolation
bounds     the full inequality audit sweep (CSV + block-norm table)
kernels    Green's function tables, closed form vs quadrature
kk-check   block-factorized resolvent against the dense direct solve
forms      trace/form identity residuals on random fields

Configuration is an INI file whose sections and keys are all optional;
_OPTIONS below holds every key with its default and its check, and the
README's Configuration section lists them.  An unknown key or a bad
value is a config error that names its section and key.

Each command returns a Report; main times it, writes it to --out (or
$DELTARESOLVENT_OUT, default ./reports) as <command>.csv plus
<command>.json, and prints its summary.  CSV bodies are byte-identical
across reruns with the same config and seed, while timestamps and
wallclock live in the JSON.  Exit codes: 0 pass, 1 internal error, 2
config error (an unknown key, a bad value, or z not below z0 without
--force), 3 solver non-convergence, 4 a verified bound or contract FAILED.
"""

import argparse
import configparser
import contextlib
import csv
import ctypes
import glob
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass

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

# Largest relative kk-check deviation from the direct solve that passes.
_KK_THRESHOLD = 1e-6


# ---------------------------------------------------------------------------
# Config plumbing
# ---------------------------------------------------------------------------


def _number(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite, got %s" % text.strip())
    return value


def _numbers(text):
    values = [_number(tok) for tok in text.replace(",", " ").split()]
    if not values:
        raise ValueError("empty list")
    return values


def _widths(text):
    """A width sweep, widest first: its reports read the list in order."""
    values = _numbers(text)
    if any(b >= a for a, b in zip(values, values[1:])):
        raise ValueError("must strictly decrease, got %s" % text.strip())
    return values


def _distinct(text):
    """A list of sweep points, each its own: a repeat would merge two sweeps."""
    values = _numbers(text)
    if len(set(values)) < len(values):
        raise ValueError("repeats a value, got %s" % text.strip())
    return values


def _integers(text):
    values = _numbers(text)
    if not all(v.is_integer() for v in values):
        raise ValueError("expected integers, got %r" % text)
    return [int(v) for v in values]


_POSITIVE = (lambda v: v > 0, "must be positive")
_NEGATIVE = (lambda v: v < 0, "must be negative")

# section -> key -> (parser, default, check); a check is (predicate on each
# value, what it requires), None where the system spec validates instead.
# The grid defaults depend on the command, which passes its own.
_OPTIONS = {
    "system": {
        "masses": (sysmod.parse_masses, "1.0, 1.0",
                   (lambda m: 0 < m < math.inf, "must be positive and finite")),
        "g": (_number, "1.0", None),
    },
    "grid": {
        "npoints": (_integers, None,
                    (lambda n: n >= 8 and n & (n - 1) == 0,
                     "must be a power of two, at least 8")),
        "box": (_numbers, None, _POSITIVE),
    },
    "converge": {
        "z": (_distinct, "-20.0", _NEGATIVE),
        "eps": (_widths, "0.4, 0.2, 0.1, 0.05", _POSITIVE),
    },
    "spectrum": {
        "eps": (_widths, "0.4, 0.2", _POSITIVE),
        "shift": (_number, "-2.0", _NEGATIVE),
    },
    "kk": {
        "z": (_number, "-16.0", _NEGATIVE),
        "eps": (_number, "0.25", _POSITIVE),
        "probes": (int, "10", _POSITIVE),
    },
    "kernels": {
        "dims": (_integers, "1, 3, 4",
                 (lambda d: d in (1, 2, 3, 4), "must be 1, 2, 3 or 4")),
        "z": (_numbers, "-1.0", _NEGATIVE),
        "x_min": (_number, "0.1", _POSITIVE),
        "x_max": (_number, "2.0", _POSITIVE),
        "points": (int, "20", (lambda v: v >= 2, "must be at least 2")),
    },
    "forms": {
        "count": (int, "25", _POSITIVE),
    },
}


def _option(cfg, section, key, default=None):
    """Read, parse and check one config value (``default`` overrides the table's)."""
    parse, fallback, check = _OPTIONS[section][key]
    text = cfg.get(section, key, fallback=fallback if default is None else default)
    try:
        value = parse(text)
    except ValueError as exc:
        raise ConfigError("%s %s: %s" % (section, key, exc))
    if check is not None:
        ok, need = check
        for v in value if isinstance(value, (list, tuple)) else [value]:
            if not ok(v):
                raise ConfigError("%s %s: %s, got %s" % (section, key, need, _fmt(v)))
    return value


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
    # configparser copies [DEFAULT] into every section; no key may live there
    for section in [cfg.default_section] + cfg.sections():
        for key in cfg[section]:
            if key not in _OPTIONS.get(section, {}):
                raise ConfigError("%s %s: unknown key" % (section, key))
    return cfg


def _system_from(cfg):
    try:
        return sysmod.SystemSpec(masses=_option(cfg, "system", "masses"),
                                 g=_option(cfg, "system", "g"))
    except ValueError as exc:
        raise ConfigError("system section: %s" % exc)


def _grid_ladder(cfg, ndim, default_npoints, default_box):
    npoints = _option(cfg, "grid", "npoints", default_npoints)
    boxes = _option(cfg, "grid", "box", default_box)
    if len(boxes) == 1:
        boxes = boxes * len(npoints)
    if len(boxes) != len(npoints):
        raise ConfigError("grid section: %d npoints entries vs %d box entries"
                          % (len(npoints), len(boxes)))
    return [gridmod.Grid(n, box, ndim) for n, box in zip(npoints, boxes)]


def _one_grid(cfg, ndim, default_npoints, default_box):
    """The grid of a command that runs on one; a ladder there is a config error."""
    for key, default in (("npoints", default_npoints), ("box", default_box)):
        if len(_option(cfg, "grid", key, default)) > 1:
            raise ConfigError("grid %s: this command takes one value" % key)
    return _grid_ladder(cfg, ndim, default_npoints, default_box)[0]


def _check_below_threshold(z_values, spec, force, what):
    z0 = sysmod.bound_constants(spec).threshold
    for z in z_values:
        if z >= z0 and not force:
            raise ConfigError(
                "%s: z = %g is not below the inversion threshold z0 = %g "
                "(--force unlocks this, unsupported)" % (what, z, z0))


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


def _metadata(args, wallclock_ms):
    force = bool(getattr(args, "force", False))
    return {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "threads": scipy.fft.get_workers(),
        "blas_threads": args.blas_threads,
        "force": force,
        "supported": not force,
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


@dataclass
class Report:
    """A command's result: <command>.csv (``header``, ``rows``), the JSON
    ``fields`` beside the metadata, the verdict ``ok`` (exit 0, else 4),
    the printed ``summary``, and extra CSVs as (name, header, rows)."""

    header: tuple
    rows: list
    fields: dict
    ok: bool
    summary: str
    tables: tuple = ()


def _write_report(args, wallclock_ms, report):
    """Write <command>.csv, <command>.json and the report's extra tables."""
    payload = _metadata(args, wallclock_ms)
    payload.update(report.fields)
    # a non-finite value raises ValueError here, before any file is written
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False,
                      default=_json_coerce)
    out = args.out or os.environ.get("DELTARESOLVENT_OUT") or "reports"
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, args.command + ".csv"), report.header,
               report.rows)
    for name, header, rows in report.tables:
        _write_csv(os.path.join(out, name), header, rows)
    with open(os.path.join(out, args.command + ".json"), "w") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_converge(args, cfg):
    spec = _system_from(cfg)
    grids = _grid_ladder(cfg, spec.n, "64", "12.8")
    z_values = _option(cfg, "converge", "z")
    eps_values = _option(cfg, "converge", "eps")
    _check_below_threshold(z_values, spec, args.force, "converge")

    sweep = resolventmod.convergence_sweep(
        spec, z_values, eps_values, grids,
        rng=np.random.default_rng(args.seed), force=args.force)
    rows = [(e.level, e.npoints, e.box, e.z, e.eps, e.distance, e.spread)
            for e in sweep.entries]
    monotone = {"%d,%g" % key: sweep.monotone(*key) for key in sweep.orders}
    ok = all(monotone.values())
    return Report(
        ("level", "npoints", "box", "z", "eps", "distance", "spread"), rows, {
            "spec": {"masses": list(spec.masses), "g": spec.g},
            "grid": [{"npoints": g.npoints, "box": g.box} for g in grids],
            "z": z_values,
            "eps": eps_values,
            "mode_pair": ["konno-kuroda", "limit"],
            "channel_tol": blocksmod.CHANNEL_TOL,
            "entries": [asdict(e) for e in sweep.entries],
            # one width fits no order: NaN there, written as null
            "orders": {"%d,%g" % k: v if math.isfinite(v) else None
                       for k, v in sweep.orders.items()},
            "monotone": monotone,
        }, ok, "converge: %d entries, monotone=%s" % (len(sweep.entries), ok))


def cmd_spectrum(args, cfg):
    spec = _system_from(cfg)
    grids = _grid_ladder(cfg, spec.n, "512", "25.6")
    eps_values = _option(cfg, "spectrum", "eps")
    shift = _option(cfg, "spectrum", "shift")

    rows = []
    table = {}
    for level, grid in enumerate(grids):
        energies = []
        for eps in eps_values:
            e = resolventmod.ground_energy(
                grid, spec, eps, shift=shift, rng=np.random.default_rng(args.seed))
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

    fields = {
        "spec": {"masses": list(spec.masses), "g": spec.g},
        "grid": [{"npoints": g.npoints, "box": g.box} for g in grids],
        "eps": eps_values,
        "shift": shift,
        "eigen_tol": gridmod.EIGEN_TOL,
        "lanczos_steps": gridmod.LANCZOS_STEPS,
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
    lines = []
    for level, (energies, extrapolated) in table.items():
        msg = ", ".join("E(%g)=%.6f" % (w, e)
                        for w, e in zip(eps_values, energies))
        if extrapolated is not None:
            msg += ", extrapolated=%.6f" % extrapolated
        lines.append("spectrum level %d: %s" % (level, msg))
    return Report(("level", "npoints", "box", "eps", "energy", "note"), rows,
                  fields, True, "\n".join(lines))


def _default_block_rows():
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
    norm = shared.norm()
    bound = shared.claimed_bound()
    rows.append(("(1,2)", "(1,3)", "", norm, bound, norm / bound))
    return rows


def cmd_bounds(args, cfg):
    results = auditsmod.run_default_sweep()
    block_rows = _default_block_rows()
    rows = [(r.name, json.dumps(r.inputs, sort_keys=True), r.claimed,
             r.measured, r.ci, "PASS" if r.passed else "FAIL")
            for r in results]
    failed = [r for r in results if not r.passed]
    lines = ["bounds: %d audits, %d failed" % (len(results), len(failed))]
    lines += ["  FAIL %s %s claimed=%.6g measured=%.6g"
              % (r.name, r.inputs, r.claimed, r.measured) for r in failed]
    return Report(
        ("name", "inputs", "claimed", "measured", "ci", "verdict"), rows, {
            "audits": len(results),
            "failed": [r.name for r in failed],
            "block_rows": len(block_rows),
        }, not failed, "\n".join(lines),
        tables=(("blocks.csv", ("sigma", "nu", "eps", "norm", "bound", "ratio"),
                 block_rows),))


def cmd_kernels(args, cfg):
    dims = _option(cfg, "kernels", "dims")
    z_values = _option(cfg, "kernels", "z")
    x_min = _option(cfg, "kernels", "x_min")
    x_max = _option(cfg, "kernels", "x_max")
    points = _option(cfg, "kernels", "points")
    if not x_min < x_max:
        raise ConfigError("kernels: need x_min < x_max")

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
    return Report(("d", "z", "x", "value", "method"), rows,
                  {"dims": dims, "z": z_values,
                   "lattice": [float(x) for x in lattice]},
                  True, "kernels: %d rows" % len(rows))


def cmd_kk_check(args, cfg):
    spec = _system_from(cfg)
    grid = _one_grid(cfg, spec.n, "64", "4.0")
    z = _option(cfg, "kk", "z")
    eps = _option(cfg, "kk", "eps")
    probes = _option(cfg, "kk", "probes")
    _check_below_threshold([z], spec, args.force, "kk")

    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    direct = resolventmod.DirectAssembly(grid, spec, z, eps)
    factored = blocksmod.LambdaMatrix(grid, spec, z, eps, force=args.force)
    for k in range(probes):
        psi = (rng.standard_normal(grid.shape)
               + 1j * rng.standard_normal(grid.shape))
        ua = direct.apply(psi)
        ub = factored.apply(psi)
        dev = float(np.linalg.norm(ub - ua) / np.linalg.norm(ua))
        worst = max(worst, dev)
        rows.append((k, dev))
    return Report(("probe", "deviation"), rows, {
        "spec": {"masses": list(spec.masses), "g": spec.g},
        "grid": {"npoints": grid.npoints, "box": grid.box},
        "z": z,
        "eps": eps,
        "mode_pair": ["konno-kuroda", "direct-grid"],
        "distance": worst,
        "probes": probes,
        "channel_tol": blocksmod.CHANNEL_TOL,
        "threshold": _KK_THRESHOLD,
    }, worst < _KK_THRESHOLD, "kk-check: max relative deviation %.3e over %d probes"
        % (worst, probes))


def cmd_forms(args, cfg):
    spec = _system_from(cfg)
    grid = _one_grid(cfg, spec.n, "64", "12.8")
    count = _option(cfg, "forms", "count")

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

    return Report(("check", "field", "value", "threshold", "verdict"), rows, {
        "spec": {"masses": list(spec.masses), "g": spec.g},
        "grid": {"npoints": grid.npoints, "box": grid.box},
        "count": count,
        "checks": len(rows),
        "all_pass": ok,
    }, ok, "forms: %d checks, all_pass=%s" % (len(rows), ok))


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


def _bundled_openblas():
    """(get, set) thread controls of the OpenBLAS copies numpy (64-bit-integer
    names) and scipy bundle; empty when either copy or a symbol is missing."""
    controls = []
    for package, suffix in ((np, "64_"), (scipy, "")):
        libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)),
                            package.__name__ + ".libs", "libscipy_openblas*")
        try:
            lib = ctypes.CDLL(glob.glob(libs)[0])
            get = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
            put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
        except (IndexError, OSError, AttributeError):
            return []
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        controls.append((get, put))
    return controls


@contextlib.contextmanager
def _blas_threads():
    """BLAS at one thread inside, restored on exit; yields the count read back
    (None without controls or agreement).  One thread for two reasons: threaded
    LAPACK (LU, tridiagonal reduction) and GEMM sum in an order that follows
    the count, so the digits a command writes to CSV would follow it too; and
    a multi-threaded GEMM on these small matrices slows scipy's ARPACK loop."""
    blas = _bundled_openblas()
    before = [get() for get, _ in blas]
    try:
        for _, put in blas:
            put(1)
        counts = {get() for get, _ in blas}
        yield counts.pop() if len(counts) == 1 else None
    finally:
        for (_, put), count in zip(blas, before):
            put(count)


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
    common.add_argument("--threads", type=int, default=None, metavar="N",
                        help="FFT worker threads (scipy.fft; default 1); BLAS "
                             "always runs at one thread")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in sorted(_HANDLERS):
        command = sub.add_parser(name, parents=[common],
                                 help="run the %s report" % name)
        if name in ("converge", "forms", "kk-check", "spectrum"):
            command.add_argument("--seed", type=int, default=0, metavar="U64",
                                 help="master RNG seed (default 0)")
        if name in ("converge", "kk-check"):
            command.add_argument(
                "--force", action="store_true",
                help="unlock z at or above the inversion threshold "
                     "(unsupported; labeled in output metadata)")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 0 <= getattr(args, "seed", 0) < 2 ** 64:
        print("error: seed must fit in 64 unsigned bits", file=sys.stderr)
        return 2
    if args.threads is not None and args.threads < 1:
        print("error: --threads must be positive", file=sys.stderr)
        return 2
    handler = _HANDLERS[args.command]
    try:
        cfg = load_config(args.config)
        workers = scipy.fft.get_workers() if args.threads is None else args.threads
        with scipy.fft.set_workers(workers), \
                _blas_threads() as args.blas_threads:
            start = time.perf_counter()
            report = handler(args, cfg)
            _write_report(args, 1000.0 * (time.perf_counter() - start), report)
        print(report.summary)
        return 0 if report.ok else 4
    except (ConfigError, AboveThreshold, UnresolvedBump,
            PotentialOverflowsBox) as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (NoConvergence, SeriesDiverging, ShiftTooCloseToSpectrum) as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 3
    except (DeltaResolventError, ValueError, np.linalg.LinAlgError) as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
