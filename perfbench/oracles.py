"""Independent oracles and cross-route gates the benchmark checks calls against.

Nothing here imports the package: the K = 0 oracle re-derives the
two-particle lattice Hamiltonian from the model's definition, so a fault
in the package's own assembly cannot hide behind it.
"""

import math

import numpy as np

# Squeezed-bump definition: v(x) = C exp(-1 / (1 - x^2)) on |x| < 1 with
# the integral of v^2 equal to one; V_eps(x) = v(x / eps)^2 / eps.
BUMP_NORMALIZATION = 2.7411551457069723

ENERGY_RTOL = 1e-6        # ground energy vs the K = 0 oracle, relative
THETA_LIMIT_TOL = 5e-10   # theta route vs limit route, relative per probe
LADDER_MIN_ORDER = 0.9    # fitted decay order of the kk-to-limit gap in eps


def bump_potential(x, eps):
    u = np.asarray(x, dtype=float) / eps
    v = np.zeros_like(u)
    inside = np.abs(u) < 1.0
    v[inside] = BUMP_NORMALIZATION * np.exp(-1.0 / (1.0 - u[inside] ** 2))
    return v ** 2 / eps


def relative_ground_energy(npoints, box, eps, masses=(1.0, 1.0), g=1.0):
    """Lowest lattice eigenvalue of two particles in the zero-total-momentum sector.

    There psi(i, j) = f((i - j) mod N), both momenta are +-k, and the
    Hamiltonian is the N x N matrix k^2 / (2 mu) (through a 1-d FFT)
    minus g V_eps at the wrapped separation.
    """
    h = box / npoints
    k = 2.0 * np.pi * np.fft.fftfreq(npoints, d=h)
    mu = masses[0] * masses[1] / (masses[0] + masses[1])
    sep = ((np.arange(npoints) + npoints // 2) % npoints - npoints // 2) * h
    kinetic = np.fft.ifft((k ** 2 / (2.0 * mu))[:, None]
                          * np.fft.fft(np.eye(npoints), axis=0), axis=0)
    ham = kinetic - g * np.diag(bump_potential(sep, eps))
    ham = 0.5 * (ham + ham.conj().T)
    return float(np.linalg.eigvalsh(ham)[0])


def energy_error(value, oracle):
    """Relative distance of a computed energy from its oracle."""
    return abs(value - oracle) / abs(oracle)


def energy_ok(value, oracle, rtol=ENERGY_RTOL):
    return math.isfinite(value) and energy_error(value, oracle) <= rtol


def relative_gaps(result, reference):
    """Per-probe relative distances; probes run along the last axis."""
    nprobe = reference.shape[-1]
    diff = (result - reference).reshape(-1, nprobe)
    ref = reference.reshape(-1, nprobe)
    return np.linalg.norm(diff, axis=0) / np.linalg.norm(ref, axis=0)


def ladder_orders(widths, gaps):
    """Fitted log-log slope of each probe's gap against the width ladder.

    ``gaps`` has one row per width and one column per probe.
    """
    gaps = np.asarray(gaps, dtype=float)
    logs = np.log(np.asarray(widths, dtype=float))
    return [float(np.polyfit(logs, np.log(gaps[:, p]), 1)[0])
            for p in range(gaps.shape[1])]


def ladder_ok(widths, gaps, min_order=LADDER_MIN_ORDER):
    """Gaps shrink strictly along the ladder with fitted order >= min_order."""
    gaps = np.asarray(gaps, dtype=float)
    if not np.all(np.isfinite(gaps)) or np.any(gaps <= 0.0):
        return False
    if not np.all(np.diff(gaps, axis=0) < 0.0):
        return False
    return min(ladder_orders(widths, gaps)) >= min_order
