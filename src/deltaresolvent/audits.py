"""Standalone numerical audits of the quantitative norm bounds.

Each audit measures one side of a proven inequality by quadrature or
Monte Carlo, independently of the operator machinery, and reports it
against the claimed bound.  A PASS requires

    measured <= claimed + max(2 * mc_ci, 1e-6)

so deterministic audits carry an absolute slack of 1e-6 and Monte Carlo
audits are judged at roughly two standard errors.  Audits are
bit-reproducible for a fixed seed.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.integrate

from . import greens
from . import system as sysmod
from .blocks import DiagonalBlock, verify_block_convergence
from .bump import DEFAULT_PROFILE
from .grid import Grid

ABS_SLACK = 1e-6


@dataclass
class BoundAudit:
    """One measured-versus-claimed inequality check."""

    name: str
    inputs: dict
    claimed: float
    measured: float
    mc_ci: float
    margin: float
    passed: bool
    detail: dict = field(default_factory=dict)


def _finish(name, inputs, claimed, measured, mc_ci=0.0, detail=None):
    passed = measured <= claimed + max(2.0 * mc_ci, ABS_SLACK)
    return BoundAudit(name=name, inputs=inputs, claimed=float(claimed),
                      measured=float(measured), mc_ci=float(mc_ci),
                      margin=float(claimed - measured), passed=bool(passed),
                      detail=detail or {})


def schur_row_closed_3d(z, d):
    """Closed form of the reduced 3-d row integral at hyperplane offset d."""
    return greens.greens_closed(1, 2.0 * z, d / 2.0)


def audit_schur_3d(z):
    """Row-sum bound for the shared-particle (3-d kernel) block class.

    Integrates the polar-reduced row integral at a ladder of hyperplane
    offsets; the supremum sits at offset zero and must not exceed
    1/(2 sqrt(2|z|)).
    """
    z = float(z)
    if z >= 0.0:
        raise ValueError("audit requires z < 0")
    root = math.sqrt(2.0 * abs(z))
    offsets = (0.0, 0.5, 1.0, 2.0)
    rows = {}
    for d in offsets:
        val, _ = scipy.integrate.quad(
            lambda rho, d=d: rho * math.exp(
                -root * math.sqrt(rho * rho + d * d / 4.0)
            ) / math.sqrt(rho * rho + d * d / 4.0),
            0.0, np.inf, epsabs=1e-13, epsrel=1e-12)
        rows[float(d)] = 0.5 * val
    claimed = 1.0 / (2.0 * root)
    measured = max(rows.values())
    detail = {
        "rows": rows,
        "closed_rows": {d: schur_row_closed_3d(z, d) for d in offsets},
    }
    return _finish("offdiag-3d-row", {"z": z, "offsets": tuple(offsets)},
                   claimed, measured, detail=detail)


def _fourdim_row_integrand(rho, z):
    """Radial integrand 8 pi rho^2 G4 of the disjoint-pair row at offset zero."""
    return 8.0 * math.pi * rho * rho * greens.greens_closed(4, z, np.sqrt(2.0) * rho)


def audit_schur_4d(z, samples=10 ** 6, seed=0):
    """Row-sum bound for the disjoint-pair (4-d kernel) block class.

    Monte Carlo over the radial coordinate with an exponential proposal
    matched to the kernel's decay rate; confidence half-width by batch
    means, plus a deterministic quadrature cross-check in the detail.
    The row is taken at offset zero, where it attains the claimed
    supremum 1/(2 sqrt(2|z|)) exactly, so the verdict leans on the
    reported CI.
    """
    z = float(z)
    if z >= 0.0:
        raise ValueError("audit requires z < 0")
    rate = math.sqrt(2.0 * abs(z))
    rng = np.random.default_rng(seed)
    batches = 20
    per = samples // batches
    means = []
    min_sample = np.inf
    for _ in range(batches):
        rho = rng.exponential(scale=1.0 / rate, size=per)
        rho = np.maximum(rho, 1e-12)
        values = _fourdim_row_integrand(rho, z)
        min_sample = min(min_sample, float(np.min(values)))
        weights = values / (rate * np.exp(-rate * rho))
        means.append(float(np.mean(weights)))
    means = np.asarray(means)
    measured = float(np.mean(means))
    mc_ci = 1.96 * float(np.std(means, ddof=1)) / math.sqrt(batches)
    quad_val, _ = scipy.integrate.quad(
        lambda r: _fourdim_row_integrand(r, z), 0.0, np.inf,
        epsabs=1e-13, epsrel=1e-12, limit=200)
    claimed = 1.0 / (2.0 * rate)
    detail = {
        "quadrature": float(quad_val),
        "min_integrand_sampled": min_sample,
        "seed": seed,
        "samples": samples,
        "batches": batches,
    }
    return _finish("offdiag-4d-row", {"z": z, "seed": seed}, claimed,
                   measured, mc_ci=mc_ci, detail=detail)


def _holder_majorant(z, eps, mu):
    """Tensor Gauss-Legendre value of ∫∫ V(r)V(r') e^{-2 eps sqrt(2 mu |z|) |r-r'|}."""
    nodes, weights = np.polynomial.legendre.leggauss(240)
    a = DEFAULT_PROFILE.support_radius
    r = a * nodes
    w = a * weights
    v2 = DEFAULT_PROFILE.potential(r)
    decay = 2.0 * eps * math.sqrt(2.0 * mu * abs(z))
    kernel = np.exp(-decay * np.abs(r[:, None] - r[None, :]))
    return float(np.einsum("i,j,ij->", w * v2, w * v2, kernel))


def audit_diagonal_bound(grid, spec, z, eps):
    """End-to-end diagonal block norm against sqrt(mu/2) |g| / sqrt(|z|).

    Also evaluates the proof's intermediate majorant (which must stay
    below the squared unit mass of the potential) and the Neumann
    inverse norm against (1 - bound)^{-1}; both land in the detail.
    """
    z = float(z)
    pair = sysmod.enumerate_pairs(spec)[0]
    block = DiagonalBlock(grid, spec, pair, z, eps)
    eigs = block.fiber_eigenvalues()
    measured = float(np.max(np.abs(eigs)))
    claimed = block.claimed_bound()
    inverse_measured = float(np.max(1.0 / np.min(np.abs(1.0 - eigs), axis=1)))
    majorant = _holder_majorant(z, eps, pair.mu)
    detail = {
        "majorant": majorant,
        "majorant_claim": 1.0,
        "neumann_inverse_measured": inverse_measured,
        "neumann_inverse_claim": (1.0 / (1.0 - claimed)
                                  if claimed < 1.0 else float("inf")),
    }
    inputs = {"masses": tuple(spec.masses), "g": spec.g, "z": z, "eps": eps}
    return _finish("diag-block-norm", inputs, claimed, measured,
                   detail=detail)


def audit_convergence_constant(grid, spec, z):
    """Narrow-width convergence of the diagonal block at the explicit rate.

    The claimed linear constant is 2 |g| mu sqrt(∫ r² V); measured is the
    largest gap-to-width ratio over the widths 0.2 and 0.1, which must sit
    below it.
    """
    z = float(z)
    pair = sysmod.enumerate_pairs(spec)[0]
    eps_list = (0.2, 0.1)
    conv = verify_block_convergence(grid, spec, pair, z, eps_list)
    measured = max(g / e for g, e in zip(conv.gaps, conv.eps))
    moment = DEFAULT_PROFILE.potential_moment(2)
    detail = {
        "gaps": conv.gaps,
        "eps": conv.eps,
        "slope": conv.slope,
        "double_moment": 4.0 * moment,
        "double_moment_claim": 4.0,
    }
    inputs = {"masses": tuple(spec.masses), "g": spec.g, "z": z,
              "eps_list": tuple(eps_list)}
    return _finish("diag-width-rate", inputs, conv.rate, measured,
                   detail=detail)


def default_audit_grid():
    """One-dimensional separation lattice resolving the unit bump support."""
    return Grid(64, 2.56, 1)


DEFAULT_MASSES = ((1.0, 1.0), (1.0, 2.0), (0.5, 1.5))
DEFAULT_COUPLINGS = (0.5, 1.0, 2.0)
DEFAULT_POINTS = (-4.0, -10.0, -25.0)


def run_default_sweep(seed=0, samples=10 ** 6):
    """Full audit sweep: block audits over the mass/coupling/z lattice,
    plus one pair of row-sum audits per spectral point.

    Returns the list of BoundAudit rows; callers decide how to render
    them.  Every row is expected to PASS.
    """
    grid = default_audit_grid()
    audits = []
    for z in DEFAULT_POINTS:
        audits.append(audit_schur_3d(z))
        audits.append(audit_schur_4d(z, samples=samples, seed=seed))
    for masses in DEFAULT_MASSES:
        for g in DEFAULT_COUPLINGS:
            spec = sysmod.SystemSpec(masses=masses, g=g)
            for z in DEFAULT_POINTS:
                audits.append(audit_diagonal_bound(grid, spec, z, eps=0.1))
                audits.append(audit_convergence_constant(grid, spec, z))
    return audits
