"""Standalone numerical audits of the quantitative norm bounds.

Each audit measures one side of a proven inequality by quadrature or by
exact matrix algebra, independently of the operator machinery, and
reports it against the claimed bound with the half-width ``ci`` of its
error bar (the quadrature error estimate, or 0 for exact audits).  A
PASS requires

    measured <= claimed + max(2 * ci, 1e-6)

so every audit carries an absolute slack of 1e-6, widened only by an
error bar larger than that.  Audits are deterministic.
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
    ci: float
    margin: float
    passed: bool
    detail: dict = field(default_factory=dict)


def _finish(name, inputs, claimed, measured, ci=0.0, detail=None):
    passed = measured <= claimed + max(2.0 * ci, ABS_SLACK)
    return BoundAudit(name=name, inputs=inputs, claimed=float(claimed),
                      measured=float(measured), ci=float(ci),
                      margin=float(claimed - measured), passed=bool(passed),
                      detail=detail or {})


def schur_row_closed_3d(z, d):
    """Closed form of the reduced 3-d row integral at hyperplane offset d."""
    return greens.greens_closed(1, 2.0 * z, d / 2.0)


def _row_audit(name, z, offsets, row, detail):
    """Schur row bound: the row integrals of ``row(rho, d)`` over rho in
    (0, inf), one per offset d, against their supremum 1/(2 sqrt(2|z|)).

    The measured side is the largest row, its error bar the largest
    quadrature error estimate.
    """
    z = float(z)
    if z >= 0.0:
        raise ValueError("audit requires z < 0")
    rows, errors = {}, []
    for d in offsets:
        rows[d], error = scipy.integrate.quad(
            lambda rho, d=d: row(rho, d), 0.0, np.inf,
            epsabs=1e-13, epsrel=1e-12, limit=200)
        errors.append(error)
    return _finish(name, {"z": z, "offsets": list(offsets)},
                   1.0 / (2.0 * math.sqrt(2.0 * abs(z))), max(rows.values()),
                   ci=max(errors), detail=dict(detail, rows=rows))


def audit_schur_3d(z):
    """Row-sum bound for the shared-particle (3-d kernel) block class.

    Integrates the polar-reduced row integral at a ladder of hyperplane
    offsets; the supremum sits at offset zero.
    """
    root = math.sqrt(2.0 * abs(z))
    offsets = (0.0, 0.5, 1.0, 2.0)

    def row(rho, d):
        r = math.sqrt(rho * rho + d * d / 4.0)
        return 0.5 * rho * math.exp(-root * r) / r

    closed = {d: schur_row_closed_3d(z, d) for d in offsets}
    return _row_audit("offdiag-3d-row", z, offsets, row,
                      {"closed_rows": closed})


def audit_schur_4d(z):
    """Row-sum bound for the disjoint-pair (4-d kernel) block class.

    The row is taken at offset zero, where its radial integrand is
    8 pi rho^2 G4(sqrt(2) rho) and it attains the supremum exactly.
    """
    return _row_audit(
        "offdiag-4d-row", z, (0.0,),
        lambda rho, d: 8.0 * math.pi * rho * rho * greens.greens_closed(
            4, z, math.sqrt(2.0) * rho), {})


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


def run_default_sweep():
    """Full audit sweep: block audits over the mass/coupling/z lattice,
    plus one pair of row-sum audits per spectral point.

    Returns the list of BoundAudit rows; callers decide how to render
    them.  Every row is expected to PASS.
    """
    grid = default_audit_grid()
    audits = []
    for z in DEFAULT_POINTS:
        audits.append(audit_schur_3d(z))
        audits.append(audit_schur_4d(z))
    for masses in DEFAULT_MASSES:
        for g in DEFAULT_COUPLINGS:
            spec = sysmod.SystemSpec(masses=masses, g=g)
            for z in DEFAULT_POINTS:
                audits.append(audit_diagonal_bound(grid, spec, z, eps=0.1))
                audits.append(audit_convergence_constant(grid, spec, z))
    return audits
