"""Resolvent assemblies for the regularized and contact Hamiltonians.

Four interchangeable routes to (H - z)^{-1} psi on the lattice:

  direct  -- assemble the width-eps Hamiltonian (at eps None the contact
             one, with the lattice delta) and solve the shifted linear
             system (inverted total-momentum sector by sector on small
             grids, preconditioned GMRES above that);
  kk      -- block factorization through the coupling maps: free
             resolvent plus the coupled-channel correction
             R0 + g R0 A* (1 - g A R0 A*)^{-1} A R0 at width eps;
  limit   -- the same factorization with the zero-width coupling maps,
             which is the contact operator's resolvent;
  theta   -- the reduced-space route: the hyperplane trace in place of
             the coupling maps, with the channel matrix inverted by the
             same diagonal-exact Neumann iteration.

kk and limit are blocks.LambdaMatrix (here also named FactoredAssembly),
theta is TraceAssembly: both are blocks.ChannelSystem, which does all the
channel arithmetic, and differ only in the map each pair gets.

All four agree on their common domain (real z below the guarded
threshold); the test suite pins the pairwise deviations.
"""

import functools
import time
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import grid as gridmod
from . import system as sysmod
from .blocks import (CHANNEL_TOL, MAX_TERMS, ChannelSystem, LambdaMatrix,
                     channel_norm, invert_lambda, pair_class_multiplier)
from .bump import TraceMap, build_hamiltonian
from .errors import NoConvergence


class DirectAssembly:
    """(H_eps - z)^{-1} by direct linear solves on the full lattice; at
    eps None, the contact Hamiltonian's (bump.build_hamiltonian).

    Holds one shifted-solver handle: the shifted total-momentum sector
    matrices inverted once on small grids, preconditioned GMRES above
    that.  The only route that accepts complex z.
    """

    mode = "direct"

    def __init__(self, grid, spec, z, eps):
        z = complex(z)
        if z.imag == 0.0:
            if z.real >= 0.0:
                raise ValueError("real z must be negative, got %g" % z.real)
            z = z.real
        self.grid = grid
        self.spec = spec
        self.z = z
        self.ham = build_hamiltonian(grid, spec, eps)
        self._solve = gridmod.shifted_solver(self.ham, z)

    def apply(self, field):
        return self._solve(field)

    __call__ = apply


# The kk/limit resolvent is its channel system; the older name stays.
FactoredAssembly = LambdaMatrix


class TraceAssembly(ChannelSystem):
    """Reduced-space resolvent through the hyperplane-trace channels.

    The channel map is the trace itself, one support row per pair
    (bump.TraceMap), so the channel matrix is 1 - g (trace_sigma R0
    trace_nu*) and its diagonal is the exact class multiplier, a rank-one
    block as for the limit maps.  A sibling of LambdaMatrix, not a
    subclass, so that its Neumann terms are told apart from the
    coupling-map routes'.  A final residual check guards the weaker a
    priori contraction bookkeeping.
    """

    mode = "theta"

    def __init__(self, grid, spec, z, force=False):
        super().__init__(grid, spec, z, functools.partial(TraceMap, grid, spec),
                         None, force)
        self.last_residual = None

    def solve_channels(self, fields):
        solution = invert_lambda(self, fields)
        if len(self.pairs) > 1:
            back = self.channel_apply(solution)
            den = channel_norm(fields)
            resid = (channel_norm([b - f for b, f in zip(back, fields)]) / den
                     if den > 0.0 else 0.0)
            self.last_residual = resid
            if resid > 100.0 * CHANNEL_TOL:
                raise NoConvergence(MAX_TERMS, resid, "trace channel inversion")
        return solution


# ---------------------------------------------------------------------------
# Width sweep: operator-norm distance between regularized and limit routes
# ---------------------------------------------------------------------------


@dataclass
class SweepEntry:
    level: int
    npoints: int
    box: float
    z: float
    eps: float
    distance: float
    spread: float
    iterations: int
    wallclock_ms: float


@dataclass
class SweepReport:
    entries: list
    orders: dict

    def distances(self, level, z):
        return [e.distance for e in self.entries
                if e.level == level and e.z == z]

    def monotone(self, level, z):
        """Whether the distance shrinks with the width, read widest first."""
        rows = sorted((e for e in self.entries if e.level == level and e.z == z),
                      key=lambda e: -e.eps)
        return all(b.distance < a.distance for a, b in zip(rows, rows[1:]))


def convergence_sweep(spec, z_values, eps_values, grids, rng=None, force=False):
    """Operator-norm distances between width-eps and limit resolvents.

    For every grid in ``grids`` and spectral point in ``z_values``,
    measures ||R_eps - R_limit|| as the largest |eigenvalue| of the
    Hermitian difference, with its Ritz residual as the error bar
    (``spread``), for each width in ``eps_values``, then fits the decay
    order in eps.  ``force`` unlocks z at or above the threshold, as in
    :class:`blocks.LambdaMatrix`.  Returns a SweepReport whose ``orders`` dict maps
    (level, z) to the fitted log-log slope (NaN for a single width).
    """
    z_values = [float(z) for z in z_values]
    eps_values = [float(e) for e in eps_values]
    if rng is None:
        rng = np.random.default_rng(0)
    entries = []
    orders = {}
    for level, grid in enumerate(grids):
        for z in z_values:
            limit = LambdaMatrix(grid, spec, z, None, force=force)
            dists = []
            for eps in eps_values:
                stream = rng.spawn(1)[0]
                asm = LambdaMatrix(grid, spec, z, eps, force=force)
                start = time.perf_counter()
                dist, spread, applications = gridmod.hermitian_norm(
                    lambda f: asm.apply(f) - limit.apply(f), grid.shape, stream)
                dists.append(dist)
                entries.append(SweepEntry(
                    level=level, npoints=grid.npoints, box=grid.box, z=z,
                    eps=eps, distance=dist, spread=spread, iterations=applications,
                    wallclock_ms=1000.0 * (time.perf_counter() - start)))
            # every distance is positive: a zero difference raises NoConvergence
            orders[(level, z)] = (
                float(np.polyfit(np.log(eps_values), np.log(dists), 1)[0])
                if len(dists) > 1 else float("nan"))
    return SweepReport(entries=entries, orders=orders)


# ---------------------------------------------------------------------------
# Spectral probes
# ---------------------------------------------------------------------------


def pole_scan(grid, spec, bracket):
    """Locate the z where the two-particle channel matrix turns singular.

    For one pair the channel matrix is the multiplier 1 - g D(z) over
    reduced momentum classes; its smallest value is monotone in z, so
    the zero crossing (the bound-state pole of the contact resolvent) is
    bracketed and bisected.  Only the two-particle route is supported.
    """
    if spec.n != 2:
        raise ValueError("pole scan is implemented for two particles only")
    pair = sysmod.enumerate_pairs(spec)[0]

    def smallest(z):
        mult = pair_class_multiplier(grid, spec, pair, z)
        return float(np.min(1.0 - spec.g * np.real(mult)))

    lo, hi = float(bracket[0]), float(bracket[1])
    return float(scipy.optimize.brentq(smallest, lo, hi, xtol=1e-12))


def ground_energy(grid, spec, eps, shift=-2.0, rng=None):
    """Lowest eigenvalue of the width-eps Hamiltonian.

    Shift-inverted Lanczos around ``shift``, which must sit strictly
    below the ground state; the inner shifted systems go through the
    dense or preconditioned-iterative solver depending on grid size.
    """
    ham = build_hamiltonian(grid, spec, eps)
    solve = gridmod.shifted_solver(ham, shift)
    return gridmod.lowest_eigenvalues(
        lambda vec: ham.apply(vec.reshape(grid.shape)).reshape(-1),
        lambda vec: solve(vec.reshape(grid.shape)).reshape(-1),
        grid.size, shift, rng=rng)
