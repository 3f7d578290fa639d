"""Resolvent assemblies for the regularized and contact Hamiltonians.

Four interchangeable routes to (H - z)^{-1} psi on the lattice:

  direct  -- assemble the width-eps Hamiltonian and solve the shifted
             linear system (dense LU on small grids, preconditioned
             GMRES above that);
  kk      -- block factorization through the coupling maps: free
             resolvent plus the coupled-channel correction
             R0 + g R0 A* (1 - g A R0 A*)^{-1} A R0 at width eps;
  limit   -- the same factorization with the zero-width coupling maps,
             which is the contact operator's resolvent;
  theta   -- the reduced-space route: hyperplane traces in place of the
             coupling maps, with the channel matrix inverted by the
             same diagonal-exact Neumann iteration.

All four agree on their common domain (real z below the guarded
threshold); the test suite pins the pairwise deviations.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from . import blocks as blocksmod
from . import forms as formsmod
from . import grid as gridmod
from . import system as sysmod
from .blocks import LambdaMatrix, invert_lambda, pair_class_multiplier
from .bump import DEFAULT_PROFILE, build_hamiltonian
from .errors import ConfigError, NoConvergence


class DirectAssembly:
    """(H_eps - z)^{-1} by direct linear solves on the full lattice.

    Holds one shifted-solver handle: a dense LU factored once on small
    grids, preconditioned GMRES above that.  The only route that accepts
    complex z.
    """

    mode = "direct"

    def __init__(self, grid, spec, z, eps, profile=DEFAULT_PROFILE, tol=1e-10):
        z = complex(z)
        if z.imag == 0.0:
            if z.real >= 0.0:
                raise ValueError("real z must be negative, got %g" % z.real)
            z = z.real
        self.grid = grid
        self.spec = spec
        self.z = z
        self.eps = float(eps)
        self.tol = float(tol)
        self.ham = build_hamiltonian(grid, spec, eps, profile)
        self._solve = gridmod.shifted_solver(self.ham, z, tol=self.tol)

    def apply(self, field):
        return self._solve(field)

    __call__ = apply


class FactoredAssembly:
    """Coupled-channel resolvent at width eps, or the contact limit.

    Applies R0 psi, lifts through each pair's coupling map, solves the
    channel system by its diagonal-exact Neumann iteration, and folds
    the result back.  With eps=None the coupling maps are the
    zero-width (hyperplane) ones and the assembly is the limit operator.
    """

    def __init__(self, grid, spec, z, eps=None, profile=DEFAULT_PROFILE,
                 tol=1e-10, force_chain=False, max_terms=200, force=False):
        self.system = LambdaMatrix(grid, spec, z, eps, profile, force_chain)
        self.grid = grid
        self.spec = spec
        self.z = float(z)
        self.eps = None if eps is None else float(eps)
        self.tol = float(tol)
        self.max_terms = int(max_terms)
        self.force = bool(force)
        self.mode = "limit" if eps is None else "kk"

    def apply(self, field):
        lam = self.system
        u0 = lam.rfree(np.asarray(field, dtype=complex))
        channels = [cmap.forward(u0) for cmap in lam.maps]
        sol = invert_lambda(lam, channels, tol=self.tol,
                            max_terms=self.max_terms, force=self.force)
        total = lam.maps[0].adjoint(sol[0])
        for cmap, y in zip(lam.maps[1:], sol[1:]):
            total = total + cmap.adjoint(y)
        return u0 + self.spec.g * lam.rfree(total)

    __call__ = apply


class TraceAssembly:
    """Reduced-space resolvent through the hyperplane-trace channels.

    The channel matrix here is 1 - g (trace_sigma R0 trace_nu*); its
    diagonal is an exact per-momentum-class multiplier, so inversion
    reuses the same Neumann driver as the coupled-channel route, with
    the off-diagonal part applied through the laboratory grid.  A final
    residual check guards the weaker a priori contraction bookkeeping.
    """

    mode = "theta"

    def __init__(self, grid, spec, z, tol=1e-10, max_terms=200, force=False):
        z = float(z)
        if z >= 0.0:
            raise ValueError("trace-channel assembly requires real negative z")
        self.grid = grid
        self.spec = spec
        self.z = z
        self.eps = None
        self.tol = float(tol)
        self.max_terms = int(max_terms)
        self.force = bool(force)
        self.pairs = sysmod.enumerate_pairs(spec)
        self.rfree = gridmod.free_resolvent(grid, spec.masses, z)
        self.multipliers = [pair_class_multiplier(grid, spec, p, z)
                            for p in self.pairs]
        self.constants = sysmod.bound_constants(spec)
        self.last_residual = None

    @property
    def threshold(self):
        return self.constants.threshold

    def diagonal_contraction(self):
        return (self.constants.diag_coeff * abs(self.spec.g)
                / math.sqrt(-self.z))

    def neumann_ratio(self):
        P = len(self.pairs)
        off = ((P - 1) * self.constants.offdiag_coeff * abs(self.spec.g)
               / math.sqrt(-self.z))
        return off / (1.0 - self.diagonal_contraction())

    # -- channel-space pieces -------------------------------------------------

    def _per_class(self, field, values):
        """Apply a reduced-momentum multiplier; trailing axes are batch."""
        axes = tuple(range(self.spec.n - 1))
        hat = np.fft.fftn(field, axes=axes)
        v = values.reshape(values.shape + (1,) * (field.ndim - values.ndim))
        return np.fft.ifftn(hat * v, axes=axes)

    def _smoothed_sum(self, fields):
        total = formsmod.trace_adjoint(self.grid, self.spec, self.pairs[0],
                                       fields[0])
        for pair, f in zip(self.pairs[1:], fields[1:]):
            total = total + formsmod.trace_adjoint(self.grid, self.spec,
                                                   pair, f)
        return self.rfree(total)

    def channel_apply(self, fields):
        """Full channel matrix: fields - g * (traces of R0 sum of adjoints)."""
        smoothed = self._smoothed_sum(fields)
        g = self.spec.g
        return [f - g * formsmod.apply_trace(self.grid, self.spec, p, smoothed)
                for p, f in zip(self.pairs, fields)]

    def apply_diag_inverse(self, fields):
        g = self.spec.g
        return [self._per_class(f, 1.0 / (1.0 - g * m))
                for f, m in zip(fields, self.multipliers)]

    def apply_offdiag(self, fields):
        smoothed = self._smoothed_sum(fields)
        g = self.spec.g
        out = []
        for pair, mult, f in zip(self.pairs, self.multipliers, fields):
            cross = formsmod.apply_trace(self.grid, self.spec, pair, smoothed)
            own = self._per_class(f, mult)
            out.append(-g * (cross - own))
        return out

    def solve_channels(self, fields):
        solution = invert_lambda(self, fields, tol=self.tol,
                                 max_terms=self.max_terms, force=self.force)
        if len(self.pairs) > 1:
            back = self.channel_apply(solution)
            num = math.sqrt(sum(float(np.sum(np.abs(b - f) ** 2))
                                for b, f in zip(back, fields)))
            den = math.sqrt(sum(float(np.sum(np.abs(f) ** 2))
                                for f in fields))
            resid = num / den if den > 0.0 else 0.0
            self.last_residual = resid
            if resid > 100.0 * self.tol:
                raise NoConvergence(self.max_terms, resid,
                                    "trace channel inversion")
        return solution

    def symmetry_defect(self, rng=None, trials=8):
        """Largest normalized asymmetry <u, M v> - <M u, v> over random pairs."""
        if rng is None:
            rng = np.random.default_rng(3)
        shape = (self.grid.npoints,) * (self.spec.n - 1)
        w = self.grid.h ** (self.spec.n - 1)
        worst = 0.0
        P = len(self.pairs)
        for _ in range(trials):
            u = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                 for _ in range(P)]
            v = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                 for _ in range(P)]
            mu = self.channel_apply(u)
            mv = self.channel_apply(v)
            lhs = sum(w * np.vdot(a, b) for a, b in zip(u, mv))
            rhs = sum(w * np.vdot(a, b) for a, b in zip(mu, v))
            nu = math.sqrt(sum(w * float(np.sum(np.abs(a) ** 2)) for a in u))
            nv = math.sqrt(sum(w * float(np.sum(np.abs(a) ** 2)) for a in v))
            worst = max(worst, abs(lhs - rhs) / (nu * nv))
        return worst

    def apply(self, field):
        u0 = self.rfree(np.asarray(field, dtype=complex))
        channels = [formsmod.apply_trace(self.grid, self.spec, p, u0)
                    for p in self.pairs]
        sol = self.solve_channels(channels)
        total = formsmod.trace_adjoint(self.grid, self.spec, self.pairs[0],
                                       sol[0])
        for pair, y in zip(self.pairs[1:], sol[1:]):
            total = total + formsmod.trace_adjoint(self.grid, self.spec,
                                                   pair, y)
        return u0 + self.spec.g * self.rfree(total)

    __call__ = apply


_MODE_ALIASES = {
    "direct": "direct",
    "direct-grid": "direct",
    "kk": "kk",
    "konno-kuroda": "kk",
    "limit": "limit",
    "theta": "theta",
    "theta-limit": "theta",
}


def assemble(grid, spec, z, mode, eps=None, tol=1e-10,
             profile=DEFAULT_PROFILE, force_chain=False, force=False):
    """Build one resolvent assembly by mode name.

    ``direct`` and ``kk`` need a positive width; ``limit`` and ``theta``
    reject one.  ``force`` disables the channel-inversion threshold
    gate (unsupported territory; the direct mode never needs it).
    """
    try:
        key = _MODE_ALIASES[mode]
    except KeyError:
        raise ConfigError("unknown assembly mode %r (expected one of %s)"
                          % (mode, ", ".join(sorted(_MODE_ALIASES))))
    if key in ("direct", "kk"):
        if eps is None:
            raise ConfigError("mode %r requires a positive width" % mode)
        if key == "direct":
            return DirectAssembly(grid, spec, z, eps, profile=profile, tol=tol)
        return FactoredAssembly(grid, spec, z, eps, profile=profile, tol=tol,
                                force_chain=force_chain, force=force)
    if eps is not None:
        raise ConfigError("mode %r does not take a width" % mode)
    if key == "limit":
        return FactoredAssembly(grid, spec, z, None, profile=profile,
                                tol=tol, force=force)
    return TraceAssembly(grid, spec, z, tol=tol, force=force)


def apply_kk_resolvent(psi, grid, spec, z, eps, tol=1e-10,
                       profile=DEFAULT_PROFILE, force_chain=False):
    """One-shot coupled-channel application of (H_eps - z)^{-1}."""
    asm = FactoredAssembly(grid, spec, z, eps, profile=profile, tol=tol,
                           force_chain=force_chain)
    return asm.apply(psi)


def apply_limit_resolvent(psi, grid, spec, z, tol=1e-10,
                          profile=DEFAULT_PROFILE):
    """One-shot application of the contact resolvent."""
    asm = FactoredAssembly(grid, spec, z, None, profile=profile, tol=tol)
    return asm.apply(psi)


def apply_theta_resolvent(psi, grid, spec, z, tol=1e-10):
    """One-shot application of the reduced-space (trace-channel) resolvent."""
    asm = TraceAssembly(grid, spec, z, tol=tol)
    return asm.apply(psi)


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

    def widths(self, level, z):
        return [e.eps for e in self.entries if e.level == level and e.z == z]

    def monotone(self, level, z):
        d = self.distances(level, z)
        return all(b < a for a, b in zip(d, d[1:]))


def _as_list(value):
    try:
        return list(value)
    except TypeError:
        return [value]


def convergence_sweep(spec, z_values, eps_values, grids, rng=None,
                      iters=40, restarts=3, tol=1e-10,
                      profile=DEFAULT_PROFILE, force_chain=False):
    """Operator-norm distances between width-eps and limit resolvents.

    For every grid level and spectral point, measures
    ||R_eps - R_limit|| by power iteration on the (hermitian) difference
    for each width, then fits the decay order in eps.  Returns a
    SweepReport whose ``orders`` dict maps (level, z) to the fitted
    log-log slope (NaN when a distance vanishes, e.g. at g = 0).
    """
    if isinstance(grids, gridmod.Grid):
        grids = [grids]
    z_values = [float(z) for z in _as_list(z_values)]
    eps_values = [float(e) for e in _as_list(eps_values)]
    if rng is None:
        rng = np.random.default_rng(0)
    entries = []
    orders = {}
    for level, grid in enumerate(grids):
        for z in z_values:
            limit = FactoredAssembly(grid, spec, z, None, profile=profile,
                                     tol=tol)
            dists = []
            for eps in eps_values:
                stream = rng.spawn(1)[0]
                asm = FactoredAssembly(grid, spec, z, eps, profile=profile,
                                       tol=tol, force_chain=force_chain)

                def difference(f):
                    return asm.apply(f) - limit.apply(f)

                start = time.perf_counter()
                dist, spread = gridmod.operator_norm(
                    difference, difference, grid.shape, rng=stream,
                    iters=iters, restarts=restarts)
                elapsed = 1000.0 * (time.perf_counter() - start)
                dists.append(dist)
                entries.append(SweepEntry(
                    level=level, npoints=grid.npoints, box=grid.box, z=z,
                    eps=eps, distance=dist, spread=spread,
                    iterations=iters * restarts, wallclock_ms=elapsed))
            if min(dists) > 0.0 and len(dists) > 1:
                slope = np.polyfit(np.log(eps_values), np.log(dists), 1)[0]
                orders[(level, z)] = float(slope)
            else:
                orders[(level, z)] = float("nan")
    return SweepReport(entries=entries, orders=orders)


# ---------------------------------------------------------------------------
# Spectral probes
# ---------------------------------------------------------------------------


def pole_scan(grid, spec, bracket, xtol=1e-12):
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
    return float(scipy.optimize.brentq(smallest, lo, hi, xtol=xtol))


def ground_energy(grid, spec, eps, shift=-2.0, steps=80, tol=1e-9,
                  rng=None, profile=DEFAULT_PROFILE, solver_tol=1e-10):
    """Lowest eigenvalue of the width-eps Hamiltonian.

    Shift-inverted Lanczos around ``shift``, which must sit strictly
    below the ground state; the inner shifted systems go through the
    dense or preconditioned-iterative solver depending on grid size.
    """
    ham = build_hamiltonian(grid, spec, eps, profile)
    solve = gridmod.shifted_solver(ham, shift, tol=solver_tol)
    eigs = gridmod.lowest_eigenvalues(
        lambda vec: ham.apply(vec.reshape(grid.shape)).reshape(-1),
        lambda vec: solve(vec.reshape(grid.shape)).reshape(-1),
        grid.size, shift, k=1, steps=steps, tol=tol, rng=rng)
    return float(eigs[0])
