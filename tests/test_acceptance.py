"""End-to-end acceptance battery.

One test per contract: each prints a single PASS/FAIL line with the
measured number next to its tolerance, then asserts.  Everything here
runs from public package surface only, apart from the command line's
BLAS thread cap.
"""

import math

import numpy as np

from deltaresolvent.audits import (audit_diagonal_bound, audit_schur_3d,
                                   audit_schur_4d, default_audit_grid)
from deltaresolvent.blocks import (LambdaMatrix, OffDiagonalBlock,
                                   pair_class_multiplier)
from deltaresolvent.cli import _blas_threads
from deltaresolvent.forms import (apply_trace, evaluate_form,
                                  fourier_trace_identities, h1_norm_squared)
from deltaresolvent.greens import greens_closed, greens_quadrature
from deltaresolvent.grid import Grid, random_band_limited
from deltaresolvent.resolvent import (DirectAssembly, FactoredAssembly,
                                      TraceAssembly, convergence_sweep,
                                      ground_energy, pole_scan)
from deltaresolvent.system import SystemSpec, enumerate_pairs

SPEC2 = SystemSpec(masses=(1.0, 1.0), g=1.0)
SPEC3 = SystemSpec(masses=(1.0, 1.0, 1.0), g=1.0)


def _report(tag, ok, detail):
    print("%s: %s -- %s" % (tag, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (tag, detail)


def _rel(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _probe(grid, rng):
    return (rng.standard_normal(grid.shape)
            + 1j * rng.standard_normal(grid.shape))


def test_acceptance_01_factored_matches_direct():
    grid = Grid(64, 4.0, 2)
    z, eps = -16.0, 0.25
    direct = DirectAssembly(grid, SPEC2, z, eps)
    factored = FactoredAssembly(grid, SPEC2, z, eps)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10):
        psi = _probe(grid, rng)
        worst = max(worst, _rel(factored.apply(psi), direct.apply(psi)))
    _report("acceptance-01 factored-vs-direct", worst < 1e-6,
            "worst relative deviation %.3e (tolerance 1e-6)" % worst)


def test_acceptance_02_bound_state_energy():
    grid = Grid(512, 25.6, 2)
    widths = (0.4, 0.2)
    energies = [ground_energy(grid, SPEC2, w, shift=-2.0,
                              rng=np.random.default_rng(2))
                for w in widths]
    w1, w2 = widths
    extrapolated = (w1 * energies[1] - w2 * energies[0]) / (w1 - w2)
    deviation = abs(extrapolated - (-0.25)) / 0.25
    _report("acceptance-02 bound-state-energy", deviation < 0.02,
            "E(%g)=%.6f E(%g)=%.6f extrapolated %.6f vs -0.25 "
            "(rel dev %.4f, tolerance 0.02)"
            % (w1, energies[0], w2, energies[1], extrapolated, deviation))


def test_acceptance_03_width_convergence_order():
    widths = [0.4, 0.2, 0.1, 0.05]
    ok = True
    details = []
    for spec, grid, seed in ((SPEC2, Grid(64, 12.8, 2), 3),
                             (SPEC3, Grid(32, 4.0, 3), 4)):
        # A second BLAS thread only spins on these small matrices.
        with _blas_threads():
            report = convergence_sweep(spec, [-20.0], widths, [grid],
                                       rng=np.random.default_rng(seed))
        dists = report.distances(0, -20.0)
        order = report.orders[(0, -20.0)]
        ok = ok and report.monotone(0, -20.0) and order >= 0.9
        details.append("n=%d order %.3f dists %s"
                       % (spec.n, order,
                          "/".join("%.2e" % d for d in dists)))
    _report("acceptance-03 width-convergence", ok,
            "; ".join(details) + " (monotone, order >= 0.9)")


def test_acceptance_04_diagonal_norm_bounds():
    grid = default_audit_grid()
    ok = True
    tightest = 0.0
    for masses in ((1.0, 1.0), (1.0, 2.0), (0.5, 1.5)):
        for g in (1.0, 2.0):
            for z, eps in ((-4.0, 0.4), (-25.0, 0.1)):
                audit = audit_diagonal_bound(
                    grid, SystemSpec(masses=masses, g=g), z, eps=eps)
                ratio = audit.measured / audit.claimed
                tightest = max(tightest, ratio)
                ok = ok and audit.measured * 1.02 <= audit.claimed
                ok = ok and (audit.detail["neumann_inverse_measured"]
                             <= audit.detail["neumann_inverse_claim"] + 1e-9)
    _report("acceptance-04 diagonal-norm-bounds", ok,
            "12 mass/coupling/width combinations, tightest measured/claimed "
            "%.4f (needs <= 1/1.02, inverse below Neumann claim)" % tightest)


def test_acceptance_05_contact_diagonal_factorizes():
    z = -20.0
    worst = 0.0
    checks = 0
    for spec, grid, sets, seed in ((SPEC2, Grid(64, 12.8, 2), 15, 5),
                                   (SPEC3, Grid(16, 3.2, 3), 12, 6)):
        lam = LambdaMatrix(grid, spec, z)
        n = spec.n
        mults = [pair_class_multiplier(grid, spec, p, z) for p in lam.pairs]
        rng = np.random.default_rng(seed)
        for _ in range(sets):
            # channel fields: the maps' support rows x reduced momentum
            fields = [_probe(grid, rng)[cmap.support] for cmap in lam.maps]
            applied = [f - spec.g * lam.own(k, f) for k, f in enumerate(fields)]
            for k, (cmap, mult, f, a) in enumerate(zip(lam.maps, mults, fields,
                                                       applied)):
                w = cmap.weights.reshape((-1,) + (1,) * (n - 1))
                coeff = grid.h * np.sum(w * f, axis=0)
                pred = w * (spec.g * mult * coeff)[None]
                # the factored block, and g * (lift . free-resolvent . drop)
                for block in (f - a, spec.g * lam.lift(k, lam.free(lam.drop(k, f)))):
                    worst = max(worst, _rel(block, pred))
                    checks += 1
    _report("acceptance-05 contact-diagonal-factorization", worst < 1e-10,
            "%d window (x) momentum-multiplier checks, worst relative "
            "deviation %.3e (tolerance 1e-10)" % (checks, worst))


def test_acceptance_06_offdiagonal_norm_bounds():
    grid = Grid(16, 3.2, 1)
    z = -25.0
    p3 = enumerate_pairs(SPEC3)
    shared = OffDiagonalBlock(grid, SPEC3, p3[0], p3[1], z)
    shared_norm = shared.norm()
    spec4 = SystemSpec(masses=(1.0,) * 4, g=1.0)
    p4 = enumerate_pairs(spec4)
    opposite = [p for p in p4 if {p.i, p.j} == {3, 4}][0]
    disjoint = OffDiagonalBlock(grid, spec4, p4[0], opposite, z)
    disjoint_norm = disjoint.norm()
    ok = (shared_norm <= shared.claimed_bound()
          and disjoint_norm <= disjoint.claimed_bound())
    _report("acceptance-06 offdiagonal-norm-bounds", ok,
            "shared %.4e <= %.4e, disjoint %.4e <= %.4e"
            % (shared_norm, shared.claimed_bound(),
               disjoint_norm, disjoint.claimed_bound()))


def test_acceptance_07_row_integral_audits():
    ok = True
    widest_ci = 0.0
    for z in (-1.0, -2.0, -8.0):
        a3 = audit_schur_3d(z)
        a4 = audit_schur_4d(z)
        widest_ci = max(widest_ci, a3.ci, a4.ci)
        ok = (ok and a3.passed and a4.passed
              and abs(a4.measured - a4.claimed) <= 1e-12
              and 0.0 <= a4.ci <= 1e-10)
    _report("acceptance-07 row-integral-audits", ok,
            "3 spectral points x 2 kernel classes all PASS, "
            "widest quadrature error bar %.2e" % widest_ci)


def test_acceptance_08_kernel_quadrature():
    lattice = np.linspace(0.05, 3.0, 20)
    worst = 0.0
    for d in (1, 3, 4):
        for z in (-0.5, -1.0, -6.0):
            for x in lattice:
                closed = greens_closed(d, z, float(x))
                quad = greens_quadrature(d, z, float(x))
                worst = max(worst, abs(quad - closed) / abs(closed))
    _report("acceptance-08 kernel-quadrature", worst < 1e-8,
            "180 lattice points over d in {1,3,4}, worst relative "
            "deviation %.3e (tolerance 1e-8)" % worst)


def test_acceptance_09_reduced_route_agreement():
    z = -20.0
    worst = 0.0
    for spec, grid, count, seed in ((SPEC2, Grid(64, 12.8, 2), 5, 9),
                                    (SPEC3, Grid(16, 3.2, 3), 3, 10)):
        limit = FactoredAssembly(grid, spec, z)
        theta = TraceAssembly(grid, spec, z)
        rng = np.random.default_rng(seed)
        for _ in range(count):
            psi = _probe(grid, rng)
            worst = max(worst, _rel(theta.apply(psi), limit.apply(psi)))
    coarse = pole_scan(Grid(128, 12.8, 2), SPEC2, (-0.6, -0.05))
    fine = pole_scan(Grid(256, 12.8, 2), SPEC2, (-0.6, -0.05))
    extrapolated = 2.0 * fine - coarse
    pole_dev = abs(extrapolated - (-0.25)) / 0.25
    ok = worst <= 5e-10 and pole_dev < 0.02
    _report("acceptance-09 reduced-route", ok,
            "worst route deviation %.3e (tolerance 5e-10), pole "
            "extrapolates to %.6f (rel dev %.4f, tolerance 0.02)"
            % (worst, extrapolated, pole_dev))


def test_acceptance_10_form_battery():
    grid = Grid(64, 12.8, 2)
    rng = np.random.default_rng(11)
    pair = enumerate_pairs(SPEC2)[0]

    worst_identity = 0.0
    worst_ratio = 0.0
    for _ in range(100):
        f = random_band_limited(grid, rng)
        worst_identity = max(worst_identity,
                             max(fourier_trace_identities(grid, f).values()))
        t = apply_trace(grid, SPEC2, pair, f)
        ratio = grid.h * float(np.sum(np.abs(t) ** 2)) / h1_norm_squared(grid, f)
        worst_ratio = max(worst_ratio, ratio)

    worst_herm = 0.0
    for _ in range(25):
        phi = random_band_limited(grid, rng)
        psi = random_band_limited(grid, rng)
        a = evaluate_form(grid, SPEC2, phi, psi)
        b = evaluate_form(grid, SPEC2, psi, phi)
        worst_herm = max(worst_herm,
                         abs(a - np.conj(b)) / max(abs(a), abs(b), 1.0))

    repulsive = SystemSpec(masses=(1.0, 1.0), g=-2.0)
    lowest = math.inf
    for _ in range(200):
        phi = random_band_limited(grid, rng)
        lowest = min(lowest, evaluate_form(grid, repulsive, phi, phi).real)

    worst_form = 0.0
    for spec, g, count in ((SPEC2, grid, 5), (SPEC3, Grid(32, 6.4, 3), 3)):
        assembly = FactoredAssembly(g, spec, -16.0)
        for _ in range(count):
            phi = random_band_limited(g, rng)
            psi = random_band_limited(g, rng)
            u = assembly.apply(phi)
            lhs = (evaluate_form(g, spec, psi, u)
                   - (-16.0) * complex(np.vdot(psi, u)) * g.weight)
            rhs = complex(np.vdot(psi, phi)) * g.weight
            worst_form = max(worst_form, abs(lhs - rhs) / abs(rhs))

    ok = (worst_identity <= 1e-8 and worst_ratio <= 1.0
          and worst_herm <= 1e-10 and lowest >= -1e-10
          and worst_form <= 0.01)
    _report("acceptance-10 form-battery", ok,
            "identities %.2e<=1e-8, trace ratio %.4f<=1, hermiticity "
            "%.2e<=1e-10, repulsive minimum %.2e>=-1e-10, form-vs-resolvent "
            "%.2e<=0.01" % (worst_identity, worst_ratio, worst_herm,
                            lowest, worst_form))
