import numpy as np
import pytest

from deltaresolvent.errors import AboveThreshold, NoConvergence
from deltaresolvent.grid import (Grid, HamiltonianEps, hermitian_norm,
                                 lowest_eigenvalues, random_band_limited)
from deltaresolvent.resolvent import (DirectAssembly, FactoredAssembly,
                                      TraceAssembly, convergence_sweep,
                                      ground_energy, pole_scan)
from deltaresolvent.system import SystemSpec

SPEC2 = SystemSpec(masses=(1.0, 1.0), g=1.0)
GRID_SMALL = Grid(64, 4.0, 2)        # resolves eps = 0.25
GRID_WIDE = Grid(64, 12.8, 2)

# small-box two-particle energies, frozen from a direct Lanczos run
E0_SMALL_BOX = -0.232196


def probes(grid, rng, count=3):
    for _ in range(count):
        yield (rng.standard_normal(grid.shape)
               + 1j * rng.standard_normal(grid.shape))


def rel_dev(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_factored_matches_direct_solve():
    """Block factorization and dense solve give the same resolvent."""
    z, eps = -16.0, 0.25
    direct = DirectAssembly(GRID_SMALL, SPEC2, z, eps)
    kk = FactoredAssembly(GRID_SMALL, SPEC2, z, eps)
    rng = np.random.default_rng(0)
    for psi in probes(GRID_SMALL, rng):
        assert rel_dev(kk.apply(psi), direct.apply(psi)) < 1e-10


def test_kk_solution_solves_the_shifted_system():
    from deltaresolvent.bump import build_hamiltonian

    z, eps = -16.0, 0.25
    kk = FactoredAssembly(GRID_SMALL, SPEC2, z, eps)
    ham = build_hamiltonian(GRID_SMALL, SPEC2, eps)
    rng = np.random.default_rng(1)
    psi = next(probes(GRID_SMALL, rng, 1))
    u = kk.apply(psi)
    residual = ham.apply(u) - z * u - psi
    assert np.linalg.norm(residual) / np.linalg.norm(psi) < 1e-9


def test_theta_matches_limit():
    z = -16.0
    lim = FactoredAssembly(GRID_WIDE, SPEC2, z)
    theta = TraceAssembly(GRID_WIDE, SPEC2, z)
    rng = np.random.default_rng(2)
    for psi in probes(GRID_WIDE, rng):
        assert rel_dev(theta.apply(psi), lim.apply(psi)) < 5e-10
    assert theta.last_residual is None or theta.last_residual < 1e-8


def test_theta_matches_limit_three_particles():
    spec = SystemSpec(masses=(1.0, 1.0, 1.0), g=1.0)
    grid = Grid(16, 3.2, 3)
    z = -20.0
    lim = FactoredAssembly(grid, spec, z)
    theta = TraceAssembly(grid, spec, z)
    rng = np.random.default_rng(3)
    psi = next(probes(grid, rng, 1))
    assert rel_dev(theta.apply(psi), lim.apply(psi)) < 5e-9


def test_theta_adjoint_symmetry():
    """<u, M v> = <M u, v> for the trace channel matrix M, on random pairs."""
    theta = TraceAssembly(GRID_WIDE, SPEC2, -16.0)
    rng = np.random.default_rng(4)
    shape = (1, GRID_WIDE.npoints)
    w = GRID_WIDE.h
    worst = 0.0
    for _ in range(6):
        u = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)]
        v = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape)]
        lhs = w * np.vdot(u[0], theta.channel_apply(v)[0])
        rhs = w * np.vdot(theta.channel_apply(u)[0], v[0])
        worst = max(worst, abs(lhs - rhs) / (w * np.linalg.norm(u[0])
                                             * np.linalg.norm(v[0])))
    assert worst < 1e-9


def test_zero_coupling_reduces_to_free_resolvent():
    from deltaresolvent.grid import free_resolvent

    spec = SystemSpec(masses=(1.0, 2.0), g=0.0)
    z = -9.0
    rng = np.random.default_rng(5)
    psi = next(probes(GRID_WIDE, rng, 1))
    expect = free_resolvent(GRID_WIDE, spec.masses, z)(psi)
    for asm in (FactoredAssembly(GRID_WIDE, spec, z, 0.4),
                FactoredAssembly(GRID_WIDE, spec, z),
                TraceAssembly(GRID_WIDE, spec, z)):
        assert rel_dev(asm.apply(psi), expect) < 1e-13


ROUTES = {"direct": DirectAssembly, "konno-kuroda": FactoredAssembly,
          "limit": FactoredAssembly, "theta-limit": TraceAssembly}


@pytest.mark.parametrize("mode,grid,kwargs", [
    ("direct", GRID_SMALL, {"eps": 0.25}),
    ("konno-kuroda", GRID_SMALL, {"eps": 0.25}),
    ("limit", GRID_WIDE, {}),
    ("theta-limit", GRID_WIDE, {}),
])
def test_first_resolvent_identity(mode, grid, kwargs):
    """R(z1) - R(z2) = (z1 - z2) R(z1) R(z2) on every route."""
    z1, z2 = -16.0, -25.0
    a1 = ROUTES[mode](grid, SPEC2, z1, **kwargs)
    a2 = ROUTES[mode](grid, SPEC2, z2, **kwargs)
    rng = np.random.default_rng(6)
    psi = next(probes(grid, rng, 1))
    lhs = a1.apply(psi) - a2.apply(psi)
    rhs = (z1 - z2) * a1.apply(a2.apply(psi))
    assert rel_dev(lhs, rhs) < 1e-10


def test_complex_spectral_parameter_perturbation():
    """R(z + i d) matches the Neumann prediction R + i d R^2 to O(d^2)."""
    z, eps = -16.0, 0.25
    base = DirectAssembly(GRID_SMALL, SPEC2, z, eps)
    rng = np.random.default_rng(7)
    psi = next(probes(GRID_SMALL, rng, 1))
    devs = []
    for delta in (0.08, 0.04):
        shifted = DirectAssembly(GRID_SMALL, SPEC2, complex(z, delta), eps)
        exact = shifted.apply(psi)
        pred = base.apply(psi) + 1j * delta * base.apply(base.apply(psi))
        devs.append(rel_dev(exact, pred))
    assert devs[0] < 1e-4
    assert devs[1] < 1e-5
    assert 3.0 < devs[0] / devs[1] < 5.0  # quadratic in the imaginary part


def test_complex_conjugate_symmetry():
    z, eps = -16.0, 0.25
    plus = DirectAssembly(GRID_SMALL, SPEC2, complex(z, 0.05), eps)
    minus = DirectAssembly(GRID_SMALL, SPEC2, complex(z, -0.05), eps)
    rng = np.random.default_rng(8)
    psi = next(probes(GRID_SMALL, rng, 1))
    assert rel_dev(minus.apply(np.conj(psi)), np.conj(plus.apply(psi))) < 1e-11


@pytest.mark.parametrize("grid, masses, g, z, tol", [
    (Grid(16, 3.2, 2), (1.0, 2.0), 0.7, -20.0, 1e-11),
    (Grid(16, 3.2, 3), (1.0, 1.0, 1.0), 1.0, -20.0, 1e-11),
    (Grid(16, 3.2, 3), (1.0, 2.0, 0.5), 0.7, -90.0, 1e-11),
    (Grid(8, 3.2, 4), (1.0, 2.0, 0.5, 1.5), 0.5, -320.0, 1e-11),
    (Grid(32, 3.2, 3), (1.0, 1.0, 1.0), 1.0, -20.0, 1e-9),  # GMRES
], ids=["n2", "n3", "n3-mixed", "n4", "n3-gmres"])
def test_contact_routes_match_the_direct_solve(grid, masses, g, z, tol):
    """limit and theta are two Woodbury forms of the contact Hamiltonian
    H0 - (g/h) sum_pairs 1[x_i = x_j]; direct at eps None solves it plainly."""
    spec = SystemSpec(masses=masses, g=g)
    psi = next(probes(grid, np.random.default_rng(20), 1))
    expect = DirectAssembly(grid, spec, z, None).apply(psi)
    for asm in (FactoredAssembly(grid, spec, z), TraceAssembly(grid, spec, z)):
        assert rel_dev(asm.apply(psi), expect) < tol


def test_routes_at_four_particles():
    """theta against limit, and kk at a width the grid resolves (shear maps)
    against direct, which runs GMRES on 65,536 points; z0 = -297.8."""
    from deltaresolvent.bump import ShearCouplingMap

    spec = SystemSpec(masses=(1.0, 2.0, 0.5, 1.5), g=0.7)
    grid = Grid(16, 6.4, 4)
    z, eps = -320.0, 1.6
    psi = next(probes(grid, np.random.default_rng(21), 1))
    limit = FactoredAssembly(grid, spec, z).apply(psi)
    assert rel_dev(TraceAssembly(grid, spec, z).apply(psi), limit) < 5e-10
    kk = FactoredAssembly(grid, spec, z, eps)
    assert all(isinstance(m, ShearCouplingMap) for m in kk.maps)
    direct = DirectAssembly(grid, spec, z, eps).apply(psi)
    assert rel_dev(kk.apply(psi), direct) < 1e-9


def test_resolvent_norm_obeys_spectral_mapping():
    """The largest resolvent eigenvalue is 1/(E0 - z) for its own operator."""
    z, eps, shift = -16.0, 0.25, -2.0
    asm = DirectAssembly(GRID_SMALL, SPEC2, z, eps)
    # a second assembly at the Lanczos shift doubles as a cached (H-s)^{-1}
    inv = DirectAssembly(GRID_SMALL, SPEC2, shift, eps)
    e0 = lowest_eigenvalues(
        lambda v: inv.ham.apply(v.reshape(GRID_SMALL.shape)).ravel(),
        lambda v: inv.apply(v.reshape(GRID_SMALL.shape)).ravel(),
        GRID_SMALL.size, shift, rng=np.random.default_rng(9))
    norm, residual, _ = hermitian_norm(asm.apply, GRID_SMALL.shape,
                                       np.random.default_rng(10))
    assert residual <= 1e-4 * norm
    assert norm * (e0 - z) == pytest.approx(1.0, abs=1e-5)


def test_limit_resolvent_norm_below_continuum_bound():
    """On this grid the contact pole sits above -1/4, so 1/(E0 - z) caps it."""
    for z in (-4.0, -16.0):
        asm = FactoredAssembly(GRID_WIDE, SPEC2, z)
        norm, residual, _ = hermitian_norm(asm.apply, GRID_WIDE.shape,
                                           np.random.default_rng(11))
        assert norm + residual <= 1.0 / (-0.25 - z)


def test_threshold_gate_and_force():
    rng = np.random.default_rng(13)
    psi = next(probes(GRID_WIDE, rng, 1))
    gated = FactoredAssembly(GRID_WIDE, SPEC2, -2.0)     # z0 = -2.25
    with pytest.raises(AboveThreshold):
        gated.apply(psi)
    with pytest.raises(AboveThreshold):
        TraceAssembly(GRID_WIDE, SPEC2, -2.0).apply(psi)
    # forcing past the gate still solves the (perfectly regular) system:
    # for one pair the channel inverse is exact, so both routes agree
    forced = FactoredAssembly(GRID_WIDE, SPEC2, -2.0, force=True)
    cross = TraceAssembly(GRID_WIDE, SPEC2, -2.0, force=True)
    assert rel_dev(forced.apply(psi), cross.apply(psi)) < 5e-10


def test_convergence_sweep_small_config():
    report = convergence_sweep(
        SPEC2, [-20.0], [0.4, 0.2], [Grid(32, 6.4, 2)],
        rng=np.random.default_rng(14))
    assert len(report.entries) == 2
    dists = report.distances(0, -20.0)
    assert dists[0] > dists[1] > 0.0
    assert report.monotone(0, -20.0)
    assert (0, -20.0) in report.orders
    for entry in report.entries:
        assert entry.npoints == 32
        assert entry.iterations > 1
        assert 0.0 <= entry.spread <= 1e-4 * entry.distance
        assert entry.wallclock_ms >= 0.0


def test_convergence_sweep_monotone_reads_widest_first():
    """Widths listed narrowest first: the verdict follows the width, not the list."""
    report = convergence_sweep(
        SPEC2, [-20.0], [0.2, 0.4, 0.8], [Grid(32, 6.4, 2)],
        rng=np.random.default_rng(14))
    dists = report.distances(0, -20.0)
    assert dists[0] < dists[1] < dists[2]
    assert report.monotone(0, -20.0)


def test_pole_scan_brackets_bound_state():
    grid = Grid(128, 12.8, 2)
    pole = pole_scan(grid, SPEC2, (-0.6, -0.05))
    assert -0.26 < pole < -0.2
    with pytest.raises(ValueError):
        pole_scan(grid, SystemSpec(masses=(1.0,) * 3, g=1.0), (-0.6, -0.05))


def test_pole_scan_refines_toward_quarter():
    """Richardson in h lands near the contact bound state at -1/4."""
    coarse = pole_scan(Grid(128, 12.8, 2), SPEC2, (-0.6, -0.05))
    fine = pole_scan(Grid(256, 12.8, 2), SPEC2, (-0.6, -0.05))
    extrapolated = 2.0 * fine - coarse
    assert abs(extrapolated - (-0.25)) / 0.25 < 0.02


def test_ground_energy_small_box():
    grid = Grid(32, 6.4, 2)
    e = ground_energy(grid, SPEC2, 0.8, shift=-2.0,
                      rng=np.random.default_rng(15))
    assert e == pytest.approx(E0_SMALL_BOX, abs=1e-4)


def test_ground_energy_assembles_and_factors_once(monkeypatch):
    """Every Lanczos step reuses one batched inversion of the total-momentum
    sector matrices, and no full dense matrix is assembled."""
    counts = {"inv": 0, "matrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    monkeypatch.setattr(HamiltonianEps, "matrix",
                        counted("matrix", HamiltonianEps.matrix))
    e = ground_energy(Grid(32, 6.4, 2), SPEC2, 0.8, shift=-2.0,
                      rng=np.random.default_rng(15))
    assert e == pytest.approx(E0_SMALL_BOX, abs=1e-4)
    assert counts == {"inv": 1, "matrix": 0}


def test_ground_energy_raises_when_steps_run_out(monkeypatch):
    """Three steps leave the Ritz value far from settled (it would read > 0)."""
    monkeypatch.setattr("deltaresolvent.grid.LANCZOS_STEPS", 3)
    with pytest.raises(NoConvergence):
        ground_energy(Grid(32, 12.8, 2), SPEC2, 1.6)


def test_ground_energy_repulsive_has_no_bound_state():
    grid = Grid(128, 12.8, 2)
    spec = SystemSpec(masses=(1.0, 1.0), g=-1.0)
    e = ground_energy(grid, spec, 0.4, shift=-2.0,
                      rng=np.random.default_rng(16))
    assert e > -1e-6


def test_ground_energy_three_particles_binds_deeper():
    e2 = ground_energy(Grid(32, 6.4, 2), SPEC2, 0.8, shift=-2.0,
                       rng=np.random.default_rng(17))
    spec3 = SystemSpec(masses=(1.0, 1.0, 1.0), g=1.0)
    e3 = ground_energy(Grid(32, 6.4, 3), spec3, 0.8, shift=-3.0,
                       rng=np.random.default_rng(17))
    assert e3 < e2 < 0.0
