import numpy as np
import pytest

from deltaresolvent.errors import NoConvergence, ShiftTooCloseToSpectrum
from deltaresolvent.grid import (Grid, apply_free_hamiltonian, free_resolvent,
                                 from_momentum, kinetic_multiplier,
                                 lab_axes_from_front, lab_axes_to_front,
                                 lowest_eigenvalues, minimum_image_separation,
                                 operator_norm, pair_frame_adjoint,
                                 pair_frame_forward, random_band_limited,
                                 save_field, load_field, shifted_solver,
                                 to_momentum)
from deltaresolvent.system import SystemSpec, enumerate_pairs, frame_weights
from deltaresolvent.bump import build_hamiltonian
from deltaresolvent.resolvent import DirectAssembly


def plane_wave(grid, k_index):
    return np.exp(1j * grid.p[k_index] * grid.x)


def test_grid_geometry():
    grid = Grid(64, 12.8, 2)
    assert grid.h == pytest.approx(0.2)
    assert grid.shape == (64, 64)
    assert grid.size == 4096
    assert grid.weight == pytest.approx(0.04)
    assert grid.x[0] == pytest.approx(-6.4)
    assert grid.x[32] == pytest.approx(0.0)


def test_grid_rejects_bad_sizes():
    with pytest.raises(ValueError):
        Grid(48, 4.0)
    with pytest.raises(ValueError):
        Grid(64, -1.0)


def test_norm_and_inner_consistency():
    grid = Grid(32, 6.4, 2)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    assert grid.norm(f) ** 2 == pytest.approx(grid.inner(f, f).real)
    g = rng.standard_normal(grid.shape)
    assert grid.inner(f, g) == pytest.approx(np.conj(grid.inner(g, f)))


def test_kinetic_multiplier_on_plane_waves():
    """The free generator multiplies each plane wave by sum p_i^2/(2 m_i)."""
    grid = Grid(32, 6.4)
    masses = (1.0, 2.0)
    wave = plane_wave(grid, 3)[:, None] * plane_wave(grid, 7)[None, :]
    out = apply_free_hamiltonian(grid, masses, wave)
    expected = (grid.p[3] ** 2 / 2.0 + grid.p[7] ** 2 / 4.0) * wave
    assert np.allclose(out, expected, atol=1e-12)
    mult = kinetic_multiplier(grid, masses)
    assert mult[3, 7] == pytest.approx(grid.p[3] ** 2 / 2.0 + grid.p[7] ** 2 / 4.0)
    assert mult[0, 0] == 0.0


def test_free_resolvent_inverts_free_generator():
    grid = Grid(32, 6.4)
    masses = (1.0, 0.5, 2.0)
    rng = np.random.default_rng(1)
    f = rng.standard_normal((32, 32, 32)) + 1j * rng.standard_normal((32, 32, 32))
    z = -3.0
    u = free_resolvent(grid, masses, z)(f)
    back = apply_free_hamiltonian(grid, masses, u) - z * u
    assert np.linalg.norm(back - f) / np.linalg.norm(f) < 1e-12


def test_momentum_transform_is_calibrated_and_unitary():
    grid = Grid(64, 25.6)
    # Gaussian with a known continuum transform: exp(-x^2/2) maps to itself
    f = np.exp(-grid.x ** 2 / 2.0)
    hat = to_momentum(grid, f)
    assert np.allclose(hat.real, np.exp(-grid.p ** 2 / 2.0), atol=1e-12)
    assert np.max(np.abs(hat.imag)) < 1e-12
    # Parseval with the quadrature weights
    assert grid.h * np.sum(np.abs(f) ** 2) == pytest.approx(
        (2 * np.pi / grid.box) * np.sum(np.abs(hat) ** 2))
    back = from_momentum(grid, hat)
    assert np.allclose(back.real, f, atol=1e-12)


def test_momentum_transform_partial_axes():
    grid = Grid(16, 3.2, 3)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(grid.shape)
    one_then_two = to_momentum(grid, to_momentum(grid, f, axes=(0,)), axes=(1, 2))
    assert np.allclose(one_then_two, to_momentum(grid, f), atol=1e-12)


def test_random_band_limited_is_normalized():
    grid = Grid(32, 6.4, 2)
    rng = np.random.default_rng(3)
    f = random_band_limited(grid, rng)
    assert grid.norm(f) == pytest.approx(1.0)
    batch = random_band_limited(grid, rng, batch=(5,))
    assert batch.shape == (32, 32, 5)
    norms = np.sqrt(np.sum(np.abs(batch) ** 2, axis=(0, 1))) * grid.h
    assert np.allclose(norms, 1.0)


def test_pair_frame_forward_matches_pointwise_formula():
    """Spectral frame change equals direct evaluation for a smooth field."""
    spec = SystemSpec(masses=(1.0, 3.0), g=1.0)
    pair = enumerate_pairs(spec)[0]
    alpha, beta = frame_weights(spec, pair)
    grid = Grid(64, 25.6, 2)
    xi = grid.x[:, None]
    xj = grid.x[None, :]
    f = np.exp(-(xi ** 2) - 0.5 * (xj - 0.3) ** 2)
    out = pair_frame_forward(grid, f, alpha, beta)
    r = grid.x[:, None]
    R = grid.x[None, :]
    expected = np.exp(-((R + alpha * r) ** 2) - 0.5 * (R - beta * r - 0.3) ** 2)
    # limited by the Gaussian's own spectral tail at this resolution
    assert np.max(np.abs(out - expected)) < 1e-6


def test_pair_frame_adjoint_is_the_adjoint():
    spec = SystemSpec(masses=(0.5, 1.5), g=1.0)
    pair = enumerate_pairs(spec)[0]
    alpha, beta = frame_weights(spec, pair)
    grid = Grid(32, 6.4, 2)
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        g = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        lhs = np.vdot(pair_frame_forward(grid, f, alpha, beta), g)
        rhs = np.vdot(f, pair_frame_adjoint(grid, g, alpha, beta))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_lab_axes_moves_pair_to_front_and_back():
    spec = SystemSpec(masses=(1.0,) * 3, g=1.0)
    pair = enumerate_pairs(spec)[2]  # (2, 3)
    rng = np.random.default_rng(5)
    f = rng.standard_normal((8, 8, 8))
    front = lab_axes_to_front(f, spec, pair)
    assert front.shape == f.shape
    assert np.array_equal(front[:, :, 0], f[0].T) is False  # axes permuted
    assert np.array_equal(lab_axes_from_front(front, spec, pair), f)


def test_minimum_image_separation():
    grid = Grid(16, 3.2, 2)
    sep = minimum_image_separation(grid)
    assert sep.shape == (16, 16)
    assert sep[0, 0] == 0.0
    assert np.max(sep) == pytest.approx(grid.box / 2.0, abs=grid.h)
    i = 2
    j = 15
    direct = abs(grid.x[i] - grid.x[j])
    assert sep[i, j] == pytest.approx(min(direct, grid.box - direct))


def test_solve_shifted_dense_and_iterative_agree():
    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    small = Grid(32, 6.4, 2)     # 1024 unknowns: dense path
    ham = build_hamiltonian(small, spec, 0.8)
    rng = np.random.default_rng(6)
    rhs = rng.standard_normal(small.shape)
    z = -5.0
    u = shifted_solver(ham, z)(rhs)
    res = ham.apply(u) - z * u - rhs
    assert np.linalg.norm(res) / np.linalg.norm(rhs) < 1e-9

    big = Grid(128, 25.6, 2)     # 16384 unknowns: preconditioned iteration
    ham_big = build_hamiltonian(big, spec, 0.8)
    rhs_big = rng.standard_normal(big.shape)
    u_big = shifted_solver(ham_big, z)(rhs_big)
    res = ham_big.apply(u_big) - z * u_big - rhs_big
    assert np.linalg.norm(res) / np.linalg.norm(rhs_big) < 1e-8


def test_solve_shifted_rejects_near_spectrum_shift():
    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    grid = Grid(32, 6.4, 2)
    ham = build_hamiltonian(grid, spec, 0.8)
    # the dense matrix tells us an exact eigenvalue to aim at
    eigs = np.linalg.eigvalsh(ham.matrix())
    with pytest.raises(ShiftTooCloseToSpectrum):
        shifted_solver(ham, eigs[0])(np.ones(grid.shape))
    with pytest.raises(ShiftTooCloseToSpectrum):
        DirectAssembly(grid, spec, eigs[0], 0.8).apply(np.ones(grid.shape))


@pytest.mark.parametrize("npoints, box, z", [(32, 6.4, -5.0),
                                             (32, 6.4, complex(-5.0, 0.5)),
                                             (128, 12.8, -5.0)])
def test_shifted_solver_batch_matches_columns(npoints, box, z):
    """Trailing batch axes give the per-column solutions, dense and GMRES."""
    spec = SystemSpec(masses=(1.0, 2.0), g=1.0)
    grid = Grid(npoints, box, 2)
    solve = shifted_solver(build_hamiltonian(grid, spec, 0.8), z)
    rng = np.random.default_rng(11)
    batch = (rng.standard_normal(grid.shape + (2,))
             + 1j * rng.standard_normal(grid.shape + (2,)))
    together = solve(batch)
    assert together.shape == batch.shape
    for col in range(batch.shape[-1]):
        alone = solve(batch[..., col])
        assert np.linalg.norm(together[..., col] - alone) <= (
            1e-12 * np.linalg.norm(alone))


def test_operator_norm_matches_dense_svd():
    rng = np.random.default_rng(7)
    mat = rng.standard_normal((40, 40))
    best, spread = operator_norm(lambda v: mat @ v, lambda v: mat.T @ v,
                                 (40,), rng=rng, iters=200, restarts=3)
    exact = np.linalg.svd(mat, compute_uv=False)[0]
    assert best == pytest.approx(exact, rel=1e-6)
    assert spread >= 0.0
    assert best <= exact * (1.0 + 1e-9)  # power iteration approaches from below


def test_operator_norm_on_zero_operator():
    best, spread = operator_norm(lambda v: 0.0 * v, lambda v: 0.0 * v, (8,),
                                 rng=np.random.default_rng(8))
    assert best == 0.0


def test_lowest_eigenvalues_on_dense_oracle():
    """Shift-invert iteration agrees with eigvalsh on a small Hamiltonian."""
    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    grid = Grid(32, 6.4, 2)
    ham = build_hamiltonian(grid, spec, 0.8)
    dense = ham.matrix()
    exact = np.linalg.eigvalsh(dense)
    shift = -2.0
    solve = shifted_solver(ham, shift)
    got = lowest_eigenvalues(
        lambda v: ham.apply(v.reshape(grid.shape)).ravel(),
        lambda v: solve(v.reshape(grid.shape)).ravel(),
        grid.size, shift, k=2, steps=60, rng=np.random.default_rng(9))
    assert got[0] == pytest.approx(exact[0], abs=1e-8)
    assert got[1] == pytest.approx(exact[1], abs=1e-6)


def test_lowest_eigenvalues_raises_instead_of_returning_unconverged():
    diag = np.linspace(1.0, 40.0, 40)
    shift = 0.5

    def solve(v):
        return v / (diag - shift)

    exact = lowest_eigenvalues(lambda v: diag * v, solve, 40, shift, steps=60,
                               rng=np.random.default_rng(12))
    assert exact[0] == pytest.approx(1.0, abs=1e-10)
    # too few steps for the Ritz values to settle
    with pytest.raises(NoConvergence):
        lowest_eigenvalues(lambda v: diag * v, solve, 40, shift, steps=3,
                           rng=np.random.default_rng(12))
    # settled Ritz values whose residual against the operator reaches the shift
    with pytest.raises(NoConvergence):
        lowest_eigenvalues(lambda v: 3.0 * diag * v, solve, 40, shift, steps=60,
                           rng=np.random.default_rng(12))


def test_save_and_load_roundtrip(tmp_path):
    grid = Grid(16, 3.2, 2)
    rng = np.random.default_rng(10)
    f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    path = tmp_path / "field.npz"
    save_field(path, grid, f)
    grid2, f2 = load_field(path)
    assert grid2.npoints == grid.npoints
    assert grid2.box == pytest.approx(grid.box)
    assert grid2.ndim == grid.ndim
    assert np.array_equal(f2, f)
