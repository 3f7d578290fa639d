import numpy as np
import pytest
import scipy.fft
import scipy.linalg

from deltaresolvent.errors import NoConvergence, ShiftTooCloseToSpectrum
from deltaresolvent.grid import (Grid, class_gather, class_scatter,
                                 fourier_multiply, free_resolvent, hermitian_norm, kinetic_multiplier,
                                 lab_axes_from_front, lab_axes_to_front,
                                 lowest_eigenvalues, minimum_image_separation,
                                 pair_frame_adjoint,
                                 pair_frame_forward, random_band_limited,
                                 shifted_solver, to_momentum, total_momentum_sectors)
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
    for box in (np.inf, np.nan):
        with pytest.raises(ValueError):
            Grid(64, box)


def test_kinetic_multiplier_on_plane_waves():
    """The free generator multiplies each plane wave by sum p_i^2/(2 m_i)."""
    grid = Grid(32, 6.4)
    masses = (1.0, 2.0)
    wave = plane_wave(grid, 3)[:, None] * plane_wave(grid, 7)[None, :]
    out = fourier_multiply(kinetic_multiplier(grid, masses), wave)
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
    back = fourier_multiply(kinetic_multiplier(grid, masses), u) - z * u
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
    assert np.sqrt(grid.weight) * np.linalg.norm(f) == pytest.approx(1.0)


def test_class_gather_sorts_by_pair_momentum_and_scatter_undoes_it():
    rng = np.random.default_rng(13)
    coeffs = rng.standard_normal((8, 8, 3))
    classes = class_gather(coeffs)
    for K in range(8):
        for k1 in range(8):
            assert np.array_equal(classes[K, k1], coeffs[k1, (K - k1) % 8])
    assert np.array_equal(class_scatter(classes), coeffs)


def test_pair_frame_forward_matches_pointwise_formula():
    """Spectral frame change equals direct evaluation for a smooth field.

    The frame change runs on Fourier coefficients: the lab field goes in
    through fft2, and the pair-centre axis comes back through ifft.  The
    frame weights alternate on one grid, so each call must build its mixer
    from its own (alpha, beta).
    """
    grid = Grid(64, 25.6, 2)
    xi = grid.x[:, None]
    xj = grid.x[None, :]
    f = np.exp(-(xi ** 2) - 0.5 * (xj - 0.3) ** 2)
    r = grid.x[:, None]
    R = grid.x[None, :]
    for masses in ((1.0, 3.0), (3.0, 1.0), (1.0, 3.0)):
        spec = SystemSpec(masses=masses, g=1.0)
        alpha, beta = frame_weights(spec, enumerate_pairs(spec)[0])
        out = np.fft.ifft(pair_frame_forward(grid, np.fft.fft2(f), alpha, beta), axis=1)
        expected = np.exp(-((R + alpha * r) ** 2) - 0.5 * (R - beta * r - 0.3) ** 2)
        # limited by the Gaussian's own spectral tail at this resolution
        assert np.max(np.abs(out - expected)) < 1e-6


def test_pair_frame_adjoint_is_the_adjoint():
    """On unnormalized FFT coefficients (numpy's default) in and out, the
    adjoint frame change is N times the Euclidean adjoint of the forward one."""
    spec = SystemSpec(masses=(0.5, 1.5), g=1.0)
    pair = enumerate_pairs(spec)[0]
    alpha, beta = frame_weights(spec, pair)
    grid = Grid(32, 6.4, 2)
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        g = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        lhs = grid.npoints * np.vdot(pair_frame_forward(grid, f, alpha, beta), g)
        rhs = np.vdot(f, pair_frame_adjoint(grid, g, alpha, beta))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_lab_axes_moves_pair_to_front_and_back():
    spec = SystemSpec(masses=(1.0,) * 3, g=1.0)
    pair = enumerate_pairs(spec)[2]  # (2, 3)
    rng = np.random.default_rng(5)
    f = rng.standard_normal((8, 8, 8))
    front = lab_axes_to_front(f, pair)
    assert front.shape == f.shape
    assert np.array_equal(front[:, :, 0], f[0].T) is False  # axes permuted
    assert np.array_equal(lab_axes_from_front(front, pair), f)


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


def total_momenta(grid):
    """(k_1 + ... + k_n) mod N at every lab multi-index, from the indices alone."""
    return np.sum(np.indices(grid.shape), axis=0) % grid.npoints


def test_solve_shifted_rejects_near_spectrum_shift():
    """Shifts at eigenvalues of the dense matrix are refused, in the K = 0
    sector of the ground state and in sectors of total momentum K != 0."""
    spec = SystemSpec(masses=(1.0, 1.0), g=4.0)   # K = 1, 2 hold bound states
    grid = Grid(32, 6.4, 2)
    N = grid.npoints
    ham = build_hamiltonian(grid, spec, 0.8)
    # the dense matrix tells us exact eigenvalues to aim at
    vals, vecs = np.linalg.eigh(ham.matrix())
    power = np.abs(scipy.fft.fft2(vecs.reshape(grid.shape + (-1,)), axes=(0, 1))) ** 2
    momenta = total_momenta(grid)
    rhs = np.random.default_rng(5).standard_normal(grid.shape)
    for sector in (0, 1, 2):
        # K and -K are degenerate (parity), so an eigenvector may mix the two
        inside = np.isin(momenta, (sector, N - sector))
        share = power[inside].sum(axis=0) / power.sum(axis=(0, 1))
        index = np.flatnonzero(share > 1.0 - 1e-10)[0]
        assert vals[index] < 0.0
        with pytest.raises(ShiftTooCloseToSpectrum):
            shifted_solver(ham, vals[index])(rhs)
        with pytest.raises(ShiftTooCloseToSpectrum):
            DirectAssembly(grid, spec, vals[index], 0.8).apply(rhs)


@pytest.mark.parametrize("npoints, box, ndim", [(8, 3.2, 2), (8, 3.2, 3)])
def test_total_momentum_sectors_partition_the_lattice(npoints, box, ndim):
    grid = Grid(npoints, box, ndim)
    sectors = total_momentum_sectors(grid)
    N = grid.npoints
    assert sectors.shape == (N, N ** (ndim - 1))
    assert np.array_equal(np.sort(sectors, axis=None), np.arange(grid.size))
    momenta = total_momenta(grid).reshape(-1)
    assert np.array_equal(momenta[sectors], np.repeat(np.arange(N)[:, None],
                                                      sectors.shape[1], axis=1))


def test_total_momentum_sectors_are_the_class_gather_at_two_particles():
    grid = Grid(16, 3.2, 2)
    rng = np.random.default_rng(21)
    coeffs = rng.standard_normal(grid.shape + (3,)) + 1j * rng.standard_normal(grid.shape + (3,))
    gathered = coeffs.reshape(grid.size, -1)[total_momentum_sectors(grid)]
    assert np.array_equal(gathered, class_gather(coeffs))


@pytest.mark.parametrize("npoints, box, masses, z", [
    (32, 6.4, (1.0, 2.0), -5.0),
    (32, 6.4, (1.0, 2.0), complex(-5.0, 0.5)),
    (16, 3.2, (1.0, 2.0, 3.0), -4.0),
])
def test_shifted_solver_matches_dense_reference(npoints, box, masses, z):
    """The per-sector solve equals a dense solve with the assembled matrix."""
    spec = SystemSpec(masses=masses, g=1.0)
    grid = Grid(npoints, box, len(masses))
    ham = build_hamiltonian(grid, spec, 0.8)
    rng = np.random.default_rng(17)
    rhs = (rng.standard_normal(grid.shape + (2,))
           + 1j * rng.standard_normal(grid.shape + (2,)))
    dense = ham.matrix() - z * np.eye(grid.size)
    want = np.linalg.solve(dense, rhs.reshape(grid.size, 2)).reshape(rhs.shape)
    got = shifted_solver(ham, z)(rhs)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


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


@pytest.mark.parametrize("npoints, box, z", [(32, 6.4, -5.0), (128, 12.8, -5.0)])
def test_shifted_solver_real_and_complex_rhs_agree(npoints, box, z):
    """At real z a real right-hand side stays real, dense and GMRES, and its
    solution is the real part of the complex solve."""
    spec = SystemSpec(masses=(1.0, 2.0), g=1.0)
    grid = Grid(npoints, box, 2)
    solve = shifted_solver(build_hamiltonian(grid, spec, 0.8), z)
    rng = np.random.default_rng(13)
    re, im = rng.standard_normal((2,) + grid.shape)
    real = solve(re)
    assert np.isrealobj(real)
    both = solve(re + 1j * im)
    assert np.linalg.norm(both.real - real) <= 1e-8 * np.linalg.norm(real)
    assert np.linalg.norm(both.imag - solve(im)) <= 1e-8 * np.linalg.norm(real)


def test_operator_norm_matches_dense_svd():
    """The driver's norm of a dense Hermitian matrix lies within its residual
    of the top singular value."""
    rng = np.random.default_rng(7)
    half = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    mat = half + half.conj().T
    exact = scipy.linalg.svdvals(mat)[0]
    assert exact == pytest.approx(np.max(np.abs(np.linalg.eigvalsh(mat))))
    best, residual, applications = hermitian_norm(lambda v: mat @ v, (40,), rng)
    assert abs(best - exact) <= residual <= 1e-4 * exact
    assert applications > 1


def test_operator_norm_on_zero_operator():
    """The zero operator leaves ARPACK no Krylov space: the driver raises."""
    with pytest.raises(NoConvergence):
        hermitian_norm(lambda v: 0.0 * v, (8,), np.random.default_rng(8))


def test_lowest_eigenvalues_on_dense_oracle():
    """Shift-invert iteration agrees with eigvalsh on a small Hamiltonian's
    lowest eigenvalue."""
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
        grid.size, shift, steps=60, rng=np.random.default_rng(9))
    assert got == pytest.approx(exact[0], abs=1e-8)


def test_lowest_eigenvalues_raises_instead_of_returning_unconverged():
    diag = np.linspace(1.0, 40.0, 40)
    shift = 0.5
    calls = []

    def solve(v):
        calls.append(v.copy())
        return v / (diag - shift)

    exact = lowest_eigenvalues(lambda v: diag * v, solve, 40, shift, steps=60,
                               rng=np.random.default_rng(12))
    assert exact == pytest.approx(1.0, abs=1e-10)
    # real arithmetic from a start vector drawn from the caller's generator
    start = np.random.default_rng(12).standard_normal(40)
    assert np.isrealobj(calls[0])
    assert np.allclose(calls[0] / np.linalg.norm(calls[0]),
                       start / np.linalg.norm(start))
    # too few steps for the Ritz values to settle: steps caps the solves
    calls.clear()
    with pytest.raises(NoConvergence):
        lowest_eigenvalues(lambda v: diag * v, solve, 40, shift, steps=3,
                           rng=np.random.default_rng(12))
    assert len(calls) == 3
    # settled Ritz values whose residual against the operator reaches the shift
    with pytest.raises(NoConvergence):
        lowest_eigenvalues(lambda v: 3.0 * diag * v, solve, 40, shift, steps=60,
                           rng=np.random.default_rng(12))
