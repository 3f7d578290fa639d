import math

import numpy as np
import pytest

from deltaresolvent.blocks import (DiagonalBlock, LambdaMatrix,
                                   OffDiagonalBlock, invert_lambda,
                                   pair_class_multiplier,
                                   verify_block_convergence)
from deltaresolvent.bump import DEFAULT_PROFILE
from deltaresolvent.errors import (AboveThreshold, SameBlockRequested,
                                   SeriesDiverging)
from deltaresolvent.forms import apply_trace, trace_adjoint
from deltaresolvent.greens import greens_closed
from deltaresolvent.grid import Grid, free_resolvent
from deltaresolvent.resolvent import TraceAssembly
from deltaresolvent.system import SystemSpec, bound_constants, enumerate_pairs

SPEC2 = SystemSpec(masses=(1.0, 1.0), g=1.0)
PAIR2 = enumerate_pairs(SPEC2)[0]


def channel_shape(lam, k):
    # every channel lives on its map's support rows times the reduced lattice
    return (lam.maps[k].support.size,) + lam.grid.shape[1:]


def random_channels(lam, rng):
    return [rng.standard_normal(channel_shape(lam, k))
            + 1j * rng.standard_normal(channel_shape(lam, k))
            for k in range(len(lam.pairs))]


def test_class_multiplier_is_exact_grid_identity():
    """tau R0 tau* equals multiplication by the wrapped class sum."""
    grid = Grid(64, 12.8, 2)
    rng = np.random.default_rng(0)
    f = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    rfree = free_resolvent(grid, SPEC2.masses, -4.0)
    lhs = apply_trace(grid, SPEC2, PAIR2,
                      rfree(trace_adjoint(grid, SPEC2, PAIR2, f)))
    mult = pair_class_multiplier(grid, SPEC2, PAIR2, -4.0)
    rhs = np.fft.ifft(mult * np.fft.fft(f))
    assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-13


def test_class_multiplier_exact_identity_three_particles():
    spec = SystemSpec(masses=(1.0, 2.0, 0.5), g=1.0)
    grid = Grid(16, 3.2, 3)
    rng = np.random.default_rng(1)
    f = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    rfree = free_resolvent(grid, spec.masses, -9.0)
    # (1,3) keeps particle 1 in front; (2,3) moves both of its axes
    for pair in enumerate_pairs(spec)[1:]:
        lhs = apply_trace(grid, spec, pair,
                          rfree(trace_adjoint(grid, spec, pair, f)))
        mult = pair_class_multiplier(grid, spec, pair, -9.0)
        rhs = np.fft.ifftn(mult * np.fft.fftn(f))
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs) < 1e-13


def test_class_multiplier_approaches_analytic_linearly_in_h():
    """The wrapped sum misses the continuum only by the ultraviolet tail."""
    gaps = []
    for npoints in (64, 128, 256):
        grid = Grid(npoints, 12.8, 2)
        mg = pair_class_multiplier(grid, SPEC2, PAIR2, -4.0)[0]
        gaps.append(0.25 - mg)
    assert all(g > 0 for g in gaps)
    assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.05)
    assert gaps[1] / gaps[2] == pytest.approx(2.0, rel=0.05)


def test_multiplier_guards():
    grid = Grid(16, 3.2, 2)
    with pytest.raises(ValueError):
        pair_class_multiplier(grid, SPEC2, PAIR2, 1.0)


def test_diagonal_block_norm_under_claimed_bound():
    """Width blocks sit strictly below the claim; the limit saturates it.

    The saturation is only exact in the continuum, so the measured limit
    norm may poke over by the profile's grid-quadrature defect (~1e-8
    here); the audit slack covers exactly this.
    """
    grid = Grid(64, 2.56, 1)
    for z in (-4.0, -25.0):
        for eps in (0.4, 0.1):
            blk = DiagonalBlock(grid, SPEC2, PAIR2, z, eps)
            assert blk.norm() < blk.claimed_bound()
        limit = DiagonalBlock(grid, SPEC2, PAIR2, z, None)
        assert limit.norm() == pytest.approx(limit.claimed_bound(), rel=1e-6)
    blk = DiagonalBlock(grid, SPEC2, PAIR2, -4.0, None)
    assert blk.claimed_bound() == pytest.approx(0.25)


def test_diagonal_block_kernel_symmetric_and_fiber_monotone():
    grid = Grid(64, 2.56, 1)
    blk = DiagonalBlock(grid, SPEC2, PAIR2, -4.0, 0.2)
    k0 = blk.kernel_matrix(0.0)
    assert np.max(np.abs(k0 - k0.T)) < 1e-14
    # the fiber norm decays as the reduced kinetic offset grows
    n0 = float(np.max(np.abs(np.linalg.eigvalsh(k0))))
    n4 = float(np.max(np.abs(np.linalg.eigvalsh(blk.kernel_matrix(4.0)))))
    assert n4 < n0


@pytest.mark.parametrize("eps", [None, 0.2])
def test_diagonal_block_kernel_closed_form(eps):
    """g sqrt(mu/2) / sqrt(q - z) v v^T exp(-eps sqrt(2 mu (q - z)) |r - r'|) h."""
    spec = SystemSpec(masses=(1.0, 2.0), g=1.0)
    pair = enumerate_pairs(spec)[0]
    grid = Grid(64, 2.56, 1)
    blk = DiagonalBlock(grid, spec, pair, -4.0, eps)
    for q in (0.0, 4.0):
        gap = q + 4.0
        decay = 0.0 if eps is None else eps * math.sqrt(2.0 * pair.mu * gap)
        expected = (spec.g * math.sqrt(pair.mu / 2.0) / math.sqrt(gap)
                    * np.outer(blk.v, blk.v)
                    * np.exp(-decay * np.abs(blk.r[:, None] - blk.r[None, :])) * grid.h)
        np.testing.assert_allclose(blk.kernel_matrix(q), expected, rtol=1e-14, atol=0.0)


def test_limit_block_is_rank_one_times_profile():
    grid = Grid(64, 2.56, 1)
    blk = DiagonalBlock(grid, SPEC2, PAIR2, -4.0, None)
    mat = blk.kernel_matrix(0.0)
    # rank one: second singular value negligible
    s = np.linalg.svd(mat, compute_uv=False)
    assert s[1] < 1e-14 * s[0]


def test_block_convergence_rate_and_slope():
    grid = Grid(64, 2.56, 1)
    conv = verify_block_convergence(grid, SPEC2, PAIR2, -4.0, (0.4, 0.2, 0.1))
    moment = 0.11492724584548189
    assert conv.rate == pytest.approx(2.0 * 0.5 * math.sqrt(moment), rel=1e-9)
    assert list(conv.gaps) == sorted(conv.gaps, reverse=True)
    for eps, gap in zip(conv.eps, conv.gaps):
        assert gap <= conv.rate * eps
    assert conv.slope > 0.8


def test_offdiagonal_block_requires_distinct_pairs():
    spec = SystemSpec(masses=(1.0, 1.0, 1.0), g=1.0)
    pairs = enumerate_pairs(spec)
    grid = Grid(16, 3.2, 1)
    with pytest.raises(SameBlockRequested):
        OffDiagonalBlock(grid, spec, pairs[0], pairs[0], -9.0)
    with pytest.raises(ValueError):
        OffDiagonalBlock(grid, spec, pairs[0], pairs[1], 1.0)


def test_offdiagonal_gram_matrix_is_exactly_symmetric():
    """norm() hands (M^T M)^T to LAPACK as M^T M itself, in Fortran order."""
    spec = SystemSpec(masses=(1.0, 1.0, 1.0), g=1.0)
    pairs = enumerate_pairs(spec)
    blk = OffDiagonalBlock(Grid(16, 3.2, 1), spec, pairs[0], pairs[1], -25.0)
    mat = blk.kernel_matrix()
    gram = (mat.T @ mat).T
    assert gram.flags.f_contiguous
    assert np.array_equal(gram, gram.T)


def test_offdiagonal_shared_block_norm_against_claim():
    spec = SystemSpec(masses=(1.0, 1.0, 1.0), g=1.0)
    pairs = enumerate_pairs(spec)
    grid = Grid(16, 3.2, 1)
    blk = OffDiagonalBlock(grid, spec, pairs[0], pairs[1], -25.0)
    assert blk.kind == "shared"
    norm = blk.norm()
    assert 0.0 < norm <= blk.claimed_bound()
    # the explicit lattice only exists for the smallest geometry
    spec4 = SystemSpec(masses=(1.0,) * 4, g=1.0)
    p4 = enumerate_pairs(spec4)
    shared4 = OffDiagonalBlock(grid, spec4, p4[0], p4[1], -25.0)
    with pytest.raises(ValueError):
        shared4.kernel_matrix()


def test_offdiagonal_norm_is_the_exact_matrix_norm():
    """norm() is the spectral norm of the kernel times the window's mass.

    Unequal masses make the shared-particle kernel non-symmetric.
    """
    spec = SystemSpec(masses=(1.0, 2.0, 0.5), g=1.0)
    pairs = enumerate_pairs(spec)
    grid = Grid(16, 3.2, 1)
    blk = OffDiagonalBlock(grid, spec, pairs[0], pairs[1], -25.0)
    mat = blk.kernel_matrix()
    assert np.max(np.abs(mat - mat.T)) > 1e-3 * np.max(np.abs(mat))
    vnorm = grid.h * float(np.sum(DEFAULT_PROFILE.value(grid.x) ** 2))
    exact = np.linalg.norm(mat, 2) * vnorm
    assert abs(blk.norm() - exact) <= 1e-12 * exact


def test_offdiagonal_norm_scales_like_inverse_sqrt_z():
    spec = SystemSpec(masses=(1.0, 1.0, 1.0), g=1.0)
    pairs = enumerate_pairs(spec)
    grid = Grid(16, 3.2, 1)
    n1 = OffDiagonalBlock(grid, spec, pairs[0], pairs[2], -16.0).norm()
    n2 = OffDiagonalBlock(grid, spec, pairs[0], pairs[2], -64.0).norm()
    # bound scales as |z|^(-1/2); the measured kernel decays at least that fast
    assert n2 < n1 / 1.8


@pytest.mark.parametrize("masses", [(1.0, 2.0, 0.5), (1.0, 2.0, 0.5, 1.5)],
                         ids=["shared-n3", "disjoint-n4"])
def test_offdiagonal_kernel_follows_reduced_layout_for_every_pair(masses):
    """Sampled entries equal the n-dimensional kernel at the mass-weighted rho.

    Rows run over (sigma center, sigma spectators ascending), columns over
    the same for nu; particle p sits at the center of a pair it belongs to
    and at its own spectator coordinate otherwise.
    """
    grid = Grid(8, 3.2, 1)
    spec = SystemSpec(masses=masses, g=0.7)
    n, N, z = spec.n, grid.npoints, -9.0
    pairs = enumerate_pairs(spec)
    rng = np.random.default_rng(12)

    def lab_positions(pair, index):
        coords = np.unravel_index(index, (N,) * (n - 1))
        spectators = [k for k in range(1, n + 1) if k not in (pair.i, pair.j)]
        return [grid.x[coords[0]] if p in (pair.i, pair.j)
                else grid.x[coords[1 + spectators.index(p)]]
                for p in range(1, n + 1)]

    blocks = 0
    for sigma in pairs:
        for nu in pairs:
            common = {sigma.i, sigma.j} & {nu.i, nu.j}
            if sigma == nu or len(common) != (1 if n == 3 else 0):
                continue
            blk = OffDiagonalBlock(grid, spec, sigma, nu, z)
            assert blk.kind == ("shared" if n == 3 else "disjoint")
            assert blk.coupling_constant() == pytest.approx(
                -(2.0 ** (n / 2)) * spec.g * math.sqrt(math.prod(masses)),
                rel=1e-15)
            mat = blk.kernel_matrix()
            # random entries plus every coincidence (all particles at one site)
            same = [np.ravel_multi_index((k,) * (n - 1), (N,) * (n - 1))
                    for k in range(N)]
            rows = list(rng.integers(0, mat.shape[0], 200)) + same
            cols = list(rng.integers(0, mat.shape[1], 200)) + same
            for r, c in zip(rows, cols):
                xs = lab_positions(sigma, r)
                ys = lab_positions(nu, c)
                rho = math.sqrt(sum(2.0 * m * (a - b) ** 2
                                    for m, a, b in zip(masses, xs, ys)))
                if rho == 0.0:
                    assert mat[r, c] == 0.0
                    continue
                want = (blk.coupling_constant() * grid.h ** (n - 1)
                        * greens_closed(n, z, rho))
                assert mat[r, c] == pytest.approx(want, rel=1e-13)
            blocks += 1
    assert blocks == 6  # every ordered pair of the geometry


def test_lambda_apply_splits_into_diag_and_offdiag():
    spec = SystemSpec(masses=(1.0, 0.5, 2.0), g=0.7)
    grid = Grid(16, 3.2, 3)
    for lam in (LambdaMatrix(grid, spec, -30.0, eps=None),
                TraceAssembly(grid, spec, -30.0)):
        rng = np.random.default_rng(4)
        fields = random_channels(lam, rng)
        full = lam.channel_apply(fields)
        diag = [f - spec.g * lam.own(k, f) for k, f in enumerate(fields)]
        off = lam.apply_offdiag(fields)
        # the identity term rides inside the diagonal part
        for a, b, c in zip(full, diag, off):
            assert np.allclose(a, b + c, atol=1e-12)


def test_lambda_diag_inverse_roundtrip_limit_and_width():
    spec = SystemSpec(masses=(1.0, 1.5), g=1.0)
    grid = Grid(32, 6.4, 2)
    systems = [LambdaMatrix(grid, spec, -9.0, eps=eps) for eps in (None, 0.4)]
    for lam in systems + [TraceAssembly(grid, spec, -9.0)]:
        rng = np.random.default_rng(5)
        fields = random_channels(lam, rng)
        back = [b - spec.g * lam.own(k, b)
                for k, b in enumerate(lam.apply_diag_inverse(fields))]
        for f, b in zip(fields, back):
            assert np.linalg.norm(b - f) / np.linalg.norm(f) < 1e-11


def test_factored_own_block_matches_lab_round_trip():
    """T R0 T* from the cached factorization equals lift(free(drop(chi)))."""
    spec = SystemSpec(masses=(1.0, 2.0, 0.5), g=1.0)
    grid = Grid(16, 3.2, 3)
    systems = [LambdaMatrix(grid, spec, -20.0),
               LambdaMatrix(grid, spec, -20.0, eps=0.2),
               LambdaMatrix(grid, spec, -20.0, eps=0.8)]
    assert [type(lam.maps[0]).__name__ for lam in systems] == [
        "LimitCouplingMap", "ChainCouplingMap", "ShearCouplingMap"]
    rng = np.random.default_rng(10)
    for lam in systems:
        for k in range(len(lam.maps)):
            shape = channel_shape(lam, k) + (2,)
            chi = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            ref = lam.lift(k, lam.free(lam.drop(k, chi)))
            gap = np.max(np.abs(lam.own(k, chi) - ref)) / np.max(np.abs(ref))
            assert gap <= 1e-12


@pytest.mark.parametrize("grid, masses, g, z, eps", [
    (Grid(64, 12.8, 2), (1.0, 1.0), 1.0, -20.0, 0.4),
    (Grid(16, 3.2, 3), (1.0, 1.0, 1.0), 1.0, -20.0, 0.1),
    (Grid(16, 3.2, 3), (1.0, 0.5, 2.0), 0.7, -90.0, 0.2),
], ids=["n2", "n3-equal", "n3-mixed"])
def test_chain_kk_route_is_real_on_real_input(grid, masses, g, z, eps):
    """H_eps is real, so its resolvent at real z keeps a real field real.

    The chain maps interpolate off the grid; they split the unpaired
    Nyquist wavenumber evenly between +-pi/h, which keeps their output
    real up to rounding.
    """
    spec = SystemSpec(masses=masses, g=g)
    lam = LambdaMatrix(grid, spec, z, eps=eps)
    assert type(lam.maps[0]).__name__ == "ChainCouplingMap"
    out = lam.apply(np.random.default_rng(5).standard_normal(grid.shape))
    assert np.linalg.norm(out.imag) <= 1e-15 * np.linalg.norm(out)


def test_neumann_terms_run_no_fft(monkeypatch):
    """The channel iteration runs in momentum: apply transforms once each way.

    Every scipy.fft transform is patched to log its name; inside the
    Neumann terms (apply_offdiag, apply_diag_inverse) it raises instead.
    """
    import scipy.fft

    spec = SystemSpec(masses=(1.0, 0.5, 2.0), g=0.7)
    grid = Grid(16, 3.2, 3)
    systems = [LambdaMatrix(grid, spec, -90.0, eps=eps) for eps in (None, 0.2, 0.8)]
    systems.append(TraceAssembly(grid, spec, -90.0))
    assert [type(lam.maps[0]).__name__ for lam in systems[:3]] == [
        "LimitCouplingMap", "ChainCouplingMap", "ShearCouplingMap"]
    log, inside = [], []

    def patched(name, original):
        def transform(*args, **kwargs):
            if inside:
                raise AssertionError("%s inside a Neumann term" % name)
            log.append(name)
            return original(*args, **kwargs)
        return transform

    for name in [name for name in scipy.fft.__all__ if "fft" in name]:
        monkeypatch.setattr(scipy.fft, name, patched(name, getattr(scipy.fft, name)))
    for cls in (LambdaMatrix, TraceAssembly):
        for method in ("apply_offdiag", "apply_diag_inverse"):
            original = getattr(cls, method)

            def guarded(self, fields, original=original):
                inside.append(True)
                try:
                    return original(self, fields)
                finally:
                    inside.pop()
            monkeypatch.setattr(cls, method, guarded)
    rng = np.random.default_rng(12)
    field = rng.standard_normal(grid.shape + (2,))
    for lam in systems:
        log.clear()
        lam.apply(field)
        assert log == ["fftn", "ifftn"]


@pytest.mark.parametrize("grid, masses, z", [
    (Grid(16, 3.2, 3), (1.0, 1.0, 1.0), -20.0),
    (Grid(16, 3.2, 3), (1.0, 0.5, 2.0), -90.0),
    (Grid(64, 6.4, 2), (1.0, 2.0), -9.0),
], ids=["n3-equal", "n3-mixed", "n2"])
def test_diagonal_slice_spectrum_audit(grid, masses, z):
    """Exact audit: the stored block eigenvalues are >= 0 and g max <= contraction."""
    spec = SystemSpec(masses=masses, g=1.0)
    for eps in (None, 0.05):
        lam = LambdaMatrix(grid, spec, z, eps=eps)
        eigs = np.concatenate([vals.ravel() for _, _, vals in lam._diagonal()])
        assert eigs.min() >= -1e-12
        assert spec.g * eigs.max() <= lam.diagonal_contraction()


def test_invert_lambda_residuals():
    """The guarded Neumann solve really inverts the block system."""
    cases = [
        (SystemSpec(masses=(1.0, 1.0), g=1.0), Grid(64, 12.8, 2), None, 1e-12),
        (SystemSpec(masses=(1.0, 1.0), g=1.0), Grid(64, 4.0, 2), 0.25, 1e-12),
        (SystemSpec(masses=(1.0, 1.0, 1.0), g=1.0), Grid(16, 3.2, 3), None, 1e-8),
        (SystemSpec(masses=(1.0, 1.0, 1.0), g=1.0), Grid(16, 3.2, 3), 0.4, 1e-8),
    ]
    for spec, grid, eps, tol in cases:
        lam = LambdaMatrix(grid, spec, -20.0, eps=eps)
        rng = np.random.default_rng(6)
        fields = random_channels(lam, rng)
        solved = invert_lambda(lam, fields)
        back = lam.channel_apply(solved)
        num = math.sqrt(sum(float(np.linalg.norm(a - b) ** 2)
                            for a, b in zip(back, fields)))
        den = math.sqrt(sum(float(np.linalg.norm(f) ** 2) for f in fields))
        assert num / den < tol


def test_invert_lambda_threshold_gate():
    lam = LambdaMatrix(Grid(32, 6.4, 2), SPEC2, -2.0)  # z0 = -2.25
    rng = np.random.default_rng(7)
    fields = random_channels(lam, rng)
    with pytest.raises(AboveThreshold):
        invert_lambda(lam, fields)
    # force skips the gate; with a single pair there is no outer series
    forced = LambdaMatrix(Grid(32, 6.4, 2), SPEC2, -2.0, force=True)
    solved = invert_lambda(forced, fields)
    back = forced.channel_apply(solved)
    assert np.linalg.norm(back[0] - fields[0]) / np.linalg.norm(fields[0]) < 1e-11


def test_invert_lambda_forced_divergence():
    """Above threshold with several pairs the outer series blows up."""
    spec = SystemSpec(masses=(1.0, 1.0, 1.0), g=1.0)
    lam = LambdaMatrix(Grid(16, 3.2, 3), spec, -0.5)
    rng = np.random.default_rng(8)
    fields = random_channels(lam, rng)
    with pytest.raises(AboveThreshold):
        invert_lambda(lam, fields)
    forced = LambdaMatrix(Grid(16, 3.2, 3), spec, -0.5, force=True)
    with pytest.raises(SeriesDiverging):
        invert_lambda(forced, fields)


def test_lambda_threshold_and_ratio_bookkeeping():
    spec = SystemSpec(masses=(1.0, 1.0, 1.0), g=1.0)
    lam = LambdaMatrix(Grid(16, 3.2, 3), spec, -20.0)
    consts = bound_constants(spec)
    assert lam.threshold == consts.threshold
    assert 0.0 < lam.diagonal_contraction() < 1.0
    assert 0.0 < lam.neumann_ratio() < 1.0
    deeper = LambdaMatrix(Grid(16, 3.2, 3), spec, -80.0)
    assert deeper.neumann_ratio() < lam.neumann_ratio()
    theta = TraceAssembly(Grid(16, 3.2, 3), spec, -20.0)
    assert theta.threshold == lam.threshold
    assert theta.neumann_ratio() == lam.neumann_ratio()
