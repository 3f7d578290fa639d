import numpy as np
import pytest

from deltaresolvent.bump import (BumpProfile, ChainCouplingMap, DEFAULT_PROFILE,
                                 LimitCouplingMap, ShearCouplingMap,
                                 build_hamiltonian, coupling_map, dilate,
                                 dilate_adjoint, grid_samples,
                                 renormalized_samples, resolution_ok,
                                 sampled_pair_potential)
from deltaresolvent.errors import (PotentialOverflowsBox, SupportEscapesBox,
                                   UnresolvedBump)
from deltaresolvent.grid import Grid, random_band_limited
from deltaresolvent.system import SystemSpec, enumerate_pairs

# quadrature values for the default profile, frozen ahead of time
SQUARED_MASS = 1.0
SECOND_MOMENT = 0.11492724584548189
POTENTIAL_AT_ZERO = 1.0169000522168499
VALUE_AT_HALF = 0.72256065153955595


def test_profile_is_normalized():
    assert DEFAULT_PROFILE.potential_moment(0) == pytest.approx(
        SQUARED_MASS, abs=1e-12)
    recomputed = BumpProfile.calibrated()
    assert recomputed.normalization == pytest.approx(
        DEFAULT_PROFILE.normalization, rel=1e-12)


def test_profile_pointwise_values():
    assert DEFAULT_PROFILE.potential(0.0) == pytest.approx(POTENTIAL_AT_ZERO)
    assert DEFAULT_PROFILE.value(0.5) == pytest.approx(VALUE_AT_HALF)
    assert DEFAULT_PROFILE.value(np.array([-0.25, 0.25])).tolist() == \
        pytest.approx([DEFAULT_PROFILE.value(0.25)] * 2)  # even


def test_profile_vanishes_outside_support():
    x = np.array([-2.0, -1.0, 1.0, 1.5])
    assert np.all(DEFAULT_PROFILE.value(x) == 0.0)
    # smooth cutoff: tiny just inside the endpoint
    assert 0.0 < DEFAULT_PROFILE.value(0.999) < 1e-100


def test_second_moment():
    assert DEFAULT_PROFILE.potential_moment(2) == pytest.approx(
        SECOND_MOMENT, rel=1e-10)
    assert DEFAULT_PROFILE.potential_moment(1) == pytest.approx(0.0, abs=1e-13)


def test_scaled_potential_keeps_unit_mass():
    """V_eps = V(./eps)/eps integrates to one for every width."""
    grid = Grid(1024, 8.0)
    for eps in (1.0, 0.5, 0.25):
        v = DEFAULT_PROFILE.scaled_potential(grid.x, eps)
        assert grid.h * np.sum(v) == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        DEFAULT_PROFILE.scaled_potential(grid.x, 0.0)


def test_renormalized_samples_close_grid_quadrature():
    grid = Grid(64, 4.0)
    v = renormalized_samples(grid)
    assert grid.h * np.sum(v ** 2) == pytest.approx(1.0, rel=1e-14)
    raw = grid_samples(grid)
    assert np.max(np.abs(v - raw)) < 1e-3 * np.max(raw)


def test_dilation_is_isometric_on_localized_fields():
    """The squeeze preserves the norm of fields living inside the window."""
    grid = Grid(128, 12.8, 2)
    r = grid.x[:, None]
    s = grid.x[None, :]
    f = np.exp(-r ** 2 - 0.5 * s ** 2) + 0.0j
    eps = 0.5
    df = dilate(grid, f, eps)
    assert grid.norm(df) == pytest.approx(grid.norm(f), rel=1e-6)


def test_dilation_adjoint_is_exact():
    grid = Grid(128, 12.8, 2)
    rng = np.random.default_rng(0)
    f = random_band_limited(grid, rng)
    g = random_band_limited(grid, rng)
    eps = 0.5
    lhs = np.vdot(dilate(grid, f, eps), g)
    rhs = np.vdot(f, dilate_adjoint(grid, g, eps))
    assert lhs == pytest.approx(rhs, rel=1e-12)
    with pytest.raises(SupportEscapesBox):
        dilate(grid, f, 1.5)


def test_sampled_potential_overflow_guard():
    grid = Grid(16, 3.2, 2)
    with pytest.raises(PotentialOverflowsBox):
        sampled_pair_potential(grid, 2.0)
    v2 = sampled_pair_potential(grid, 1.0)
    assert v2.shape == (16, 16)
    assert np.max(v2) == pytest.approx(POTENTIAL_AT_ZERO)


def test_resolution_gate():
    grid = Grid(32, 6.4, 2)  # h = 0.2
    assert resolution_ok(grid, 0.8)
    assert not resolution_ok(grid, 0.4)
    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    with pytest.raises(UnresolvedBump):
        build_hamiltonian(grid, spec, 0.4)


def test_hamiltonian_is_hermitian_and_dense_matrix_matches_apply():
    spec = SystemSpec(masses=(1.0, 2.0), g=1.3)
    grid = Grid(16, 3.2, 2)
    ham = build_hamiltonian(grid, spec, 1.0)
    mat = ham.matrix()
    assert np.max(np.abs(mat - mat.conj().T)) < 1e-12
    rng = np.random.default_rng(1)
    f = rng.standard_normal(grid.shape)
    assert np.allclose(ham.apply(f).ravel(), mat @ f.ravel(), atol=1e-10)


def test_dense_matrix_matches_apply_three_particles():
    """The Kronecker-sum assembly handles three axes with unequal masses."""
    spec = SystemSpec(masses=(1.0, 2.0, 3.0), g=1.0)
    grid = Grid(16, 3.2, 3)
    ham = build_hamiltonian(grid, spec, 0.8)
    rng = np.random.default_rng(2)
    f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    assert np.max(np.abs(ham.matrix() @ f.ravel() - ham.apply(f).ravel())) < 1e-10


def test_hamiltonian_potential_term_signs():
    """Attractive coupling lowers the Rayleigh quotient of a peaked state."""
    spec_att = SystemSpec(masses=(1.0, 1.0), g=1.0)
    spec_rep = SystemSpec(masses=(1.0, 1.0), g=-1.0)
    grid = Grid(32, 6.4, 2)
    xi = grid.x[:, None]
    xj = grid.x[None, :]
    f = np.exp(-xi ** 2 - xj ** 2)
    f = f / grid.norm(f)
    e_att = grid.inner(f, build_hamiltonian(grid, spec_att, 0.8).apply(f)).real
    e_rep = grid.inner(f, build_hamiltonian(grid, spec_rep, 0.8).apply(f)).real
    assert e_att < e_rep


@pytest.mark.parametrize("masses", [(1.0, 1.0), (0.5, 1.5)])
def test_coupling_map_adjoints(masses):
    spec = SystemSpec(masses=masses, g=1.0)
    pair = enumerate_pairs(spec)[0]
    grid = Grid(64, 12.8, 2)
    rng = np.random.default_rng(2)
    for cmap in (ChainCouplingMap(grid, spec, pair, 0.8),
                 ShearCouplingMap(grid, spec, pair, 0.8),
                 LimitCouplingMap(grid, spec, pair)):
        f = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        chi = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        lhs = np.vdot(chi, cmap.forward(f))
        rhs = np.vdot(cmap.adjoint(chi), f)
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_shear_square_reproduces_sampled_potential():
    """A* A equals multiplication by V_eps when the bump is resolved."""
    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    pair = enumerate_pairs(spec)[0]
    grid = Grid(32, 6.4, 2)
    eps = 0.8
    cmap = ShearCouplingMap(grid, spec, pair, eps)
    rng = np.random.default_rng(3)
    f = rng.standard_normal(grid.shape)
    via_map = cmap.adjoint(cmap.forward(f))
    v2 = sampled_pair_potential(grid, eps)
    sep = np.abs(grid.x[:, None] - grid.x[None, :])
    direct = v2 * f
    assert np.max(np.abs(via_map - direct)) < 1e-10 * np.max(np.abs(direct))


def test_chain_form_narrows_onto_trace_pairing():
    """The narrow-width factorization concentrates on the hyperplane.

    <f, A_eps* A_eps f> approaches the squared hyperplane trace as the
    width shrinks; the channel parametrization differs from the shear
    route, so this weak statement (not pointwise agreement) is the
    contract.
    """
    from deltaresolvent.forms import apply_trace

    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    pair = enumerate_pairs(spec)[0]
    grid = Grid(64, 12.8, 2)
    rng = np.random.default_rng(4)
    f = random_band_limited(grid, rng)
    t = apply_trace(grid, spec, pair, f)
    target = grid.h * float(np.sum(np.abs(t) ** 2))
    gaps = []
    for eps in (0.4, 0.2, 0.1, 0.05):
        cmap = ChainCouplingMap(grid, spec, pair, eps)
        chi = cmap.forward(f)
        q = grid.weight * float(np.vdot(f, cmap.adjoint(chi)).real)
        # the form factorizes, hence equals the channel norm exactly
        assert q == pytest.approx(
            grid.weight * float(np.sum(np.abs(chi) ** 2)), rel=1e-12)
        gaps.append(abs(q - target) / target)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-3
    assert gaps[-2] / gaps[-1] > 3.0  # roughly quadratic in the width


def test_dispatcher_selects_route():
    spec = SystemSpec(masses=(1.0, 1.0), g=1.0)
    pair = enumerate_pairs(spec)[0]
    grid = Grid(64, 12.8, 2)
    assert isinstance(coupling_map(grid, spec, pair, None), LimitCouplingMap)
    assert isinstance(coupling_map(grid, spec, pair, 0.8), ShearCouplingMap)
    assert isinstance(coupling_map(grid, spec, pair, 0.1), ChainCouplingMap)
    assert isinstance(
        coupling_map(grid, spec, pair, 0.8, force_chain=True), ChainCouplingMap)
